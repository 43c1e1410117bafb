// Measurement helpers of the end-to-end benchmark: the per-phase process
// probe (resident memory, threads, CPU time) and the trace analysis that
// turns recorded spans into per-layer self times.
#ifndef QBS_E2EBENCH_PROBE_H_
#define QBS_E2EBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace e2e {

/// One reading of the process, taken at a phase boundary: VmRSS, VmHWM
/// and Threads from /proc/self/status, user and system CPU time from
/// getrusage.
struct ProcSample {
  double rss_mb = 0;
  double hwm_mb = 0;
  uint64_t threads = 0;
  double user_s = 0;
  double sys_s = 0;

  static ProcSample Now();
  double cpu_s() const { return user_s + sys_s; }
};

/// System-wide CPU time from /proc/stat: all of it, and the part the
/// hypervisor gave to other guests (steal) while this one was runnable.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;

  static CpuTicks Now();
  /// Share of the CPU time since `before` that was stolen.
  double StealShareSince(const CpuTicks& before) const;
};

/// Median of `v` (0 for an empty vector). Reorders `v`.
double Median(std::vector<double>& v);

/// The value below which a share `q` (0..1) of `v` lies, by nearest rank
/// (0 for an empty vector). Reorders `v`.
double Quantile(std::vector<double>& v, double q);

/// Self time of every recorded span: its duration minus the part of it
/// that its child spans (any thread, linked by parent span id) cover.
struct SpanSelf {
  std::string name;  // without the "/detail" suffix
  double duration_us = 0;
  double self_us = 0;
};
std::vector<SpanSelf> SelfTimes(const std::vector<qbs::TraceEvent>& events);

/// Per-layer totals over many phases' spans. The layer of a span is its
/// name up to the first '.', so "broker.select" counts to "broker".
class LayerTable {
 public:
  void Add(const std::string& phase, const std::vector<SpanSelf>& spans);
  /// Median duration of the spans named exactly `name` ("broker.select")
  /// recorded in `phase`, in microseconds; 0 when none were recorded.
  double MedianDurationUs(const std::string& phase, const std::string& name);
  /// Median self time of those spans.
  double MedianSelfUs(const std::string& phase, const std::string& name);
  /// Markdown table: layer, spans, self time and its share.
  std::string Render() const;

 private:
  struct Layer {
    uint64_t spans = 0;
    double self_us = 0;
  };
  std::map<std::string, Layer> layers_;
  // Keyed by "<phase> <span name>".
  std::map<std::string, std::vector<double>> durations_;
  std::map<std::string, std::vector<double>> selfs_;
};

}  // namespace e2e

#endif  // QBS_E2EBENCH_PROBE_H_
