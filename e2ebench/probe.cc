#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace e2e {

ProcSample ProcSample::Now() {
  ProcSample s;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    auto value = [&line] { return std::stod(line.substr(line.find(':') + 1)); };
    if (line.rfind("VmRSS:", 0) == 0) s.rss_mb = value() / 1024.0;
    if (line.rfind("VmHWM:", 0) == 0) s.hwm_mb = value() / 1024.0;
    if (line.rfind("Threads:", 0) == 0) s.threads = static_cast<uint64_t>(value());
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    s.user_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6;
    s.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
  }
  return s;
}

CpuTicks CpuTicks::Now() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 10 && stat; ++field) {
    uint64_t v = 0;
    stat >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double CpuTicks::StealShareSince(const CpuTicks& before) const {
  const uint64_t total_delta = total - before.total;
  return total_delta == 0 ? 0.0
                          : static_cast<double>(steal - before.steal) / total_delta;
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return v[rank];
}

double Median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::vector<SpanSelf> SelfTimes(const std::vector<qbs::TraceEvent>& events) {
  // Children's [start, end) intervals per parent span.
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const qbs::TraceEvent& e : events) {
    if (e.parent_span_id != 0) {
      children[e.parent_span_id].push_back(
          {e.start_us, e.start_us + e.duration_us});
    }
  }
  std::vector<SpanSelf> out;
  out.reserve(events.size());
  for (const qbs::TraceEvent& e : events) {
    const uint64_t begin = e.start_us;
    const uint64_t end = e.start_us + e.duration_us;
    uint64_t covered = 0;
    auto it = children.find(e.span_id);
    if (e.span_id != 0 && it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t cur_begin = 0;
      uint64_t cur_end = 0;
      bool open = false;
      for (auto [b, en] : iv) {
        b = std::max(b, begin);
        en = std::min(en, end);
        if (b >= en) continue;
        if (open && b <= cur_end) {
          cur_end = std::max(cur_end, en);
        } else {
          if (open) covered += cur_end - cur_begin;
          cur_begin = b;
          cur_end = en;
          open = true;
        }
      }
      if (open) covered += cur_end - cur_begin;
    }
    SpanSelf s;
    s.name = e.name.substr(0, e.name.find_first_of("/#"));
    s.duration_us = static_cast<double>(e.duration_us);
    s.self_us = static_cast<double>(e.duration_us - std::min(covered, e.duration_us));
    out.push_back(std::move(s));
  }
  return out;
}

void LayerTable::Add(const std::string& phase,
                     const std::vector<SpanSelf>& spans) {
  for (const SpanSelf& s : spans) {
    Layer& layer = layers_[s.name.substr(0, s.name.find('.'))];
    ++layer.spans;
    layer.self_us += s.self_us;
    durations_[phase + " " + s.name].push_back(s.duration_us);
    selfs_[phase + " " + s.name].push_back(s.self_us);
  }
}

double LayerTable::MedianDurationUs(const std::string& phase,
                                    const std::string& name) {
  auto it = durations_.find(phase + " " + name);
  return it == durations_.end() ? 0.0 : Median(it->second);
}

double LayerTable::MedianSelfUs(const std::string& phase,
                                const std::string& name) {
  auto it = selfs_.find(phase + " " + name);
  return it == selfs_.end() ? 0.0 : Median(it->second);
}

std::string LayerTable::Render() const {
  double total = 0;
  for (const auto& [name, layer] : layers_) total += layer.self_us;
  std::ostringstream out;
  out << "| layer | spans | self ms | share |\n|---|---:|---:|---:|\n";
  for (const auto& [name, layer] : layers_) {
    char row[160];
    std::snprintf(row, sizeof(row), "| %s | %llu | %.3f | %.1f%% |\n",
                  name.c_str(), static_cast<unsigned long long>(layer.spans),
                  layer.self_us / 1000.0,
                  total > 0 ? 100.0 * layer.self_us / total : 0.0);
    out << row;
  }
  return out.str();
}

}  // namespace e2e
