// End-to-end learn-to-serve benchmark.
//
// One process, one fixed-seed fleet, six kinds of work that never overlap:
//
//   setup    generate the corpora, start one DbServer per remote database
//   learn    SamplingService::RefreshAll over loopback
//   pack     ModelStoreWriter packs the whole fleet into one store
//   boot     MappedModelStore::Open (verified), CollectionFromStore,
//            ModelRegistry::Publish, BrokerServer, first Select answered;
//            then four shard brokers and a FederationServer
//   refresh  re-sample one database, repack, reopen, republish
//   serve    closed-loop Select through RemoteSelector, broker and
//            federation rounds in turn
//
// Setup, two unmeasured learns, pack and the serving brokers' boot come
// first. Then the measured window of --seconds: serve rounds, with a fixed
// number of measured learns, boots and refreshes spread evenly between
// them, one at a time. Every figure is a median over its repeats across
// the whole window, so a host stall of a few seconds moves a few repeats,
// not a whole figure.
//
// Usage:
//   e2e_bench --workload learn_narrow|select_wide --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Every run starts with the oracle self-test; a check that accepts a
// corrupted output makes the run report correct=false.
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end ones with --trace 0,
// per-layer ones with --trace 1). See README.md in this directory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker_server.h"
#include "broker/model_registry.h"
#include "broker/remote_selector.h"
#include "broker/selection_broker.h"
#include "corpus/synthetic.h"
#include "fed/federated_selector.h"
#include "fed/federation_server.h"
#include "fed/shard_map.h"
#include "fixture.h"
#include "mstore/mapped_model_store.h"
#include "mstore/model_store_writer.h"
#include "net/db_server.h"
#include "net/remote_db.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "probe.h"
#include "search/search_engine.h"
#include "selection/db_selection.h"
#include "service/sampling_service.h"
#include "text/analyzer.h"
#include "text/stopwords.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  size_t remote_dbs;       // learned over the wire
  size_t generated;        // models generated directly in setup
  bool zipf_pool;          // repeating query pool (else every query new)
  size_t restart_refresh;  // restart_refresh operations (the known fault)
  // Selects per broker and per federation serve round. Where the broker
  // answers from its cache ten times faster than the federation, its
  // rounds are ten times longer, so that both targets' rounds take about
  // the same time.
  size_t broker_round;
  size_t fed_round;
  // Measured repeats spread over the window.
  size_t learns;
  size_t boots;
  size_t refreshes;
};

const Workload kWorkloads[] = {
    {"learn_narrow", 96, 0, true, 2, 10000, 1000, 4, 100, 12},
    {"select_wide", 16, 1200, false, 0, 1000, 1000, 6, 30, 6},
};

constexpr size_t kBudget = 500;  // documents each remote database is sampled for

constexpr size_t kTopK = 10;
constexpr size_t kShards = 4;
constexpr size_t kSetupRepeats = 5;
// Learns before the window. The first meets freshly started DbServers;
// a DbServer serves its second and later learns markedly slower, and its
// third and later ones at a steadier rate, which the window measures.
constexpr size_t kWarmLearns = 2;
constexpr size_t kOracleQueries = 8;
constexpr size_t kWarmupSelects = 300;
// Selects per round, at least: a round's p99 (printed) has ten samples
// beyond it, its p95 fifty.
constexpr size_t kMinRoundSamples = 1000;
constexpr size_t kMinRounds = 5;  // rounds per target and run
constexpr size_t kTraceSlice = 8;  // databases per RefreshAll in a traced run
// Lowest ctf ratio a learned model may show: the paper's Fig. 1b has
// every corpus above 0.8 within about 250 documents, and the budget here
// is 500.
constexpr double kCtfRatioFloor = 0.8;

// ---------------------------------------------------------------------------
// Run bookkeeping

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Phase {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
};

class Run {
 public:
  explicit Run(bool trace) : trace_(trace) {}

  Phase& Begin(const std::string& name) {
    phases_.push_back({name, 0, 0, 0});
    phase_start_ = Clock::now();
    return phases_.back();
  }
  /// Closes the current phase; in a traced run also drains the span ring.
  void End(const std::string& out_dir, const std::string& workload) {
    phases_.back().wall_s = Since(phase_start_);
    samples_[phases_.back().name] = ProcSample::Now();
    if (trace_) DrainTrace(out_dir, workload);
  }

  /// Dumps the buffered spans (the first dump under each label becomes
  /// its Chrome trace file), feeds them to the layer table under `label`
  /// (default: the current phase), and clears the ring.
  void DrainTrace(const std::string& out_dir, const std::string& workload,
                  const std::string& label = "") {
    qbs::TraceRecorder& recorder = qbs::TraceRecorder::Global();
    std::vector<qbs::TraceEvent> events = recorder.Events();
    const std::string phase = label.empty() ? phases_.back().name : label;
    if (dumped_.insert(phase).second) {
      std::ofstream out(out_dir + "/trace_" + workload + "_" + phase + ".json");
      recorder.DumpChromeTrace(out, "e2e_bench " + workload + " " + phase);
    }
    spans_ += events.size();
    layers_.Add(phase, SelfTimes(events));
    recorder.Clear();
  }

  void Error(const std::string& what) {
    std::cerr << "CHECK FAILED: " << what << "\n";
    errors_.push_back(what);
  }
  void Check(const std::string& what, const std::string& error) {
    if (!error.empty()) Error(what + ": " + error);
  }

  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }

  const ProcSample& sample(const std::string& phase) { return samples_[phase]; }
  LayerTable& layers() { return layers_; }
  uint64_t spans() const { return spans_; }
  bool trace() const { return trace_; }

  /// Prints the phase table, every metric, and the closing JSON line.
  void Print() const {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::cout << "\n| phase | attempted | failed | wall s |\n|---|---:|---:|---:|\n";
    for (const Phase& p : phases_) {
      char row[160];
      std::snprintf(row, sizeof(row), "| %s | %llu | %llu | %.3f |\n",
                    p.name.c_str(), static_cast<unsigned long long>(p.attempted),
                    static_cast<unsigned long long>(p.failed), p.wall_s);
      std::cout << row;
      attempted += p.attempted;
      failed += p.failed;
    }
    auto print = [](const std::vector<Metric>& metrics) {
      for (const Metric& m : metrics) {
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
      }
    };
    std::cout << "\nend-to-end metrics:\n";
    print(e2e_);
    if (trace_) {
      std::cout << "\nper-layer metrics:\n";
      print(layer_);
      std::cout << "\nper-layer self time (traced run):\n" << layers_.Render();
    }
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (errors_.empty() ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    const std::vector<Metric>& out = trace_ ? layer_ : e2e_;
    for (size_t i = 0; i < out.size(); ++i) {
      json << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
           << out[i].value << ", \"unit\": \"" << out[i].unit << "\"}";
    }
    json << "}}";
    std::cout << "\n" << json.str() << std::endl;
  }

 private:
  bool trace_;
  std::vector<Phase> phases_;
  Clock::time_point phase_start_;
  std::map<std::string, ProcSample> samples_;
  std::vector<std::string> errors_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::set<std::string> dumped_;
  LayerTable layers_;
  uint64_t spans_ = 0;
};

size_t Cores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, size_t threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::min(threads, n); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

uint64_t CounterValue(const std::string& name) {
  return qbs::MetricRegistry::Default().GetCounter(name)->value();
}

[[noreturn]] void Fatal(const std::string& what) {
  std::cerr << "e2e_bench: " << what << "\n";
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Fleet

struct RemoteDb {
  RemoteSpec spec;
  std::unique_ptr<qbs::SearchEngine> engine;
  std::unique_ptr<qbs::DbServer> server;
};

struct Fleet {
  std::vector<RemoteDb> remotes;
  /// Generated models as shared views, so every repack shares them.
  std::vector<std::pair<std::string, std::shared_ptr<const qbs::LanguageModelView>>>
      generated;
};

std::unique_ptr<qbs::DbServer> StartDbServer(qbs::SearchEngine* engine) {
  qbs::DbServerOptions options;
  options.num_workers = 1;
  auto server = std::make_unique<qbs::DbServer>(engine, options);
  qbs::Status started = server->Start();
  if (!started.ok()) Fatal("DbServer start: " + started.ToString());
  return server;
}

/// Generates every corpus and model and starts one single-worker
/// DbServer per remote database.
std::unique_ptr<Fleet> SetUpFleet(const Workload& w) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<RemoteSpec> specs = RemoteSpecs(w.remote_dbs);
  fleet->remotes.resize(specs.size());
  ParallelFor(specs.size(), Cores(), [&](size_t i) {
    RemoteDb& db = fleet->remotes[i];
    db.spec = specs[i];
    auto engine = qbs::BuildSyntheticEngine(db.spec.corpus);
    if (!engine.ok()) Fatal("corpus generation: " + engine.status().ToString());
    db.engine = std::move(*engine);
  });
  for (RemoteDb& db : fleet->remotes) db.server = StartDbServer(db.engine.get());
  for (GeneratedModel& g : GenerateModels(w.generated)) {
    fleet->generated.emplace_back(
        g.name, std::make_shared<const qbs::LanguageModel>(std::move(g.model)));
  }
  return fleet;
}

/// The selection collection of the whole fleet: the service's learned
/// models (stemmed, stopped) followed by the generated ones.
qbs::DatabaseCollection SourceFleet(const qbs::SamplingService& service,
                                    const Fleet& fleet) {
  qbs::DatabaseCollection collection = service.Collection();
  for (const auto& [name, model] : fleet.generated) collection.Add(name, model);
  return collection;
}

qbs::Status Pack(const qbs::DatabaseCollection& source, const std::string& path) {
  qbs::ModelStoreWriter writer;
  for (size_t i = 0; i < source.size(); ++i) {
    QBS_RETURN_IF_ERROR(writer.Add(source.name(i), source.model(i)));
  }
  return writer.WriteToFile(path);
}

// ---------------------------------------------------------------------------
// Brokers

/// One broker serving a store: registry, broker and server, torn down in
/// reverse order (server first).
struct BrokerNode {
  std::shared_ptr<const qbs::MappedModelStore> store;
  qbs::ModelRegistry registry;
  std::unique_ptr<qbs::SelectionBroker> broker;
  std::unique_ptr<qbs::BrokerServer> server;
  std::unique_ptr<qbs::RemoteSelector> client;  // set by a boot
  uint64_t epoch = 0;                           // answered at boot
  double boot_ms = 0;                           // open to first answer
};

std::unique_ptr<BrokerNode> StartBroker(qbs::DatabaseCollection collection,
                                        double* publish_ms) {
  auto node = std::make_unique<BrokerNode>();
  Clock::time_point t0 = Clock::now();
  node->registry.Publish(std::move(collection));
  if (publish_ms != nullptr) *publish_ms = Since(t0) * 1e3;
  node->broker = std::make_unique<qbs::SelectionBroker>(&node->registry);
  qbs::BrokerServerOptions options;
  options.num_workers = Cores();
  node->server = std::make_unique<qbs::BrokerServer>(node->broker.get(), options);
  qbs::Status started = node->server->Start();
  if (!started.ok()) Fatal("BrokerServer start: " + started.ToString());
  return node;
}

std::unique_ptr<qbs::RemoteSelector> Client(uint16_t port) {
  qbs::WireClientOptions options;
  options.port = port;
  options.max_idle_connections = Cores();
  auto client = std::make_unique<qbs::RemoteSelector>(options);
  qbs::Status connected = client->Connect();
  if (!connected.ok()) Fatal("RemoteSelector connect: " + connected.ToString());
  return client;
}

/// Four shard brokers over one store, placed by a ShardMap over stable
/// shard names (not ports, which change every run), and the federation
/// front-end over them.
struct Federation {
  std::vector<std::unique_ptr<BrokerNode>> shards;
  std::unique_ptr<qbs::FederatedSelector> selector;
  std::unique_ptr<qbs::FederationServer> server;  // destroyed (stopped) first

  static std::vector<qbs::DatabaseCollection> Partition(
      const qbs::DatabaseCollection& all) {
    std::vector<std::string> names;
    for (size_t s = 0; s < kShards; ++s) names.push_back("shard-" + std::to_string(s));
    qbs::ShardMap map(names);
    std::vector<qbs::DatabaseCollection> parts(kShards);
    for (size_t i = 0; i < all.size(); ++i) {
      parts[map.OwnerIndexOf(all.name(i))].Add(all.name(i), all.model_ptr(i));
    }
    return parts;
  }

  void Republish(const qbs::DatabaseCollection& all) {
    std::vector<qbs::DatabaseCollection> parts = Partition(all);
    for (size_t s = 0; s < kShards; ++s) shards[s]->registry.Publish(std::move(parts[s]));
  }
};

std::unique_ptr<Federation> StartFederation(const qbs::DatabaseCollection& all) {
  auto fed = std::make_unique<Federation>();
  qbs::FederatedSelectorOptions options;
  for (qbs::DatabaseCollection& part : Federation::Partition(all)) {
    fed->shards.push_back(StartBroker(std::move(part), nullptr));
    options.shards.push_back("127.0.0.1:" +
                             std::to_string(fed->shards.back()->server->port()));
  }
  options.fanout_threads = Cores();
  fed->selector = std::make_unique<qbs::FederatedSelector>(options);
  qbs::FederationServerOptions server_options;
  server_options.num_workers = Cores();
  fed->server = std::make_unique<qbs::FederationServer>(fed->selector.get(),
                                                        server_options);
  qbs::Status started = fed->server->Start();
  if (!started.ok()) Fatal("FederationServer start: " + started.ToString());
  return fed;
}

// ---------------------------------------------------------------------------
// Serving

/// The selects sent to one target (the broker or the federation),
/// round by round. Each figure is the median over the rounds of that
/// round's figure: a round that met a host stall counts as one round,
/// and a slowdown in most rounds moves the figure.
struct ServeStats {
  struct Round {
    double wall_s = 0;
    uint64_t selects = 0;
    uint64_t failed = 0;
    std::vector<double> latency_us;  // of the answered selects
  };
  std::vector<Round> rounds;
  uint64_t selects = 0;
  uint64_t failed = 0;

  void Add(Round round) {
    selects += round.selects;
    failed += round.failed;
    rounds.push_back(std::move(round));
  }
  /// Median over the rounds of f(round).
  template <typename F>
  double OverRounds(F f) const {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(f(r));
    return Median(v);
  }
  double Rate() const {
    return OverRounds([](const Round& r) { return r.selects / r.wall_s; });
  }
  double LatencyQuantile(double q) const {
    return OverRounds([q](const Round& r) {
      std::vector<double> lat = r.latency_us;
      return Quantile(lat, q);
    });
  }
  std::vector<double> AllLatencies() const {
    std::vector<double> out;
    for (const Round& r : rounds) out.insert(out.end(), r.latency_us.begin(), r.latency_us.end());
    return out;
  }
};

/// One closed-loop round: `callers` threads each send `per_caller`
/// selects through `client`, waiting for every answer before the next.
ServeStats::Round ServeRound(qbs::RemoteSelector& client, std::vector<QueryStream>& streams,
                             size_t per_caller, size_t expect_size) {
  std::vector<std::vector<double>> lat(streams.size());
  std::atomic<uint64_t> failed{0};
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> callers;
  for (size_t c = 0; c < streams.size(); ++c) {
    callers.emplace_back([&, c] {
      lat[c].reserve(per_caller);
      for (size_t i = 0; i < per_caller; ++i) {
        std::string query = streams[c].Next();
        Clock::time_point s = Clock::now();
        qbs::Result<qbs::SelectionResult> r = [&] {
          QBS_TRACE_SPAN("bench.select");
          return client.Select(query, "cori", kTopK);
        }();
        double us = std::chrono::duration<double, std::micro>(Clock::now() - s).count();
        if (!r.ok() || r->scores.size() != expect_size) {
          failed.fetch_add(1);
          continue;
        }
        lat[c].push_back(us);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  ServeStats::Round round;
  round.wall_s = Since(t0);
  round.selects = per_caller * streams.size();
  round.failed = failed.load();
  for (auto& v : lat) round.latency_us.insert(round.latency_us.end(), v.begin(), v.end());
  return round;
}

// ---------------------------------------------------------------------------
// The benchmark

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".";
};

/// The sampling service of every learn: the paper's baseline of 4
/// documents per query and random-from-learned query terms, seeded from
/// the generator's vocabulary.
qbs::ServiceOptions LearnOptions() {
  qbs::ServiceOptions options;
  options.sampler.docs_per_query = 4;
  options.sampler.strategy = qbs::SelectionStrategy::kRandomLearned;
  options.sampler.stopping.max_documents = kBudget;
  options.seed_terms = SeedTerms();
  options.num_threads = Cores();
  options.base_seed = kFleetSeed;
  return options;
}

class Bench {
 public:
  Bench(const Workload& w, const Args& args)
      : w_(w), args_(args), run_(args.trace),
        store_path_(args.out_dir + "/fleet_" + w.name + ".qms"),
        refresh_k_(args.seed % w.remote_dbs) {}

  int Main();

 private:
  void SetUp();
  double LearnOnce();
  void Learn();
  void PackPhase();
  std::unique_ptr<BrokerNode> BootOnce(Phase& phase);
  void Boot();
  void Oracles();
  void WarmCache();
  void Measure();
  void ServeRoundOf(bool federated, std::vector<QueryStream>& streams, size_t per_caller);
  double RefreshOnce(size_t k);
  double NextRefresh(const std::string& trace_label);
  void RestartRefresh();
  void LayerProbes();
  void Report();

  std::vector<QueryStream> Streams(uint64_t stream) const {
    std::vector<QueryStream> streams;
    for (size_t c = 0; c < callers_; ++c) {
      streams.emplace_back(w_.zipf_pool ? &pool_ : nullptr,
                           args_.seed * 1000003 + stream * 101 + c);
    }
    return streams;
  }
  size_t fleet_size() const { return w_.remote_dbs + w_.generated; }

  const Workload& w_;
  Args args_;
  Run run_;
  std::string store_path_;
  size_t callers_ = std::max<size_t>(1, Cores() / 2);
  std::vector<std::string> pool_;

  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<qbs::SamplingService> service_;
  std::vector<qbs::RemoteTextDatabase*> remotes_;
  qbs::DatabaseCollection source_;
  std::unique_ptr<BrokerNode> broker_;  // the serving broker
  std::unique_ptr<Federation> fed_;
  std::unique_ptr<qbs::RemoteSelector> fed_client_;
  uint64_t epoch_ = 0;
  size_t refresh_k_ = 0;            // the remote database refreshed next

  // Measurements.
  std::vector<double> setup_s_, boot_ms_, refresh_ms_, publish_ms_, pack_ms_,
      open_ms_, refresh_one_ms_, collection_ms_;
  double learn_s_ = 0;
  std::vector<double> warm_learn_rates_;  // before the window
  std::vector<double> learn_rates_;       // measured, in the window
  uint64_t learned_docs_ = 0, learn_rpcs_ = 0, learn_queries_ = 0;
  double learn_cpu_s_ = 0;
  uint64_t store_bytes_ = 0;
  double serving_boot_ms_ = 0;
  ServeStats direct_, federated_;
  uint64_t direct_rpcs_ = 0, wakeups_ = 0, fanout_rpcs_ = 0, fed_restarts_ = 0;
  uint64_t cache_hits_ = 0, cache_misses_ = 0, threads_ = 0;
  double serve_cpu_s_ = 0, steal_share_ = 0;
};

void Bench::SetUp() {
  Phase& phase = run_.Begin("setup");
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    fleet_.reset();  // the previous repeat's servers stop first
    Clock::time_point t0 = Clock::now();
    QBS_TRACE_SPAN("bench.setup");
    fleet_ = SetUpFleet(w_);
    setup_s_.push_back(Since(t0));
    phase.attempted += fleet_->remotes.size() + fleet_->generated.size();
  }
  pool_ = QueryPool(kFleetSeed);
  run_.End(args_.out_dir, w_.name);
}

/// Learns the whole fleet with a fresh service over fresh connections and
/// returns the documents learned per wall second of RefreshAll. Every
/// learn learns the same models (the sampler seeds do not change) from the
/// same running DbServers, as a service that refreshes its fleet again and
/// again does; the service stays to serve the later phases.
double Bench::LearnOnce() {
  remotes_.clear();
  service_.reset();
  service_ = std::make_unique<qbs::SamplingService>(LearnOptions());
  // Connect before AddDatabase, so each database registers under its
  // served name rather than a name built from its ephemeral port.
  std::vector<std::unique_ptr<qbs::RemoteTextDatabase>> clients;
  for (size_t i = 0; i < fleet_->remotes.size(); ++i) {
    qbs::RemoteDatabaseOptions remote;
    remote.port = fleet_->remotes[i].server->port();
    remote.jitter_seed = i + 1;
    clients.push_back(std::make_unique<qbs::RemoteTextDatabase>(remote));
    qbs::Status connected = clients.back()->Connect();
    if (!connected.ok()) Fatal("connect: " + connected.ToString());
    remotes_.push_back(clients.back().get());
  }
  uint64_t rpcs = 0;
  for (qbs::RemoteTextDatabase* db : remotes_) rpcs -= db->rpcs();

  // One RefreshAll over the whole fleet. A traced run learns in slices
  // of kTraceSlice databases instead, draining the span ring after each,
  // because one RefreshAll over the narrow fleet records several times
  // the ring's 65 536 spans.
  const size_t slice = run_.trace() ? kTraceSlice : clients.size();
  double wall_s = 0;
  learn_cpu_s_ = 0;
  for (size_t start = 0; start < clients.size(); start += slice) {
    for (size_t i = start; i < std::min(clients.size(), start + slice); ++i) {
      qbs::Status added = service_->AddDatabase(std::move(clients[i]));
      if (!added.ok()) Fatal("AddDatabase: " + added.ToString());
    }
    const double cpu0 = ProcSample::Now().cpu_s();
    Clock::time_point t0 = Clock::now();
    qbs::Status learned = [&] {
      QBS_TRACE_SPAN("bench.learn");
      return service_->RefreshAll();
    }();
    wall_s += Since(t0);
    learn_cpu_s_ += ProcSample::Now().cpu_s() - cpu0;
    if (!learned.ok()) run_.Error("RefreshAll: " + learned.ToString());
    if (run_.trace()) run_.DrainTrace(args_.out_dir, w_.name, "learn");
  }
  for (qbs::RemoteTextDatabase* db : remotes_) rpcs += db->rpcs();
  learned_docs_ = 0;
  for (const qbs::DatabaseState& s : service_->state()) {
    learned_docs_ += s.documents_examined;
    if (s.documents_examined != kBudget) {
      run_.Error("database '" + s.name + "' examined " + std::to_string(s.documents_examined) +
                 " documents, budget " + std::to_string(kBudget));
    }
  }
  learn_s_ = wall_s;
  learn_rpcs_ = rpcs;
  return learned_docs_ / wall_s;
}

void Bench::Learn() {
  // The learns before the window, unmeasured: see kWarmLearns.
  Phase& phase = run_.Begin("learn");
  for (size_t r = 0; r < kWarmLearns; ++r) warm_learn_rates_.push_back(LearnOnce());
  phase.attempted += kWarmLearns * remotes_.size();
  learned_docs_ = 0;

  // Checks: the budget (LearnOnce checks it on every learn), the learned
  // terms against the database's actual model, the ctf ratio floor, and
  // the RPC bound of batched retrieval.
  const qbs::StopwordList& stop = qbs::StopwordList::DefaultStemmed();
  for (size_t i = 0; i < service_->state().size(); ++i) {
    const qbs::DatabaseState& s = service_->state()[i];
    learned_docs_ += s.documents_examined;
    learn_queries_ += s.queries_run;
    const std::string who = "database '" + s.name + "'";
    bool ok = s.has_model && s.documents_examined == kBudget;
    if (!s.has_model) run_.Error(who + " has no learned model");
    qbs::LanguageModel actual = fleet_->remotes[i].engine->ActualLanguageModel();
    qbs::LanguageModel learned_model = s.learned_stemmed.WithoutStopwords(stop);
    std::string within = CheckWithinActual(learned_model, actual);
    run_.Check(who, within);
    double ratio = CtfRatio(learned_model, actual);
    if (ratio < kCtfRatioFloor) {
      run_.Error(who + " ctf ratio " + std::to_string(ratio) + " below " +
                 std::to_string(kCtfRatioFloor));
      ok = false;
    }
    if (!ok || !within.empty()) ++phase.failed;
  }
  const double queries_per_doc = static_cast<double>(learn_queries_) / learned_docs_;
  if (static_cast<double>(learn_rpcs_) / learned_docs_ > 2.0 * queries_per_doc) {
    run_.Error("learning used " + std::to_string(learn_rpcs_) + " RPCs for " +
               std::to_string(learned_docs_) + " documents, above 2 per query");
  }
  run_.End(args_.out_dir, w_.name);
}

void Bench::PackPhase() {
  Phase& phase = run_.Begin("pack");
  source_ = SourceFleet(*service_, *fleet_);
  Clock::time_point t0 = Clock::now();
  qbs::Status packed = [&] {
    QBS_TRACE_SPAN("bench.pack");
    return Pack(source_, store_path_);
  }();
  pack_ms_.push_back(Since(t0) * 1e3);
  phase.attempted = 1;
  if (!packed.ok()) Fatal("pack: " + packed.ToString());
  store_bytes_ = std::filesystem::file_size(store_path_);

  // Every packed model reads back from the verified store unchanged.
  auto store = qbs::MappedModelStore::Open(store_path_);
  if (!store.ok()) Fatal("open: " + store.status().ToString());
  if ((*store)->num_models() != source_.size()) {
    run_.Error("store holds " + std::to_string((*store)->num_models()) +
               " models, fleet " + std::to_string(source_.size()));
  }
  for (size_t i = 0; i < source_.size(); ++i) {
    auto index = (*store)->IndexOf(source_.name(i));
    std::string error = index.ok() ? CheckSameModel(source_.model(i), (*store)->model(*index))
                                   : "missing from the store";
    run_.Check("stored model '" + source_.name(i) + "'", error);
    if (!error.empty()) phase.failed = 1;
  }
  run_.End(args_.out_dir, w_.name);
}

/// One cold boot from the packed store: open (verified), collection,
/// publish, server, and the first Select answered over the wire.
std::unique_ptr<BrokerNode> Bench::BootOnce(Phase& phase) {
  const std::string first_query = QueryPool(args_.seed ^ 0xB007)[0];
  Clock::time_point t0 = Clock::now();
  QBS_TRACE_SPAN("bench.boot");
  Clock::time_point o0 = Clock::now();
  auto store = [&] {
    QBS_TRACE_SPAN("bench.open");
    return qbs::MappedModelStore::Open(store_path_);
  }();
  if (!store.ok()) Fatal("open: " + store.status().ToString());
  open_ms_.push_back(Since(o0) * 1e3);
  double publish_ms = 0;
  std::unique_ptr<BrokerNode> node =
      StartBroker(qbs::CollectionFromStore(*store), &publish_ms);
  node->store = *store;
  publish_ms_.push_back(publish_ms);
  node->client = Client(node->server->port());
  auto first = node->client->Select(first_query, "cori", kTopK);
  node->boot_ms = Since(t0) * 1e3;
  if (!first.ok() || first->scores.size() != std::min(kTopK, fleet_size())) {
    run_.Error("first select after boot failed");
    ++phase.failed;
  }
  node->epoch = first.ok() ? first->epoch : 0;
  return node;
}

void Bench::Boot() {
  // The serving broker and the federation; the measured boots are
  // throwaway brokers booted in the window.
  Phase& phase = run_.Begin("boot");
  broker_ = BootOnce(phase);
  epoch_ = broker_->epoch;
  serving_boot_ms_ = broker_->boot_ms;
  ++phase.attempted;
  fed_ = StartFederation(qbs::CollectionFromStore(broker_->store));
  fed_client_ = Client(fed_->server->port());
  ++phase.attempted;
  run_.End(args_.out_dir, w_.name);
}

void Bench::Oracles() {
  // The broker's top-k against the reference rankers over the heap
  // models, and the federation's ranking against the broker's, for all
  // four rankers on a fixed sample of queries.
  Phase& phase = run_.Begin("oracle");
  std::vector<NamedModel> fleet;
  for (size_t i = 0; i < source_.size(); ++i) {
    fleet.push_back({source_.name(i), &source_.model(i)});
  }
  const qbs::Analyzer analyzer = qbs::Analyzer::InqueryLike();
  QueryStream stream(w_.zipf_pool ? &pool_ : nullptr, args_.seed * 7 + 3);
  for (size_t q = 0; q < kOracleQueries; ++q) {
    std::string query = stream.Next();
    for (const std::string& ranker : qbs::KnownRankerNames()) {
      auto direct = broker_->client->Select(query, ranker, kTopK);
      auto fed = fed_client_->Select(query, ranker, kTopK);
      phase.attempted += 2;
      if (!direct.ok() || !fed.ok()) {
        run_.Error("oracle select '" + query + "' failed");
        phase.failed += 2;
        continue;
      }
      std::string error = CheckTopK(ReferenceRank(ranker, fleet, analyzer.Analyze(query)),
                                    direct->scores, kTopK);
      run_.Check(ranker + " ranking of '" + query + "'", error);
      std::string fed_error = CheckIdentical(direct->scores, fed->scores);
      if (fed->partial) fed_error = "partial federated ranking";
      run_.Check("federated " + ranker + " ranking of '" + query + "'", fed_error);
      phase.failed += !error.empty() + !fed_error.empty();
    }
  }
  run_.End(args_.out_dir, w_.name);
}

/// Re-samples remote database k, repacks the fleet, reopens the store
/// and publishes it; returns the milliseconds until the broker answered
/// at the new epoch. The shards republish afterwards, outside the time.
double Bench::RefreshOnce(size_t k) {
  const std::string name = service_->state()[k].name;
  const size_t before_size = broker_->broker->BrokerStatus().databases;
  Clock::time_point t0 = Clock::now();
  QBS_TRACE_SPAN("bench.refresh");
  Clock::time_point s0 = Clock::now();
  qbs::Status sampled = service_->Refresh(name);
  refresh_one_ms_.push_back(Since(s0) * 1e3);
  if (!sampled.ok()) run_.Error("Refresh(" + name + "): " + sampled.ToString());
  Clock::time_point c0 = Clock::now();
  source_ = SourceFleet(*service_, *fleet_);
  collection_ms_.push_back(Since(c0) * 1e3);
  Clock::time_point p0 = Clock::now();
  qbs::Status packed = Pack(source_, store_path_);
  pack_ms_.push_back(Since(p0) * 1e3);
  if (!packed.ok()) Fatal("repack: " + packed.ToString());
  Clock::time_point o0 = Clock::now();
  auto store = qbs::MappedModelStore::Open(store_path_);
  open_ms_.push_back(Since(o0) * 1e3);
  if (!store.ok()) Fatal("reopen: " + store.status().ToString());
  broker_->store = *store;
  Clock::time_point u0 = Clock::now();
  uint64_t epoch = broker_->registry.Publish(qbs::CollectionFromStore(broker_->store));
  publish_ms_.push_back(Since(u0) * 1e3);
  uint64_t served = 0;
  const std::string query = pool_.front();
  for (int tries = 0; tries < 1000 && served < epoch; ++tries) {
    auto r = broker_->client->Select(query, "cori", kTopK);
    served = r.ok() ? r->epoch : 0;
  }
  double ms = Since(t0) * 1e3;

  if (served != epoch || epoch <= epoch_) {
    run_.Error("broker answered at epoch " + std::to_string(served) +
               " after publishing " + std::to_string(epoch));
  }
  const size_t after_size = broker_->broker->BrokerStatus().databases;
  if (after_size != before_size || after_size != fleet_size()) {
    run_.Error("refresh changed the served fleet from " + std::to_string(before_size) +
               " to " + std::to_string(after_size));
  }
  epoch_ = epoch;
  fed_->Republish(qbs::CollectionFromStore(broker_->store));
  return ms;
}

/// Refreshes the next remote database in turn; returns RefreshOnce's time.
double Bench::NextRefresh(const std::string& trace_label) {
  const double ms = RefreshOnce(refresh_k_);
  refresh_k_ = (refresh_k_ + 1) % w_.remote_dbs;
  if (run_.trace()) run_.DrainTrace(args_.out_dir, w_.name, trace_label);
  return ms;
}

/// The serve rounds measure a warm result cache: with a repeating query
/// pool, send every pool query once (untimed) so that a publish does not
/// leave the next rounds filling the cache. The federation front-end
/// and its shards' phase-2 ranking keep no result cache.
void Bench::WarmCache() {
  if (!w_.zipf_pool) return;
  for (const std::string& query : pool_) {
    if (!broker_->client->Select(query, "cori", kTopK).ok()) run_.Error("warm-up select failed");
  }
  if (run_.trace()) run_.DrainTrace(args_.out_dir, w_.name, "serve_warmup");
}

/// One serve round against the broker or the federation, with the
/// counters only that target moves.
void Bench::ServeRoundOf(bool federated, std::vector<QueryStream>& streams,
                         size_t per_caller) {
  const size_t expect = std::min(kTopK, fleet_size());
  if (federated) {
    const uint64_t fanout0 = CounterValue("qbs_fed_fanout_rpcs_total");
    const uint64_t restarts0 = CounterValue("qbs_fed_epoch_restarts_total");
    federated_.Add(ServeRound(*fed_client_, streams, per_caller, expect));
    fanout_rpcs_ += CounterValue("qbs_fed_fanout_rpcs_total") - fanout0;
    fed_restarts_ += CounterValue("qbs_fed_epoch_restarts_total") - restarts0;
    if (run_.trace()) run_.DrainTrace(args_.out_dir, w_.name, "serve_fed");
    return;
  }
  const uint64_t rpcs0 = broker_->client->rpcs();
  const uint64_t wakeups0 = CounterValue("qbs_net_loop_wakeups_total");
  const qbs::BrokerStatusInfo status0 = broker_->broker->BrokerStatus();
  const double cpu0 = ProcSample::Now().cpu_s();
  direct_.Add(ServeRound(*broker_->client, streams, per_caller, expect));
  serve_cpu_s_ += ProcSample::Now().cpu_s() - cpu0;
  const qbs::BrokerStatusInfo status1 = broker_->broker->BrokerStatus();
  cache_hits_ += status1.cache_hits - status0.cache_hits;
  cache_misses_ += status1.cache_misses - status0.cache_misses;
  wakeups_ += CounterValue("qbs_net_loop_wakeups_total") - wakeups0;
  direct_rpcs_ += broker_->client->rpcs() - rpcs0;
  if (run_.trace()) run_.DrainTrace(args_.out_dir, w_.name, "serve_broker");
}

void Bench::Measure() {
  // The window: pairs of a broker round and a federation round, so both
  // targets see the same machine, and between pairs the workload's
  // measured learns, boots and refreshes, each kind at even steps of
  // --seconds. It runs for --seconds and until every repeat is done and
  // each target has kMinRounds rounds. Nothing in it runs at the same
  // time as anything else the benchmark does.
  Phase& phase = run_.Begin("measure");
  const size_t broker_per_caller = (w_.broker_round + callers_ - 1) / callers_;
  const size_t fed_per_caller = (w_.fed_round + callers_ - 1) / callers_;
  std::vector<QueryStream> broker_streams = Streams(1);
  std::vector<QueryStream> fed_streams = Streams(2);
  const size_t expect = std::min(kTopK, fleet_size());
  ServeRound(*broker_->client, broker_streams, kWarmupSelects / callers_, expect);
  ServeRound(*fed_client_, fed_streams, kWarmupSelects / callers_, expect);
  WarmCache();

  const CpuTicks ticks0 = CpuTicks::Now();
  const Clock::time_point start = Clock::now();
  size_t learns = 0, boots = 0, refreshes = 0;
  // Whether the next of `total` repeats is due: repeat i falls at i/total
  // of the window.
  auto due = [&](size_t done, size_t total) {
    return done < total && Since(start) >= args_.seconds * done / total;
  };
  auto done = [&] {
    return Since(start) >= args_.seconds && learns == w_.learns && boots == w_.boots &&
           refreshes == w_.refreshes && direct_.rounds.size() >= kMinRounds &&
           federated_.rounds.size() >= kMinRounds;
  };
  while (!done()) {
    ServeRoundOf(false, broker_streams, broker_per_caller);
    ServeRoundOf(true, fed_streams, fed_per_caller);
    if (due(learns, w_.learns)) {
      learn_rates_.push_back(LearnOnce());
      ++learns;
    }
    for (; due(boots, w_.boots); ++boots) {
      boot_ms_.push_back(BootOnce(phase)->boot_ms);
      if (run_.trace()) run_.DrainTrace(args_.out_dir, w_.name, "boot");
    }
    if (due(refreshes, w_.refreshes)) {
      refresh_ms_.push_back(NextRefresh("refresh"));
      ++refreshes;
      WarmCache();
    }
  }
  steal_share_ = CpuTicks::Now().StealShareSince(ticks0);
  threads_ = ProcSample::Now().threads;

  // Operations: one per target (whether every select to it was answered
  // in full, in rounds of kMinRoundSamples selects), one per database
  // per learn, one per boot and one per refresh.
  phase.attempted += 2 + learns * remotes_.size() + boots + refreshes;
  for (const auto& [name, stats] : {std::pair{"broker", &direct_}, {"federation", &federated_}}) {
    std::string error;
    if (stats->failed > 0) error = std::to_string(stats->failed) + " selects failed";
    for (const ServeStats::Round& r : stats->rounds) {
      if (r.latency_us.size() < kMinRoundSamples) error = "a round with fewer than " + std::to_string(kMinRoundSamples) + " answered selects";
    }
    run_.Check(name, error);
    phase.failed += !error.empty();
  }
  run_.End(args_.out_dir, w_.name);
}

void Bench::RestartRefresh() {
  // A restarted service warm-starts from a copy of the packed store,
  // re-samples one database, and must still serve — and store — the
  // whole fleet. It does not: Refresh republishes only the databases
  // sampled in this process, so the fleet shrinks to one.
  Phase& phase = run_.Begin("restart_refresh");
  const std::string copy = args_.out_dir + "/restart_" + w_.name + ".qms";
  for (size_t k = 0; k < w_.restart_refresh; ++k) {
    std::filesystem::copy_file(store_path_, copy,
                               std::filesystem::copy_options::overwrite_existing);
    qbs::ServiceOptions options = LearnOptions();
    options.num_threads = 1;
    options.store_path = copy;
    qbs::SamplingService fresh(options);
    for (size_t i = 0; i < fleet_->remotes.size(); ++i) {
      qbs::RemoteDatabaseOptions remote;
      remote.port = fleet_->remotes[i].server->port();
      auto db = std::make_unique<qbs::RemoteTextDatabase>(remote);
      if (!db->Connect().ok() || !fresh.AddDatabase(std::move(db)).ok()) {
        Fatal("restart_refresh: cannot register the remote databases");
      }
    }
    qbs::Status loaded = fresh.LoadStore();
    qbs::Status refreshed = fresh.Refresh(fresh.state()[k % fresh.size()].name);
    const size_t served = fresh.registry().Snapshot()->collection().size();
    auto stored = qbs::MappedModelStore::Open(copy);
    const size_t stored_models = stored.ok() ? (*stored)->num_models() : 0;
    ++phase.attempted;
    if (!loaded.ok() || !refreshed.ok() || served != fleet_size() ||
        stored_models != fleet_size()) {
      ++phase.failed;
      std::cerr << "restart_refresh failed (known fault): fleet of "
                << fleet_size() << " served as " << served << ", stored as "
                << stored_models << "\n";
    }
  }
  std::filesystem::remove(copy);
  run_.End(args_.out_dir, w_.name);
}

void Bench::LayerProbes() {
  // Per-layer times measured from outside, by timing calls into each
  // module's public functions on this run's fixture. Untraced, so span
  // recording does not inflate them; single-threaded, with no other
  // phase running.
  qbs::TraceRecorder& recorder = qbs::TraceRecorder::Global();
  recorder.set_enabled(false);
  auto us_since = [](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
  };
  const qbs::Analyzer analyzer = qbs::Analyzer::InqueryLike();
  std::shared_ptr<const qbs::SelectionSnapshot> snapshot = broker_->registry.Snapshot();
  const qbs::DatabaseCollection& collection = snapshot->collection();
  QueryStream stream(w_.zipf_pool ? &pool_ : nullptr, args_.seed * 13 + 5);
  std::vector<double> analyze, stats_us, encode, decode;
  std::map<std::string, std::vector<double>> rank;
  double find_ns = 0;
  uint64_t finds = 0;
  size_t response_bytes = 0;
  for (size_t q = 0; q < 200; ++q) {
    const std::string query = stream.Next();
    Clock::time_point t = Clock::now();
    std::vector<std::string> terms = analyzer.Analyze(query);
    analyze.push_back(us_since(t));
    t = Clock::now();
    qbs::CollectionStats stats = qbs::ComputeCollectionStats(collection, terms);
    stats_us.push_back(us_since(t));
    std::vector<qbs::DatabaseScore> cori;
    for (const std::string& name : qbs::KnownRankerNames()) {
      t = Clock::now();
      std::vector<qbs::DatabaseScore> scores = snapshot->ranker(name)->RankWith(terms, stats);
      rank[name].push_back(us_since(t));
      if (name == "cori") cori = std::move(scores);
    }
    if (q < 40) {
      t = Clock::now();
      qbs::TermStats s;
      for (const std::string& term : terms) {
        for (size_t i = 0; i < collection.size(); ++i) {
          collection.model(i).FindStats(term, &s);
          ++finds;
        }
      }
      find_ns += us_since(t) * 1e3;
    }
    qbs::WireResponse response;
    response.protocol_version = qbs::kWireProtocolVersion;
    response.method = qbs::WireMethod::kSelect;
    response.epoch = snapshot->epoch();
    response.scores.assign(cori.begin(), cori.begin() + std::min(kTopK, cori.size()));
    t = Clock::now();
    std::vector<uint8_t> bytes = qbs::EncodeResponse(response);
    encode.push_back(us_since(t));
    t = Clock::now();
    auto decoded = qbs::DecodeResponse(bytes);
    decode.push_back(us_since(t));
    if (!decoded.ok()) run_.Error("select response does not decode");
    response_bytes = bytes.size();
  }
  // The search layer behind the remote databases: one-term queries and
  // batch fetches straight against a few engines (no request is in
  // flight now, so nothing else touches them).
  std::vector<double> query_us, fetch_us;
  for (size_t d = 0; d < std::min<size_t>(8, fleet_->remotes.size()); ++d) {
    qbs::SearchEngine& engine = *fleet_->remotes[d].engine;
    qbs::Rng rng(args_.seed + d);
    for (size_t i = 0; i < 50; ++i) {
      std::string term = qbs::SyntheticWordForId(rng.UniformBelow(2000));
      Clock::time_point t = Clock::now();
      auto hits = engine.RunQuery(term, 4);
      query_us.push_back(us_since(t));
      if (!hits.ok() || hits->empty()) continue;
      std::vector<std::string> handles;
      for (const qbs::SearchHit& h : *hits) handles.push_back(h.handle);
      t = Clock::now();
      auto docs = engine.FetchBatch(handles);
      fetch_us.push_back(us_since(t));
    }
  }

  // Tracing overhead: one caller sending selects with the recorder off
  // and on in turn, each a new draw from the workload's query stream.
  std::vector<double> off, on;
  QueryStream overhead(w_.zipf_pool ? &pool_ : nullptr, args_.seed * 17 + 11);
  for (size_t i = 0; i < 1000; ++i) {
    const bool traced = i % 2 == 1;
    const std::string query = overhead.Next();
    recorder.set_enabled(traced);
    Clock::time_point t = Clock::now();
    auto r = broker_->client->Select(query, "cori", kTopK);
    (traced ? on : off).push_back(us_since(t));
    recorder.set_enabled(false);
  }
  recorder.Clear();
  recorder.set_enabled(true);

  LayerTable& spans = run_.layers();
  const double broker_select = spans.MedianDurationUs("serve_broker", "broker.select");
  const double analyze_us = Median(analyze);
  const double stats_med = Median(stats_us);
  const double cori_us = Median(rank["cori"]);
  std::vector<double> lat = direct_.AllLatencies();

  run_.Layer("text.analyze_us", analyze_us, "us");
  run_.Layer("search.query_us", Median(query_us), "us");
  run_.Layer("search.fetch_batch_us", Median(fetch_us), "us");
  run_.Layer("sampling.queries_per_doc",
             static_cast<double>(learn_queries_) / learned_docs_, "count");
  run_.Layer("sampling.db_sample_ms", spans.MedianDurationUs("learn", "sampler.run") / 1e3, "ms");
  run_.Layer("sampling.retrieve_us", spans.MedianDurationUs("learn", "sampler.retrieve"), "us");
  run_.Layer("sampling.ingest_us", spans.MedianDurationUs("learn", "sampler.ingest"), "us");
  double terms = 0;
  for (size_t i = 0; i < broker_->store->num_models(); ++i) terms += broker_->store->model(i).vocabulary_size();
  run_.Layer("lm.terms_per_model", terms / broker_->store->num_models(), "count");
  run_.Layer("service.refresh_all_s", learn_s_, "s");
  run_.Layer("service.refresh_one_ms", Median(refresh_one_ms_), "ms");
  run_.Layer("service.collection_ms", Median(collection_ms_), "ms");
  uint64_t retries = broker_->client->retries() + fed_client_->retries();
  for (qbs::RemoteTextDatabase* db : remotes_) retries += db->retries();
  run_.Layer("net.learn_rpcs", static_cast<double>(learn_rpcs_), "count");
  run_.Layer("net.client_retries", static_cast<double>(retries), "count");
  run_.Layer("net.select_rpcs_per_select",
             static_cast<double>(direct_rpcs_) / direct_.selects, "count");
  run_.Layer("net.select_response_bytes", static_cast<double>(response_bytes), "bytes");
  run_.Layer("net.encode_response_us", Median(encode), "us");
  run_.Layer("net.decode_response_us", Median(decode), "us");
  run_.Layer("net.transport_us", Median(lat) - broker_select, "us");
  run_.Layer("net.loop_wakeups_per_select",
             static_cast<double>(wakeups_) / direct_.selects, "count");
  run_.Layer("mstore.pack_ms", Median(pack_ms_), "ms");
  run_.Layer("mstore.open_ms", Median(open_ms_), "ms");
  run_.Layer("mstore.find_stats_ns", finds > 0 ? find_ns / finds : 0.0, "ns");
  run_.Layer("mstore.bytes_per_model",
             static_cast<double>(store_bytes_) / broker_->store->num_models(), "bytes");
  run_.Layer("selection.collection_stats_us", stats_med, "us");
  for (const std::string& name : qbs::KnownRankerNames()) {
    run_.Layer("selection.rank_us." + name, Median(rank[name]), "us");
  }
  const uint64_t hits = cache_hits_;
  const uint64_t misses = cache_misses_;
  run_.Layer("broker.select_us", broker_select, "us");
  run_.Layer("broker.cache_hits", static_cast<double>(hits), "count");
  run_.Layer("broker.cache_misses", static_cast<double>(misses), "count");
  run_.Layer("broker.cache_hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0, "ratio");
  run_.Layer("broker.publish_ms", Median(publish_ms_), "ms");
  run_.Layer("broker.shed", static_cast<double>(broker_->server->shed()), "count");
  run_.Layer("fed.fanout_rpcs_per_select",
             static_cast<double>(fanout_rpcs_) / federated_.selects, "count");
  run_.Layer("fed.attempts_per_select",
             1.0 + static_cast<double>(fed_restarts_) / federated_.selects, "count");
  run_.Layer("fed.shard_stats_us", spans.MedianDurationUs("serve_fed", "broker.collect_stats"), "us");
  run_.Layer("fed.shard_rank_us", spans.MedianDurationUs("serve_fed", "broker.select"), "us");
  run_.Layer("fed.overhead_us", spans.MedianSelfUs("serve_fed", "fed.select"), "us");
  run_.Layer("obs.trace_overhead_select_us", Median(on) - Median(off), "us");
  const uint64_t dropped = CounterValue("qbs_trace_spans_dropped_total");
  run_.Layer("obs.spans_dropped", static_cast<double>(dropped), "count");
  if (dropped > 0) run_.Error(std::to_string(dropped) + " trace spans were dropped");
  run_.Layer("proc.rss_after_setup_mb", run_.sample("setup").rss_mb, "MB");
  run_.Layer("proc.rss_after_learn_mb", run_.sample("learn").rss_mb, "MB");
  run_.Layer("proc.rss_after_boot_mb", run_.sample("boot").rss_mb, "MB");
  run_.Layer("proc.learn_cpu_us_per_doc", learn_cpu_s_ * 1e6 / learned_docs_, "us");
  run_.Layer("proc.serve_cpu_us_per_select", serve_cpu_s_ * 1e6 / direct_.selects, "us");
  run_.Layer("proc.threads", static_cast<double>(threads_), "count");
  run_.Layer("proc.steal_share", steal_share_, "ratio");

  // How much of the broker's select the measured layers account for.
  const double accounted = analyze_us + stats_med + cori_us;
  run_.Layer("broker.unaccounted_us", broker_select - accounted, "us");
  std::cout << "broker.select " << broker_select << " us; analysis + collection stats"
            << " + cori ranking " << accounted << " us; unaccounted "
            << broker_select - accounted << " us ("
            << (broker_select > 0 ? 100.0 * (broker_select - accounted) / broker_select : 0.0)
            << "%); " << run_.spans() << " spans traced\n";
}

void Bench::Report() {
  run_.E2e("setup_s", Median(setup_s_), "s");
  // Medians over the window's repeats (see the header comment).
  run_.E2e("learn_docs_per_s", Median(learn_rates_), "1/s");
  run_.E2e("rpcs_per_doc", static_cast<double>(learn_rpcs_) / learned_docs_, "count");
  run_.E2e("store_bytes", static_cast<double>(store_bytes_), "bytes");
  run_.E2e("boot_ms", Median(boot_ms_), "ms");
  run_.E2e("refresh_ms", Median(refresh_ms_), "ms");
  auto serve = [this](const std::string& prefix, const ServeStats& s) {
    run_.E2e(prefix + "selects_per_s", s.Rate(), "1/s");
    run_.E2e(prefix + "select_p50_us", s.LatencyQuantile(0.50), "us");
    // The tail figure is the p95: on a shared host a round's p99 follows
    // the hypervisor's steal even at 1-2 % (see README.md); the p99 is
    // printed beside it.
    run_.E2e(prefix + "select_p95_us", s.LatencyQuantile(0.95), "us");
    std::vector<double> all = s.AllLatencies();
    std::cout << prefix << "select: " << s.rounds.size() << " rounds, " << all.size()
              << " samples; p99 " << s.LatencyQuantile(0.99) << " us, over all samples "
              << Quantile(all, 0.99) << " us\n";
  };
  std::cout << "hypervisor steal in the window: " << 100 * steal_share_ << " %\n";
  serve("", direct_);
  serve("fed_", federated_);
  run_.E2e("rss_mb", ProcSample::Now().hwm_mb, "MB");
  auto list = [](const std::vector<double>& v) {
    std::ostringstream out;
    for (double x : v) out << " " << x;
    return out.str();
  };
  std::cout << "learn docs/s: before the window" << list(warm_learn_rates_)
            << ", measured" << list(learn_rates_) << "\nserving broker boot ms: "
            << serving_boot_ms_ << "\nboot ms:" << list(boot_ms_)
            << "\nopen ms:" << list(open_ms_) << "\npublish ms:" << list(publish_ms_)
            << "\nrefresh ms:" << list(refresh_ms_) << "\nsetup s:" << list(setup_s_) << "\n";
}

int Bench::Main() {
  if (args_.trace) qbs::TraceRecorder::Global().set_enabled(true);
  std::vector<std::string> self_test = SelfTest(args_.out_dir + "/selftest.qms");
  for (const std::string& failure : self_test) run_.Error("oracle self-test: " + failure);

  SetUp();
  Learn();
  PackPhase();
  Boot();
  Oracles();
  Measure();
  if (w_.restart_refresh > 0) RestartRefresh();
  Report();
  if (args_.trace) LayerProbes();
  qbs::TraceRecorder::Global().set_enabled(false);
  run_.Print();

  // Tear down front to back: clients, front-ends, brokers, then the
  // service (its remote clients) and the database servers.
  fed_client_.reset();
  fed_.reset();
  broker_.reset();
  service_.reset();
  fleet_.reset();
  std::filesystem::remove(store_path_);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    return 2;
  }
  qbs::SetMinLogLevel(qbs::LogLevel::kWarning);
  std::filesystem::create_directories(args.out_dir);
  for (const e2e::Workload& w : e2e::kWorkloads) {
    if (w.name == args.workload) return e2e::Bench(w, args).Main();
  }
  std::cerr << "e2e_bench: unknown workload '" << args.workload << "'\n";
  return 2;
}
