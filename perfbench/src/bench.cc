// The server side of the benchmark: builds the real pipeline
// (WireServer -> NetMultiSource -> ShardedEngine, sequencer and
// DurableStore per workload), drives it with the generator process over
// loopback TCP, reads it with FleetView, checks the outputs and prints
// the metrics. Every call goes through the library's public API.

#include "bench.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis.h"
#include "common/task_pool.h"
#include "core/acf_peaks.h"
#include "core/search.h"
#include "core/streaming_asap.h"
#include "net/net_source.h"
#include "net/wire_server.h"
#include "storage/recovery.h"
#include "storage/store.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using asap::StreamingAsap;
using asap::StreamingOptions;
using asap::telemetry::LatencyHistogram;
using asap::telemetry::MetricsRegistry;
using Frame = asap::StreamingAsap::Frame;
using FramePtr = std::shared_ptr<const Frame>;

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void SleepNs(int64_t ns) {
  if (ns <= 0) return;
  timespec ts{};
  ts.tv_sec = ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  nanosleep(&ts, nullptr);
}

double Pct(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return Quantile(xs, q);
}

/// CPU seconds each live thread of this process has run, by tid
/// (the nanosecond run time of /proc/self/task/<tid>/schedstat).
std::map<pid_t, double> ThreadCpu() {
  std::map<pid_t, double> cpu;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(e.path() / "schedstat");
    unsigned long long ns = 0;
    if (in >> ns) {
      cpu[static_cast<pid_t>(std::stol(e.path().filename().string()))] =
          static_cast<double>(ns) * 1e-9;
    }
  }
  return cpu;
}

// ---------------------------------------------------------------------------
// The generator child process.

class GenProcess {
 public:
  static std::unique_ptr<GenProcess> Spawn(const std::string& workload,
                                           uint64_t seed, uint16_t port) {
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) return nullptr;
    exe[len] = '\0';
    const std::string seed_s = std::to_string(seed);
    const std::string port_s = std::to_string(port);
    std::vector<std::string> args = {exe,      "--role", "gen",  "--workload",
                                     workload, "--seed", seed_s, "--port",
                                     port_s};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) return nullptr;
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return nullptr;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      // Only async-signal-safe calls until exec.
      dup2(to_child[0], 0);
      dup2(from_child[1], 1);
      close_range(3, ~0U, 0);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    if (pid < 0) {
      close(to_child[1]);
      close(from_child[0]);
      return nullptr;
    }
    auto g = std::unique_ptr<GenProcess>(new GenProcess());
    g->pid_ = pid;
    g->to_child_ = to_child[1];
    g->from_child_ = fdopen(from_child[0], "r");
    return g;
  }

  GenProcess(const GenProcess&) = delete;
  GenProcess& operator=(const GenProcess&) = delete;

  ~GenProcess() {
    if (to_child_ >= 0) close(to_child_);
    // EOF on its stdin makes the child close its connections and exit.
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      SleepNs(10000000);
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    if (from_child_ != nullptr) std::fclose(from_child_);
  }

  bool Send(const std::string& line) {
    const std::string l = line + "\n";
    return write(to_child_, l.data(), l.size()) == static_cast<ssize_t>(l.size());
  }

  bool ReadLine(std::string* line) {
    char* buf = nullptr;
    size_t cap = 0;
    const ssize_t n = getline(&buf, &cap, from_child_);
    if (n <= 0) {
      std::free(buf);
      return false;
    }
    line->assign(buf, static_cast<size_t>(n));
    std::free(buf);
    while (!line->empty() && (line->back() == '\n' || line->back() == '\r')) {
      line->pop_back();
    }
    return true;
  }

 private:
  GenProcess() = default;
  pid_t pid_ = -1;
  int to_child_ = -1;
  std::FILE* from_child_ = nullptr;
};

// ---------------------------------------------------------------------------
// The engine's source: NetMultiSource behind a decorator that ends the
// run once the generator's records are all delivered, and in the traced
// phase times every NextBatch call (the wire -> engine handoff).

class PumpSource : public asap::stream::MultiSource {
 public:
  static constexpr uint64_t kUnarmed = ~uint64_t{0};

  explicit PumpSource(asap::net::NetMultiSource* inner) : inner_(inner) {}

  /// Starts a run: nothing delivered, no target yet.
  void Begin(Tracer* tracer, uint64_t parent_span) {
    delivered_ = 0;
    target_.store(kUnarmed);
    stalled_ = false;
    tracer_ = tracer;
    parent_span_ = parent_span;
    in_next_ns_ = 0;
    handoff_ns_.clear();
  }
  /// Sets how many records the run delivers before it ends.
  void Arm(uint64_t target) {
    armed_at_ns_.store(NowNs());
    target_.store(target);
  }

  size_t NextBatch(size_t max_records, asap::stream::RecordBatch* out) override {
    for (;;) {
      const uint64_t target = target_.load();
      if (delivered_ >= target) return 0;
      const int64_t t0 = NowNs();
      const size_t n = inner_->NextBatch(max_records, out);
      const int64_t t1 = NowNs();
      if (tracer_ != nullptr) {
        in_next_ns_ += t1 - t0;
        if (n > 0) {
          handoff_ns_.push_back(t1 - t0);
          tracer_->Add("net.next_batch", "net", t0, t1, parent_span_);
        }
      }
      if (n > 0) {
        delivered_ += n;
        last_progress_ns_ = t1;
        return n;
      }
      // Armed, idle and nothing arrived for 5 s: records went missing.
      if (target != kUnarmed &&
          t1 - std::max(last_progress_ns_, armed_at_ns_.load()) > 5000000000LL) {
        stalled_ = true;
        return 0;
      }
    }
  }
  size_t TotalPoints() const override { return 0; }

  bool stalled() const { return stalled_; }
  int64_t in_next_ns() const { return in_next_ns_; }
  const std::vector<int64_t>& handoff_ns() const { return handoff_ns_; }

 private:
  asap::net::NetMultiSource* inner_;
  std::atomic<uint64_t> target_{kUnarmed};
  std::atomic<int64_t> armed_at_ns_{0};
  uint64_t delivered_ = 0;
  int64_t last_progress_ns_ = 0;
  bool stalled_ = false;
  Tracer* tracer_ = nullptr;
  uint64_t parent_span_ = 0;
  int64_t in_next_ns_ = 0;
  std::vector<int64_t> handoff_ns_;
};

// ---------------------------------------------------------------------------
// Registry readings: counters summed and histograms merged across
// labels (asap_query_seconds kept per kind), so a phase's numbers are
// the difference of two readings.

struct Reading {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::shared_ptr<LatencyHistogram::Snapshot>> hists;
};

void AddReading(const MetricsRegistry& reg, Reading* r) {
  for (const MetricsRegistry::Entry& e : reg.Entries()) {
    std::string key = e.spec.name;
    for (const auto& [k, v] : e.spec.labels) {
      if (k == "kind") key += "{" + v + "}";
    }
    if (e.kind == MetricsRegistry::Kind::kCounter) {
      r->counters[key] += e.counter->Value();
    } else if (e.kind == MetricsRegistry::Kind::kHistogram) {
      auto& h = r->hists[key];
      if (h == nullptr) h = std::make_shared<LatencyHistogram::Snapshot>();
      h->Merge(e.histogram->TakeSnapshot());
    }
  }
}

Reading Read(const MetricsRegistry& reg) {
  Reading r;
  AddReading(reg, &r);
  AddReading(MetricsRegistry::Global(), &r);
  return r;
}

uint64_t CounterDelta(const Reading& a, const Reading& b, const std::string& key) {
  auto ia = a.counters.find(key);
  auto ib = b.counters.find(key);
  const uint64_t va = ia == a.counters.end() ? 0 : ia->second;
  const uint64_t vb = ib == b.counters.end() ? 0 : ib->second;
  return vb - va;
}

LatencyHistogram::Snapshot HistDelta(const Reading& a, const Reading& b,
                                     const std::string& key) {
  LatencyHistogram::Snapshot d;
  auto ib = b.hists.find(key);
  if (ib == b.hists.end()) return d;
  d = *ib->second;
  auto ia = a.hists.find(key);
  if (ia != a.hists.end()) {
    for (unsigned i = 0; i < LatencyHistogram::kBucketCount; ++i) {
      d.counts[i] -= ia->second->counts[i];
    }
    d.count -= ia->second->count;
    d.sum -= ia->second->sum;
  }
  return d;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The pipeline under test.

constexpr const char* kQueryKinds[] = {"sample_glob", "topk_roughness", "bands",
                                       "aggregate",   "anomalies",      "diff_history",
                                       "history_deep"};
constexpr size_t kNumQueryKinds = sizeof(kQueryKinds) / sizeof(kQueryKinds[0]);

StreamingOptions SeriesOptions(const WorkloadConfig& cfg) {
  StreamingOptions so;
  so.resolution = cfg.resolution;
  so.visible_points = cfg.visible_points;
  so.refresh_every_points = cfg.refresh_every_points;
  so.snapshot_ring_frames = cfg.snapshot_ring;
  so.pane_epoch = 0;
  so.pane_width_ticks = static_cast<int64_t>(cfg.pane_ticks());
  return so;
}

asap::storage::StoreOptions StoreOpts(MetricsRegistry* metrics) {
  asap::storage::StoreOptions so;
  so.sync = asap::storage::SyncPolicy::kInterval;
  // Small segments so compaction runs several times per measured phase.
  so.wal_segment_bytes = 512u << 10;
  so.metrics = metrics;
  return so;
}

struct Pipeline {
  const WorkloadConfig* cfg = nullptr;
  uint64_t seed = 0;
  // Declaration order is teardown order reversed: the generator goes
  // first, the registry last.
  std::unique_ptr<MetricsRegistry> metrics;
  std::string store_dir;
  std::unique_ptr<asap::storage::DurableStore> store;
  std::unique_ptr<asap::stream::ShardedEngine> engine;
  std::unique_ptr<asap::net::WireServer> server;
  std::unique_ptr<asap::net::NetMultiSource> net_source;
  std::unique_ptr<PumpSource> pump;
  std::unique_ptr<asap::stream::FleetView> view;
  std::unique_ptr<GenProcess> gen;

  std::vector<std::string> names;
  std::vector<size_t> shard_of;
  std::vector<std::vector<size_t>> shard_collectors;
  /// Ticks each collector has sent so far (warm-up and every phase).
  std::vector<uint64_t> ticks_sent;
  /// Series the dashboard tick's glob selects.
  std::string query_glob;
  size_t query_members = 0;

  ~Pipeline() {
    gen.reset();
    view.reset();
    pump.reset();
    net_source.reset();
    server.reset();
    engine.reset();
    store.reset();
    if (!store_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir, ec);
    }
  }
};

struct Checks {
  uint64_t run = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

uint64_t Malformed(const asap::net::WireServerStats& s) {
  return s.malformed_lines + s.malformed_frames + s.unknown_series_records;
}

uint64_t Consumed(const asap::stream::FleetReport& r) {
  uint64_t n = 0;
  for (const auto& s : r.shards) n += s.points;
  return n;
}

/// The accounting identity: every sent record is consumed by an
/// operator or counted as dropped, conflated, late or malformed.
void CheckAccounting(const char* phase, uint64_t sent, uint64_t malformed,
                     const asap::stream::FleetReport& r, Checks* checks) {
  const uint64_t accounted =
      Consumed(r) + r.dropped + r.conflated + r.late + malformed;
  checks->Expect(sent == accounted,
                 std::string("accounting identity (") + phase + "): sent " +
                     std::to_string(sent) + " != accounted " +
                     std::to_string(accounted));
}

std::unique_ptr<Pipeline> Setup(const WorkloadConfig& cfg, uint64_t seed, int rep,
                                const std::string& out_dir, std::string* err) {
  auto p = std::make_unique<Pipeline>();
  p->cfg = &cfg;
  p->seed = seed;
  p->metrics = std::make_unique<MetricsRegistry>();
  if (cfg.durable_store) {
    p->store_dir = out_dir + "/store-" + std::to_string(getpid()) + "-" +
                   std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(p->store_dir, ec);
    auto store = asap::storage::DurableStore::Open(p->store_dir,
                                                   StoreOpts(p->metrics.get()));
    if (!store.ok()) {
      *err = "store open: " + store.status().ToString();
      return nullptr;
    }
    p->store = std::move(store).ValueOrDie();
  }
  asap::stream::ShardedEngineOptions eo;
  eo.shards = kShards;
  eo.overflow_policy = asap::stream::OverflowPolicy::kBlock;
  eo.sequencer_horizon_ticks = cfg.sequencer_horizon_ticks;
  eo.metrics = p->metrics.get();
  eo.storage = p->store.get();
  auto engine = asap::stream::ShardedEngine::Create(SeriesOptions(cfg), eo);
  if (!engine.ok()) {
    *err = "engine: " + engine.status().ToString();
    return nullptr;
  }
  p->engine = std::make_unique<asap::stream::ShardedEngine>(std::move(engine).ValueOrDie());

  asap::net::WireServerOptions wo;
  wo.num_event_loops = kEventLoops;
  wo.metrics = p->metrics.get();
  auto server = asap::net::WireServer::Create(wo, p->engine->catalog());
  if (!server.ok()) {
    *err = "server: " + server.status().ToString();
    return nullptr;
  }
  p->server = std::make_unique<asap::net::WireServer>(std::move(server).ValueOrDie());
  p->server->Start();
  asap::net::NetMultiSourceOptions no;
  no.poll_timeout_ms = 5;
  no.exit_when_drained = false;
  no.idle_timeout_ms = 5;
  p->net_source = std::make_unique<asap::net::NetMultiSource>(p->server.get(), no);
  p->pump = std::make_unique<PumpSource>(p->net_source.get());
  asap::ExecPolicy policy;
  policy.threads = cfg.query_threads;
  p->view = std::make_unique<asap::stream::FleetView>(p->engine.get(), policy);

  p->query_glob = cfg.prefix + "/" + cfg.query_slice;
  const asap::stream::SeriesSelector slice =
      asap::stream::SeriesSelector::Glob(p->query_glob);
  for (size_t s = 0; s < cfg.series; ++s) {
    p->names.push_back(cfg.SeriesName(s));
    p->query_members += slice.Matches(p->names.back()) ? 1 : 0;
  }
  p->ticks_sent.assign(cfg.connections, 0);

  p->gen = GenProcess::Spawn(cfg.name, seed, p->server->tcp_port());
  std::string line;
  if (p->gen == nullptr || !p->gen->ReadLine(&line) || line != "READY") {
    *err = "generator did not start";
    return nullptr;
  }

  // Warm every series to a full visible window. With a store, the same
  // panes are appended to it first (one WAL frame for the fleet), so
  // the store holds everything the operators saw and faithful replay
  // reproduces their frames.
  std::vector<std::vector<double>> warm(cfg.series);
  std::vector<asap::storage::PaneRun> runs;
  for (size_t s = 0; s < cfg.series; ++s) {
    warm[s] = WarmPanes(seed, cfg, s);
    if (p->store == nullptr) continue;
    const auto sid = p->store->RegisterSeries(p->names[s]);
    if (!sid.ok()) {
      *err = "store warm-up: " + sid.status().ToString();
      return nullptr;
    }
    asap::storage::PaneRun run;
    run.sid = *sid;
    run.values = warm[s].data();
    run.count = static_cast<uint32_t>(warm[s].size());
    runs.push_back(run);
  }
  if (p->store != nullptr) {
    const asap::Status st = p->store->AppendPanes(runs.data(), runs.size());
    if (!st.ok()) {
      *err = "store warm-up: " + st.ToString();
      return nullptr;
    }
  }
  for (size_t s = 0; s < cfg.series; ++s) {
    const asap::Status st = p->engine->RestoreSeries(p->names[s], warm[s].data(),
                                                     warm[s].size(), CadencedWarm(cfg));
    if (!st.ok()) {
      *err = "restore: " + st.ToString();
      return nullptr;
    }
  }

  for (size_t s = 0; s < cfg.series; ++s) {
    const FramePtr f = p->view->Frame(p->names[s]);
    if (f == nullptr || f->refreshes == 0) {
      *err = "series " + p->names[s] + " not warmed to a published frame";
      return nullptr;
    }
  }
  p->shard_collectors.assign(kShards, {});
  std::vector<std::vector<bool>> present(kShards,
                                         std::vector<bool>(cfg.connections, false));
  for (size_t s = 0; s < cfg.series; ++s) {
    const auto id = p->engine->catalog()->FindId(p->names[s]);
    const size_t shard = asap::stream::ShardedEngine::ShardOf(*id, kShards);
    p->shard_of.push_back(shard);
    present[shard][s % cfg.connections] = true;
  }
  for (size_t sh = 0; sh < kShards; ++sh) {
    for (size_t c = 0; c < cfg.connections; ++c) {
      if (present[sh][c]) p->shard_collectors[sh].push_back(c);
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// One measured phase.

struct Observation {
  uint32_t probe;
  uint64_t counter;
  int64_t seen_ns;
};

struct FrameTotals {
  uint64_t refreshes = 0, candidates = 0, seeded = 0, cold = 0;
};

FrameTotals SumFrames(const asap::stream::FleetView& view) {
  FrameTotals t;
  view.ForEachSeries([&](std::string_view, const Frame& f) {
    t.refreshes += f.refreshes;
    t.candidates += f.candidates_evaluated;
    t.seeded += f.seeded_searches;
    t.cold += f.cold_searches;
  });
  return t;
}

struct PhaseResult {
  asap::stream::FleetReport report;
  uint64_t sent = 0;
  uint64_t malformed = 0;
  uint64_t consumed = 0;
  std::vector<uint64_t> ticks;  // per collector, this phase
  double gen_lag_p99_ms = 0.0;
  double gen_busy_frac = 0.0;
  int64_t t0 = 0, t_end = 0;
  double cpu_s = 0.0;
  /// CPU seconds of the busiest ingest thread (see IngestCapacity).
  double busiest_thread_cpu_s = 0.0;
  bool stalled = false;
  std::vector<double> freshness_ms;
  std::vector<double> tick_ms;
  uint64_t ticks_failed = 0;
  std::vector<double> query_us[kNumQueryKinds];
  std::vector<double> handoff_us;
  double next_batch_s = 0.0;
  double seq_buffered_peak = 0.0;
  Reading before, after;
  FrameTotals frames_before, frames_after;
  asap::net::WireServerStats wire_before, wire_after;

  double seconds() const { return static_cast<double>(t_end - t0) * 1e-9; }
};

/// One dashboard tick: the query set of README.md. Returns false if any
/// query came back incomplete.
bool DashboardTick(const Pipeline& p, size_t tick, Tracer* tracer,
                   PhaseResult* r) {
  const WorkloadConfig& cfg = *p.cfg;
  const asap::stream::FleetView& view = *p.view;
  const asap::ExecPolicy& policy = view.exec_policy();
  const uint64_t parent = tracer->Open();
  const int64_t t_tick = NowNs();
  int64_t t = t_tick;
  auto lap = [&](size_t kind) {
    const int64_t now = NowNs();
    r->query_us[kind].push_back(static_cast<double>(now - t) * 1e-3);
    tracer->Add(kQueryKinds[kind], "stream.query", t, now, parent);
    t = now;
  };
  bool ok = true;
  const asap::stream::FleetSample sample = view.SampleGlob(p.query_glob);
  lap(0);
  ok &= sample.series.size() == p.query_members && sample.skipped_unpublished == 0;
  const auto top = asap::stream::FleetView::TopKByRoughnessOf(sample, 10, policy);
  lap(1);
  ok &= top.ranks.size() == std::min<size_t>(10, sample.series.size());
  const auto bands = asap::stream::FleetView::BandsOf(sample, policy);
  lap(2);
  ok &= bands.positions > 0;
  const auto agg =
      asap::stream::FleetView::AggregateOf(sample, asap::stream::AggKind::kMean);
  lap(3);
  ok &= agg.series == sample.series.size();
  const auto anomalies = asap::stream::FleetView::AnomalyCountsOf(sample, {}, policy);
  lap(4);
  ok &= anomalies.skipped_unpublished == 0;
  for (size_t i = 0; i < 4; ++i) {
    const auto diff = view.DiffHistory(p.names[(tick * 4 + i) % cfg.series], 2);
    ok &= diff.known;
  }
  lap(5);
  const auto deep = view.History(p.names[tick % cfg.series], cfg.snapshot_ring + 2);
  lap(6);
  ok &= !deep.empty();
  const int64_t end = NowNs();
  tracer->Close(parent, "query.tick", "bench", t_tick, end);
  r->tick_ms.push_back(static_cast<double>(end - t_tick) * 1e-6);
  return ok;
}

/// Runs one timed phase. `not_ingest` names the threads, besides the
/// phase's own helpers, whose CPU is not ingest work (the query pool).
PhaseResult RunPhase(Pipeline* p, double seconds, Tracer* tracer,
                     const std::set<pid_t>& not_ingest) {
  const WorkloadConfig& cfg = *p->cfg;
  PhaseResult r;
  const uint64_t interval = cfg.refresh_interval();

  // Refresh cadence of every series (each is a freshness probe) at
  // phase start.
  std::vector<Cadence> cadence(cfg.series);
  std::vector<uint64_t> last(cfg.series);
  for (size_t i = 0; i < cfg.series; ++i) {
    const FramePtr f = p->view->Frame(p->names[i]);
    cadence[i].interval = interval;
    cadence[i].base_refreshes = f->refreshes;
    cadence[i].offset =
        (WarmOffsetPoints(cfg, i) + p->ticks_sent[i % cfg.connections]) % interval;
    last[i] = f->refreshes;
  }

  r.before = Read(*p->metrics);
  r.frames_before = SumFrames(*p->view);
  r.wire_before = p->server->stats();
  const double cpu0 = CpuSeconds();
  const std::map<pid_t, double> thread_cpu0 = ThreadCpu();

  const int64_t t0 = NowNs() + 30000000;
  Schedule sched;
  sched.t0_ns = t0;
  sched.ticks = static_cast<uint64_t>(std::llround(seconds * cfg.rate_rps / cfg.series));
  sched.tick_ns = static_cast<double>(cfg.series) / cfg.rate_rps * 1e9;
  sched.lag_ticks = cfg.LagTicks();
  // When refresh `counter` of probe i becomes due (kNeverDue if its
  // releasing record is never sent). The poller only polls probes whose
  // next refresh is due, so its cost follows the refresh rate, not the
  // probe count.
  auto due_of = [&](size_t i, uint64_t counter) {
    const uint64_t point = TriggerPoint(cadence[i], counter);
    if (point == 0) return kNeverDue;
    return ReleaseDue(sched, i % cfg.connections, point - 1,
                      static_cast<uint64_t>(cfg.sequencer_horizon_ticks),
                      p->shard_collectors[p->shard_of[i]]);
  };
  auto poll_from = [&](size_t i) -> int64_t {
    const int64_t due = due_of(i, last[i] + 1);
    return due == kNeverDue ? std::numeric_limits<int64_t>::max() : due;
  };

  // The phase's helper threads, kept out of the ingest capacity.
  std::mutex helpers_mu;
  std::set<pid_t> helpers;
  auto register_helper = [&] {
    std::lock_guard<std::mutex> lk(helpers_mu);
    helpers.insert(gettid());
  };
  std::atomic<bool> stop{false};
  std::vector<Observation> observations;
  std::thread poller([&] {
    register_helper();
    std::vector<int64_t> poll_at(cfg.series);
    for (size_t i = 0; i < cfg.series; ++i) poll_at[i] = poll_from(i);
    while (!stop.load()) {
      const int64_t pass = NowNs();
      for (size_t i = 0; i < cfg.series; ++i) {
        if (pass < poll_at[i]) continue;
        const FramePtr f = p->view->Frame(p->names[i]);
        if (f != nullptr && f->refreshes > last[i]) {
          const int64_t now = NowNs();
          for (uint64_t c = last[i] + 1; c <= f->refreshes; ++c) {
            observations.push_back(Observation{static_cast<uint32_t>(i), c, now});
          }
          last[i] = f->refreshes;
          poll_at[i] = poll_from(i);
        }
      }
      SleepNs(250000);
    }
  });
  std::thread reader([&] {
    register_helper();
    const int64_t period = static_cast<int64_t>(1e9 / cfg.query_hz);
    for (size_t j = 0; !stop.load(); ++j) {
      const int64_t due = t0 + static_cast<int64_t>(j) * period;
      while (!stop.load() && NowNs() < due) {
        SleepNs(std::min<int64_t>(due - NowNs(), 1000000));
      }
      if (stop.load()) break;
      if (!DashboardTick(*p, j, tracer, &r)) ++r.ticks_failed;
    }
  });
  // Sampler: every 20 ms the run time of every thread, so the shard
  // workers' CPU is seen before RunToCompletion joins them, and, traced,
  // every 1 ms the sequencer's staged-record peak. Only the sampler
  // updates thread_cpu until it is joined.
  std::map<pid_t, double> thread_cpu;
  auto sample_threads = [&] {
    for (const auto& [tid, s] : ThreadCpu()) thread_cpu[tid] = s;
  };
  std::thread sampler([&] {
    register_helper();
    std::vector<std::shared_ptr<asap::telemetry::Gauge>> staged;
    for (size_t sh = 0; sh < kShards; ++sh) {
      staged.push_back(p->metrics->GetGauge(
          {"asap_seq_buffered", "", {{"shard", std::to_string(sh)}}}));
    }
    for (size_t ms = 0; !stop.load(); ++ms) {
      if (tracer->enabled()) {
        double total = 0.0;
        for (const auto& g : staged) total += g->Value();
        r.seq_buffered_peak = std::max(r.seq_buffered_peak, total);
      }
      if (ms % 20 == 0) sample_threads();
      SleepNs(1000000);
    }
  });

  // The generator's DONE reply arms the pump with the record count.
  std::thread controller([&] {
    register_helper();
    std::string line;
    bool ok = p->gen->ReadLine(&line);
    std::istringstream in(line);
    std::string word;
    in >> word;
    ok &= word == "DONE";
    r.ticks.assign(cfg.connections, 0);
    for (uint64_t& t : r.ticks) in >> t;
    in >> r.gen_lag_p99_ms >> r.gen_busy_frac;
    ok &= !in.fail();
    for (size_t c = 0; c < cfg.connections; ++c) {
      r.sent += r.ticks[c] * cfg.SeriesPerCollector(c);
    }
    p->pump->Arm(ok ? r.sent : 0);
  });

  const uint64_t run_span = tracer->Open();
  p->pump->Begin(tracer->enabled() ? tracer : nullptr, run_span);
  r.t0 = t0;
  char cmd[128];
  std::snprintf(cmd, sizeof(cmd), "GO %lld %.6f %llu", static_cast<long long>(t0),
                sched.tick_ns, static_cast<unsigned long long>(sched.ticks));
  p->gen->Send(cmd);
  r.report = p->engine->RunToCompletion(p->pump.get());
  r.t_end = NowNs();
  tracer->Close(run_span, "engine.run", "stream", r.t0, r.t_end);
  controller.join();
  stop.store(true);
  poller.join();
  reader.join();
  sampler.join();
  r.cpu_s = CpuSeconds() - cpu0;
  sample_threads();
  for (const auto& [tid, s] : thread_cpu) {
    if (helpers.count(tid) != 0 || not_ingest.count(tid) != 0) continue;
    const auto it = thread_cpu0.find(tid);
    const double used = s - (it == thread_cpu0.end() ? 0.0 : it->second);
    r.busiest_thread_cpu_s = std::max(r.busiest_thread_cpu_s, used);
  }
  r.stalled = p->pump->stalled();
  r.after = Read(*p->metrics);
  r.frames_after = SumFrames(*p->view);
  r.wire_after = p->server->stats();
  r.malformed = Malformed(r.wire_after) - Malformed(r.wire_before);
  r.consumed = Consumed(r.report);
  r.next_batch_s = static_cast<double>(p->pump->in_next_ns()) * 1e-9;
  for (int64_t ns : p->pump->handoff_ns()) r.handoff_us.push_back(ns * 1e-3);
  for (size_t c = 0; c < cfg.connections; ++c) p->ticks_sent[c] += r.ticks[c];

  // Freshness: from the due time of the record that made each refresh
  // due to the first poll that saw a frame including it.
  for (const Observation& o : observations) {
    const int64_t due = due_of(o.probe, o.counter);
    if (due == kNeverDue) continue;
    r.freshness_ms.push_back(static_cast<double>(o.seen_ns - due) * 1e-6);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Correctness: standalone replay and recovery parity.

bool SameFrame(const Frame& a, const Frame& b) {
  return a.series.size() == b.series.size() &&
         (a.series.empty() ||
          std::memcmp(a.series.data(), b.series.data(),
                      a.series.size() * sizeof(double)) == 0) &&
         a.window == b.window && a.refreshes == b.refreshes &&
         a.seeded_searches == b.seeded_searches && a.cold_searches == b.cold_searches &&
         a.candidates_evaluated == b.candidates_evaluated &&
         a.allocation_free_evals == b.allocation_free_evals;
}

struct CoreTimings {
  std::vector<double> refresh_us;
  std::vector<double> visible_panes;  // the last probe's visible window
};

/// Replays everything series `s` received through a standalone operator
/// and compares its final frame with the engine's, bit for bit.
void ReplayProbe(const Pipeline& p, size_t s, Tracer* tracer, CoreTimings* timings,
                 Checks* checks) {
  const WorkloadConfig& cfg = *p.cfg;
  auto ref = StreamingAsap::Create(SeriesOptions(cfg));
  const int64_t t_start = NowNs();
  const uint64_t parent = tracer->Open();
  // Pane means, for the ACF/search timings.
  std::vector<double> history = WarmPanes(p.seed, cfg, s);
  ref->RestorePanes(history.data(), history.size(), CadencedWarm(cfg));
  const uint64_t ticks = p.ticks_sent[s % cfg.connections];
  const int64_t width = static_cast<int64_t>(cfg.pane_ticks());
  double pane_sum = 0.0;
  size_t pane_count = 0;
  int64_t pane = 0;
  for (uint64_t k = 0; k < ticks; ++k) {
    const double x = Value(p.seed, cfg.cycle_ticks, s, k % cfg.cycle_ticks);
    const int64_t ts = static_cast<int64_t>(k + 1);
    const int64_t idx = ts / width;
    if (pane_count > 0 && idx != pane) {
      history.push_back(pane_sum / static_cast<double>(pane_count));
      pane_sum = 0.0;
      pane_count = 0;
    }
    pane = idx;
    pane_sum += x;
    ++pane_count;
    const int64_t t = NowNs();
    const size_t refreshed = ref->PushTimed(&x, &ts, 1);
    if (refreshed > 0) {
      const int64_t now = NowNs();
      timings->refresh_us.push_back(static_cast<double>(now - t) * 1e-3);
      tracer->Add("core.refresh", "core", t, now, parent);
    }
  }
  tracer->Close(parent, "core.replay", "bench", t_start, NowNs());
  const size_t visible = cfg.visible_points / cfg.pane_ticks();
  const size_t keep = std::min(visible, history.size());
  timings->visible_panes.assign(history.end() - static_cast<ptrdiff_t>(keep),
                                history.end());
  const FramePtr live = p.view->Frame(p.names[s]);
  checks->Expect(live != nullptr && SameFrame(ref->frame(), *live),
                 "probe " + p.names[s] + " frame differs from a standalone replay");
}

struct RecoveryResult {
  double open_s = 0.0, replay_s = 0.0, recovery_s = 0.0;
  uint64_t panes = 0;
};

/// Closes the store, reopens it and replays it faithfully into a fresh
/// engine; every series' frame and snapshot ring must match the live ones.
RecoveryResult Recover(Pipeline* p, Tracer* tracer, Checks* checks) {
  const WorkloadConfig& cfg = *p->cfg;
  RecoveryResult rr;
  std::vector<std::vector<FramePtr>> live(cfg.series);
  for (size_t s = 0; s < cfg.series; ++s) live[s] = p->view->History(p->names[s]);
  p->store.reset();  // clean shutdown; the stopped engine no longer appends

  MetricsRegistry metrics;
  const int64_t t0 = NowNs();
  const uint64_t parent = tracer->Open();
  auto store = asap::storage::DurableStore::Open(p->store_dir, StoreOpts(&metrics));
  const int64_t t_open = NowNs();
  tracer->Add("storage.open", "storage", t0, t_open, parent);
  if (!store.ok()) {
    checks->Expect(false, "store reopen: " + store.status().ToString());
    return rr;
  }
  asap::stream::ShardedEngineOptions eo;
  eo.shards = kShards;
  eo.metrics = &metrics;
  auto engine = asap::stream::ShardedEngine::Create(SeriesOptions(cfg), eo);
  auto replay = asap::storage::ReplayIntoEngine(**store, &*engine,
                                                asap::storage::ReplayFidelity::kFaithful);
  const int64_t t_replay = NowNs();
  tracer->Add("storage.replay", "storage", t_open, t_replay, parent);
  asap::stream::FleetView view(&*engine);
  const bool queryable = view.Frame(p->names[0]) != nullptr;
  const int64_t t_first = NowNs();
  tracer->Close(parent, "recovery", "bench", t0, t_first);
  rr.open_s = static_cast<double>(t_open - t0) * 1e-9;
  rr.replay_s = static_cast<double>(t_replay - t_open) * 1e-9;
  rr.recovery_s = static_cast<double>(t_first - t0) * 1e-9;
  checks->Expect(replay.ok() && queryable, "faithful replay failed");
  if (!replay.ok()) return rr;
  rr.panes = replay->panes_restored;
  for (size_t s = 0; s < cfg.series; ++s) {
    const std::vector<FramePtr> rec = view.History(p->names[s]);
    bool same = rec.size() == live[s].size() && !rec.empty();
    for (size_t i = 0; same && i < rec.size(); ++i) {
      same = SameFrame(*rec[i], *live[s][i]);
    }
    checks->Expect(same, "recovered frames of " + p->names[s] + " differ from live");
  }
  return rr;
}

// ---------------------------------------------------------------------------
// Output.

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out;
}

struct Metric {
  std::string name, unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string ConfigJson(const WorkloadConfig& c) {
  std::ostringstream o;
  o << "{\"name\": \"" << c.name << "\", \"series\": " << c.series
    << ", \"connections\": " << c.connections << ", \"encoding\": \""
    << (c.text ? "text" : "binary-0xA7") << "\", \"resolution\": " << c.resolution
    << ", \"visible_points\": " << c.visible_points
    << ", \"pane_ticks\": " << c.pane_ticks()
    << ", \"refresh_interval_points\": " << c.refresh_interval()
    << ", \"snapshot_ring\": " << c.snapshot_ring << ", \"event_loops\": " << kEventLoops
    << ", \"shards\": " << kShards << ", \"overflow_policy\": \"block\""
    << ", \"sequencer_horizon_ticks\": " << c.sequencer_horizon_ticks
    << ", \"durable_store\": " << (c.durable_store ? "\"kInterval, 512 KiB segments\"" : "null")
    << ", \"loop\": \"open\", \"rate_rps\": " << Num(c.rate_rps)
    << ", \"lag_ticks_last_collector\": " << c.lag_ticks_last
    << ", \"warm_up\": \"" << (CadencedWarm(c) ? "cadenced staggered restore" : "bulk restore")
    << "\", \"cycle_ticks\": " << c.cycle_ticks
    << ", \"query_hz\": " << Num(c.query_hz) << ", \"query_glob\": \"" << c.prefix << "/"
    << c.query_slice << "\", \"query_threads\": " << c.query_threads
    << ", \"freshness_probes\": " << c.series << "}";
  return o.str();
}

template <typename T>
std::string Support(const std::vector<T>& xs) {
  return "{\"samples\": " + std::to_string(xs.size()) +
         ", \"highest_percentile\": " + Num(HighestQualifyingPercentile(xs.size())) + "}";
}

/// Ingest capacity: records consumed per CPU second of the busiest
/// ingest thread (an event loop, the producer running RunToCompletion,
/// a shard worker or the store's maintenance thread). A pipeline of
/// threads cannot consume faster than its busiest stage, so this is the
/// rate at which the pipeline saturates, measured below saturation.
double IngestCapacity(const PhaseResult& r) {
  return Ratio(static_cast<double>(r.consumed), r.busiest_thread_cpu_s);
}

/// The latency figures kept out of the gated end-to-end set (see
/// README.md): every run's meta line records them, traced runs report
/// them as per-layer metrics.
std::vector<Metric> Latencies(const PhaseResult& r) {
  return {{"freshness_p50_ms", "ms", Pct(r.freshness_ms, 0.50)},
          {"freshness_p99_ms", "ms", Pct(r.freshness_ms, 0.99)},
          {"query_p99_ms", "ms", Pct(r.tick_ms, 0.99)}};
}

double HistUs(const LatencyHistogram::Snapshot& s, double q) {
  return static_cast<double>(s.Quantile(q)) * 1e-3;
}

}  // namespace

int BenchMain(const BenchArgs& args) {
  const int64_t process_start = NowNs();
  const WorkloadConfig* cfg_ptr = FindWorkload(args.workload);
  if (cfg_ptr == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadConfig& cfg = *cfg_ptr;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  signal(SIGPIPE, SIG_IGN);

  // Start the query pool before any pipeline so its workers are known
  // and kept out of the ingest capacity.
  const std::map<pid_t, double> threads_before_pool = ThreadCpu();
  asap::TaskPool::Global();
  std::set<pid_t> pool_threads;
  for (const auto& [tid, s] : ThreadCpu()) {
    if (threads_before_pool.count(tid) == 0) pool_threads.insert(tid);
  }

  // Set up several times and keep the last pipeline; setup_s is the
  // median. The first set-up counts from process start.
  Checks checks;
  Tracer tracer;
  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> p;
  constexpr int kSetups = 5;
  for (int rep = 0; rep < kSetups; ++rep) {
    const int64_t start = rep == 0 ? process_start : NowNs();
    p.reset();
    std::string err;
    p = Setup(cfg, args.seed, rep, args.out_dir, &err);
    if (p == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  // Untraced runs measure one phase. Traced runs measure an untraced
  // half and a traced half; per-layer numbers come from the traced one
  // and trace.overhead_frac compares the two.
  std::vector<PhaseResult> phases;
  if (args.trace) {
    phases.push_back(RunPhase(p.get(), args.seconds / 2.0, &tracer, pool_threads));
    tracer.set_enabled(true);
    phases.push_back(RunPhase(p.get(), args.seconds / 2.0, &tracer, pool_threads));
  } else {
    phases.push_back(RunPhase(p.get(), args.seconds, &tracer, pool_threads));
  }
  // Before the replay and recovery checks build their own operators.
  const double peak_rss_mb = PeakRssMb();

  uint64_t attempted = 0, failed = 0;
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& ph = phases[i];
    CheckAccounting(i == 0 ? "phase 1" : "phase 2", ph.sent, ph.malformed, ph.report,
                    &checks);
    checks.Expect(!ph.stalled, "the run stalled before all sent records arrived");
    attempted += ph.sent + ph.tick_ms.size();
    failed += (ph.sent - std::min(ph.sent, ph.consumed)) + ph.ticks_failed;
  }
  CoreTimings core;
  // Two probes on different collectors and, likely, shards.
  ReplayProbe(*p, 0, &tracer, &core, &checks);
  ReplayProbe(*p, cfg.series / 2 + 1, &tracer, &core, &checks);
  RecoveryResult rec;
  if (cfg.durable_store) rec = Recover(p.get(), &tracer, &checks);
  attempted += checks.run;
  failed += checks.failed;
  const double delivered_frac =
      1.0 - static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(1, attempted));
  const bool correct = checks.failed == 0 && failed == 0;

  const PhaseResult& m = phases.back();
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", Pct(setup_s, 0.5)},
        {"ingest_rps", "rec/s", IngestCapacity(m)},
        {"query_p50_ms", "ms", Pct(m.tick_ms, 0.50)},
        {"cpu_us_per_rec", "us", Ratio(m.cpu_s * 1e6, static_cast<double>(m.consumed))},
        {"delivered_frac", "ratio", delivered_frac},
        {"peak_rss_mb", "MiB", peak_rss_mb},
    };
  } else {
    const Reading& a = m.before;
    const Reading& b = m.after;
    auto hist = [&](const char* key) { return HistDelta(a, b, key); };
    auto ctr = [&](const char* key) {
      return static_cast<double>(CounterDelta(a, b, key));
    };
    const auto decode = hist("asap_wire_decode_seconds");
    const auto push = hist("asap_shard_push_seconds");
    const auto drain = hist("asap_shard_drain_seconds");
    const auto wal = hist("asap_store_wal_append_seconds");
    const auto fsync = hist("asap_store_fsync_seconds");
    const auto compaction = hist("asap_store_compaction_seconds");
    const auto fanout = hist("asap_pool_fanout_seconds");
    double busy = 0.0, max_points = 0.0, sum_points = 0.0, queue_peak = 0.0;
    for (const auto& s : m.report.shards) {
      busy += s.busy_seconds;
      max_points = std::max(max_points, static_cast<double>(s.points));
      sum_points += static_cast<double>(s.points);
      queue_peak = std::max(queue_peak, static_cast<double>(s.peak_queue_depth));
    }
    const double shards = static_cast<double>(m.report.shards.size());
    const PhaseResult& untraced = phases.front();
    const double cpu_untraced =
        Ratio(untraced.cpu_s, static_cast<double>(untraced.consumed));
    const double cpu_traced = Ratio(m.cpu_s, static_cast<double>(m.consumed));
    std::vector<double> acf_us, search_us;
    if (core.visible_panes.size() >= 8) {
      const std::vector<double>& x = core.visible_panes;
      asap::SearchOptions so;
      const size_t max_lag = so.ResolveMaxWindow(x.size()) + 1;
      for (int i = 0; i < 50; ++i) {
        int64_t t = NowNs();
        const asap::AcfInfo acf = asap::ComputeAcfInfo(x, max_lag, so.acf_threshold);
        int64_t now = NowNs();
        acf_us.push_back(static_cast<double>(now - t) * 1e-3);
        tracer.Add("fft.acf", "fft", t, now);
        t = NowNs();
        asap::AsapSearchWithAcf(x, acf, so);
        now = NowNs();
        search_us.push_back(static_cast<double>(now - t) * 1e-3);
        tracer.Add("core.search", "core", t, now);
      }
    }
    const double refreshes =
        static_cast<double>(m.frames_after.refreshes - m.frames_before.refreshes);
    const double seeded = static_cast<double>(m.frames_after.seeded - m.frames_before.seeded);
    const double cold = static_cast<double>(m.frames_after.cold - m.frames_before.cold);
    metrics = {
        {"gen.lag_p99_ms", "ms", m.gen_lag_p99_ms},
        {"gen.busy_frac", "ratio", m.gen_busy_frac},
        {"net.decode_us.p50", "us", HistUs(decode, 0.50)},
        {"net.decode_us.p99", "us", HistUs(decode, 0.99)},
        {"net.records_per_batch", "count",
         Ratio(ctr("asap_wire_batch_records_total"), ctr("asap_wire_batches_total"))},
        {"net.events_per_wakeup", "ratio",
         Ratio(ctr("asap_wire_events_total"), ctr("asap_wire_wakeups_total"))},
        {"net.bytes_per_rec", "B",
         Ratio(ctr("asap_wire_bytes_total"), ctr("asap_wire_records_total"))},
        {"net.handoff_us.p50", "us", Pct(m.handoff_us, 0.50)},
        {"net.handoff_us.p99", "us", Pct(m.handoff_us, 0.99)},
        {"net.idle_poll_frac", "ratio", Ratio(m.next_batch_s, m.seconds())},
        {"stream.shard.push_us.p99", "us", HistUs(push, 0.99)},
        {"stream.shard.drain_us.p50", "us", HistUs(drain, 0.50)},
        {"stream.shard.drain_us.p99", "us", HistUs(drain, 0.99)},
        {"stream.shard.busy_frac", "ratio", Ratio(busy, shards * m.seconds())},
        {"stream.shard.skew", "ratio", Ratio(max_points, sum_points / shards)},
        {"stream.shard.queue_peak", "count", queue_peak},
        {"stream.seq.buffered_peak", "count", m.seq_buffered_peak},
        {"stream.seq.late", "count", ctr("asap_seq_late_total")},
        {"core.refresh_us.p50", "us", Pct(core.refresh_us, 0.50)},
        {"core.refresh_us.p99", "us", Pct(core.refresh_us, 0.99)},
        {"core.candidates_per_refresh", "count",
         Ratio(static_cast<double>(m.frames_after.candidates - m.frames_before.candidates),
               refreshes)},
        {"core.warm_start_frac", "ratio", Ratio(seeded, seeded + cold)},
        {"fft.acf_us", "us", Pct(acf_us, 0.5)},
        {"core.search_us", "us", Pct(search_us, 0.5)},
        {"storage.wal_append_us.p99", "us", HistUs(wal, 0.99)},
        {"storage.fsync_ms.p99", "ms", HistUs(fsync, 0.99) * 1e-3},
        {"storage.compaction_ms.p99", "ms", HistUs(compaction, 0.99) * 1e-3},
        {"storage.wal_bytes_per_pane", "B",
         Ratio(ctr("asap_store_wal_bytes_total"), ctr("asap_store_panes_total"))},
        {"storage.open_s", "s", rec.open_s},
        {"storage.replay_s", "s", rec.replay_s},
        {"storage.replay_panes_per_s", "1/s", Ratio(static_cast<double>(rec.panes), rec.replay_s)},
        {"recovery_s", "s", rec.recovery_s},
    };
    for (size_t k = 0; k < kNumQueryKinds; ++k) {
      const std::string base = std::string("stream.query.") + kQueryKinds[k] + "_us";
      metrics.push_back({base + ".p50", "us", Pct(m.query_us[k], 0.50)});
      metrics.push_back({base + ".p99", "us", Pct(m.query_us[k], 0.99)});
    }
    metrics.push_back({"pool.fanout_us.p99", "us", HistUs(fanout, 0.99)});
    metrics.push_back({"pool.inline_frac", "ratio",
                       Ratio(ctr("asap_pool_inline_total"),
                             ctr("asap_pool_inline_total") + ctr("asap_pool_jobs_total"))});
    metrics.push_back({"trace.overhead_frac", "ratio",
                       cpu_untraced > 0.0 ? cpu_traced / cpu_untraced - 1.0 : 0.0});
    metrics.push_back({"loss_frac", "ratio", 1.0 - delivered_frac});
    for (const Metric& l : Latencies(m)) metrics.push_back(l);
  }

  // Everything a reader needs to reproduce the run.
  std::ostringstream meta;
  meta << "\"commit\": \"" << JsonEscape(args.commit) << "\", \"source_digest\": \""
       << JsonEscape(args.source_digest) << "\", \"host\": {\"nproc\": "
       << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
       << JsonEscape(CpuModel()) << "\"}, \"workload\": " << ConfigJson(cfg)
       << ", \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"setup_s_each\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) meta << (i ? ", " : "") << Num(setup_s[i]);
  meta << "], \"latency\": " << MetricsJson(Latencies(m))
       << ", \"freshness\": " << Support(m.freshness_ms)
       << ", \"query\": " << Support(m.tick_ms) << ", \"records_sent\": " << m.sent
       << ", \"records_consumed\": " << m.consumed
       << ", \"refreshes\": " << (m.frames_after.refreshes - m.frames_before.refreshes)
       << ", \"gen_lag_p99_ms\": " << Num(m.gen_lag_p99_ms)
       << ", \"gen_busy_frac\": " << Num(m.gen_busy_frac)
       << ", \"consumed_rps\": " << Num(Ratio(static_cast<double>(m.consumed), m.seconds()))
       << ", \"busiest_ingest_thread_cpu_s\": " << Num(m.busiest_thread_cpu_s)
       << ", \"checks\": " << checks.run << ", \"failures\": [";
  for (size_t i = 0; i < checks.failures.size(); ++i) {
    meta << (i ? ", " : "") << "\"" << JsonEscape(checks.failures[i]) << "\"";
  }
  meta << "]";
  if (args.trace) {
    // Cross-check: bench-side query spans against the registry's own
    // asap_query_seconds for the kinds the view instruments.
    meta << ", \"registry_query_us\": {";
    const char* timed_kinds[] = {"sample_glob", "diff_history", "history_deep"};
    for (size_t i = 0; i < 3; ++i) {
      const auto h = HistDelta(m.before, m.after,
                               std::string("asap_query_seconds{") + timed_kinds[i] + "}");
      meta << (i ? ", " : "") << "\"" << timed_kinds[i] << "\": {\"p50\": "
           << Num(HistUs(h, 0.5)) << ", \"p99\": " << Num(HistUs(h, 0.99))
           << ", \"count\": " << h.count << "}";
    }
    meta << "}";
    const std::string path = args.out_dir + "/trace-" + cfg.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    tracer.Write(path, meta.str() + ", \"metrics\": " + MetricsJson(metrics));
    meta << ", \"trace_file\": \"" << JsonEscape(path) << "\"";
  }
  std::printf("{\"meta\": {%s}}\n", meta.str().c_str());
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  p.reset();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
