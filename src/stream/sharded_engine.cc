#include "stream/sharded_engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "storage/store.h"
#include "stream/sequencer.h"

namespace asap {
namespace stream {

// One worker shard: a slice of the fleet's series table plus the
// bounded batch queue that feeds it. Queue state is guarded by `mu`;
// `registry_mu` serializes the worker's batch consumption against
// concurrent SnapshotById lookups (the frame read itself is lock-free —
// the map lookup is what needs the lock). Worker-side counters are
// written by the worker thread only and read after join.
struct ShardedEngine::Shard {
  Shard(const StreamingOptions& series_options, size_t index,
        telemetry::MetricsRegistry* metrics, SeriesCatalog* catalog,
        storage::DurableStore* storage, int64_t sequencer_horizon)
      : registry(series_options),
        catalog(catalog),
        storage(storage),
        timed(series_options.pane_width_ticks > 0),
        sequencer(sequencer_horizon > 0
                      ? std::make_unique<Sequencer>(sequencer_horizon)
                      : nullptr) {
    const std::string shard_label = std::to_string(index);
    using Labels = std::vector<std::pair<std::string, std::string>>;
    const Labels labels = {{"shard", shard_label}};
    queue_depth = metrics->GetGauge(
        {"asap_shard_queue_depth", "Batches queued for the shard worker",
         labels});
    push_nanos = metrics->GetHistogram(
        {"asap_shard_push_seconds", "Producer enqueue latency per batch",
         labels, 1e-9});
    drain_nanos = metrics->GetHistogram(
        {"asap_shard_drain_seconds", "Worker consume latency per batch",
         labels, 1e-9});
    records_total = metrics->GetCounter(
        {"asap_shard_records_total", "Records consumed by the shard worker",
         labels});
    // asap_seq_*: registered unconditionally (a scrape sees the family
    // at 0 even when sequencing is off, so dashboards and the CI greps
    // need no horizon-dependent wiring).
    seq_emitted_total = metrics->GetCounter(
        {"asap_seq_emitted_total",
         "Records the shard sequencer released in timestamp order", labels});
    seq_late_total = metrics->GetCounter(
        {"asap_seq_late_total",
         "Records dropped as late (older than watermark - horizon)", labels});
    seq_buffered = metrics->GetGauge(
        {"asap_seq_buffered",
         "Records staged in the shard sequencer's reordering window",
         labels});
  }

  SeriesRegistry registry;
  SeriesCatalog* catalog = nullptr;          // for name-keyed registration
  storage::DurableStore* storage = nullptr;  // null = memory-only

  // Timed pane mode (series options' pane grid; see StreamingOptions).
  bool timed = false;
  /// The shard's reordering stage (stream/sequencer.h), built once so
  /// its watermark and late rule hold across runs. Null when the
  /// horizon is 0: the engine bypasses sequencing. Worker-thread only
  /// during a run; read after join.
  std::unique_ptr<Sequencer> sequencer;
  /// sequencer->late_dropped() already folded into seq_late_total.
  uint64_t late_folded = 0;

  // Durable-tier scratch, touched by the worker thread only. Each
  // drained batch accumulates completed-pane means per series run in
  // `flat_panes` (one flat buffer, no per-run allocation) and flushes
  // them in a single AppendPanes call.
  std::unordered_map<SeriesId, uint32_t> storage_sids;  // engine -> store id
  std::vector<double> run_values;    // per-run value scratch
  std::vector<int64_t> run_ts;       // per-run timestamp scratch (timed)
  std::vector<double> pane_scratch;  // sink target while one run pushes
  std::vector<double> flat_panes;
  struct PaneRunMeta {
    uint32_t sid;
    size_t offset;
    size_t count;
  };
  std::vector<PaneRunMeta> run_meta;
  bool storage_ok = true;  // latches false on the first append error

  static void PaneSinkThunk(void* ctx, double mean) {
    static_cast<std::vector<double>*>(ctx)->push_back(mean);
  }

  // asap_shard_* instruments (labelled shard="i") in the engine's
  // registry. Writes are batch-granular: one gauge store + histogram
  // record per Enqueue/Dequeue, never per record.
  std::shared_ptr<telemetry::Gauge> queue_depth;
  std::shared_ptr<telemetry::LatencyHistogram> push_nanos;
  std::shared_ptr<telemetry::LatencyHistogram> drain_nanos;
  std::shared_ptr<telemetry::Counter> records_total;
  std::shared_ptr<telemetry::Counter> seq_emitted_total;
  std::shared_ptr<telemetry::Counter> seq_late_total;
  std::shared_ptr<telemetry::Gauge> seq_buffered;
  mutable std::mutex registry_mu;

  std::mutex mu;
  std::condition_variable not_empty;
  std::condition_variable not_full;
  std::deque<RecordBatch> queue;
  bool closed = false;
  size_t peak_queue_depth = 0;  // producer-side, under mu

  // Worker-side per-run counters.
  uint64_t points = 0;
  uint64_t batches = 0;
  uint64_t late = 0;
  double busy_seconds = 0.0;

  /// Hands a batch to the worker, waiting for queue room first: a
  /// full queue stalls the producer (lossless backpressure).
  void Enqueue(RecordBatch batch, size_t capacity) {
    telemetry::ScopedTimer push_timer(push_nanos.get());
    std::unique_lock<std::mutex> lock(mu);
    not_full.wait(lock, [&] { return queue.size() < capacity; });
    queue.push_back(std::move(batch));
    peak_queue_depth = std::max(peak_queue_depth, queue.size());
    queue_depth->Set(static_cast<double>(queue.size()));
    not_empty.notify_one();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    not_empty.notify_all();
  }

  /// Returns false when the queue is closed and drained.
  bool Dequeue(RecordBatch* out) {
    std::unique_lock<std::mutex> lock(mu);
    not_empty.wait(lock, [&] { return closed || !queue.empty(); });
    if (queue.empty()) {
      return false;
    }
    *out = std::move(queue.front());
    queue.pop_front();
    queue_depth->Set(static_cast<double>(queue.size()));
    not_full.notify_one();
    return true;
  }

  /// Feeds one ordered batch into the shard's operators. Records of
  /// one series are contiguous runs within a batch only by accident;
  /// the loop groups whatever runs exist so full panes take
  /// StreamingAsap's bulk-append fast path (timed mode feeds the same
  /// runs through PushTimed with the run's timestamps). registry_mu
  /// is held only around the map lookup/insert — never across
  /// PushBatch — so a concurrent SnapshotById waits for a pointer chase,
  /// not a window search. The operator pointer stays valid outside
  /// the lock: unordered_map never invalidates references on insert,
  /// and this worker is the shard's only mutator.
  void ProcessRecords(const RecordBatch& batch) {
    size_t i = 0;
    flat_panes.clear();
    run_meta.clear();
    while (i < batch.size()) {
      const SeriesId id = batch[i].series_id;
      size_t j = i + 1;
      while (j < batch.size() && batch[j].series_id == id) {
        ++j;
      }
      run_values.clear();
      run_values.reserve(j - i);
      for (size_t k = i; k < j; ++k) {
        run_values.push_back(batch[k].value);
      }
      if (timed) {
        run_ts.clear();
        run_ts.reserve(j - i);
        for (size_t k = i; k < j; ++k) {
          run_ts.push_back(batch[k].ts);
        }
      }
      StreamingAsap* op = nullptr;
      {
        std::lock_guard<std::mutex> lock(registry_mu);
        op = &registry.GetOrCreate(id);
      }
      if (storage != nullptr && storage_ok) {
        // Catch the panes this run completes: the sink fills the
        // shard scratch, flushed once per batch below. (Setting the
        // sink each run is two pointer stores — cheap, and it also
        // covers operators created by recovery's RestoreSeries.)
        pane_scratch.clear();
        op->set_pane_sink(&PaneSinkThunk, &pane_scratch);
        PushRun(op);
        op->set_pane_sink(nullptr, nullptr);
        if (!pane_scratch.empty()) {
          const uint32_t sid = StoreSidFor(id);
          if (storage_ok) {
            run_meta.push_back(
                PaneRunMeta{sid, flat_panes.size(), pane_scratch.size()});
            flat_panes.insert(flat_panes.end(), pane_scratch.begin(),
                              pane_scratch.end());
          }
        }
      } else {
        PushRun(op);
      }
      i = j;
    }
    if (!run_meta.empty() && storage_ok) {
      // One durable append per drained batch: all series' completed
      // panes ride one WAL frame (batch-granular durability).
      std::vector<storage::PaneRun> runs;
      runs.reserve(run_meta.size());
      for (const PaneRunMeta& m : run_meta) {
        storage::PaneRun run;
        run.sid = m.sid;
        run.values = flat_panes.data() + m.offset;
        run.count = static_cast<uint32_t>(m.count);
        runs.push_back(run);
      }
      if (!storage->AppendPanes(runs.data(), runs.size()).ok()) {
        // The store poisons itself on the first IO error; stop
        // paying the append cost and keep the engine serving reads.
        storage_ok = false;
      }
    }
  }

  /// One series run into its operator, in the mode the engine runs in.
  void PushRun(StreamingAsap* op) {
    if (timed) {
      op->PushTimed(run_values.data(), run_ts.data(), run_values.size());
    } else {
      op->PushBatch(run_values.data(), run_values.size());
    }
  }

  /// Consumes queued batches until the queue closes and drains. With
  /// a sequencer active, every dequeued batch is staged and only the
  /// records released in timestamp order reach the operators; the
  /// reordering tail is flushed after the queue closes (end of
  /// stream), so `points` counts exactly the records operators
  /// consumed and the run-report identity pulled == consumed + late
  /// holds.
  void WorkerLoop() {
    RecordBatch batch;
    RecordBatch ordered;
    while (Dequeue(&batch)) {
      Stopwatch busy;
      const RecordBatch* work = &batch;
      if (sequencer != nullptr) {
        ordered.clear();
        sequencer->Push(batch.data(), batch.size(), &ordered);
        FoldSequencerCounters(ordered.size());
        work = &ordered;
      }
      ProcessRecords(*work);
      points += work->size();
      batches += 1;
      records_total->Add(work->size());
      const uint64_t busy_nanos = busy.ElapsedNanos();
      drain_nanos->Record(busy_nanos);
      busy_seconds += static_cast<double>(busy_nanos) * 1e-9;
    }
    if (sequencer != nullptr) {
      Stopwatch busy;
      ordered.clear();
      sequencer->Flush(&ordered);
      FoldSequencerCounters(ordered.size());
      if (!ordered.empty()) {
        ProcessRecords(ordered);
        points += ordered.size();
        records_total->Add(ordered.size());
      }
      const uint64_t busy_nanos = busy.ElapsedNanos();
      drain_nanos->Record(busy_nanos);
      busy_seconds += static_cast<double>(busy_nanos) * 1e-9;
    }
  }

  /// Folds the sequencer's since-last-call deltas into the asap_seq_*
  /// instruments and the run's late count (batch-granular, like every
  /// other hot-path write).
  void FoldSequencerCounters(size_t emitted_now) {
    seq_emitted_total->Add(emitted_now);
    const uint64_t late_now = sequencer->late_dropped();
    seq_late_total->Add(late_now - late_folded);
    late += late_now - late_folded;
    late_folded = late_now;
    seq_buffered->Set(static_cast<double>(sequencer->buffered()));
  }

  /// Store id for an engine series id, registering by name on first
  /// sight. Worker-thread only (the map is unsynchronized).
  uint32_t StoreSidFor(SeriesId id) {
    auto it = storage_sids.find(id);
    if (it != storage_sids.end()) {
      return it->second;
    }
    auto sid = storage->RegisterSeries(catalog->NameOf(id));
    if (!sid.ok()) {
      storage_ok = false;
      storage_sids.emplace(id, 0);
      return 0;
    }
    storage_sids.emplace(id, sid.ValueOrDie());
    return sid.ValueOrDie();
  }

  void ResetRunCounters() {
    std::lock_guard<std::mutex> lock(mu);
    ASAP_CHECK(queue.empty());
    closed = false;
    peak_queue_depth = 0;
    points = 0;
    batches = 0;
    late = 0;
    busy_seconds = 0.0;
  }
};

Result<ShardedEngine> ShardedEngine::Create(
    const StreamingOptions& series_options,
    const ShardedEngineOptions& engine_options) {
  if (engine_options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (engine_options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (engine_options.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (engine_options.sequencer_horizon_ticks < 0) {
    return Status::InvalidArgument("sequencer_horizon_ticks must be >= 0");
  }
  // Probe the per-series factory configuration once so invalid options
  // fail here instead of aborting inside a worker thread at first use.
  Result<StreamingAsap> probe = StreamingAsap::Create(series_options);
  if (!probe.ok()) {
    return probe.status();
  }
  return ShardedEngine(series_options, engine_options);
}

ShardedEngine::ShardedEngine(const StreamingOptions& series_options,
                             const ShardedEngineOptions& engine_options)
    : series_options_(series_options),
      options_(engine_options),
      catalog_(std::make_shared<SeriesCatalog>()),
      run_in_flight_(std::make_shared<std::atomic<bool>>(false)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_shared<telemetry::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        series_options_, i, metrics_, catalog_.get(), options_.storage,
        options_.sequencer_horizon_ticks));
  }
}

ShardedEngine::ShardedEngine(ShardedEngine&&) noexcept = default;
ShardedEngine& ShardedEngine::operator=(ShardedEngine&&) noexcept = default;
ShardedEngine::~ShardedEngine() = default;

size_t ShardedEngine::shards() const { return shards_.size(); }

size_t ShardedEngine::ShardOf(SeriesId id, size_t shard_count) {
  ASAP_CHECK_GE(shard_count, 1u);
  // splitmix64 finalizer: cheap, and spreads the dense sequential ids
  // fleets typically assign (host 0..N) instead of striping them.
  uint64_t h = id;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h % shard_count);
}

std::shared_ptr<const StreamingAsap::Frame> ShardedEngine::SnapshotById(
    SeriesId id) const {
  const Shard& shard = *shards_[ShardOf(id, shards_.size())];
  std::lock_guard<std::mutex> lock(shard.registry_mu);
  const StreamingAsap* op = shard.registry.Find(id);
  return op == nullptr ? nullptr : op->frame_snapshot();
}

std::vector<std::shared_ptr<const StreamingAsap::Frame>>
ShardedEngine::FrameHistoryById(SeriesId id) const {
  const Shard& shard = *shards_[ShardOf(id, shards_.size())];
  std::lock_guard<std::mutex> lock(shard.registry_mu);
  const StreamingAsap* op = shard.registry.Find(id);
  return op == nullptr
             ? std::vector<std::shared_ptr<const StreamingAsap::Frame>>{}
             : op->FrameHistory();
}

Status ShardedEngine::RestoreSeries(std::string_view name,
                                    const double* pane_means, size_t n,
                                    bool cadenced) {
  if (!IsValidSeriesName(name)) {
    return Status::InvalidArgument("RestoreSeries: invalid series name");
  }
  if (run_in_flight_->load(std::memory_order_acquire)) {
    return Status::Internal("RestoreSeries: run in flight");
  }
  const SeriesId id = catalog_->Intern(name);
  Shard& shard = *shards_[ShardOf(id, shards_.size())];
  StreamingAsap* op = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.registry_mu);
    op = &shard.registry.GetOrCreate(id);
  }
  if (op->points_consumed() != 0) {
    return Status::AlreadyExists("RestoreSeries: series already has points");
  }
  // No sink: these panes are already durable (restore must never echo
  // them back into the store).
  op->RestorePanes(pane_means, n, cadenced);
  return Status::OK();
}

const SeriesRegistry& ShardedEngine::shard_registry(size_t shard) const {
  ASAP_CHECK_LT(shard, shards_.size());
  // Contract (see header): deep registry reads race the shard worker,
  // so they are only legal between runs. Debug builds catch misuse.
  ASAP_DCHECK(!run_in_flight_->load(std::memory_order_acquire));
  return shards_[shard]->registry;
}

FleetReport ShardedEngine::RunToCompletion(MultiSource* source) {
  return Run(source, /*budget_seconds=*/0.0);
}

FleetReport ShardedEngine::RunForBudget(MultiSource* source,
                                        double budget_seconds) {
  ASAP_CHECK_GT(budget_seconds, 0.0);
  return Run(source, budget_seconds);
}

FleetReport ShardedEngine::Run(MultiSource* source, double budget_seconds) {
  ASAP_CHECK(source != nullptr);
  const size_t num_shards = shards_.size();
  for (auto& shard : shards_) {
    shard->ResetRunCounters();
  }
  run_in_flight_->store(true, std::memory_order_release);

  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(num_shards);
  for (auto& shard : shards_) {
    workers.emplace_back([s = shard.get()] { s->WorkerLoop(); });
  }

  // Producer: pull tagged batches, partition by shard, enqueue. An
  // enqueue donates its buffer to the queue and replaces it with a
  // fresh pre-reserved one, so the partition path never re-grows a
  // split vector mid-pump.
  FleetReport report;
  RecordBatch pull;
  pull.reserve(options_.batch_size);
  std::vector<RecordBatch> split(num_shards);
  for (RecordBatch& buffer : split) {
    buffer.reserve(options_.batch_size);
  }
  for (;;) {
    if (budget_seconds > 0.0 && watch.ElapsedSeconds() >= budget_seconds) {
      break;
    }
    pull.clear();
    const size_t n = source->NextBatch(options_.batch_size, &pull);
    if (n == 0) {
      break;
    }
    report.points += n;
    if (num_shards == 1) {
      shards_[0]->Enqueue(std::move(pull), options_.queue_capacity);
      pull = RecordBatch{};
      pull.reserve(options_.batch_size);
      continue;
    }
    for (const Record& r : pull) {
      split[ShardOf(r.series_id, num_shards)].push_back(r);
    }
    for (size_t i = 0; i < num_shards; ++i) {
      if (split[i].empty()) {
        continue;
      }
      shards_[i]->Enqueue(std::move(split[i]), options_.queue_capacity);
      split[i] = RecordBatch{};
      split[i].reserve(options_.batch_size);
    }
  }

  for (auto& shard : shards_) {
    shard->Close();
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  run_in_flight_->store(false, std::memory_order_release);
  report.seconds = watch.ElapsedSeconds();
  report.points_per_second =
      report.seconds > 0.0
          ? static_cast<double>(report.points) / report.seconds
          : 0.0;

  for (size_t i = 0; i < num_shards; ++i) {
    const Shard& shard = *shards_[i];
    ShardReport sr;
    sr.shard = i;
    sr.points = shard.points;
    sr.batches = shard.batches;
    sr.series = shard.registry.size();
    sr.peak_queue_depth = shard.peak_queue_depth;
    sr.late = shard.late;
    sr.busy_seconds = shard.busy_seconds;
    shard.registry.ForEach([&sr](SeriesId, const StreamingAsap& op) {
      sr.refreshes += op.frame().refreshes;
    });
    report.refreshes += sr.refreshes;
    report.series += sr.series;
    report.late += sr.late;
    report.shards.push_back(sr);

    for (SeriesId id : shard.registry.Ids()) {
      const StreamingAsap& op = *shard.registry.Find(id);
      SeriesReport series_report;
      series_report.name = std::string(catalog_->NameOf(id));
      series_report.points = op.points_consumed();
      series_report.refreshes = op.frame().refreshes;
      series_report.window = op.frame().window;
      if (shard.sequencer != nullptr) {
        const auto& late_map = shard.sequencer->late_by_series();
        const auto it = late_map.find(id);
        series_report.late = it != late_map.end() ? it->second : 0;
      }
      report.per_series.push_back(std::move(series_report));
    }
  }
  std::sort(report.per_series.begin(), report.per_series.end(),
            [](const SeriesReport& a, const SeriesReport& b) {
              return a.name < b.name;
            });
  return report;
}

}  // namespace stream
}  // namespace asap
