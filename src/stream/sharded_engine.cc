#include "stream/sharded_engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "storage/store.h"
#include "stream/sequencer.h"

namespace asap {
namespace stream {

namespace {

// One series' state: its operator and its durable-store id. A state
// starts a cache line, so the operator's first line, which holds all
// that one timed record touches (see StreamingAsap's members), is a
// line of its own.
struct alignas(64) SeriesState {
  StreamingAsap op;
  /// The store's id for the series, registered by name on the first
  /// pane it completes. Touched by its shard's worker only.
  std::optional<uint32_t> store_sid;
};

// One shard's series states, side by side: blocks of kSlots states,
// each block allocated when the one before it fills. The slab owns
// what it built: its destructor runs each state's destructor once,
// then frees the blocks.
class Slab {
 public:
  Slab() = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  ~Slab() {
    for (size_t b = 0; b < blocks_.size(); ++b) {
      const size_t built = b + 1 < blocks_.size() ? kSlots : used_;
      for (size_t s = 0; s < built; ++s) {
        std::launder(reinterpret_cast<SeriesState*>(blocks_[b]->slots[s]))
            ->~SeriesState();
      }
    }
  }

  /// Returns the state `slot` points to, first building one from
  /// `options` in the next free slab slot and publishing it there if
  /// the slot is empty. Every creator of a series fills its slot
  /// through the one slab that owns it, so the lock makes that happen
  /// once.
  SeriesState* Fill(std::atomic<SeriesState*>* slot,
                    const StreamingOptions& options) {
    std::lock_guard<std::mutex> lock(mu_);
    SeriesState* state = slot->load(std::memory_order_relaxed);
    if (state != nullptr) {
      return state;
    }
    if (blocks_.empty() || used_ == kSlots) {
      blocks_.push_back(std::unique_ptr<Block>(new Block));
      used_ = 0;
    }
    state = new (blocks_.back()->slots[used_])
        SeriesState{StreamingAsap::Create(options).ValueOrDie(), std::nullopt};
    ++used_;
    slot->store(state, std::memory_order_release);
    return state;
  }

 private:
  static constexpr size_t kSlots = 64;
  struct Block {
    alignas(SeriesState) unsigned char slots[kSlots][sizeof(SeriesState)];
  };
  std::mutex mu_;  // guards blocks_ and used_
  std::vector<std::unique_ptr<Block>> blocks_;
  size_t used_ = 0;  // states built in blocks_.back()
};

}  // namespace

// The fleet's series table, indexed by the catalog's dense SeriesId.
// Ids are never reused, so the table only grows: a fixed array of
// chunks, chunk k holding the 64 * 2^k ids from 64 * (2^k - 1), each
// allocated on first use and installed by compare-exchange (27 chunks
// cover every uint32 id). A slot is filled once, by the owning shard's
// worker or by RestoreSeries between runs, and freed only with the
// engine. Writers publish with release and readers load with acquire,
// so a reader finds a series in two loads without taking a lock.
//
// A slot points into the slab of the shard that owns the series
// (ShardOf), whichever thread fills it: a worker's states sit side by
// side, not each next to the pane blocks and frames that the creating
// thread allocated with it, so feeding one record a series touches one
// line of a dense block. Every creator of an id fills its slot through
// that slab, under the slab's lock, so a slot is built once.
class ShardedEngine::SeriesTable {
 public:
  SeriesTable(const StreamingOptions& options, size_t shards)
      : options_(options), slabs_(shards) {}
  SeriesTable(const SeriesTable&) = delete;
  SeriesTable& operator=(const SeriesTable&) = delete;

  ~SeriesTable() {
    for (std::atomic<Slot*>& chunk : chunks_) {
      delete[] chunk.load(std::memory_order_relaxed);
    }
  }

  /// The series' state, or nullptr if no record or restore reached it.
  const SeriesState* Find(SeriesId id) const {
    size_t slot = 0;
    const Slot* chunk =
        chunks_[Locate(id, &slot)].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr
                            : chunk[slot].load(std::memory_order_acquire);
  }

  /// The series' state, built from the shared options on first use in
  /// the owning shard's slab. Two shards may install one chunk at once;
  /// the loser frees its copy.
  SeriesState& GetOrCreate(SeriesId id) {
    size_t slot = 0;
    const size_t k = Locate(id, &slot);
    Slot* chunk = chunks_[k].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      std::unique_ptr<Slot[]> fresh(new Slot[ChunkSlots(k)]());
      if (chunks_[k].compare_exchange_strong(chunk, fresh.get(),
                                             std::memory_order_acq_rel)) {
        chunk = fresh.release();
      }
    }
    SeriesState* state = chunk[slot].load(std::memory_order_acquire);
    if (state == nullptr) {
      state = slabs_[ShardOf(id, slabs_.size())].Fill(&chunk[slot], options_);
    }
    return *state;
  }

  /// Calls fn(id, state) for every filled slot, ids ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t k = 0; k < kChunks; ++k) {
      const Slot* chunk = chunks_[k].load(std::memory_order_acquire);
      for (size_t s = 0; chunk != nullptr && s < ChunkSlots(k); ++s) {
        const SeriesState* state = chunk[s].load(std::memory_order_acquire);
        if (state != nullptr) {
          fn(static_cast<SeriesId>(ChunkSlots(k) - ChunkSlots(0) + s), *state);
        }
      }
    }
  }

 private:
  using Slot = std::atomic<SeriesState*>;
  static constexpr unsigned kFirstChunkLog2 = 6;
  static constexpr size_t kChunks = 27;
  static_assert((uint64_t{1} << (kFirstChunkLog2 + kChunks)) -
                        (uint64_t{1} << kFirstChunkLog2) >
                    UINT32_MAX,
                "the chunks must cover every SeriesId");

  static size_t ChunkSlots(size_t k) {
    return size_t{1} << (kFirstChunkLog2 + k);
  }

  /// Chunk index of `id`; its slot in that chunk goes to *slot. id + 64
  /// has its top bit at 6 + k, and the bits below it are the slot.
  static size_t Locate(SeriesId id, size_t* slot) {
    const uint64_t biased = uint64_t{id} + ChunkSlots(0);
    const unsigned top = 63u - static_cast<unsigned>(__builtin_clzll(biased));
    *slot = static_cast<size_t>(biased - (uint64_t{1} << top));
    return top - kFirstChunkLog2;
  }

  StreamingOptions options_;
  std::atomic<Slot*> chunks_[kChunks] = {};
  std::vector<Slab> slabs_;  // one per shard
};

// One worker shard: the bounded batch queue that feeds it and its
// sequencer. The series it owns (ShardOf) live in the engine's
// SeriesTable. Queue state is guarded by `mu`; worker-side counters
// are written by the worker thread only and read after join.
struct ShardedEngine::Shard {
  Shard(SeriesTable* table, size_t index,
        telemetry::MetricsRegistry* metrics, SeriesCatalog* catalog,
        storage::DurableStore* storage, bool timed,
        int64_t sequencer_horizon)
      : table(table),
        catalog(catalog),
        storage(storage),
        timed(timed),
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
         "Records dropped as late (below the sequencer floor)", labels});
    seq_buffered = metrics->GetGauge(
        {"asap_seq_buffered",
         "Records staged in the shard sequencer's reordering window",
         labels});
  }

  SeriesTable* table = nullptr;              // the engine's, fleet-wide
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
  /// Timed panes opened behind the sequencer, by last tick. The
  /// sequencer emits in timestamp order, so panes open in that order
  /// and a FIFO suffices: after each drained batch, the sequencer's
  /// floor commits every pane it passed (see ProcessRecords). An entry
  /// whose pane its own series already committed is a no-op.
  struct OpenPane {
    int64_t last;
    SeriesId id;
    SeriesState* state;
  };
  std::deque<OpenPane> open_panes;

  // Durable-tier scratch, touched by the worker thread only. Each
  // drained batch accumulates completed-pane means per series run in
  // `flat_panes` (one flat buffer, no per-run allocation) and flushes
  // them in a single AppendPanes call.
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
  /// StreamingAsap's bulk ingest path. Behind a sequencer, timed
  /// operators then advance to its floor: no record below it can
  /// arrive any more, so every open pane ending at or before it
  /// commits, the last pane of a series that went quiet included.
  void ProcessRecords(const RecordBatch& batch) {
    const bool frontier = timed && sequencer != nullptr;
    flat_panes.clear();
    run_meta.clear();
    size_t i = 0;
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
      SeriesState* state = &table->GetOrCreate(id);
      StreamingAsap* op = &state->op;
      const std::optional<int64_t> open_before =
          frontier ? op->open_pane_last() : std::nullopt;
      CapturePanes(id, state, [&] { PushRun(op); });
      if (frontier) {
        const std::optional<int64_t> open_after = op->open_pane_last();
        if (open_after.has_value() && open_after != open_before) {
          ASAP_DCHECK(open_panes.empty() ||
                      open_panes.back().last <= *open_after);
          open_panes.push_back(OpenPane{*open_after, id, state});
        }
      }
      i = j;
    }
    if (frontier) {
      const int64_t floor = sequencer->floor();
      while (!open_panes.empty() && open_panes.front().last < floor) {
        const OpenPane pane = open_panes.front();
        open_panes.pop_front();
        CapturePanes(pane.id, pane.state,
                     [&] { pane.state->op.AdvanceFrontier(floor); });
      }
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

  /// Runs `feed` on the series' operator, catching the panes it
  /// completes into this batch's durable append (flushed once per
  /// batch in ProcessRecords). Setting the sink per call is two pointer
  /// stores — cheap, and it also covers operators created by
  /// recovery's RestoreSeries.
  template <typename Feed>
  void CapturePanes(SeriesId id, SeriesState* state, Feed&& feed) {
    if (storage == nullptr || !storage_ok) {
      feed();
      return;
    }
    pane_scratch.clear();
    state->op.set_pane_sink(&PaneSinkThunk, &pane_scratch);
    feed();
    state->op.set_pane_sink(nullptr, nullptr);
    if (pane_scratch.empty()) {
      return;
    }
    const uint32_t sid = StoreSidFor(id, state);
    if (storage_ok) {
      run_meta.push_back(
          PaneRunMeta{sid, flat_panes.size(), pane_scratch.size()});
      flat_panes.insert(flat_panes.end(), pane_scratch.begin(),
                        pane_scratch.end());
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

  /// Store id for a series, registering it by name on first use.
  uint32_t StoreSidFor(SeriesId id, SeriesState* state) {
    if (!state->store_sid.has_value()) {
      auto sid = storage->RegisterSeries(catalog->NameOf(id));
      if (!sid.ok()) {
        storage_ok = false;
      }
      state->store_sid = sid.ok() ? sid.ValueOrDie() : 0;
    }
    return *state->store_sid;
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
      table_(std::make_unique<SeriesTable>(series_options,
                                           engine_options.shards)),
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
        table_.get(), i, metrics_, catalog_.get(), options_.storage,
        series_options_.pane_width_ticks > 0,
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
  const SeriesState* state = table_->Find(id);
  return state == nullptr ? nullptr : state->op.frame_snapshot();
}

std::vector<std::shared_ptr<const StreamingAsap::Frame>>
ShardedEngine::FrameHistoryById(SeriesId id) const {
  const SeriesState* state = table_->Find(id);
  return state == nullptr
             ? std::vector<std::shared_ptr<const StreamingAsap::Frame>>{}
             : state->op.FrameHistory();
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
  StreamingAsap& op = table_->GetOrCreate(catalog_->Intern(name)).op;
  if (op.points_consumed() != 0) {
    return Status::AlreadyExists("RestoreSeries: series already has points");
  }
  // No sink: these panes are already durable (restore must never echo
  // them back into the store).
  op.RestorePanes(pane_means, n, cadenced);
  return Status::OK();
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

  report.shards.resize(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    const Shard& shard = *shards_[i];
    ShardReport& sr = report.shards[i];
    sr.shard = i;
    sr.points = shard.points;
    sr.batches = shard.batches;
    sr.peak_queue_depth = shard.peak_queue_depth;
    sr.late = shard.late;
    sr.busy_seconds = shard.busy_seconds;
    report.late += sr.late;
  }
  // One walk of the table credits each series to the shard that owns it.
  table_->ForEach([&](SeriesId id, const SeriesState& state) {
    const size_t i = ShardOf(id, num_shards);
    const StreamingAsap::Frame& frame = state.op.frame();
    report.shards[i].series += 1;
    report.shards[i].refreshes += frame.refreshes;
    report.series += 1;
    report.refreshes += frame.refreshes;
    SeriesReport series_report;
    series_report.name = std::string(catalog_->NameOf(id));
    series_report.points = state.op.points_consumed();
    series_report.refreshes = frame.refreshes;
    series_report.window = frame.window;
    const Sequencer* sequencer = shards_[i]->sequencer.get();
    if (sequencer != nullptr) {
      const auto& late_map = sequencer->late_by_series();
      const auto it = late_map.find(id);
      series_report.late = it != late_map.end() ? it->second : 0;
    }
    report.per_series.push_back(std::move(series_report));
  });
  std::sort(report.per_series.begin(), report.per_series.end(),
            [](const SeriesReport& a, const SeriesReport& b) {
              return a.name < b.name;
            });
  return report;
}

}  // namespace stream
}  // namespace asap
