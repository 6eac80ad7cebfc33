// The multi-series, multi-threaded fleet engine.
//
// A fleet stream of tagged records is hash-partitioned by series id
// across T worker shards. Each shard owns a SeriesRegistry (its slice
// of the fleet's StreamingAsap operators), fed through a bounded FIFO
// batch queue by the producer (the caller's thread, which pulls the
// MultiSource). Because one series always lands on one shard and each
// shard's queue is FIFO, every series sees its points in stream order
// no matter how many shards run — fleet results are refresh-for-
// refresh identical to running each series alone (determinism parity).
//
// Topology per run:
//
//   MultiSource --pull--> producer --hash(series_id)--> queue[0] -> shard 0
//                                                       queue[1] -> shard 1
//                                                       ...         ...
//
// Bounded queues give natural backpressure: a producer outrunning the
// shards blocks instead of buffering without limit. Live dashboards
// read per-series frames through StreamingAsap's lock-free snapshots
// (FleetView, over SnapshotById) while the run is in flight.

#ifndef ASAP_STREAM_SHARDED_ENGINE_H_
#define ASAP_STREAM_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/streaming_asap.h"
#include "stream/catalog.h"
#include "stream/record.h"
#include "stream/registry.h"
#include "stream/source.h"
#include "telemetry/metrics.h"

namespace asap {
namespace storage {
class DurableStore;
}  // namespace storage

namespace stream {

/// What the producer does when a shard queue is full. There is one
/// answer: it blocks until the shard drains a batch, so overload is
/// backpressure and no record is ever lost at a queue. The enum and
/// ShardedEngineOptions::overflow_policy remain only because the
/// pipeline benchmark (perfbench/) names them.
enum class OverflowPolicy {
  kBlock,
};

/// Fleet engine configuration.
struct ShardedEngineOptions {
  /// Worker threads; series are hash-partitioned across them.
  size_t shards = 1;

  /// Records pulled from the MultiSource per producer pump.
  size_t batch_size = 4096;

  /// In-flight batches buffered per shard; a full queue blocks the
  /// producer (the backpressure bound).
  size_t queue_capacity = 16;

  /// Always kBlock; kept only for the callers that set it (see
  /// OverflowPolicy).
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;

  /// Reordering horizon of the per-shard sequencer (stream/
  /// sequencer.h), in the same ticks as Record::ts. 0 (the default)
  /// bypasses sequencing: batches reach the operators in arrival
  /// order, bitwise the pre-sequencer path. > 0 stages each shard's
  /// records and releases them in timestamp order once they age past
  /// the horizon (records more than horizon ticks older than the
  /// newest timestamp seen are dropped as *late*, surfacing in
  /// ShardReport/FleetReport::late and asap_seq_late_total). Each
  /// shard's sequencer lives as long as the engine, so its watermark
  /// carries across Run calls; every run ends by flushing it. Use with
  /// timed pane mode (StreamingOptions::pane_width_ticks > 0): a
  /// horizon of a few pane widths absorbs collector clock skew that
  /// would otherwise smear points across pane boundaries.
  int64_t sequencer_horizon_ticks = 0;

  /// Registry the engine's asap_shard_* instruments register in.
  /// Null (the default) gives the engine a private registry — exact
  /// per-instance counts, reachable via metrics(). Inject a shared one
  /// (e.g. a process registry also holding the wire server's
  /// instruments) to scrape everything from one surface — which is
  /// also what SelfScrapeSource samples. Must outlive the engine.
  telemetry::MetricsRegistry* metrics = nullptr;

  /// Durable tier hookup. When non-null, every pane a shard worker
  /// completes is appended to the store at batch granularity: one
  /// DurableStore::AppendPanes call per drained batch, covering all
  /// series the batch touched (the store's WAL group-commits them in
  /// one frame). Series register in the store by *name* on first
  /// sight, so the durable identity survives restarts even though
  /// catalog ids are assigned in arrival order. Must outlive the
  /// engine. Null (the default) keeps the engine memory-only.
  storage::DurableStore* storage = nullptr;
};

/// Per-shard slice of a fleet run.
struct ShardReport {
  size_t shard = 0;
  /// Records this shard consumed during the run.
  uint64_t points = 0;
  /// Batches dequeued during the run.
  uint64_t batches = 0;
  /// Lifetime refreshes across this shard's series.
  uint64_t refreshes = 0;
  /// Distinct series resident in this shard's registry.
  size_t series = 0;
  /// Deepest the shard's queue got during the run — a backpressure
  /// indicator (== queue_capacity means the producer blocked).
  size_t peak_queue_depth = 0;
  /// Records the sequencer dropped as late during the run (timestamp
  /// more than the reordering horizon behind the newest seen, in this
  /// run or any earlier one; always 0 when sequencer_horizon_ticks ==
  /// 0).
  uint64_t late = 0;
  /// Wall time the worker spent consuming batches (vs waiting).
  double busy_seconds = 0.0;
};

/// Per-series slice of a fleet run (lifetime counters).
struct SeriesReport {
  /// The series' catalog name (e.g. "host-07/cpu").
  std::string name;
  uint64_t points = 0;
  uint64_t refreshes = 0;
  /// Final chosen SMA window in panes.
  size_t window = 1;
  /// This series' records dropped as late by the shard sequencer,
  /// lifetime like points and refreshes. (A series whose every record
  /// was late never reaches a registry and gets no SeriesReport row;
  /// its drops still count in the shard and fleet totals.)
  uint64_t late = 0;
};

/// Aggregate result of one fleet run.
struct FleetReport {
  /// Records pulled from the source during the run.
  uint64_t points = 0;
  /// Always 0: a full queue blocks instead of dropping. Kept only for
  /// the pipeline benchmark's accounting check (perfbench/).
  uint64_t dropped = 0;
  /// Always 0: nothing is conflated at a full queue. Kept only for the
  /// pipeline benchmark's accounting check (perfbench/).
  uint64_t conflated = 0;
  /// Records dropped as late across all shard sequencers during the
  /// run. Every pulled record lands in exactly one bucket:
  ///   points == sum(shards[i].points) + late.
  uint64_t late = 0;
  double seconds = 0.0;
  double points_per_second = 0.0;
  /// Sum of lifetime refreshes across all series.
  uint64_t refreshes = 0;
  /// Distinct series across all shards.
  size_t series = 0;
  std::vector<ShardReport> shards;
  /// Sorted by series name.
  std::vector<SeriesReport> per_series;
};

/// Drives a MultiSource through hash-sharded per-series StreamingAsap
/// operators on T worker threads. Registries persist across runs, so
/// an engine can alternate Run calls with live FleetView reads the way
/// a dashboard alternates ingest and render.
///
/// The engine owns the fleet's SeriesCatalog: sources and the wire
/// tier construct against `catalog()` so every series is a *name* end
/// to end; internal SeriesIds never cross the public surface. Read
/// queries (per-name frames, top-k, cross-series rollups) go through
/// FleetView (stream/fleet_view.h).
class ShardedEngine {
 public:
  /// Validates both option structs (series options must satisfy
  /// StreamingAsap::Create; shards/batch/queue must be >= 1).
  static Result<ShardedEngine> Create(
      const StreamingOptions& series_options,
      const ShardedEngineOptions& engine_options = ShardedEngineOptions{});

  ShardedEngine(ShardedEngine&&) noexcept;
  ShardedEngine& operator=(ShardedEngine&&) noexcept;
  ~ShardedEngine();

  /// Pulls `source` to exhaustion through the fleet.
  FleetReport RunToCompletion(MultiSource* source);

  /// Stops pulling after `budget_seconds` of wall time (checked
  /// between batches); queued batches still drain.
  FleetReport RunForBudget(MultiSource* source, double budget_seconds);

  size_t shards() const;

  /// The fleet's name table. Stable across engine moves (held behind a
  /// shared_ptr), so sources and wire servers constructed against it
  /// stay valid. Interning is thread-safe.
  SeriesCatalog* catalog() const { return catalog_.get(); }

  /// The registry holding this engine's asap_shard_* and asap_query_*
  /// instruments: the injected ShardedEngineOptions::metrics, or the
  /// engine-private one. Stable across engine moves.
  telemetry::MetricsRegistry* metrics() const { return metrics_; }

  /// The shard a series id maps to (stable for the engine's lifetime).
  static size_t ShardOf(SeriesId id, size_t shard_count);

  /// Lock-free-published frame of one series, safe to call from any
  /// thread while a run is in flight; nullptr if no record of the
  /// series has reached a shard yet (before the first refresh the
  /// frame is empty: refreshes == 0). The read path of the query tier:
  /// application code reads frames by name through FleetView.
  std::shared_ptr<const StreamingAsap::Frame> SnapshotById(
      SeriesId id) const;

  /// Id-keyed snapshot-ring history (StreamingAsap::FrameHistory),
  /// oldest first; same thread-safety as SnapshotById. Like it, an
  /// implementation detail of FleetView::History.
  std::vector<std::shared_ptr<const StreamingAsap::Frame>>
  FrameHistoryById(SeriesId id) const;

  /// The durable store wired in via ShardedEngineOptions::storage
  /// (nullptr when the engine is memory-only). The query tier
  /// (FleetView) reaches chunked pane history through this.
  storage::DurableStore* storage() const { return options_.storage; }

  /// The per-series operator configuration in effect (what the query
  /// tier needs to rebuild frames from durable panes).
  const StreamingOptions& series_options() const { return series_options_; }

  /// Restores one recovered series: interns `name`, creates its
  /// operator on the owning shard, and replays `n` pane means as
  /// already-complete panes (see StreamingAsap::RestorePanes; the
  /// pane sink does NOT fire — the panes are already durable). With
  /// cadenced == true the live refresh cadence is replayed so frames
  /// and the snapshot ring come out identical to an uninterrupted
  /// run. Only legal between runs.
  Status RestoreSeries(std::string_view name, const double* pane_means,
                       size_t n, bool cadenced);

  /// Read access to one shard's series table. Contract: deep reads
  /// through the registry (iteration, frame() on operators) are
  /// unsynchronized against the shard worker, so they are only legal
  /// while no run is in flight — between Run calls, or before the
  /// first. Debug builds enforce this with a run-in-flight check;
  /// while a run is live, read frames through FleetView instead.
  const SeriesRegistry& shard_registry(size_t shard) const;

 private:
  struct Shard;

  ShardedEngine(const StreamingOptions& series_options,
                const ShardedEngineOptions& engine_options);

  FleetReport Run(MultiSource* source, double budget_seconds);

  StreamingOptions series_options_;
  ShardedEngineOptions options_;
  std::shared_ptr<SeriesCatalog> catalog_;
  /// Owns the private registry when options_.metrics was null.
  std::shared_ptr<telemetry::MetricsRegistry> owned_metrics_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// True while Run is pumping/joining (heap-allocated so the engine
  /// stays movable); guards the shard_registry() contract above.
  std::shared_ptr<std::atomic<bool>> run_in_flight_;
};

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_SHARDED_ENGINE_H_
