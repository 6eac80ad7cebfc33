// FleetView: the fleet engine's read/query tier. Where sources and the
// wire protocol are the ingestion half of ASAP's §2 contract, FleetView
// is the dashboard half: coherent, lock-free reads over the frames the
// per-series operators publish, addressed by series *name*, plus the
// cross-series questions an operator actually asks a fleet — "which
// hosts look roughest right now?" (top-k by roughness of the smoothed
// view), "what is the fleet-wide level?" (aggregates), "what is the
// shape of the whole fleet?" (percentile bands over every pane
// position), "who is misbehaving?" (anomaly counts via the
// stream/alerts detector), and "what changed since I last looked?"
// (history diffs over the snapshot ring, and which-changed-most
// rankings). Any cross-series query can be scoped to a subset of the
// fleet with a SeriesSelector (glob/regex over interned names).
//
// Coherence model: every frame is published behind an atomically
// swapped shared_ptr (see StreamingAsap::frame_snapshot), so each
// frame a query touches is an immutable, internally consistent
// refresh result. A cross-series query samples each series' latest
// published frame once (FleetSample); series refresh independently,
// so the sample is per-series-coherent, not a fleet-wide barrier —
// the same guarantee a dashboard polling N hosts gets. The rollup
// math itself (BandsOf, AnomalyCountsOf) is a pure function of the
// sample, so recomputing over an already-taken sample is bitwise
// reproducible even while ingestion keeps running.
//
// Warming-up accounting: a series whose first frame is not yet
// published contributes to no rollup; every cross-series result
// carries a skipped_unpublished count so callers can tell a quiet
// fleet from one that is still warming up.

#ifndef ASAP_STREAM_FLEET_VIEW_H_
#define ASAP_STREAM_FLEET_VIEW_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/exec_policy.h"
#include "core/streaming_asap.h"
#include "stream/alerts.h"
#include "stream/catalog.h"
#include "stream/sharded_engine.h"
#include "telemetry/metrics.h"

namespace asap {
namespace stream {

/// Cross-series rollup kinds over each series' latest smoothed value.
enum class AggKind { kSum, kMean, kMin, kMax };

/// Result of FleetView::AggregateOf.
struct FleetAggregate {
  /// Series that contributed (had at least one published refresh).
  size_t series = 0;
  /// The rollup; 0.0 when no series has refreshed yet.
  double value = 0.0;
  /// Selected series skipped because no frame of theirs is published
  /// yet (interned but still warming up).
  size_t skipped_unpublished = 0;
};

/// One row of FleetView::TopKByRoughnessOf, roughest first.
struct SeriesRank {
  std::string name;
  /// Roughness (stddev of first differences) of the series' latest
  /// *smoothed* frame — high means the smoothed view still jitters,
  /// i.e. the series deserves an operator's attention.
  double roughness = 0.0;
  size_t window = 1;
  uint64_t refreshes = 0;
};

/// Result of FleetView::TopKByRoughnessOf.
struct RoughnessRanking {
  /// At most k rows, descending roughness (ties broken by name).
  std::vector<SeriesRank> ranks;
  /// Selected series skipped as unpublished (see FleetAggregate).
  size_t skipped_unpublished = 0;
};

/// One series' latest published frame inside a FleetSample. The name
/// view points into the catalog arena (stable for the catalog's
/// lifetime); the frame is immutable and owned by the shared_ptr.
struct SampledSeries {
  std::string_view name;
  SeriesId id = 0;
  std::shared_ptr<const StreamingAsap::Frame> frame;
};

/// A point-in-time sample of the selected slice of the fleet: each
/// member's latest published frame, in catalog (first-seen) order.
/// Taking the sample is the only part of a cross-series query that
/// touches live state; every rollup over a sample is pure.
struct FleetSample {
  std::vector<SampledSeries> series;
  size_t skipped_unpublished = 0;
};

/// Fleet-wide percentile bands: at each pane position of the smoothed
/// view, the p50/p90/p99 of the selected series' values — the
/// "envelope" chart an operator reads to see whether the whole fleet
/// moved or just a few outliers did.
///
/// Alignment: series may publish frames of slightly different lengths
/// (the chosen SMA window trims each series' smoothed view), so bands
/// cover the newest `positions` pane positions every member covers
/// (positions == the shortest member frame). Band vectors are oldest
/// first, like Frame::series; index [positions-1] is the newest pane.
struct FleetPercentileBands {
  /// Pane positions covered (0 when no selected series has refreshed).
  size_t positions = 0;
  /// Per-position percentiles of the member values, oldest first
  /// (linear interpolation between closest order statistics, so every
  /// band value lies within the member min/max at that position).
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  /// Members that contributed.
  size_t series = 0;
  size_t skipped_unpublished = 0;
};

/// Fleet-wide anomaly rollup: the stream/alerts deviation detector run
/// over each selected series' latest smoothed frame.
struct FleetAnomalyCounts {
  /// Members whose frame was scanned.
  size_t series = 0;
  /// Of those, how many currently contain at least one alert.
  size_t series_alerting = 0;
  /// Total alerts across all scanned members.
  size_t alerts = 0;
  /// Members whose smoothed frame is still too short for the detector.
  size_t skipped_short = 0;
  size_t skipped_unpublished = 0;
};

/// Pane-position-aligned delta between two entries of one series'
/// snapshot ring (StreamingOptions::snapshot_ring_frames): what an
/// incremental dashboard renderer needs — how much each rendered
/// position changed between two refreshes.
struct HistoryDiff {
  /// False iff the name is unknown or the series has no published
  /// frame yet; every other field is meaningless then.
  bool known = false;
  /// Ring entries actually spanned: the requested k clamped to the
  /// ring's depth - 1 (0 means "latest vs itself", identically zero).
  size_t frames_apart = 0;
  /// Per-position delta (newer - older) over the newest positions both
  /// frames cover, oldest first; delta.size() == the shorter frame.
  std::vector<double> delta;
  double max_abs_delta = 0.0;
  double mean_abs_delta = 0.0;
  /// Chosen-window drift between the two frames (newer - older).
  long long window_delta = 0;
  /// Refreshes between the two ring entries (== frames_apart unless
  /// the ring wrapped while this query ran).
  uint64_t refreshes_apart = 0;
};

/// One row of FleetView::TopKByChange: how much one series' rendered
/// view moved over the last `frames_apart` refreshes.
struct SeriesChange {
  std::string name;
  double mean_abs_delta = 0.0;
  double max_abs_delta = 0.0;
  /// Ring entries this series' diff actually spanned (its ring may be
  /// shallower than the requested k).
  size_t frames_apart = 0;
};

/// Result of FleetView::TopKByChange, most-changed first.
struct ChangeRanking {
  std::vector<SeriesChange> ranks;
  size_t skipped_unpublished = 0;
};

/// Read-only, name-addressed query API over a ShardedEngine's
/// published frames. Cheap to construct (borrows the engine); safe to
/// use from any thread, including while a run is in flight.
///
/// One read path: a cross-series answer is a pure function of one
/// FleetSample. Take the sample with Sample(selector) or SampleGlob,
/// then run any of the static *Of rollups over it, passing
/// exec_policy() to run them under this view's policy.
class FleetView {
 public:
  /// `engine` is borrowed and must outlive this view. `policy`
  /// (threads + SIMD; see common/exec_policy.h) is the execution
  /// policy of this view's own queries and the one callers hand to the
  /// *Of rollups. It changes speed only — every result is
  /// bitwise-identical to the default sequential scalar execution.
  explicit FleetView(const ShardedEngine* engine,
                     const ExecPolicy& policy = {});

  const ExecPolicy& exec_policy() const { return policy_; }

  /// The latest published frame of one named series; nullptr if the
  /// name is unknown or no record of it has reached a shard yet
  /// (before the first refresh the frame is empty: refreshes == 0).
  /// The returned frame is immutable — no copy is made to serve the
  /// read.
  std::shared_ptr<const StreamingAsap::Frame> Frame(
      std::string_view name) const;

  /// The last K published frames of one named series, oldest first
  /// (K = StreamingOptions::snapshot_ring_frames); empty if the name
  /// is unknown or unrefreshed.
  std::vector<std::shared_ptr<const StreamingAsap::Frame>> History(
      std::string_view name) const;

  /// History extended past the snapshot ring: up to `max_frames`
  /// frames, oldest first. While the ring satisfies the request this
  /// is exactly History(name) (trimmed to max_frames, zero extra
  /// cost). A deeper request consults the engine's durable store
  /// (ShardedEngineOptions::storage): the series' pane history is read
  /// back from chunks + WAL tail and the refresh cadence is replayed
  /// into a scratch operator whose ring holds max_frames — so history
  /// spans as far as the store does (hours), not K refreshes. Deep
  /// frames are *recomputed* renders: deterministic functions of the
  /// durable panes, rendered at the same refresh boundaries as live
  /// ingestion, but their window-search seed lineage starts at the
  /// replay horizon, so a frame may differ from the one the live ring
  /// briefly held. Falls back to the ring when the engine has no
  /// store or the store does not know the series. Any max_frames is
  /// safe: a replay refreshes at most once per stored pane, so the
  /// request is bounded by what the store holds.
  std::vector<std::shared_ptr<const StreamingAsap::Frame>> History(
      std::string_view name, size_t max_frames) const;

  /// Calls fn(name, frame) for every series with at least one
  /// published refresh, in catalog (first-seen) order. The frame
  /// reference is valid for the duration of the call.
  template <typename Fn>
  void ForEachSeries(Fn&& fn) const {
    const SeriesCatalog* catalog = this->catalog();
    const size_t n = catalog->size();
    for (SeriesId id = 0; id < n; ++id) {
      const auto frame = engine_->SnapshotById(id);
      if (frame != nullptr && frame->refreshes > 0) {
        fn(catalog->NameOf(id), *frame);
      }
    }
  }

  /// Samples the latest published frame of every series the selector
  /// matches (SeriesSelector::All() for the whole fleet), in catalog
  /// order. The sample is the raw material of every cross-series
  /// rollup below; take it once and reuse it to answer several
  /// questions about the same instant.
  FleetSample Sample(const SeriesSelector& selector) const;

  /// Sample(SeriesSelector::Glob(pattern)), but with the compiled
  /// selector AND its matched-id set cached on this view: a dashboard
  /// re-issuing the same glob every refresh tick pays the compile and
  /// the full catalog scan once, then each call only glob-matches
  /// names interned since the last one (the catalog is append-only,
  /// so growth can only add candidates — cached matches stay valid).
  /// Switching patterns recompiles and rescans. Results are identical
  /// to Sample(SeriesSelector::Glob(pattern)), call for call.
  /// Thread-safe, like every other query on the view (the cache is
  /// internally locked).
  FleetSample SampleGlob(std::string_view pattern) const;

  /// The k sampled series whose latest smoothed frames are roughest,
  /// in descending roughness (ties broken by name, so rankings are
  /// deterministic). Fewer than k rows if fewer series are sampled.
  static RoughnessRanking TopKByRoughnessOf(const FleetSample& sample,
                                            size_t k,
                                            const ExecPolicy& policy = {});

  /// Rolls each sampled series' latest smoothed value (the "current
  /// level" of its dashboard) up across the sample.
  static FleetAggregate AggregateOf(const FleetSample& sample, AggKind kind);

  /// Percentile bands over each pane position of the sampled series'
  /// latest smoothed frames (see FleetPercentileBands for alignment
  /// semantics).
  static FleetPercentileBands BandsOf(const FleetSample& sample,
                                      const ExecPolicy& policy = {});

  /// Runs the stream/alerts deviation detector over each sampled
  /// series' latest smoothed frame and rolls the counts up.
  static FleetAnomalyCounts AnomalyCountsOf(
      const FleetSample& sample, const AlertOptions& options = {},
      const ExecPolicy& policy = {});

  /// Pane-position-aligned delta between the series' latest published
  /// frame and the ring entry `k` refreshes back (clamped to the
  /// ring's depth; k == 0 diffs the latest frame against itself and
  /// is identically zero). When k exceeds the ring's depth and the
  /// engine has a durable store, the comparison ring is reconstructed
  /// from stored panes (see History(name, max_frames)) so diffs can
  /// reach arbitrarily far back; otherwise k clamps to the ring as
  /// before. See HistoryDiff.
  HistoryDiff DiffHistory(std::string_view name, size_t k) const;

  /// The k selected series whose rendered views changed most over the
  /// last `frames_back` ring entries (per series, clamped to its ring
  /// depth), in descending mean absolute delta; ties broken by max
  /// absolute delta, then name. Reads each series' snapshot ring, not
  /// a FleetSample.
  ChangeRanking TopKByChange(
      size_t k, size_t frames_back,
      const SeriesSelector& selector = SeriesSelector::All()) const;

  /// Names interned so far (refreshed or not).
  size_t series_count() const;

 private:
  const SeriesCatalog* catalog() const { return engine_->catalog(); }

  /// DiffHistory body over an already-resolved ring.
  static HistoryDiff DiffRing(
      const std::vector<std::shared_ptr<const StreamingAsap::Frame>>& ring,
      size_t k, const ExecPolicy& policy);

  /// Reconstructs up to `max_frames` frames of one series from the
  /// engine's durable store by cadenced pane replay into a scratch
  /// operator (see History(name, max_frames)); empty if the engine
  /// has no store, the store does not know the name, or no refresh
  /// boundary fits the stored pane count.
  std::vector<std::shared_ptr<const StreamingAsap::Frame>> DeepHistory(
      std::string_view name, size_t max_frames) const;

  const ShardedEngine* engine_;
  ExecPolicy policy_;

  /// asap_query_seconds{kind=...} latency histograms in the engine's
  /// registry — one per query that reads live state, resolved once at
  /// construction so per-query cost is a ScopedTimer. The pure *Of
  /// rollups are untimed. Indexed by QueryKind.
  enum QueryKind : size_t {
    kQSample = 0,
    kQSampleGlob,
    kQDiffHistory,
    kQTopKChange,
    kQHistoryDeep,
    kQueryKindCount,
  };
  std::shared_ptr<telemetry::LatencyHistogram>
      query_nanos_[kQueryKindCount];

  /// SampleGlob's cache: the last compiled glob, the ids it matched,
  /// and the catalog size those ids cover (ids past it have not been
  /// matched yet). Guarded by glob_cache_mu_ so the view stays usable
  /// from any thread; mutable because caching is not observable
  /// through results.
  mutable std::mutex glob_cache_mu_;
  mutable std::string glob_cache_pattern_;
  mutable std::optional<SeriesSelector> glob_cache_selector_;
  mutable std::vector<SeriesId> glob_cache_ids_;
  mutable size_t glob_cache_covered_ = 0;
};

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_FLEET_VIEW_H_
