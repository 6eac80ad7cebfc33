// Streaming ASAP (paper §4.5, Algorithm 3).
//
// The operator ingests raw points, sub-aggregates them into panes
// sized at the point-to-pixel ratio (§4.4 applied to streams), retains
// the panes covering the visible time window, and re-runs the window
// search only every k committed panes, a configurable, human-
// perceptible refresh interval (on-demand updates). Each refresh:
//
//   1. UpdateAcf      — bring the ACF up to date with the visible
//      panes (ASAP strategy only; the others never read it). An
//      operator that refreshes often next to its FFT length keeps a
//      SlidingAcf, updated on every pane commit, and reads the ACF off
//      it in O(max lag); it recomputes it exactly with the FFT once per
//      window turnover, whenever the window's geometry changed, and
//      whenever the sums cannot give it accurately (a non-finite pane
//      since the last rebuild, or a level far from the anchor). Any
//      other operator runs the FFT at every refresh;
//   2. CheckLastWindow — test whether the previous window is still
//      feasible; if so, seed the new search with it (warm start that
//      arms the roughness-estimate pruning immediately);
//   3. FindWindow     — run the (seeded) search and re-render.
//
// The preaggregation/strategy/refresh knobs exist so the Fig. 11
// factor analysis and lesion study can disable each optimization
// independently while exercising the identical pipeline.
//
// The evaluation scratch is per thread, not per operator: a refresh
// rebuilds its thread's SeriesContext (prefix sums, ACF work buffers)
// from the pane buffer, and nothing else reads it. Between refreshes
// an operator holds its panes, its frames and, if it slides, the
// SlidingAcf's max_lag + 2 sums; no other evaluation state.

#ifndef ASAP_CORE_STREAMING_ASAP_H_
#define ASAP_CORE_STREAMING_ASAP_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/smooth.h"
#include "fft/autocorrelation.h"
#include "stats/descriptive.h"
#include "window/panes.h"

namespace asap {

/// The ACF of a window that slides one value at a time, kept up to
/// date instead of recomputed (paper Algorithm 3's UpdateAcf). With
/// y = x - anchor over the n values of the window, it holds the lagged
/// sums S_k = sum_{i<n-k} y_i y_{i+k} for k = 0..max_lag and the total
/// T = sum y. A slide updates them in O(max_lag); Correlations centres
/// them on the window mean,
///   c_k = S_k - d (2T - F_k - B_k) + (n - k) d^2,  d = T / n,
/// with F_k and B_k the sums of the first and last k values of y, and
/// divides by lag 0, also in O(max_lag). Rebuild recomputes the state
/// with the FFT; the anchor is then that pass's mean, so the sums stay
/// near the data's spread whatever its level. Centring cancels about
/// log2(S_0 / c_0) bits, which grows as the window's level moves away
/// from the anchor, so Correlations declines once that exceeds 20
/// bits and the caller rebuilds.
class SlidingAcf {
 public:
  /// Recomputes the state from the window `x` for lags 0..max_lag
  /// (max_lag < x.size()) and writes its ACF to `acf`: bitwise
  /// fft::AutocorrelationFft(x, max_lag).
  void Rebuild(const std::vector<double>& x, size_t max_lag,
               fft::AcfScratch* scratch, std::vector<double>* acf);

  /// The window slid by one value: `window` is the window after the
  /// slide (its back() entered) and `evicted` is the value that left
  /// its front. Requires valid() and an unchanged window size.
  void Slide(const std::deque<double>& window, double evicted);

  /// Writes the ACF of `window`, the current window, for the lags of
  /// the last Rebuild to `acf` and returns true; returns false, with `acf`
  /// unspecified, when the sums cannot give it to ~1e-10: they are not
  /// finite (a non-finite value has been in the window since the last
  /// Rebuild; it stays in S_0 after it leaves) or centring would
  /// cancel more than 20 bits (S_0 > 2^20 c_0). Requires valid().
  bool Correlations(const std::deque<double>& window,
                    std::vector<double>* acf) const;

  /// True from a Rebuild until Invalidate.
  bool valid() const { return !sums_.empty(); }
  void Invalidate() { sums_.clear(); }

 private:
  double anchor_ = 0.0;
  double total_ = 0.0;
  std::vector<double> sums_;
};

/// Configuration of the streaming operator.
struct StreamingOptions {
  /// Target display width in pixels.
  size_t resolution = 800;

  /// Raw points covered by the visible window (e.g. 30 min of 1 Hz
  /// telemetry = 1800). Required.
  size_t visible_points = 0;

  /// Raw points between refreshes. Refreshes fire on pane commits:
  /// every ceil(refresh_every_points / pane_size()) committed panes
  /// (once at least 4 are retained). 0 = refresh on every committed
  /// pane (the non-lazy default); larger values are the "on-demand
  /// update" optimization (e.g. one day's worth of points). A value
  /// that is not a multiple of pane_size() rounds up to whole panes.
  size_t refresh_every_points = 0;

  /// Disable to make panes one point wide (the Fig. 11 "no pixel"
  /// lesion).
  bool enable_preaggregation = true;

  /// Search strategy run at each refresh (the Fig. 11 "no AC" lesion
  /// replaces ASAP with exhaustive search).
  SearchStrategy strategy = SearchStrategy::kAsap;

  /// Published frames retained for snapshot readers (the snapshot
  /// ring). 1 keeps only the latest; K > 1 lets dashboard readers
  /// diff the last K refreshes for incremental rendering. Must be
  /// >= 1.
  size_t snapshot_ring_frames = 1;

  /// The pane grid. Every point carries a tick and lands in pane
  /// floor((tick - pane_epoch) / width); the open pane commits when
  /// the frontier, the lowest tick that may still arrive, reaches its
  /// end (see window::PaneBuffer).
  ///
  /// pane_width_ticks == 0 (the default) is arrival input: a point's
  /// tick is its per-series arrival index, the width is pane_size()
  /// and the epoch 0, so a pane commits on its pane_size()-th point
  /// and the operator never reads Record::ts. pane_width_ticks > 0 is
  /// timed input, fed through PushTimed: the tick is the point's
  /// timestamp, so a pane holds however many points fell in its time
  /// bucket — the fix for the arrival-order pane-stamping bug class,
  /// where wall-clock skew between collectors smeared points across
  /// pane boundaries. The frontier is then the series' newest
  /// timestamp, raised behind a sequencer to the shard's release floor
  /// (AdvanceFrontier). Both must be >= 0; choose pane_width_ticks so
  /// a bucket covers ~pane_size() points of the expected point rate
  /// (e.g. pane_size * tick period) — pane means then match the
  /// arrival-order pane means whenever input arrives in time order at
  /// a uniform rate.
  int64_t pane_epoch = 0;
  int64_t pane_width_ticks = 0;

  /// Window-search options.
  SearchOptions search;
};

/// What the fleet rollups read of a published frame at every
/// dashboard tick (stream/fleet_view), computed once per frame by
/// StreamingAsap::Frame::summary().
struct FrameSummary {
  /// Fewest points the deviation detector (stream/alerts) scans. A
  /// shorter frame has no baseline: baseline and max_abs_z stay 0.
  static constexpr size_t kMinBaselinePoints = 8;

  /// Roughness(series), what TopKByRoughnessOf ranks by.
  double roughness = 0.0;
  /// The detector's baseline, stats::MedianMad(series).
  stats::RobustBaseline baseline;
  /// The largest |stats::RobustZ(x, baseline)| over the series; 0 when
  /// baseline.scale <= 0 (or is NaN). A NaN z-score is skipped, as the
  /// detector's scan never counts one. No point reaches a threshold
  /// above this value, so AnomalyCountsOf skips the scan of any frame
  /// whose max_abs_z is below threshold_sigmas: exactly, whatever the
  /// AlertOptions.
  double max_abs_z = 0.0;
};

/// The streaming ASAP operator.
class StreamingAsap {
 public:
  /// The most recent rendered frame plus lifetime counters.
  ///
  /// A published frame is immutable and read many times: a series
  /// refreshes every few seconds, a dashboard reads its frame every
  /// tick. summary() computes what the rollups read of `series` once,
  /// on the first call, and keeps it in the frame. A copied or assigned
  /// frame starts with no summary, so each published frame (a copy of
  /// the operator's working frame) summarizes its own series, and a
  /// refresh drops the working frame's summary along with its old
  /// series.
  struct Frame {
    /// Smoothed visible series (empty until the first refresh).
    std::vector<double> series;
    /// Chosen SMA window in panes.
    size_t window = 1;
    /// Number of refreshes so far.
    uint64_t refreshes = 0;
    /// Searches that reused the previous window as a warm start.
    uint64_t seeded_searches = 0;
    /// Searches started from scratch (first refresh or failed
    /// CheckLastWindow).
    uint64_t cold_searches = 0;
    /// Total candidate windows evaluated across all refreshes
    /// (including the CheckLastWindow warm-start evaluation).
    uint64_t candidates_evaluated = 0;
    /// Of those, how many went through the fused zero-allocation
    /// ScoreWindow kernel (all of them unless
    /// SearchOptions::use_naive_evaluator is set).
    uint64_t allocation_free_evals = 0;
    /// Refreshes that computed the ACF with the FFT: every ASAP refresh
    /// of an operator that does not slide its ACF, the rebuilds of one
    /// that does (see acf_rebuild_period), none for other strategies.
    uint64_t acf_rebuilds = 0;

    /// The summary of `series`, computed on the first call and cached
    /// in this frame. Safe to call from many threads at once: one
    /// computes it, the others wait for it, and all read the same
    /// bits. Its values are bitwise those of Roughness(series) and
    /// stats::MedianMad(series), so a rollup that reads them returns
    /// what one that recomputes them would. `series` must not change
    /// after the first call (a published frame never does).
    const FrameSummary& summary() const;

   private:
    friend class StreamingAsap;

    /// The summary and the once-flag that guards it. A copy or an
    /// assignment starts uncomputed: a std::once_flag can be neither
    /// copied nor reset, so it sits in an optional that Reset re-arms.
    struct SummaryCache {
      SummaryCache() = default;
      SummaryCache(const SummaryCache&) {}
      SummaryCache& operator=(const SummaryCache&) {
        Reset();
        return *this;
      }
      void Reset() {
        once.reset();
        once.emplace();
      }
      std::optional<std::once_flag> once{std::in_place};
      FrameSummary value;
    };
    mutable SummaryCache summary_;
  };

  /// Validates options; fails if visible_points < 8 or resolution
  /// semantics are inconsistent.
  static Result<StreamingAsap> Create(const StreamingOptions& options);

  /// Ingests one raw point of arrival input (pane_width_ticks == 0);
  /// returns true iff a refresh happened.
  bool Push(double x) { return Ingest(&x, nullptr, 1, /*render=*/true) > 0; }

  /// Ingests a batch of arrival input; returns the number of
  /// refreshes triggered. Push, PushBatch and PushTimed are entry
  /// points over one ingest loop, and refreshes fire on pane commits
  /// (see refresh_every_points), so any batch segmentation renders the
  /// frames per-point ingest renders.
  size_t PushBatch(const double* xs, size_t n) {
    return Ingest(xs, nullptr, n, /*render=*/true);
  }
  size_t PushBatch(const std::vector<double>& xs) {
    return PushBatch(xs.data(), xs.size());
  }

  /// Loads historical arrival-input points WITHOUT rendering (bootstrap
  /// from a backfill, or bench warm-up so that steady-state throughput
  /// is measured against a full window). The refresh cadence still
  /// counts the panes it commits, so later refreshes fall where they
  /// would have had every pane arrived live.
  void Prefill(const std::vector<double>& xs) {
    Ingest(xs.data(), nullptr, xs.size(), /*render=*/false);
  }

  /// Timed-input ingest (requires pane_width_ticks > 0): point i
  /// carries value xs[i] and timestamp ts[i]. Returns the number of
  /// refreshes triggered. Callers feed points in non-decreasing ts
  /// order per series (the sequencer's output order); a point older
  /// than the open pane joins it.
  size_t PushTimed(const double* xs, const int64_t* ts, size_t n) {
    return Ingest(xs, ts, n, /*render=*/true);
  }

  /// Raises the frontier of timed input to `frontier`, the lowest
  /// timestamp that may still arrive (a sequencer's release floor):
  /// commits the open pane if `frontier` is past its last tick.
  /// Returns true iff a refresh happened.
  bool AdvanceFrontier(int64_t frontier);

  /// Last timestamp of the open pane; nullopt when none is open.
  std::optional<int64_t> open_pane_last() const {
    return panes_.open_pane_last();
  }

  /// Forces a refresh now (used when the user scrolls/zooms).
  /// No-op until at least 4 panes are buffered.
  void Refresh();

  /// Routes each completed pane's mean to `sink` (the durable-store
  /// hookup; see window::PaneBuffer::PaneSink). Pass nullptr to clear.
  void set_pane_sink(window::PaneBuffer::PaneSink sink, void* ctx) {
    panes_.set_pane_sink(sink, ctx);
  }

  /// Restores `n` recovered pane means as already-complete panes,
  /// advancing the point clock by n * pane_size and NOT firing the
  /// pane sink (the panes are already durable). With cadenced == true
  /// each pane counts as a commit toward the refresh cadence, so
  /// refreshes replay at the pane counts live ingestion ran them and
  /// frames (and the snapshot ring) come out identical to an
  /// uninterrupted run. With cadenced == false the panes load in bulk
  /// and a single Refresh renders the final frame (a bulk warm-up).
  /// Only legal before any live point is pushed.
  void RestorePanes(const double* means, size_t n, bool cadenced);

  const Frame& frame() const { return frame_; }

  /// Snapshot of the most recent frame, safe to call from any thread
  /// while another thread is pushing points: each refresh publishes
  /// its frame behind an atomically swapped shared_ptr, so readers
  /// never block the ingest path and no copy is made to serve a read.
  /// Never null; before the first refresh it points at an empty Frame.
  std::shared_ptr<const Frame> frame_snapshot() const;

  /// The last min(snapshot_ring_frames, refreshes) published frames,
  /// oldest first (back() is the frame_snapshot() frame). Empty before
  /// the first refresh. Same thread-safety as frame_snapshot(): the
  /// ring is republished behind an atomically swapped shared_ptr, so
  /// readers never block the ingest path.
  std::vector<std::shared_ptr<const Frame>> FrameHistory() const;

  /// Raw points consumed so far.
  uint64_t points_consumed() const { return points_consumed_; }

  /// Points per pane (the point-to-pixel ratio in effect).
  size_t pane_size() const { return pane_size_; }

  /// Committed panes between refreshes in effect.
  size_t refresh_interval_panes() const { return refresh_interval_panes_; }

  /// Committed panes between the scheduled exact rebuilds of a sliding
  /// ACF: R = I * ceil(n / I) for a refresh interval of I panes and a
  /// full window of n, one window turnover. 0 when the operator keeps
  /// no sliding ACF.
  ///
  /// An ASAP operator slides iff I * (L + 1) < m, with L the ACF's max
  /// lag at the full window and m = NextPowerOfTwo(n + L) its FFT
  /// length: the upkeep of I panes, L + 1 sums each, must cost less
  /// than the transform it replaces. It rebuilds at the first refresh
  /// at or after each multiple of R committed panes (restored panes
  /// count), at any refresh where the window's size changed since the
  /// last one, and where SlidingAcf::Correlations declines. So its ACF
  /// depends only on the panes and their count: live ingest and
  /// cadenced restore of the same panes render the same bits.
  size_t acf_rebuild_period() const { return acf_rebuild_period_; }

 private:
  StreamingAsap(const StreamingOptions& options, size_t pane_size);

  /// The one ingest loop: feeds points into the pane buffer, counting
  /// each commit toward the cadence. `ts` is nullptr for arrival
  /// input. With render == false the cadence advances but no refresh
  /// runs. Returns the number of refreshes.
  size_t Ingest(const double* xs, const int64_t* ts, size_t n, bool render);

  /// Counts one committed pane toward the refresh cadence, sliding
  /// the ACF past it first; returns true iff it refreshed.
  bool OnPaneCommitted(bool render);

  // The members are in the order ingest touches them. A fleet engine
  // feeds thousands of operators one record at a time and keeps each
  // on a 64-byte boundary, so what one timed point touches shares the
  // operator's first line: Ingest's own two members, then the pane
  // buffer, whose first window::PaneBuffer::kPointBytes are that
  // point's (the constructor asserts the fit). A pane commit touches
  // the buffer's retained window and the cadence members right after
  // it; what only a refresh or a reader touches comes last.
  uint64_t points_consumed_ = 0;
  /// pane_width_ticks > 0: the input kind Ingest checks every call
  /// against.
  bool timed_ = false;
  window::PaneBuffer panes_;

  /// Committed panes so far, restored ones included, and their count
  /// at the latest refresh: the clock of the ACF rebuild schedule.
  uint64_t panes_committed_ = 0;
  size_t panes_since_refresh_ = 0;
  size_t refresh_interval_panes_ = 1;
  SlidingAcf sliding_acf_;
  uint64_t panes_at_refresh_ = 0;
  size_t acf_rebuild_period_ = 0;
  size_t pane_size_ = 1;

  StreamingOptions options_;
  AsapState state_;
  bool has_previous_window_ = false;
  size_t previous_window_ = 1;
  Frame frame_;
  /// The snapshot ring (oldest first), swapped atomically at the end
  /// of each refresh; null before the first. The one publication
  /// point: frame_snapshot() serves back(), so it and FrameHistory()
  /// can never be observed out of step.
  using FrameRing = std::vector<std::shared_ptr<const Frame>>;
  std::shared_ptr<const FrameRing> published_;
};

}  // namespace asap

#endif  // ASAP_CORE_STREAMING_ASAP_H_
