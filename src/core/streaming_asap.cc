#include "core/streaming_asap.h"

#include <algorithm>
#include <atomic>

#include "common/macros.h"
#include "core/metrics.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {

StreamingAsap::StreamingAsap(const StreamingOptions& options)
    : options_(options),
      pane_size_(options.enable_preaggregation
                     ? window::PointToPixelRatio(options.visible_points,
                                                 options.resolution)
                     : 1),
      refresh_interval_points_(options.refresh_every_points != 0
                                   ? options.refresh_every_points
                                   : pane_size_),
      panes_(pane_size_,
             /*max_panes=*/std::max<size_t>(options.visible_points /
                                                std::max<size_t>(pane_size_, 1),
                                            4)) {}

Result<StreamingAsap> StreamingAsap::Create(const StreamingOptions& options) {
  if (options.visible_points < 8) {
    return Status::InvalidArgument(
        "visible_points must be >= 8 (got " +
        std::to_string(options.visible_points) + ")");
  }
  if (options.snapshot_ring_frames < 1) {
    return Status::InvalidArgument("snapshot_ring_frames must be >= 1");
  }
  if (options.pane_width_ticks < 0) {
    return Status::InvalidArgument("pane_width_ticks must be >= 0");
  }
  return StreamingAsap(options);
}

bool StreamingAsap::Push(double x) {
  ++points_consumed_;
  ++points_since_refresh_;
  panes_.Push(x);
  if (points_since_refresh_ >= refresh_interval_points_ &&
      panes_.size() >= 4) {
    Refresh();
    points_since_refresh_ = 0;
    return true;
  }
  return false;
}

void StreamingAsap::Prefill(const std::vector<double>& xs) {
  panes_.PushBulk(xs.data(), xs.size());
  points_consumed_ += xs.size();
  points_since_refresh_ = 0;
}

size_t StreamingAsap::PushBatch(const double* xs, size_t n) {
  size_t refreshes = 0;
  size_t i = 0;
  while (i < n) {
    // Distance to the first point after which the refresh condition
    // (points_since_refresh_ >= interval AND >= 4 complete panes) can
    // hold. Both conditions are monotone within a chunk, so the
    // earliest firing point is the max of the two distances — every
    // point before it is safe to bulk-append with no boundary check.
    const size_t until_interval =
        points_since_refresh_ >= refresh_interval_points_
            ? 1
            : refresh_interval_points_ - points_since_refresh_;
    const size_t until_panes = panes_.PointsUntilPaneCount(4);
    const size_t stop =
        std::max<size_t>(std::max(until_interval, until_panes), 1);
    const size_t chunk = std::min(stop, n - i);
    panes_.PushBulk(xs + i, chunk);
    points_consumed_ += chunk;
    points_since_refresh_ += chunk;
    i += chunk;
    if (points_since_refresh_ >= refresh_interval_points_ &&
        panes_.size() >= 4) {
      Refresh();
      points_since_refresh_ = 0;
      ++refreshes;
    }
  }
  return refreshes;
}

size_t StreamingAsap::PushTimed(const double* xs, const int64_t* ts,
                                size_t n) {
  ASAP_CHECK_GT(options_.pane_width_ticks, 0);
  size_t refreshes = 0;
  for (size_t i = 0; i < n; ++i) {
    panes_.PushTimed(xs[i],
                     window::PaneIndexForTs(ts[i], options_.pane_epoch,
                                            options_.pane_width_ticks));
    ++points_consumed_;
    ++points_since_refresh_;
    if (points_since_refresh_ >= refresh_interval_points_ &&
        panes_.size() >= 4) {
      Refresh();
      points_since_refresh_ = 0;
      ++refreshes;
    }
  }
  return refreshes;
}

void StreamingAsap::RestorePanes(const double* means, size_t n,
                                 bool cadenced) {
  if (!cadenced) {
    panes_.RestoreCompleted(means, n);
    points_consumed_ += n * pane_size_;
    points_since_refresh_ = 0;
    if (panes_.size() >= 4) {
      Refresh();
    }
    return;
  }
  // Replay the live refresh cadence one pane at a time: each restored
  // pane advances the point clock by pane_size, firing Refresh at
  // exactly the boundaries live ingestion would have (boundaries are
  // pane-aligned whenever refresh_interval_points is a multiple of
  // pane_size — in particular for the refresh-per-pane default).
  for (size_t i = 0; i < n; ++i) {
    panes_.RestoreCompleted(means + i, 1);
    points_consumed_ += pane_size_;
    points_since_refresh_ += pane_size_;
    if (points_since_refresh_ >= refresh_interval_points_ &&
        panes_.size() >= 4) {
      Refresh();
      points_since_refresh_ = 0;
    }
  }
}

std::shared_ptr<const StreamingAsap::Frame> StreamingAsap::frame_snapshot()
    const {
  const std::shared_ptr<const FrameRing> ring =
      std::atomic_load_explicit(&published_, std::memory_order_acquire);
  if (ring != nullptr) {
    return ring->back();
  }
  // No refresh yet: every operator serves the same immutable empty
  // frame.
  static const std::shared_ptr<const Frame> kEmpty =
      std::make_shared<const Frame>();
  return kEmpty;
}

std::vector<std::shared_ptr<const StreamingAsap::Frame>>
StreamingAsap::FrameHistory() const {
  const std::shared_ptr<const FrameRing> ring =
      std::atomic_load_explicit(&published_, std::memory_order_acquire);
  return ring == nullptr ? FrameRing{} : *ring;
}

void StreamingAsap::Refresh() {
  const std::vector<double> x = panes_.PaneMeans();
  if (x.size() < 4) {
    return;
  }
  // Rebuild the evaluation context from the pane buffer: prefix sums
  // and series metrics are recomputed once per refresh, then every
  // candidate evaluation below is an allocation-free fused pass.
  ctx_.Reset(x);
  const size_t max_window = options_.search.ResolveMaxWindow(x.size());

  // UpdateAcf: the visible window changed, recompute its ACF (one
  // extra lag so a period at exactly max_window remains detectable).
  const AcfInfo& acf = ctx_.EnsureAcf(
      max_window + 1, options_.search.acf_threshold, options_.search.exec);
  const double kurtosis_x = ctx_.kurtosis();

  // CheckLastWindow: seed with the previous solution if it is still
  // feasible on the refreshed data; otherwise search from scratch.
  state_ = AsapState{};
  bool seeded = false;
  if (has_previous_window_ && previous_window_ >= 1 &&
      previous_window_ <= x.size()) {
    CandidateScore score;
    if (options_.search.use_naive_evaluator) {
      score = EvaluateWindow(x, previous_window_);
    } else {
      score = ScoreWindow(ctx_, previous_window_, options_.search.exec);
      frame_.allocation_free_evals += 1;
    }
    frame_.candidates_evaluated += 1;
    if (score.kurtosis >= kurtosis_x) {
      state_.window = previous_window_;
      state_.roughness = score.roughness;
      state_.has_feasible = true;
      const double corr = previous_window_ < acf.correlations.size()
                              ? acf.correlations[previous_window_]
                              : 0.0;
      state_.lower_bound =
          std::max(1.0, WindowLowerBound(previous_window_, corr, acf.max_acf));
      seeded = true;
    }
  }

  SearchResult result;
  switch (options_.strategy) {
    case SearchStrategy::kAsap:
      result = AsapSearchWithAcf(&ctx_, acf, options_.search, &state_);
      break;
    case SearchStrategy::kExhaustive:
      result = ExhaustiveSearch(&ctx_, options_.search);
      break;
    case SearchStrategy::kGrid:
      result = GridSearch(&ctx_, options_.search);
      break;
    case SearchStrategy::kBinary:
      result = BinarySearch(&ctx_, options_.search);
      break;
  }

  frame_.series = window::Sma(x, result.window);
  frame_.window = result.window;
  frame_.refreshes += 1;
  frame_.candidates_evaluated += result.diag.candidates_evaluated;
  frame_.allocation_free_evals += result.diag.allocation_free_evals;
  if (seeded) {
    frame_.seeded_searches += 1;
  } else {
    frame_.cold_searches += 1;
  }

  has_previous_window_ = true;
  previous_window_ = result.window;

  // Publish the refreshed frame for lock-free snapshot readers (the
  // sharded engine's dashboards read frames mid-run through this).
  // The ring is republished as a whole: a new vector sharing the
  // previous ring's newest K-1 frame pointers (cheap — shared_ptr
  // copies), so readers always see an immutable, internally
  // consistent history.
  const std::shared_ptr<const FrameRing> old =
      std::atomic_load_explicit(&published_, std::memory_order_acquire);
  const size_t keep =
      old == nullptr
          ? 0
          : std::min(old->size(), options_.snapshot_ring_frames - 1);
  auto ring = std::make_shared<FrameRing>();
  ring->reserve(keep + 1);
  if (keep > 0) {
    ring->insert(ring->end(), old->end() - static_cast<ptrdiff_t>(keep),
                 old->end());
  }
  ring->push_back(std::make_shared<const Frame>(frame_));
  std::atomic_store_explicit(&published_,
                             std::shared_ptr<const FrameRing>(std::move(ring)),
                             std::memory_order_release);
}

}  // namespace asap
