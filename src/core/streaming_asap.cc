#include "core/streaming_asap.h"

#include <algorithm>
#include <atomic>

#include "common/macros.h"
#include "core/metrics.h"
#include "core/series_context.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {

StreamingAsap::StreamingAsap(const StreamingOptions& options)
    : options_(options),
      pane_size_(options.enable_preaggregation
                     ? window::PointToPixelRatio(options.visible_points,
                                                 options.resolution)
                     : 1),
      refresh_interval_panes_(std::max<size_t>(
          options.refresh_every_points / pane_size_ +
              (options.refresh_every_points % pane_size_ != 0 ? 1 : 0),
          1)),
      panes_(options.pane_width_ticks > 0
                 ? options.pane_width_ticks
                 : static_cast<int64_t>(pane_size_),
             options.pane_width_ticks > 0 ? options.pane_epoch : 0,
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

size_t StreamingAsap::Ingest(const double* xs, const int64_t* ts, size_t n,
                             bool render) {
  ASAP_CHECK(n == 0 || (ts != nullptr) == (options_.pane_width_ticks > 0));
  ASAP_CHECK(xs != nullptr || n == 0);
  size_t refreshes = 0;
  panes_.Add(xs, ts, n, [&] {
    if (OnPaneCommitted(render)) {
      ++refreshes;
    }
  });
  points_consumed_ += n;
  return refreshes;
}

bool StreamingAsap::AdvanceFrontier(int64_t frontier) {
  return panes_.AdvanceFrontier(frontier) && OnPaneCommitted(/*render=*/true);
}

bool StreamingAsap::OnPaneCommitted(bool render) {
  ++panes_since_refresh_;
  if (panes_since_refresh_ < refresh_interval_panes_ || panes_.size() < 4) {
    return false;
  }
  panes_since_refresh_ = 0;
  if (render) {
    Refresh();
  }
  return render;
}

void StreamingAsap::RestorePanes(const double* means, size_t n,
                                 bool cadenced) {
  points_consumed_ += n * pane_size_;
  if (!cadenced) {
    panes_.RestoreCompleted(means, n);
    panes_since_refresh_ = 0;
    Refresh();
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    panes_.RestoreCompleted(means + i, 1);
    OnPaneCommitted(/*render=*/true);
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
  // Rebuild this thread's evaluation context from the pane buffer:
  // prefix sums and series metrics are recomputed once per refresh,
  // then every candidate evaluation below is an allocation-free fused
  // pass. Reset reuses the context's buffers, so steady-state
  // refreshes on a thread stay allocation-stable whichever operator
  // they belong to. A pool running the search under
  // ExecPolicy::threads > 1 reads this context while this thread waits.
  thread_local SeriesContext ctx;
  ctx.Reset(x);
  const size_t max_window = options_.search.ResolveMaxWindow(x.size());

  // UpdateAcf: the visible window changed, recompute its ACF (one
  // extra lag so a period at exactly max_window remains detectable).
  const AcfInfo& acf = ctx.EnsureAcf(
      max_window + 1, options_.search.acf_threshold, options_.search.exec);
  const double kurtosis_x = ctx.kurtosis();

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
      score = ScoreWindow(ctx, previous_window_, options_.search.exec);
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
      result = AsapSearchWithAcf(&ctx, acf, options_.search, &state_);
      break;
    case SearchStrategy::kExhaustive:
      result = ExhaustiveSearch(&ctx, options_.search);
      break;
    case SearchStrategy::kGrid:
      result = GridSearch(&ctx, options_.search);
      break;
    case SearchStrategy::kBinary:
      result = BinarySearch(&ctx, options_.search);
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
