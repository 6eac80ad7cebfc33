#include "core/streaming_asap.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>

#include "common/macros.h"
#include "core/metrics.h"
#include "core/series_context.h"
#include "fft/fft.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {

void SlidingAcf::Rebuild(const std::vector<double>& x, size_t max_lag,
                         fft::AcfScratch* scratch, std::vector<double>* acf) {
  anchor_ = fft::AutocovarianceFft(x, max_lag, scratch, &sums_);
  total_ = 0.0;
  for (double v : x) {
    total_ += v - anchor_;
  }
  *acf = sums_;
  fft::NormalizeAcf(acf);
}

void SlidingAcf::Slide(const std::deque<double>& window, double evicted) {
  ASAP_DCHECK(valid() && sums_.size() <= window.size());
  // Each S_k gains the pair (y_{n-1-k}, y_in) that ends at the new
  // value and loses the pair (y_out, y_{k-1}) that began at the
  // evicted one (indices in the window after the slide).
  const double y_in = window.back() - anchor_;
  const double y_out = evicted - anchor_;
  total_ += y_in - y_out;
  sums_[0] += y_in * y_in - y_out * y_out;
  auto back = window.end() - 1;
  auto front = window.begin();
  for (size_t k = 1; k < sums_.size(); ++k) {
    --back;
    sums_[k] += (*back - anchor_) * y_in - y_out * (*front - anchor_);
    ++front;
  }
}

bool SlidingAcf::Correlations(const std::deque<double>& window,
                              std::vector<double>* acf) const {
  ASAP_DCHECK(valid() && sums_.size() <= window.size());
  const size_t n = window.size();
  const double d = total_ / static_cast<double>(n);
  acf->resize(sums_.size());
  double head = 0.0;  // F_k
  double tail = 0.0;  // B_k
  auto front = window.begin();
  auto back = window.end();
  for (size_t k = 0; k < sums_.size(); ++k) {
    (*acf)[k] = sums_[k] - d * ((2.0 * total_ - head) - tail) +
                static_cast<double>(n - k) * d * d;
    head += *front++ - anchor_;
    tail += *--back - anchor_;
  }
  // S_0 = c_0 + n d^2. The test fails for a NaN or infinite S_0 (a
  // non-finite y leaves one there, and NaN - NaN and inf - inf are
  // NaN) and for a NaN c_0; a finite S_0 bounds every |S_k|. It holds
  // for an exactly constant window at the anchor (0 <= 0), whose ACF
  // is degenerate.
  constexpr double kMaxCancellation = 1048576.0;  // 2^20
  if (!(sums_[0] <= kMaxCancellation * (*acf)[0])) {
    return false;
  }
  fft::NormalizeAcf(acf);
  return true;
}

namespace {

// Retained panes: the visible window, at least 4.
size_t WindowPanes(const StreamingOptions& options, size_t pane_size) {
  return std::max<size_t>(options.visible_points / pane_size, 4);
}

// R = I * ceil(n / I) if the operator slides its ACF, else 0 (see
// StreamingAsap::acf_rebuild_period).
size_t AcfRebuildPeriod(const StreamingOptions& options, size_t window_panes,
                        size_t interval) {
  if (options.strategy != SearchStrategy::kAsap) {
    return 0;  // the other strategies never read the ACF
  }
  const size_t n = window_panes;
  const size_t max_lag =
      std::min(options.search.ResolveMaxWindow(n) + 1, n - 1);
  if (interval * (max_lag + 1) >= fft::NextPowerOfTwo(n + max_lag)) {
    return 0;
  }
  return interval * ((n + interval - 1) / interval);
}

}  // namespace

StreamingAsap::StreamingAsap(const StreamingOptions& options,
                             size_t pane_size)
    : timed_(options.pane_width_ticks > 0),
      panes_(timed_ ? options.pane_width_ticks
                    : static_cast<int64_t>(pane_size),
             timed_ ? options.pane_epoch : 0,
             WindowPanes(options, pane_size)),
      refresh_interval_panes_(std::max<size_t>(
          options.refresh_every_points / pane_size +
              (options.refresh_every_points % pane_size != 0 ? 1 : 0),
          1)),
      acf_rebuild_period_(AcfRebuildPeriod(options,
                                           WindowPanes(options, pane_size),
                                           refresh_interval_panes_)),
      pane_size_(pane_size),
      options_(options) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  static_assert(offsetof(StreamingAsap, panes_) +
                        window::PaneBuffer::kPointBytes <=
                    64,
                "a timed point's members fit the operator's first line");
#pragma GCC diagnostic pop
}

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
  ASAP_RETURN_NOT_OK(ValidateSearchOptions(options.search));
  return StreamingAsap(options,
                       options.enable_preaggregation
                           ? window::PointToPixelRatio(options.visible_points,
                                                       options.resolution)
                           : 1);
}

size_t StreamingAsap::Ingest(const double* xs, const int64_t* ts, size_t n,
                             bool render) {
  ASAP_CHECK(n == 0 || (ts != nullptr) == timed_);
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
  ++panes_committed_;
  if (sliding_acf_.valid()) {
    const std::optional<double> evicted = panes_.evicted();
    if (evicted.has_value()) {
      sliding_acf_.Slide(panes_.means(), *evicted);
    } else {
      sliding_acf_.Invalidate();  // the window grew: rebuild at refresh
    }
  }
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
    panes_committed_ += n;
    sliding_acf_.Invalidate();
    panes_since_refresh_ = 0;
    Refresh();
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    panes_.RestoreCompleted(means + i, 1);
    OnPaneCommitted(/*render=*/true);
  }
}

namespace {

FrameSummary Summarize(const std::vector<double>& series) {
  FrameSummary summary;
  summary.roughness = Roughness(series);
  if (series.size() < FrameSummary::kMinBaselinePoints) {
    return summary;
  }
  summary.baseline = stats::MedianMad(series);
  if (summary.baseline.scale > 0.0) {
    for (const double x : series) {
      const double abs_z = std::fabs(stats::RobustZ(x, summary.baseline));
      if (abs_z > summary.max_abs_z) {  // false for NaN
        summary.max_abs_z = abs_z;
      }
    }
  }
  return summary;
}

}  // namespace

const FrameSummary& StreamingAsap::Frame::summary() const {
  std::call_once(*summary_.once,
                 [this] { summary_.value = Summarize(series); });
  return summary_.value;
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

namespace {

// A refresh's evaluation scratch, one per thread (see the header).
struct RefreshScratch {
  std::vector<double> x;  // the visible pane means
  SeriesContext ctx;
  AcfInfo acf;             // a sliding operator's ACF
  fft::AcfScratch fft;     // its rebuilds' transform buffers
};

}  // namespace

void StreamingAsap::Refresh() {
  const std::deque<double>& panes = panes_.means();
  if (panes.size() < 4) {
    return;
  }
  // Rebuild this thread's evaluation context from the pane buffer:
  // prefix sums and series metrics are recomputed once per refresh,
  // then every candidate evaluation below is an allocation-free fused
  // pass. Reset reuses the context's buffers, so steady-state
  // refreshes on a thread stay allocation-stable whichever operator
  // they belong to. The whole refresh runs on this thread, so no other
  // thread ever reads this scratch.
  thread_local RefreshScratch scratch;
  std::vector<double>& x = scratch.x;
  x.assign(panes.begin(), panes.end());
  SeriesContext& ctx = scratch.ctx;
  ctx.Reset(x);
  const size_t max_window = options_.search.ResolveMaxWindow(x.size());

  // UpdateAcf (ASAP only): one extra lag so a period at exactly
  // max_window remains detectable.
  const AcfInfo* acf = nullptr;
  if (options_.strategy == SearchStrategy::kAsap) {
    if (acf_rebuild_period_ == 0) {
      acf = &ctx.EnsureAcf(max_window + 1, options_.search.acf_threshold);
      frame_.acf_rebuilds += 1;
    } else {
      // The sums are valid only while the window has kept its size
      // since the last rebuild (a growing window invalidates them), so
      // their max lag, which follows from that size, still holds.
      const bool scheduled = panes_committed_ / acf_rebuild_period_ !=
                             panes_at_refresh_ / acf_rebuild_period_;
      if (scheduled || !sliding_acf_.valid() ||
          !sliding_acf_.Correlations(panes, &scratch.acf.correlations)) {
        sliding_acf_.Rebuild(x, std::min(max_window + 1, x.size() - 1),
                             &scratch.fft, &scratch.acf.correlations);
        frame_.acf_rebuilds += 1;
      }
      SetAcfPeaks(options_.search.acf_threshold, &scratch.acf);
      acf = &scratch.acf;
    }
  }
  panes_at_refresh_ = panes_committed_;
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
      score = ScoreWindow(ctx, previous_window_);
      frame_.allocation_free_evals += 1;
    }
    frame_.candidates_evaluated += 1;
    if (score.kurtosis >= kurtosis_x) {
      state_.window = previous_window_;
      state_.roughness = score.roughness;
      state_.has_feasible = true;
      if (acf != nullptr) {
        const double corr = previous_window_ < acf->correlations.size()
                                ? acf->correlations[previous_window_]
                                : 0.0;
        state_.lower_bound = std::max(
            1.0, WindowLowerBound(previous_window_, corr, acf->max_acf));
      }
      seeded = true;
    }
  }

  SearchResult result;
  switch (options_.strategy) {
    case SearchStrategy::kAsap:
      result = AsapSearchWithAcf(&ctx, *acf, options_.search, &state_);
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
  frame_.summary_.Reset();  // a summary read off the old series is stale
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
