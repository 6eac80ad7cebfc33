#include "core/search.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "core/metrics.h"
#include "window/sma.h"

namespace asap {

size_t SearchOptions::ResolveMaxWindow(size_t n) const {
  const size_t mw = std::min(max_window == 0 ? n / 10 : max_window, n);
  return std::max<size_t>(mw, 1);
}

Status ValidateSearchOptions(const SearchOptions& options) {
  if (options.grid_step < 1) {
    return Status::InvalidArgument("grid_step must be >= 1 (got 0)");
  }
  return Status::OK();
}

CandidateScore EvaluateWindow(const std::vector<double>& x, size_t w) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_LE(w, x.size());
  const std::vector<double> y = window::Sma(x, w);
  return CandidateScore{Roughness(y), Kurtosis(y)};
}

namespace {

// Scores one candidate through the configured evaluator and keeps the
// diagnostics honest about which kernel ran.
CandidateScore Score(const SeriesContext& ctx, size_t w,
                     const SearchOptions& options, SearchDiagnostics* diag) {
  diag->candidates_evaluated += 1;
  if (options.use_naive_evaluator) {
    return EvaluateWindow(ctx.x(), w);
  }
  diag->allocation_free_evals += 1;
  return ScoreWindow(ctx, w);
}

// Shared feasibility + bookkeeping: updates `result` if candidate w is
// feasible (kurtosis preserved) and smoother than the incumbent.
void ConsiderCandidate(const SeriesContext& ctx, size_t w,
                       const SearchOptions& options, SearchResult* result) {
  const CandidateScore score = Score(ctx, w, options, &result->diag);
  if (score.kurtosis >= ctx.kurtosis() &&
      score.roughness < result->roughness) {
    result->window = w;
    result->roughness = score.roughness;
    result->kurtosis = score.kurtosis;
  }
}

// Initializes the result with the unsmoothed series (w = 1), which is
// always feasible: kurtosis is trivially preserved. The context caches
// both w = 1 metrics, so this is free.
SearchResult InitWithIdentity(const SeriesContext& ctx) {
  SearchResult result;
  result.window = 1;
  result.roughness = ctx.roughness();
  result.kurtosis = ctx.kurtosis();
  return result;
}

// Bisection sweep over [head, tail]: assumes (per §4.2) that kurtosis
// of the smoothed series decreases in w, so the largest feasible
// window sits at the feasibility boundary. Updates `result` with any
// feasible, smoother candidate it visits.
void BinarySearchRange(const SeriesContext& ctx, size_t head, size_t tail,
                       const SearchOptions& options, SearchResult* result) {
  while (head <= tail) {
    const size_t w = head + (tail - head) / 2;
    const CandidateScore score = Score(ctx, w, options, &result->diag);
    if (score.kurtosis >= ctx.kurtosis()) {
      if (score.roughness < result->roughness) {
        result->window = w;
        result->roughness = score.roughness;
        result->kurtosis = score.kurtosis;
      }
      head = w + 1;  // feasible: try larger (smoother) windows
    } else {
      if (w <= 1) {
        break;  // cannot shrink below the identity window
      }
      tail = w - 1;  // infeasible: shrink
    }
  }
}

}  // namespace

SearchResult ExhaustiveSearch(SeriesContext* ctx,
                              const SearchOptions& options) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  const size_t max_window = options.ResolveMaxWindow(ctx->size());
  SearchResult result = InitWithIdentity(*ctx);
  for (size_t w = 2; w <= max_window; ++w) {
    ConsiderCandidate(*ctx, w, options, &result);
  }
  return result;
}

SearchResult ExhaustiveSearch(const std::vector<double>& x,
                              const SearchOptions& options) {
  SeriesContext ctx(x);
  return ExhaustiveSearch(&ctx, options);
}

SearchResult GridSearch(SeriesContext* ctx, const SearchOptions& options) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  ASAP_CHECK_GE(options.grid_step, 1u);
  const size_t max_window = options.ResolveMaxWindow(ctx->size());
  SearchResult result = InitWithIdentity(*ctx);
  // w = 1 + k * grid_step for k = 1, 2, ... while w <= max_window,
  // tested so that a huge step cannot wrap around.
  for (size_t w = 1; options.grid_step <= max_window - w;) {
    w += options.grid_step;
    ConsiderCandidate(*ctx, w, options, &result);
  }
  return result;
}

SearchResult GridSearch(const std::vector<double>& x,
                        const SearchOptions& options) {
  SeriesContext ctx(x);
  return GridSearch(&ctx, options);
}

SearchResult BinarySearch(SeriesContext* ctx, const SearchOptions& options) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  const size_t max_window = options.ResolveMaxWindow(ctx->size());
  SearchResult result = InitWithIdentity(*ctx);
  if (max_window >= 2) {
    BinarySearchRange(*ctx, 2, max_window, options, &result);
  }
  return result;
}

SearchResult BinarySearch(const std::vector<double>& x,
                          const SearchOptions& options) {
  SeriesContext ctx(x);
  return BinarySearch(&ctx, options);
}

SearchResult AsapSearchWithAcf(SeriesContext* ctx, const AcfInfo& acf,
                               const SearchOptions& options,
                               AsapState* seed) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  const double kurtosis_x = ctx->kurtosis();
  const size_t max_window = options.ResolveMaxWindow(ctx->size());

  AsapState local;
  AsapState* state = seed != nullptr ? seed : &local;

  SearchResult result = InitWithIdentity(*ctx);
  result.diag.acf_peaks = acf.peaks.size();
  // A warm-started state may carry a smoother incumbent from the
  // previous refresh; adopt it (CheckLastWindow already validated
  // feasibility on the current data).
  if (state->has_feasible && state->window >= 1 &&
      state->window <= max_window && state->roughness < result.roughness) {
    result.window = state->window;
    result.roughness = state->roughness;
  }

  const std::vector<double>& corr = acf.correlations;
  const auto acf_at = [&corr](size_t lag) {
    return lag < corr.size() ? corr[lag] : 0.0;
  };

  // --- Algorithm 1: SearchPeriodic, large to small over ACF peaks. ---
  for (size_t idx = acf.peaks.size(); idx-- > 0;) {
    const size_t w = acf.peaks[idx];
    if (w > max_window) {
      continue;  // outside the admissible range
    }
    if (!options.disable_lower_bound_pruning &&
        static_cast<double>(w) < state->lower_bound) {
      // Everything below the Eq. 6 bound is dominated; peaks are sorted
      // so all remaining candidates are pruned too.
      result.diag.pruned_lower_bound += idx + 1;
      break;
    }
    if (!options.disable_roughness_pruning &&
        EstimatedRougher(w, acf_at(w), result.window,
                         acf_at(result.window))) {
      result.diag.pruned_roughness += 1;
      continue;
    }
    const CandidateScore score = Score(*ctx, w, options, &result.diag);
    if (score.kurtosis >= kurtosis_x) {
      if (score.roughness < result.roughness) {
        result.window = w;
        result.roughness = score.roughness;
        result.kurtosis = score.kurtosis;
      }
      state->has_feasible = true;
      state->lower_bound = std::max(
          state->lower_bound, WindowLowerBound(w, acf_at(w), acf.max_acf));
    }
  }

  // --- Algorithm 2: binary-search the remaining range. The paper's
  // pseudocode for the range endpoints is internally inconsistent (see
  // DESIGN.md §6); following the authors' public implementation we
  // bisect [lower_bound, max_window]. ---
  const size_t head = std::max<size_t>(
      2, static_cast<size_t>(std::lround(std::ceil(state->lower_bound))));
  if (head <= max_window) {
    BinarySearchRange(*ctx, head, max_window, options, &result);
  }

  state->window = result.window;
  state->roughness = result.roughness;
  state->has_feasible = true;  // w = 1 is always feasible
  return result;
}

SearchResult AsapSearchWithAcf(const std::vector<double>& x,
                               const AcfInfo& acf,
                               const SearchOptions& options,
                               AsapState* seed) {
  SeriesContext ctx(x);
  return AsapSearchWithAcf(&ctx, acf, options, seed);
}

SearchResult AsapSearch(SeriesContext* ctx, const SearchOptions& options,
                        AsapState* seed) {
  ASAP_CHECK_GE(ctx->size(), 2u);
  const size_t max_window = options.ResolveMaxWindow(ctx->size());
  // One extra lag so a period that lands exactly on max_window is still
  // detectable as a local maximum.
  const AcfInfo& acf = ctx->EnsureAcf(/*max_lag=*/max_window + 1,
                                      options.acf_threshold);
  return AsapSearchWithAcf(ctx, acf, options, seed);
}

SearchResult AsapSearch(const std::vector<double>& x,
                        const SearchOptions& options, AsapState* seed) {
  SeriesContext ctx(x);
  return AsapSearch(&ctx, options, seed);
}

}  // namespace asap
