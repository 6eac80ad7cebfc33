// Window-length search strategies (paper §4.1–4.3).
//
// All strategies solve the same optimization (§3.4): over candidate
// windows w in [1, max_window], minimize roughness(SMA(X, w)) subject
// to Kurt(SMA(X, w)) >= Kurt(X). They differ only in which candidates
// they evaluate:
//
//   * Exhaustive  — every w (the quality gold standard; O(N^2)).
//   * Grid(k)     — every k-th w.
//   * Binary      — bisection assuming monotonicity (exact for IID
//                   data per Eq. 2/4; approximate otherwise).
//   * Asap        — ACF-peak candidates with Eq. 5/6 pruning, then a
//                   binary-search sweep of the remaining range
//                   (Algorithms 1 & 2).
//
// Searches run on the (already preaggregated) series; the public API
// in core/smooth.h composes preaggregation with a strategy. A search
// runs on the calling thread: the fleet engine parallelizes across
// series, never within one.

#ifndef ASAP_CORE_SEARCH_H_
#define ASAP_CORE_SEARCH_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/status.h"
#include "core/acf_peaks.h"
#include "core/series_context.h"

namespace asap {

/// Instrumentation shared by all strategies (reported in Table 2 and
/// the Fig. 8/9 benches).
struct SearchDiagnostics {
  /// Number of candidate windows actually smoothed and scored
  /// (each costs O(N)).
  size_t candidates_evaluated = 0;
  /// Of those, how many went through the fused zero-allocation
  /// ScoreWindow kernel (equals candidates_evaluated unless
  /// SearchOptions::use_naive_evaluator is set).
  size_t allocation_free_evals = 0;
  /// Candidates skipped by the Eq. 6 lower-bound rule.
  size_t pruned_lower_bound = 0;
  /// Candidates skipped by the Eq. 5 roughness-estimate rule.
  size_t pruned_roughness = 0;
  /// ACF peaks found (ASAP only).
  size_t acf_peaks = 0;
};

/// Outcome of a search over one series.
struct SearchResult {
  /// Chosen window (1 = leave unsmoothed).
  size_t window = 1;
  /// Roughness of SMA(X, window).
  double roughness = std::numeric_limits<double>::infinity();
  /// Kurtosis of SMA(X, window).
  double kurtosis = 0.0;
  SearchDiagnostics diag;
};

/// Search-space configuration.
struct SearchOptions {
  /// Largest window to consider; 0 = auto: N / 10, as in the paper's
  /// implementations (it reproduces Table 2's candidate counts).
  size_t max_window = 0;
  /// ACF peak detection threshold (ASAP only).
  double acf_threshold = 0.2;
  /// Step for grid search (>= 1; see ValidateSearchOptions).
  size_t grid_step = 1;

  /// Ablation switches (bench_ablation_pruning): disable the Eq. 6
  /// lower-bound rule / the Eq. 5 roughness-estimate rule to measure
  /// each rule's contribution. Production code leaves both enabled.
  bool disable_lower_bound_pruning = false;
  bool disable_roughness_pruning = false;

  /// Score candidates with the naive EvaluateWindow (materialize +
  /// multi-pass) instead of the fused SeriesContext kernel. Testing and
  /// benchmarking only: the parity tests and bench_micro_kernels use it
  /// to compare the two evaluators through identical search logic.
  bool use_naive_evaluator = false;

  /// Resolved maximum window for a series of length n (>= 1, <= n).
  size_t ResolveMaxWindow(size_t n) const;
};

/// InvalidArgument if the options cannot drive a search (grid_step is
/// 0); OK otherwise. Smooth and StreamingAsap::Create call it, so a bad
/// option fails at the API boundary instead of aborting mid-search.
Status ValidateSearchOptions(const SearchOptions& options);

/// Evaluation of a single candidate window.
struct CandidateScore {
  double roughness = 0.0;
  double kurtosis = 0.0;
};

/// Naive reference evaluator: materializes SMA(x, w) and runs the
/// batch metrics over it (O(N) allocations + several passes). Kept as
/// the ground truth the fused ScoreWindow kernel is tested against;
/// production searches go through SeriesContext instead.
CandidateScore EvaluateWindow(const std::vector<double>& x, size_t w);

/// Exhaustive scan of w = 1..max_window.
SearchResult ExhaustiveSearch(SeriesContext* ctx, const SearchOptions& options);
SearchResult ExhaustiveSearch(const std::vector<double>& x,
                              const SearchOptions& options);

/// Grid scan of w = 1, 1+k, 1+2k, ...
SearchResult GridSearch(SeriesContext* ctx, const SearchOptions& options);
SearchResult GridSearch(const std::vector<double>& x,
                        const SearchOptions& options);

/// Bisection on the kurtosis constraint (largest feasible window under
/// the monotonicity assumption of §4.2).
SearchResult BinarySearch(SeriesContext* ctx, const SearchOptions& options);
SearchResult BinarySearch(const std::vector<double>& x,
                          const SearchOptions& options);

/// Mutable search state threaded through ASAP's pruning rules; the
/// streaming operator re-seeds it across refreshes (§4.5).
struct AsapState {
  size_t window = 1;
  double roughness = std::numeric_limits<double>::infinity();
  double lower_bound = 1.0;  // wLB of Algorithm 1
  bool has_feasible = false;
};

/// Full ASAP search (Algorithms 1 + 2). If `seed` is non-null it is
/// used as the starting state (streaming warm start) and updated in
/// place; otherwise a fresh state is used. The context overload reuses
/// the context's cached ACF (EnsureAcf) across calls.
SearchResult AsapSearch(SeriesContext* ctx, const SearchOptions& options,
                        AsapState* seed = nullptr);
SearchResult AsapSearch(const std::vector<double>& x,
                        const SearchOptions& options,
                        AsapState* seed = nullptr);

/// ASAP search when the ACF is already available. The streaming
/// refresh brings it up to date once per refresh, from a SlidingAcf
/// updated per pane or, for an operator that does not slide, from
/// scratch over the visible panes (SeriesContext::EnsureAcf), then
/// seeds this search with the previous window.
SearchResult AsapSearchWithAcf(SeriesContext* ctx, const AcfInfo& acf,
                               const SearchOptions& options,
                               AsapState* seed = nullptr);
SearchResult AsapSearchWithAcf(const std::vector<double>& x,
                               const AcfInfo& acf,
                               const SearchOptions& options,
                               AsapState* seed = nullptr);

}  // namespace asap

#endif  // ASAP_CORE_SEARCH_H_
