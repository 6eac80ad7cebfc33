// Zero-allocation candidate-window evaluation (the window-search hot
// path).
//
// Every search strategy scores candidate windows w by the roughness and
// kurtosis of SMA(X, w) (§3.4). The naive evaluator materializes the
// smoothed series, its first differences, and runs separate moment
// passes — O(N) heap allocations and several memory sweeps per
// candidate. SeriesContext instead precomputes, once per series:
//
//   * a mean-centered prefix-sum array of X, so any SMA(X, w) value is
//     two loads and a subtract (centering keeps the prefix magnitudes
//     ~ sqrt(N) * sigma instead of N * mean, which preserves ~1e-9
//     agreement with the naive evaluator even on long series);
//   * Roughness(X) and Kurtosis(X) (every strategy needs the kurtosis
//     bound, and both are the exact w == 1 score);
//   * the FFT autocorrelation summary, on request, cached per
//     (max_lag, threshold) so batch and streaming searches share it;
//     the transform's work buffers stay with the context and are
//     reused after Reset.
//
// ScoreWindow(ctx, w) then fuses smoothing and scoring into a single
// allocation-free pass that tracks the 4th central moment of the
// smoothed values and the variance of their first differences
// simultaneously. Because both stream means are O(1) expressions over
// the precomputed prefix arrays, the kernel accumulates *central*
// moments directly — no per-point Welford rescaling. The naive
// EvaluateWindow (core/search.h) is kept as the reference
// implementation; tests assert score parity within 1e-9.

#ifndef ASAP_CORE_SERIES_CONTEXT_H_
#define ASAP_CORE_SERIES_CONTEXT_H_

#include <cstddef>
#include <vector>

#include "core/acf_peaks.h"
#include "fft/autocorrelation.h"

namespace asap {

struct CandidateScore;  // core/search.h

/// Per-series evaluation state shared by all candidate evaluations.
/// Owns a copy of the series, so it has no lifetime coupling to the
/// caller's buffer; Reset() reuses all internal capacity (the ACF's
/// transform buffers included), which is what the streaming refresh
/// path relies on to stay allocation-stable.
class SeriesContext {
 public:
  SeriesContext() = default;
  explicit SeriesContext(const std::vector<double>& x);

  /// Rebinds the context to a new series, reusing internal buffers
  /// (prefix sums are rebuilt, cached metrics recomputed, cached ACF
  /// invalidated).
  void Reset(const std::vector<double>& x);

  size_t size() const { return x_.size(); }
  bool empty() const { return x_.empty(); }

  /// The series this context evaluates.
  const std::vector<double>& x() const { return x_; }

  /// Mean of the series (the prefix-sum centering offset).
  double mean() const { return mean_; }

  /// Roughness(x), cached (also the exact w == 1 roughness score).
  double roughness() const { return roughness_; }

  /// Kurtosis(x), cached (the feasibility bound of every search).
  double kurtosis() const { return kurtosis_; }

  /// SMA(x, w)[i] in O(1): two prefix loads and a subtract.
  /// Requires 1 <= w <= size() and i + w <= size().
  double SmaAt(size_t w, size_t i) const;

  /// FFT autocorrelation summary up to max_lag, computed on first
  /// request and cached per exact (max_lag, threshold) pair, so search
  /// results never depend on what an earlier caller requested.
  const AcfInfo& EnsureAcf(size_t max_lag, double peak_threshold);

  /// Centered prefix sums: prefix()[i] = sum_{j<i} (x[j] - mean()),
  /// size() + 1 entries. Exposed for fused kernels.
  const double* prefix() const { return prefix_.data(); }

  /// Second-order prefix sums: prefix2()[k] = sum_{j<k} prefix()[j],
  /// size() + 2 entries. They make the mean of any SMA(x, w) an O(1)
  /// expression, which is what lets ScoreWindow run a true central-
  /// moment pass without a separate mean sweep.
  const double* prefix2() const { return prefix2_.data(); }

  /// True iff every value of the series is identical. The naive
  /// evaluator produces exactly {0, 0} scores for such series (its
  /// running sum never changes), and the fused kernel matches that
  /// exactly instead of amplifying prefix rounding dust.
  bool is_constant() const { return is_constant_; }

 private:
  std::vector<double> x_;
  std::vector<double> prefix_;
  std::vector<double> prefix2_;
  double mean_ = 0.0;
  double roughness_ = 0.0;
  double kurtosis_ = 0.0;
  bool is_constant_ = false;

  bool acf_valid_ = false;
  size_t acf_max_lag_ = 0;
  double acf_threshold_ = 0.0;
  AcfInfo acf_;
  fft::AcfScratch acf_scratch_;
};

/// Fused scoring kernel: roughness and kurtosis of SMA(x, w) in one
/// allocation-free pass over the context's prefix sums, on the calling
/// thread. Matches the naive EvaluateWindow within ~1e-9 (exactly, for
/// w == 1).
///
/// The pass runs through the canonical chunked reduction of
/// core/kernels.h, so its result is bitwise the same whichever kernel
/// table (scalar, AVX2, NEON) the build and CPU dispatch to.
CandidateScore ScoreWindow(const SeriesContext& ctx, size_t w);

}  // namespace asap

#endif  // ASAP_CORE_SERIES_CONTEXT_H_
