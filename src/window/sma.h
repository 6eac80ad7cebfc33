// Simple moving average (SMA), the paper's smoothing function (§3.3):
// SMA(X, w) emits the mean of every length-w window at slide 1
// (N - w + 1 points).

#ifndef ASAP_WINDOW_SMA_H_
#define ASAP_WINDOW_SMA_H_

#include <cstddef>
#include <vector>

namespace asap {
namespace window {

/// Incremental running-sum updates between full re-summations in Sma
/// (bounds floating-point drift). Exposed so the fused evaluator's
/// exact naive-replay path (core/series_context.cc) reproduces the
/// same value sequence.
inline constexpr size_t kRecomputeInterval = 1u << 16;

/// Batch SMA at slide 1. Requires 1 <= w <= x.size(); w == 1 returns a
/// copy of the input. Runs in O(N) using a running sum with periodic
/// re-summation to bound floating-point drift.
std::vector<double> Sma(const std::vector<double>& x, size_t w);

}  // namespace window
}  // namespace asap

#endif  // ASAP_WINDOW_SMA_H_
