#include "core/series_context.h"

#include <cmath>

#include "common/macros.h"
#include "core/kernels.h"
#include "core/metrics.h"
#include "core/search.h"
#include "stats/descriptive.h"
#include "window/sma.h"

namespace asap {

SeriesContext::SeriesContext(const std::vector<double>& x) { Reset(x); }

void SeriesContext::Reset(const std::vector<double>& x) {
  x_ = x;  // operator= reuses capacity when it suffices
  mean_ = stats::Mean(x_);
  roughness_ = Roughness(x_);
  kurtosis_ = stats::ComputeMoments(x_, mean_).kurtosis;  // == Kurtosis(x_)
  acf_valid_ = false;

  const size_t n = x_.size();
  is_constant_ = true;
  for (size_t i = 1; i < n; ++i) {
    if (x_[i] != x_[0]) {
      is_constant_ = false;
      break;
    }
  }

  prefix_.resize(n + 1);
  prefix2_.resize(n + 2);
  // Centered, compensated prefix sums: centering keeps the stored
  // magnitudes ~ sqrt(N) * sigma (a random walk) instead of N * mean,
  // and the running compensation keeps each stored prefix within
  // O(eps) of the exact centered sum, so the O(1) SMA reconstruction
  // stays within ~1e-9 of the naive running sum even for
  // multi-million-point series. The second-order prefix gets the same
  // treatment.
  double sum = 0.0;
  double comp = 0.0;
  double sum2 = 0.0;
  double comp2 = 0.0;
  prefix_[0] = 0.0;
  prefix2_[0] = 0.0;
  prefix2_[1] = 0.0;  // prefix_[0] contributes nothing
  for (size_t i = 0; i < n; ++i) {
    const double y = (x_[i] - mean_) - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
    prefix_[i + 1] = sum;

    const double y2 = prefix_[i + 1] - comp2;
    const double t2 = sum2 + y2;
    comp2 = (t2 - sum2) - y2;
    sum2 = t2;
    prefix2_[i + 2] = sum2;
  }
}

double SeriesContext::SmaAt(size_t w, size_t i) const {
  ASAP_DCHECK(w >= 1 && i + w <= x_.size());
  return mean_ + (prefix_[i + w] - prefix_[i]) / static_cast<double>(w);
}

const AcfInfo& SeriesContext::EnsureAcf(size_t max_lag,
                                        double peak_threshold) {
  // Exact-parameter caching only: reusing a *broader* cached ACF for a
  // smaller max_lag would change max_acf (and the Eq. 6 pruning) the
  // moment a context is shared across searches with different window
  // ranges, making results depend on call history.
  if (!acf_valid_ || acf_max_lag_ != max_lag ||
      acf_threshold_ != peak_threshold) {
    acf_ = ComputeAcfInfo(x_, max_lag, peak_threshold, &acf_scratch_);
    acf_valid_ = true;
    acf_max_lag_ = max_lag;
    acf_threshold_ = peak_threshold;
  }
  return acf_;
}

namespace {

// True iff x[i + w] == x[i] for every valid i, i.e. the series is
// exactly w-periodic (a constant series is the period-1 case). This is
// precisely the condition under which window::Sma's running sum never
// changes between re-summations, leaving the naive evaluator's
// smoothed series (near-)exactly constant — the one regime where the
// fused prefix kernel would amplify representation rounding into a
// garbage kurtosis. One comparison for typical data.
bool ExactlyPeriodic(const std::vector<double>& x, size_t w) {
  for (size_t i = 0; i + w < x.size(); ++i) {
    if (x[i + w] != x[i]) {
      return false;
    }
  }
  return true;
}

// Replays window::Sma's exact value sequence (running sum, periodic
// re-summation and all) without materializing it.
template <typename Emit>
void ForEachNaiveSmaValue(const std::vector<double>& x, size_t w,
                          Emit&& emit) {
  const size_t n = x.size();
  const double inv_w = 1.0 / static_cast<double>(w);
  double sum = 0.0;
  for (size_t i = 0; i < w; ++i) {
    sum += x[i];
  }
  emit(sum * inv_w);
  size_t since_resum = 0;
  for (size_t i = 1; i + w <= n; ++i) {
    sum += x[i + w - 1] - x[i - 1];
    if (++since_resum >= window::kRecomputeInterval) {
      sum = 0.0;
      for (size_t j = i; j < i + w; ++j) {
        sum += x[j];
      }
      since_resum = 0;
    }
    emit(sum * inv_w);
  }
}

// Bit-exact, allocation-free replay of the naive evaluator
// (window::Sma + Roughness + Kurtosis): the same floating-point
// operations in the same order, streamed instead of materialized.
// Used for exactly periodic input, where "parity within rounding"
// is not good enough — the true smoothed variance is zero, so any
// dust-level deviation between evaluators becomes an O(1) kurtosis
// difference and can flip the feasibility test.
CandidateScore ReplayNaiveScore(const std::vector<double>& x, size_t w) {
  const size_t m = x.size() - w + 1;
  // First pass: stats::Mean()'s compensated sum, and the end points
  // Roughness() telescopes its difference mean from.
  double ysum = 0.0;
  double ycomp = 0.0;
  double y_first = 0.0;
  double y_last = 0.0;
  size_t count = 0;
  ForEachNaiveSmaValue(x, w, [&](double y) {
    if (count++ == 0) {
      y_first = y;
    }
    y_last = y;
    const double t1 = y - ycomp;
    const double t = ysum + t1;
    ycomp = (t - ysum) - t1;
    ysum = t;
  });

  CandidateScore score;
  if (m >= 2) {
    // Second pass: stats::ComputeMoments' central accumulation around
    // the Kahan mean, and Roughness()'s central difference pass.
    const double mean = ysum / static_cast<double>(m);
    const double mean_d = (y_last - y_first) / static_cast<double>(m - 1);
    double s2 = 0.0;
    double s4 = 0.0;
    double sd2 = 0.0;
    double prev = 0.0;
    bool has_prev = false;
    ForEachNaiveSmaValue(x, w, [&](double y) {
      const double d = y - mean;
      const double d2 = d * d;
      s2 += d2;
      s4 += d2 * d2;
      if (has_prev) {
        const double dd = (y - prev) - mean_d;
        sd2 += dd * dd;
      }
      prev = y;
      has_prev = true;
    });
    if (m >= 3) {
      score.roughness = std::sqrt(sd2 / static_cast<double>(m - 1));
    }
    const double variance = s2 / static_cast<double>(m);
    if (variance > 0.0) {
      score.kurtosis =
          (s4 / static_cast<double>(m)) / (variance * variance);
    }
  }
  return score;
}

}  // namespace

CandidateScore ScoreWindow(const SeriesContext& ctx, size_t w) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_LE(w, ctx.size());
  if (w == 1) {
    // The cached series metrics *are* the w == 1 score (SMA(x, 1) == x),
    // and reusing them makes the identity candidate exact.
    return CandidateScore{ctx.roughness(), ctx.kurtosis()};
  }
  if (ctx.is_constant() || ExactlyPeriodic(ctx.x(), w)) {
    return ReplayNaiveScore(ctx.x(), w);
  }
  const size_t n = ctx.size();
  const size_t m = n - w + 1;  // smoothed length
  const double* prefix = ctx.prefix();
  const double* prefix2 = ctx.prefix2();
  const double inv_w = 1.0 / static_cast<double>(w);
  const double inv_m = 1.0 / static_cast<double>(m);

  // Centered smoothed values u_i = SMA(x, w)[i] - mean(x) are one
  // subtract + multiply away from the prefix array. Their mean is an
  // O(1) second-order-prefix expression
  //   mean(u) = (sum_{j=w}^{n} P[j] - sum_{j=0}^{n-w} P[j]) / (w * m)
  // and the first-difference mean telescopes to
  //   mean(d) = (u_{m-1} - u_0) / (m - 1),
  // so a single pass can accumulate *central* moments directly —
  // Welford's running-mean rescaling (one divide per point) is
  // unnecessary when the mean is known up front, and dropping it is
  // what makes this kernel several times faster than the naive
  // multi-pass evaluation it replaces.
  const double mean_u =
      (prefix2[n + 1] - prefix2[w] - prefix2[m]) * inv_w * inv_m;
  const double u0 = (prefix[w] - prefix[0]) * inv_w;
  const double u_last = (prefix[n] - prefix[m - 1]) * inv_w;
  const double mean_d =
      m >= 2 ? (u_last - u0) / static_cast<double>(m - 1) : 0.0;

  double s2 = 0.0;   // sum (u - mean_u)^2
  double s4 = 0.0;   // sum (u - mean_u)^4
  double sd2 = 0.0;  // sum (diff - mean_d)^2
  {
    const double dy = u0 - mean_u;
    const double dy2 = dy * dy;
    s2 = dy2;
    s4 = dy2 * dy2;
  }
  // Elements i in [1, m) run through the canonical chunked reduction
  // (core/kernels.h): the chunk layout depends only on the element
  // count and partials merge in chunk order. The layout is part of the
  // result, since it fixes the order of the additions; the scalar and
  // SIMD tables compute each chunk bit for bit alike. Each chunk is
  // data-parallel because u_{i-1} is recomputed from the prefix array
  // with the exact FP expression the sequential loop's carried prev_u
  // held.
  const size_t total = m - 1;
  const kern::KernelTable& kt = kern::ActiveKernels();
  const size_t chunks = kern::ChunksFor(total);
  for (size_t c = 0; c < chunks; ++c) {
    const kern::MomentPartials part = kt.score_segment(
        prefix, w, inv_w, mean_u, mean_d,
        1 + kern::ChunkBound(total, chunks, c),
        1 + kern::ChunkBound(total, chunks, c + 1));
    s2 += part.s2;
    s4 += part.s4;
    sd2 += part.sd2;
  }

  // Degenerate-input conventions match the naive metrics exactly:
  // roughness is 0 for fewer than 3 smoothed points, kurtosis is 0 for
  // fewer than 2 points or zero variance.
  CandidateScore score;
  score.roughness =
      m >= 3 ? std::sqrt(sd2 / static_cast<double>(m - 1)) : 0.0;
  const double variance = s2 * inv_m;
  score.kurtosis =
      (m >= 2 && variance > 0.0) ? (s4 * inv_m) / (variance * variance) : 0.0;
  return score;
}

}  // namespace asap
