// Descriptive statistics over contiguous double data.
//
// Conventions (matching the paper, §3.1–3.2):
//   * variance / stddev are population moments (divide by N);
//   * kurtosis is the non-excess fourth standardized moment, so a
//     normal distribution scores 3 and a Laplace distribution scores 6.

#ifndef ASAP_STATS_DESCRIPTIVE_H_
#define ASAP_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

namespace asap {
namespace stats {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Population variance (divide by N); 0 for fewer than 2 elements.
double Variance(const std::vector<double>& v);

/// Population standard deviation.
double StdDev(const std::vector<double>& v);

/// Population covariance of two equal-length vectors.
double Covariance(const std::vector<double>& a, const std::vector<double>& b);

/// Third standardized moment; 0 for degenerate input.
double Skewness(const std::vector<double>& v);

/// Fourth standardized moment E[(X-mu)^4] / E[(X-mu)^2]^2.
/// Returns 0 for degenerate (constant or too-short) input.
double Kurtosis(const std::vector<double>& v);

/// Minimum value; aborts on empty input.
double Min(const std::vector<double>& v);

/// Maximum value; aborts on empty input.
double Max(const std::vector<double>& v);

/// Median (midpoint of the two central order statistics for even N);
/// aborts on empty input.
double Median(std::vector<double> v);

/// Robust location and spread: the median, and the median absolute
/// deviation from it scaled by 1.4826 (the normal-consistent sigma).
/// The deviation detector's baseline (stream/alerts), which the
/// deviations themselves barely move.
struct RobustBaseline {
  double center = 0.0;
  double scale = 0.0;
};

/// Median and scaled MAD of `v`; aborts on empty input.
RobustBaseline MedianMad(const std::vector<double>& v);

/// The robust z-score of `x`: (x - center) / scale. The one expression
/// the deviation detector scans with and a frame summary takes its
/// largest |z| from, so the two agree bit for bit.
inline double RobustZ(double x, const RobustBaseline& baseline) {
  return (x - baseline.center) / baseline.scale;
}

/// First difference series {x_2 - x_1, ..., x_N - x_{N-1}};
/// empty for N < 2.
std::vector<double> FirstDifferences(const std::vector<double>& v);

/// All four central moments in one pass.
struct Moments {
  size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // population
  double skewness = 0.0;
  double kurtosis = 0.0;  // non-excess
};

/// Computes all moments in a single numerically careful pass.
Moments ComputeMoments(const std::vector<double>& v);

/// ComputeMoments for a caller that already has Mean(v): the same
/// values, bit for bit, without computing the mean again.
Moments ComputeMoments(const std::vector<double>& v, double mean);

}  // namespace stats
}  // namespace asap

#endif  // ASAP_STATS_DESCRIPTIVE_H_
