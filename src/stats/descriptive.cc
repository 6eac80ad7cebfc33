#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace asap {
namespace stats {

double Mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  // Pairwise-ish accumulation is unnecessary at our sizes; compensated
  // (Kahan) summation keeps error independent of N.
  double sum = 0.0;
  double comp = 0.0;
  for (double x : v) {
    double y = x - comp;
    double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) {
    return 0.0;
  }
  const double mean = Mean(v);
  double sum = 0.0;
  for (double x : v) {
    const double d = x - mean;
    sum += d * d;
  }
  return sum / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Covariance(const std::vector<double>& a, const std::vector<double>& b) {
  ASAP_CHECK_EQ(a.size(), b.size());
  if (a.size() < 2) {
    return 0.0;
  }
  const double ma = Mean(a);
  const double mb = Mean(b);
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += (a[i] - ma) * (b[i] - mb);
  }
  return sum / static_cast<double>(a.size());
}

double Skewness(const std::vector<double>& v) {
  Moments m = ComputeMoments(v);
  return m.skewness;
}

double Kurtosis(const std::vector<double>& v) {
  Moments m = ComputeMoments(v);
  return m.kurtosis;
}

double Min(const std::vector<double>& v) {
  ASAP_CHECK(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  ASAP_CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

double Median(std::vector<double> v) {
  ASAP_CHECK(!v.empty());
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) {
    return hi;
  }
  std::nth_element(v.begin(), v.begin() + mid - 1, v.end());
  return 0.5 * (v[mid - 1] + hi);
}

RobustBaseline MedianMad(const std::vector<double>& v) {
  RobustBaseline baseline;
  baseline.center = Median(v);
  std::vector<double> abs_dev(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    abs_dev[i] = std::fabs(v[i] - baseline.center);
  }
  baseline.scale = 1.4826 * Median(std::move(abs_dev));
  return baseline;
}

std::vector<double> FirstDifferences(const std::vector<double>& v) {
  if (v.size() < 2) {
    return {};
  }
  std::vector<double> diff(v.size() - 1);
  for (size_t i = 0; i + 1 < v.size(); ++i) {
    diff[i] = v[i + 1] - v[i];
  }
  return diff;
}

Moments ComputeMoments(const std::vector<double>& v) {
  return ComputeMoments(v, Mean(v));
}

Moments ComputeMoments(const std::vector<double>& v, double mean) {
  Moments m;
  m.count = v.size();
  if (v.empty()) {
    return m;
  }
  m.mean = mean;
  if (v.size() < 2) {
    return m;
  }
  double s2 = 0.0;
  double s3 = 0.0;
  double s4 = 0.0;
  for (double x : v) {
    const double d = x - m.mean;
    const double d2 = d * d;
    s2 += d2;
    s3 += d2 * d;
    s4 += d2 * d2;
  }
  const double n = static_cast<double>(v.size());
  m.variance = s2 / n;
  if (m.variance <= 0.0) {
    return m;  // constant series: skewness/kurtosis stay 0
  }
  const double sd = std::sqrt(m.variance);
  m.skewness = (s3 / n) / (sd * sd * sd);
  m.kurtosis = (s4 / n) / (m.variance * m.variance);
  return m;
}

}  // namespace stats
}  // namespace asap
