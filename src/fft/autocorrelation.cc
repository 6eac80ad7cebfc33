#include "fft/autocorrelation.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace asap {
namespace fft {

namespace {
double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}
}  // namespace

double AutocovarianceFft(const std::vector<double>& series, size_t max_lag,
                         AcfScratch* scratch, std::vector<double>* sums) {
  const size_t n = series.size();
  ASAP_CHECK_GE(n, 1u);
  ASAP_CHECK_LT(max_lag, n);
  AcfScratch local;
  if (scratch == nullptr) {
    scratch = &local;
  }

  const double mean = Mean(series);
  // Zero-pad to m >= n + max_lag: the circular correlation of the
  // padded series wraps only at lags >= m - n + 1, past every lag of
  // interest.
  const size_t m = std::max<size_t>(NextPowerOfTwo(n + max_lag), 2);
  const size_t h = m / 2;

  // Real input as h complex points: centred sample 2j is the real part
  // of point j, sample 2j + 1 its imaginary part.
  std::vector<Complex>& z = scratch->packed;
  z.assign(h, Complex(0.0, 0.0));
  for (size_t j = 0; 2 * j < n; ++j) {
    const double odd = 2 * j + 1 < n ? series[2 * j + 1] - mean : 0.0;
    z[j] = Complex(series[2 * j] - mean, odd);
  }
  TransformRadix2(&z, /*inverse=*/false);

  // Split Z into the m-point spectrum of the series,
  //   X_k = E_k + W^k O_k,  E_k = (Z_k + conj Z_{h-k}) / 2,
  //   O_k = (Z_k - conj Z_{h-k}) / 2i,  W = e^{-2 pi i / m},
  // keeping only the power P_k = |X_k|^2 for k = 0..h (P is even,
  // P_{m-k} = P_k, so these are all of its values).
  const Complex* w = Twiddles(m);
  std::vector<double>& p = scratch->power;
  p.resize(h + 1);
  {
    const double e0 = z[0].real();  // E_0
    const double o0 = z[0].imag();  // O_0; X_h = E_0 - O_0
    p[0] = (e0 + o0) * (e0 + o0);
    p[h] = (e0 - o0) * (e0 - o0);
  }
  for (size_t k = 1; k < h; ++k) {
    const Complex zk = z[k];
    const Complex zr = z[h - k];  // its reflection
    const double e_re = 0.5 * (zk.real() + zr.real());
    const double e_im = 0.5 * (zk.imag() - zr.imag());
    const double o_re = 0.5 * (zk.imag() + zr.imag());
    const double o_im = 0.5 * (zr.real() - zk.real());
    const double x_re = e_re + (w[k].real() * o_re - w[k].imag() * o_im);
    const double x_im = e_im + (w[k].real() * o_im + w[k].imag() * o_re);
    p[k] = x_re * x_re + x_im * x_im;
  }

  // P is real and even, so its inverse transform r is real: pack it
  // into h points,
  //   Z'_k = (P_k + P_{h-k}) / 2 + i (P_k - P_{h-k}) e^{+2 pi i k / m} / 2,
  // and one h-point inverse transform leaves r_{2j} + i r_{2j+1} at
  // point j.
  for (size_t k = 0; k < h; ++k) {
    const double sum = 0.5 * (p[k] + p[h - k]);
    const double diff = 0.5 * (p[k] - p[h - k]);
    z[k] = Complex(sum + diff * w[k].imag(), diff * w[k].real());
  }
  TransformRadix2(&z, /*inverse=*/true);

  sums->resize(max_lag + 1);
  for (size_t k = 0; k <= max_lag; ++k) {
    const Complex& point = z[k / 2];
    (*sums)[k] = k % 2 == 0 ? point.real() : point.imag();
  }
  return mean;
}

void NormalizeAcf(std::vector<double>* sums) {
  std::vector<double>& acf = *sums;
  const double c0 = acf[0];
  acf[0] = 1.0;
  if (c0 <= 0.0 || !std::isfinite(c0)) {
    // Constant or non-finite: no correlation structure.
    std::fill(acf.begin() + 1, acf.end(), 0.0);
    return;
  }
  for (size_t k = 1; k < acf.size(); ++k) {
    acf[k] /= c0;
  }
}

std::vector<double> AutocorrelationFft(const std::vector<double>& series,
                                       size_t max_lag, AcfScratch* scratch) {
  std::vector<double> acf;
  AutocovarianceFft(series, max_lag, scratch, &acf);
  NormalizeAcf(&acf);
  return acf;
}

std::vector<double> AutocorrelationBruteForce(const std::vector<double>& series,
                                              size_t max_lag) {
  const size_t n = series.size();
  ASAP_CHECK_GE(n, 1u);
  ASAP_CHECK_LT(max_lag, n);

  const double mean = Mean(series);
  double c0 = 0.0;
  for (double x : series) {
    c0 += (x - mean) * (x - mean);
  }

  std::vector<double> acf(max_lag + 1, 0.0);
  acf[0] = 1.0;
  if (c0 <= 0.0) {
    return acf;
  }
  for (size_t k = 1; k <= max_lag; ++k) {
    double ck = 0.0;
    for (size_t i = 0; i + k < n; ++i) {
      ck += (series[i] - mean) * (series[i + k] - mean);
    }
    acf[k] = ck / c0;
  }
  return acf;
}

}  // namespace fft
}  // namespace asap
