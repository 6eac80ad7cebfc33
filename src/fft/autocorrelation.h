// Autocorrelation estimation.
//
// ASAP prunes its window search using the peaks of the sample
// autocorrelation function (paper §4.3). The brute-force estimator is
// O(n * maxLag); the FFT path (demean -> zero-pad -> FFT -> power
// spectrum -> inverse FFT -> normalize by lag 0) is O(n log n), the
// "two FFTs" optimization the paper describes. Both transforms are
// half-length: the series is real, so its m-point spectrum comes from
// one m/2-point complex transform, and so does the inverse of its
// (real, even) power spectrum.

#ifndef ASAP_FFT_AUTOCORRELATION_H_
#define ASAP_FFT_AUTOCORRELATION_H_

#include <cstddef>
#include <vector>

#include "fft/fft.h"

namespace asap {
namespace fft {

/// Work buffers of AutocorrelationFft. A caller that computes many
/// ACFs keeps one and passes it to every call, so the buffers are
/// allocated once; their contents never carry from one call to the
/// next.
struct AcfScratch {
  /// The m/2 transform points (m = the padded length).
  std::vector<Complex> packed;
  /// The power spectrum |X_k|^2, k = 0..m/2.
  std::vector<double> power;
};

/// The unnormalized pass of AutocorrelationFft: fills `sums` with the
/// lagged sums
///   sums[k] = sum_{i<n-k} (x_i - mean)(x_{i+k} - mean),  k = 0..max_lag,
/// and returns the mean it centred on (a plain sum over n). Same
/// padding and packing as AutocorrelationFft, whose values are these
/// sums after NormalizeAcf, bit for bit. A sliding ACF rebuilds its
/// state from them.
double AutocovarianceFft(const std::vector<double>& series, size_t max_lag,
                         AcfScratch* scratch, std::vector<double>* sums);

/// Divides lagged sums by their lag-0 sum in place, giving the ACF
/// (acf[0] == 1); when the lag-0 sum is not positive and finite, every
/// other lag becomes 0 (no correlation structure).
void NormalizeAcf(std::vector<double>* sums);

/// Sample ACF for lags 0..max_lag via FFT. Uses the biased estimator
///   acf[k] = sum_{i<n-k} (x_i - mean)(x_{i+k} - mean) / sum (x_i - mean)^2
/// so acf[0] == 1. Returns max_lag + 1 values. If the series is constant
/// (zero variance) or the lag-0 sum is not finite, all lags are defined
/// as 0 except lag 0 which is 1.
///
/// The series is zero-padded to m = NextPowerOfTwo(n + max_lag), the
/// smallest power of two whose circular correlation does not wrap at
/// any lag <= max_lag, and transformed as m/2 complex points (even
/// samples real, odd samples imaginary). `scratch` (optional)
/// supplies reusable work buffers.
std::vector<double> AutocorrelationFft(const std::vector<double>& series,
                                       size_t max_lag,
                                       AcfScratch* scratch = nullptr);

/// Quadratic-time reference estimator (identical definition).
std::vector<double> AutocorrelationBruteForce(const std::vector<double>& series,
                                              size_t max_lag);

}  // namespace fft
}  // namespace asap

#endif  // ASAP_FFT_AUTOCORRELATION_H_
