// Autocorrelation peak detection (paper §4.3.3, "Autocorrelation
// peaks"). Peaks — local maxima of the ACF — correspond to candidate
// periods; ASAP restricts its candidate windows to them.

#ifndef ASAP_CORE_ACF_PEAKS_H_
#define ASAP_CORE_ACF_PEAKS_H_

#include <cstddef>
#include <vector>

namespace asap {

namespace fft {
struct AcfScratch;  // fft/autocorrelation.h
}  // namespace fft

/// ACF summary used by the searches.
struct AcfInfo {
  /// acf[k] for k = 0..max_lag (acf[0] == 1).
  std::vector<double> correlations;
  /// Lags of detected peaks, ascending. Empty for aperiodic series.
  std::vector<size_t> peaks;
  /// Largest correlation among the peaks (0 if none).
  double max_acf = 0.0;
};

/// Computes the ACF (via FFT) up to max_lag and detects peaks: interior
/// local maxima with correlation > threshold. The paper's public
/// implementations use threshold = 0.2; below it, periodicity is too
/// weak for the Eq. 5/6 pruning rules to be trustworthy and ASAP falls
/// back to binary search. `scratch` (optional) is the FFT's reusable
/// work buffers (see fft::AutocorrelationFft).
AcfInfo ComputeAcfInfo(const std::vector<double>& series, size_t max_lag,
                       double peak_threshold = 0.2,
                       fft::AcfScratch* scratch = nullptr);

/// Peak detection over an existing ACF vector (lags 1..size-1).
std::vector<size_t> FindAcfPeaks(const std::vector<double>& acf,
                                 double peak_threshold = 0.2);

/// Sets info->peaks and info->max_acf from info->correlations, as
/// ComputeAcfInfo does (an ACF from another source, e.g. a sliding
/// one, gets the same summary).
void SetAcfPeaks(double peak_threshold, AcfInfo* info);

}  // namespace asap

#endif  // ASAP_CORE_ACF_PEAKS_H_
