#include "core/acf_peaks.h"

#include <algorithm>

#include "common/macros.h"
#include "fft/autocorrelation.h"

namespace asap {

std::vector<size_t> FindAcfPeaks(const std::vector<double>& acf,
                                 double peak_threshold) {
  std::vector<size_t> peaks;
  if (acf.size() < 3) {
    return peaks;
  }
  // Lag 0 is trivially 1 and lag 1 reflects sampling continuity rather
  // than periodicity; peaks start at lag 2.
  for (size_t k = 2; k + 1 < acf.size(); ++k) {
    if (acf[k] > acf[k - 1] && acf[k] >= acf[k + 1] &&
        acf[k] > peak_threshold) {
      peaks.push_back(k);
    }
  }
  return peaks;
}

AcfInfo ComputeAcfInfo(const std::vector<double>& series, size_t max_lag,
                       double peak_threshold, fft::AcfScratch* scratch) {
  ASAP_CHECK_GE(series.size(), 2u);
  max_lag = std::min(max_lag, series.size() - 1);
  AcfInfo info;
  info.correlations = fft::AutocorrelationFft(series, max_lag, scratch);
  SetAcfPeaks(peak_threshold, &info);
  return info;
}

void SetAcfPeaks(double peak_threshold, AcfInfo* info) {
  info->peaks = FindAcfPeaks(info->correlations, peak_threshold);
  info->max_acf = 0.0;
  for (size_t p : info->peaks) {
    info->max_acf = std::max(info->max_acf, info->correlations[p]);
  }
}

}  // namespace asap
