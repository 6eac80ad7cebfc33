#include "window/sma.h"

#include "common/macros.h"

namespace asap {
namespace window {

std::vector<double> Sma(const std::vector<double>& x, size_t w) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_LE(w, x.size());
  const size_t n = x.size();
  std::vector<double> out(n - w + 1);
  const double inv_w = 1.0 / static_cast<double>(w);

  double sum = 0.0;
  for (size_t i = 0; i < w; ++i) {
    sum += x[i];
  }
  out[0] = sum * inv_w;
  size_t since_resum = 0;
  for (size_t i = 1; i + w <= n; ++i) {
    sum += x[i + w - 1] - x[i - 1];
    if (++since_resum >= kRecomputeInterval) {
      sum = 0.0;
      for (size_t j = i; j < i + w; ++j) {
        sum += x[j];
      }
      since_resum = 0;
    }
    out[i] = sum * inv_w;
  }
  return out;
}

}  // namespace window
}  // namespace asap
