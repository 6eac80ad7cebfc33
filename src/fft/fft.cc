#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/macros.h"

namespace asap {
namespace fft {

bool IsPowerOfTwo(size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

size_t NextPowerOfTwo(size_t n) {
  ASAP_CHECK_GE(n, 1u);
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

namespace {

// Bit-reversal permutation for the iterative radix-2 transform.
void BitReversePermute(std::vector<Complex>* data) {
  const size_t n = data->size();
  size_t j = 0;
  for (size_t i = 1; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap((*data)[i], (*data)[j]);
    }
  }
}

// One table per power-of-two size: index log2(n).
constexpr size_t kMaxLog2Size = 64;

size_t Log2(size_t n) {
  size_t log2n = 0;
  while ((size_t{1} << log2n) < n) {
    ++log2n;
  }
  return log2n;
}

// Butterflies of the stage of length `len` over all n / len blocks:
// block b covers data[b * len, (b + 1) * len), and twiddle k is tw[k]
// (conjugated for the inverse).
template <bool kInverse>
void Stage(Complex* data, size_t n, size_t len, const Complex* tw) {
  const size_t half = len / 2;
  for (size_t block = 0; block < n / len; ++block) {
    Complex* a = data + block * len;
    Complex* b = a + half;
    for (size_t k = 0; k < half; ++k) {
      const double wr = tw[k].real();
      const double wi = kInverse ? -tw[k].imag() : tw[k].imag();
      const double vr = b[k].real() * wr - b[k].imag() * wi;
      const double vi = b[k].real() * wi + b[k].imag() * wr;
      const Complex u = a[k];
      a[k] = Complex(u.real() + vr, u.imag() + vi);
      b[k] = Complex(u.real() - vr, u.imag() - vi);
    }
  }
}

}  // namespace

const Complex* Twiddles(size_t n) {
  ASAP_CHECK(IsPowerOfTwo(n) && n >= 2);
  static std::once_flag built[kMaxLog2Size];
  static std::vector<Complex> tables[kMaxLog2Size];
  const size_t log2n = Log2(n);
  std::call_once(built[log2n], [n, log2n] {
    std::vector<Complex>& table = tables[log2n];
    table.resize(n / 2);
    for (size_t k = 0; k < n / 2; ++k) {
      // k / n is exact for a power-of-two n, so each angle is one
      // rounding away from the true -2*pi*k/n.
      const double angle =
          -2.0 * M_PI * (static_cast<double>(k) / static_cast<double>(n));
      table[k] = Complex(std::cos(angle), std::sin(angle));
    }
  });
  return tables[log2n].data();
}

void TransformRadix2(std::vector<Complex>* data, bool inverse) {
  const size_t n = data->size();
  ASAP_CHECK(IsPowerOfTwo(n));
  if (n == 1) {
    return;
  }
  BitReversePermute(data);

  for (size_t len = 2; len <= n; len <<= 1) {
    if (inverse) {
      Stage<true>(data->data(), n, len, Twiddles(len));
    } else {
      Stage<false>(data->data(), n, len, Twiddles(len));
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& c : *data) {
      c *= inv_n;
    }
  }
}

void TransformBluestein(std::vector<Complex>* data, bool inverse) {
  const size_t n = data->size();
  ASAP_CHECK_GE(n, 1u);
  if (n == 1) {
    return;
  }
  // Chirp-z: x_k e^{-i pi k^2 / n} convolved with e^{+i pi k^2 / n}.
  // Convolution length >= 2n - 1, padded to a power of two.
  const size_t m = NextPowerOfTwo(2 * n - 1);
  const double sign = inverse ? 1.0 : -1.0;

  // Precompute the chirp. k^2 mod 2n avoids precision loss for large k.
  std::vector<Complex> chirp(n);
  for (size_t k = 0; k < n; ++k) {
    uint64_t k2 = (static_cast<uint64_t>(k) * k) % (2 * n);
    double angle = sign * M_PI * static_cast<double>(k2) / static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }

  std::vector<Complex> a(m, Complex(0.0, 0.0));
  std::vector<Complex> b(m, Complex(0.0, 0.0));
  for (size_t k = 0; k < n; ++k) {
    a[k] = (*data)[k] * chirp[k];
    b[k] = std::conj(chirp[k]);
  }
  for (size_t k = 1; k < n; ++k) {
    b[m - k] = std::conj(chirp[k]);  // symmetric wrap for circular conv
  }

  TransformRadix2(&a, /*inverse=*/false);
  TransformRadix2(&b, /*inverse=*/false);
  for (size_t k = 0; k < m; ++k) {
    a[k] *= b[k];
  }
  TransformRadix2(&a, /*inverse=*/true);

  for (size_t k = 0; k < n; ++k) {
    (*data)[k] = a[k] * chirp[k];
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& c : *data) {
      c *= inv_n;
    }
  }
}

void Transform(std::vector<Complex>* data) {
  if (IsPowerOfTwo(data->size())) {
    TransformRadix2(data, /*inverse=*/false);
  } else {
    TransformBluestein(data, /*inverse=*/false);
  }
}

void InverseTransform(std::vector<Complex>* data) {
  if (IsPowerOfTwo(data->size())) {
    TransformRadix2(data, /*inverse=*/true);
  } else {
    TransformBluestein(data, /*inverse=*/true);
  }
}

std::vector<Complex> RealTransform(const std::vector<double>& input) {
  std::vector<Complex> data(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    data[i] = Complex(input[i], 0.0);
  }
  Transform(&data);
  return data;
}

std::vector<double> InverseRealTransform(const std::vector<Complex>& spectrum) {
  std::vector<Complex> data = spectrum;
  InverseTransform(&data);
  std::vector<double> out(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    out[i] = data[i].real();
  }
  return out;
}

std::vector<Complex> NaiveDft(const std::vector<Complex>& input, bool inverse) {
  const size_t n = input.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  const double sign = inverse ? 2.0 : -2.0;
  for (size_t k = 0; k < n; ++k) {
    for (size_t t = 0; t < n; ++t) {
      double angle = sign * M_PI * static_cast<double>(k) *
                     static_cast<double>(t) / static_cast<double>(n);
      out[k] += input[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  if (inverse) {
    for (Complex& c : out) {
      c /= static_cast<double>(n);
    }
  }
  return out;
}

}  // namespace fft
}  // namespace asap
