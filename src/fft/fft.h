// Fast Fourier transforms, built from scratch (no FFTW dependency).
//
// ASAP needs O(n log n) autocorrelation ("two FFTs", paper §4.3.3) and
// FFT-based smoothing baselines (Appendix B.2). We provide:
//
//   * an iterative radix-2 Cooley–Tukey transform for power-of-two sizes,
//     reading its twiddles from a table computed once per size,
//   * Bluestein's chirp-z algorithm for arbitrary sizes (decomposed into
//     power-of-two convolutions), and
//   * helpers for real input, inverse transforms and FFT convolution.
//
// All transforms are unnormalized in the forward direction; the inverse
// divides by N, so Inverse(Forward(x)) == x.

#ifndef ASAP_FFT_FFT_H_
#define ASAP_FFT_FFT_H_

#include <complex>
#include <cstddef>
#include <vector>

namespace asap {
namespace fft {

using Complex = std::complex<double>;

/// True iff n is a power of two (n >= 1).
bool IsPowerOfTwo(size_t n);

/// Smallest power of two >= n (n >= 1).
size_t NextPowerOfTwo(size_t n);

/// The twiddle table of an n-point transform: e^{-2*pi*i*k/n} for k in
/// [0, n/2), n a power of two >= 2. Each size's table is computed once,
/// on first use, and then shared read-only by every thread, so a
/// transform of a size seen before computes no sine or cosine.
const Complex* Twiddles(size_t n);

/// In-place FFT; data.size() must be a power of two. The stage of
/// length `len` reads its twiddles from Twiddles(len) (conjugated for
/// the inverse).
void TransformRadix2(std::vector<Complex>* data, bool inverse);

/// Forward DFT of arbitrary length via Bluestein's algorithm (in place).
void TransformBluestein(std::vector<Complex>* data, bool inverse);

/// Forward DFT for any size; dispatches to radix-2 or Bluestein.
void Transform(std::vector<Complex>* data);

/// Inverse DFT for any size (normalized by 1/N).
void InverseTransform(std::vector<Complex>* data);

/// Forward DFT of real input; returns n complex bins.
std::vector<Complex> RealTransform(const std::vector<double>& input);

/// Inverse of a spectrum known to come from real input; returns the real
/// part of the inverse DFT (imaginary residue is discarded).
std::vector<double> InverseRealTransform(const std::vector<Complex>& spectrum);

/// Quadratic-time reference DFT for testing the fast paths.
std::vector<Complex> NaiveDft(const std::vector<Complex>& input, bool inverse);

}  // namespace fft
}  // namespace asap

#endif  // ASAP_FFT_FFT_H_
