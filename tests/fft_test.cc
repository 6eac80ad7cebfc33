// Tests for src/fft: transforms vs. the naive DFT reference,
// round-trips, convolution, and autocorrelation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>

#include "common/random.h"
#include "fft/autocorrelation.h"
#include "fft/fft.h"
#include "ts/generators.h"

namespace asap {
namespace fft {
namespace {

std::vector<Complex> RandomComplexVector(Pcg32* rng, size_t n) {
  std::vector<Complex> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = Complex(rng->Uniform(-1, 1), rng->Uniform(-1, 1));
  }
  return v;
}

double MaxAbsDiff(const std::vector<Complex>& a,
                  const std::vector<Complex>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

// --- Helpers ----------------------------------------------------------------

TEST(FftHelpersTest, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(1000));
}

TEST(FftHelpersTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

// --- Radix-2 vs naive DFT ----------------------------------------------------

class Radix2SizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Radix2SizeTest, MatchesNaiveDft) {
  Pcg32 rng(GetParam());
  std::vector<Complex> input = RandomComplexVector(&rng, GetParam());
  std::vector<Complex> expected = NaiveDft(input, /*inverse=*/false);
  std::vector<Complex> actual = input;
  TransformRadix2(&actual, /*inverse=*/false);
  EXPECT_LT(MaxAbsDiff(actual, expected), 1e-9 * GetParam());
}

TEST_P(Radix2SizeTest, RoundTripRecoversInput) {
  Pcg32 rng(GetParam() + 17);
  std::vector<Complex> input = RandomComplexVector(&rng, GetParam());
  std::vector<Complex> data = input;
  TransformRadix2(&data, /*inverse=*/false);
  TransformRadix2(&data, /*inverse=*/true);
  EXPECT_LT(MaxAbsDiff(data, input), 1e-10 * GetParam());
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, Radix2SizeTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

// --- Bluestein (arbitrary sizes) ---------------------------------------------

class BluesteinSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BluesteinSizeTest, MatchesNaiveDft) {
  Pcg32 rng(GetParam() + 3);
  std::vector<Complex> input = RandomComplexVector(&rng, GetParam());
  std::vector<Complex> expected = NaiveDft(input, /*inverse=*/false);
  std::vector<Complex> actual = input;
  TransformBluestein(&actual, /*inverse=*/false);
  EXPECT_LT(MaxAbsDiff(actual, expected), 1e-8 * GetParam());
}

TEST_P(BluesteinSizeTest, RoundTripRecoversInput) {
  Pcg32 rng(GetParam() + 5);
  std::vector<Complex> input = RandomComplexVector(&rng, GetParam());
  std::vector<Complex> data = input;
  Transform(&data);
  InverseTransform(&data);
  EXPECT_LT(MaxAbsDiff(data, input), 1e-8 * GetParam());
}

INSTANTIATE_TEST_SUITE_P(OddAndPrimeSizes, BluesteinSizeTest,
                         ::testing::Values(3, 5, 7, 12, 100, 101, 997, 1000));

// --- Real transforms ----------------------------------------------------------

TEST(RealTransformTest, DcBinIsSum) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<Complex> spectrum = RealTransform(x);
  EXPECT_NEAR(spectrum[0].real(), 10.0, 1e-12);
  EXPECT_NEAR(spectrum[0].imag(), 0.0, 1e-12);
}

TEST(RealTransformTest, SpectrumIsConjugateSymmetric) {
  Pcg32 rng(21);
  std::vector<double> x = UniformVector(&rng, 16, -1, 1);
  std::vector<Complex> spectrum = RealTransform(x);
  for (size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(spectrum[k].real(), spectrum[x.size() - k].real(), 1e-10);
    EXPECT_NEAR(spectrum[k].imag(), -spectrum[x.size() - k].imag(), 1e-10);
  }
}

TEST(RealTransformTest, ParsevalHolds) {
  Pcg32 rng(22);
  std::vector<double> x = UniformVector(&rng, 128, -1, 1);
  std::vector<Complex> spectrum = RealTransform(x);
  double time_energy = 0.0;
  for (double v : x) {
    time_energy += v * v;
  }
  double freq_energy = 0.0;
  for (const Complex& c : spectrum) {
    freq_energy += std::norm(c);
  }
  EXPECT_NEAR(freq_energy / static_cast<double>(x.size()), time_energy, 1e-8);
}

TEST(RealTransformTest, InverseRealRoundTrip) {
  Pcg32 rng(23);
  std::vector<double> x = UniformVector(&rng, 50, -2, 2);
  std::vector<double> back = InverseRealTransform(RealTransform(x));
  ASSERT_EQ(back.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST(RealTransformTest, PureToneConcentratesPower) {
  const size_t n = 128;
  std::vector<double> x = gen::Sine(n, /*period=*/16.0);
  std::vector<Complex> spectrum = RealTransform(x);
  // Expect the energy at bin n/16 = 8 (and its mirror).
  size_t argmax = 1;
  for (size_t k = 1; k < n / 2; ++k) {
    if (std::norm(spectrum[k]) > std::norm(spectrum[argmax])) {
      argmax = k;
    }
  }
  EXPECT_EQ(argmax, 8u);
}

// --- Autocorrelation -----------------------------------------------------------

class AcfAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(AcfAgreementTest, FftMatchesBruteForce) {
  Pcg32 rng(GetParam());
  // Mix of periodic and autoregressive content.
  std::vector<double> x = gen::Add(
      gen::Sine(400, 25.0, 1.0), gen::Ar1(&rng, 400, 0.6, 0.5));
  const size_t max_lag = 80;
  std::vector<double> fast = AutocorrelationFft(x, max_lag);
  std::vector<double> slow = AutocorrelationBruteForce(x, max_lag);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t k = 0; k <= max_lag; ++k) {
    EXPECT_NEAR(fast[k], slow[k], 1e-9) << "lag " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcfAgreementTest, ::testing::Range(1, 8));

// The padding rule (m = NextPowerOfTwo(n + max_lag)) and the
// half-length packing (even samples real, odd samples imaginary) at
// their edges: the tightest padding and one past it, odd and tiny n,
// max_lag = n - 1, the streaming refresh geometries and a large level.
TEST(AcfTest, FftMatchesBruteForceAtPaddingAndPackingEdges) {
  struct Geometry {
    size_t n;
    size_t max_lag;
    double level;
  };
  const Geometry cases[] = {
      {400, 112, 0.0},   // n + max_lag = 512: no room to spare
      {400, 113, 0.0},   // n + max_lag = 513: pads to 1024
      {333, 40, 0.0},    // odd n
      {1, 0, 0.0},       {2, 1, 0.0},     {3, 0, 0.0},
      {3, 2, 0.0},       {100, 99, 0.0},  // max_lag = n - 1
      {257, 256, 0.0},   // odd n, max_lag = n - 1
      {400, 41, 0.0},    // 400 visible panes (firehose, dashboard)
      {2000, 201, 0.0},  // 2000 visible panes (refresh_bound)
      {2000, 201, 1e9},  // offset by 1e9
  };
  for (const Geometry& g : cases) {
    Pcg32 rng(g.n * 31 + g.max_lag);
    std::vector<double> x =
        gen::Add(gen::Sine(g.n, 25.0, 1.0), gen::Ar1(&rng, g.n, 0.6, 0.5));
    for (double& v : x) {
      v += g.level;
    }
    const std::vector<double> fast = AutocorrelationFft(x, g.max_lag);
    const std::vector<double> slow = AutocorrelationBruteForce(x, g.max_lag);
    ASSERT_EQ(fast.size(), g.max_lag + 1);
    ASSERT_EQ(slow.size(), g.max_lag + 1);
    for (size_t k = 0; k <= g.max_lag; ++k) {
      EXPECT_NEAR(fast[k], slow[k], 1e-9)
          << "n=" << g.n << " max_lag=" << g.max_lag << " level=" << g.level
          << " lag " << k;
    }
  }
}

TEST(AcfTest, ConstantAndNaNSeriesAreDegenerateAtEveryGeometry) {
  for (size_t n : {size_t{2}, size_t{3}, size_t{64}, size_t{400},
                   size_t{2000}}) {
    std::vector<double> constant(n, 3.25);
    std::vector<double> with_nan = gen::Sine(n, 25.0, 1.0);
    with_nan[n / 2] = std::nan("");
    for (const std::vector<double>& x : {constant, with_nan}) {
      const size_t max_lag = std::max<size_t>(n / 10, 1);
      const std::vector<double> acf = AutocorrelationFft(x, max_lag);
      ASSERT_EQ(acf.size(), max_lag + 1);
      EXPECT_EQ(acf[0], 1.0) << "n=" << n;
      for (size_t k = 1; k <= max_lag; ++k) {
        EXPECT_EQ(acf[k], 0.0) << "n=" << n << " lag " << k;
      }
    }
  }
}

TEST(AcfTest, ScratchCarriesNothingBetweenCalls) {
  // One scratch reused across sizes and series gives what a fresh
  // call gives, bit for bit.
  AcfScratch scratch;
  Pcg32 rng(12);
  for (size_t n : {size_t{2000}, size_t{400}, size_t{3}, size_t{2000},
                   size_t{401}}) {
    const std::vector<double> x = GaussianVector(&rng, n, 0.0, 1.0);
    const size_t max_lag = n / 10;
    const std::vector<double> reused = AutocorrelationFft(x, max_lag, &scratch);
    const std::vector<double> fresh = AutocorrelationFft(x, max_lag);
    ASSERT_EQ(reused.size(), fresh.size());
    EXPECT_EQ(0, std::memcmp(reused.data(), fresh.data(),
                             fresh.size() * sizeof(double)))
        << "n=" << n;
  }
}

TEST(AcfTest, LagZeroIsOne) {
  Pcg32 rng(5);
  std::vector<double> x = UniformVector(&rng, 100, 0, 1);
  EXPECT_DOUBLE_EQ(AutocorrelationFft(x, 10)[0], 1.0);
}

TEST(AcfTest, PureSinePeaksAtPeriod) {
  std::vector<double> x = gen::Sine(512, 32.0);
  std::vector<double> acf = AutocorrelationFft(x, 128);
  // The ACF of a sine is a cosine: maximum near lag = period.
  EXPECT_GT(acf[32], 0.9);
  EXPECT_LT(acf[16], -0.8);  // anti-correlated at half period
  EXPECT_GT(acf[64], 0.8);   // correlated again at two periods
}

TEST(AcfTest, WhiteNoiseHasNoStructure) {
  Pcg32 rng(6);
  std::vector<double> x = GaussianVector(&rng, 4000, 0, 1);
  std::vector<double> acf = AutocorrelationFft(x, 50);
  for (size_t k = 1; k <= 50; ++k) {
    EXPECT_LT(std::fabs(acf[k]), 0.08) << "lag " << k;
  }
}

TEST(AcfTest, ConstantSeriesIsDegenerate) {
  std::vector<double> x(64, 3.25);
  std::vector<double> acf = AutocorrelationFft(x, 8);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
  for (size_t k = 1; k <= 8; ++k) {
    EXPECT_DOUBLE_EQ(acf[k], 0.0);
  }
}

TEST(AcfTest, Ar1DecaysGeometrically) {
  Pcg32 rng(9);
  const double phi = 0.8;
  std::vector<double> x = gen::Ar1(&rng, 100000, phi, 1.0);
  std::vector<double> acf = AutocorrelationFft(x, 5);
  for (size_t k = 1; k <= 5; ++k) {
    EXPECT_NEAR(acf[k], std::pow(phi, static_cast<double>(k)), 0.03)
        << "lag " << k;
  }
}

}  // namespace
}  // namespace fft
}  // namespace asap
