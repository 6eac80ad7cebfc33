// Tests for src/core/acf_peaks: peak detection on periodic, composite
// and aperiodic signals; and the streaming operator's SlidingAcf, whose
// ACF the same peak summary reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/acf_peaks.h"
#include "core/streaming_asap.h"
#include "fft/autocorrelation.h"
#include "ts/generators.h"

namespace asap {
namespace {

bool ContainsNear(const std::vector<size_t>& peaks, size_t target,
                  size_t tolerance) {
  return std::any_of(peaks.begin(), peaks.end(), [&](size_t p) {
    return p + tolerance >= target && p <= target + tolerance;
  });
}

TEST(FindAcfPeaksTest, EmptyAndTinyInputs) {
  EXPECT_TRUE(FindAcfPeaks({}).empty());
  EXPECT_TRUE(FindAcfPeaks({1.0}).empty());
  EXPECT_TRUE(FindAcfPeaks({1.0, 0.5}).empty());
}

TEST(FindAcfPeaksTest, DetectsInteriorLocalMaximum) {
  // Peak of 0.8 at lag 3.
  std::vector<double> acf = {1.0, 0.2, 0.5, 0.8, 0.4, 0.1};
  std::vector<size_t> peaks = FindAcfPeaks(acf, 0.2);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0], 3u);
}

TEST(FindAcfPeaksTest, ThresholdFiltersWeakPeaks) {
  std::vector<double> acf = {1.0, 0.0, 0.1, 0.15, 0.1, 0.0};
  EXPECT_TRUE(FindAcfPeaks(acf, 0.2).empty());
  EXPECT_EQ(FindAcfPeaks(acf, 0.05).size(), 1u);
}

TEST(FindAcfPeaksTest, LagOneIsNeverAPeak) {
  // Even a huge lag-1 correlation is sampling continuity, not period.
  std::vector<double> acf = {1.0, 0.95, 0.5, 0.2, 0.1, 0.05};
  EXPECT_TRUE(FindAcfPeaks(acf, 0.2).empty());
}

TEST(ComputeAcfInfoTest, SineWavePeaksAtPeriodMultiples) {
  std::vector<double> x = gen::Sine(1024, 32.0);
  AcfInfo info = ComputeAcfInfo(x, 128);
  EXPECT_TRUE(ContainsNear(info.peaks, 32, 1));
  EXPECT_TRUE(ContainsNear(info.peaks, 64, 1));
  EXPECT_TRUE(ContainsNear(info.peaks, 96, 1));
  EXPECT_GT(info.max_acf, 0.9);
}

TEST(ComputeAcfInfoTest, NoisySinePeaksSurvive) {
  Pcg32 rng(2);
  std::vector<double> x = gen::Add(gen::Sine(2048, 48.0),
                                   gen::WhiteNoise(&rng, 2048, 0.5));
  AcfInfo info = ComputeAcfInfo(x, 200);
  EXPECT_TRUE(ContainsNear(info.peaks, 48, 2));
  EXPECT_TRUE(ContainsNear(info.peaks, 96, 2));
}

TEST(ComputeAcfInfoTest, WhiteNoiseHasNoPeaks) {
  Pcg32 rng(3);
  std::vector<double> x = gen::WhiteNoise(&rng, 8000, 1.0);
  AcfInfo info = ComputeAcfInfo(x, 400);
  EXPECT_TRUE(info.peaks.empty());
  EXPECT_DOUBLE_EQ(info.max_acf, 0.0);
}

TEST(ComputeAcfInfoTest, CompositePeriodsBothFound) {
  Pcg32 rng(4);
  // Daily 50 + weekly 350 composite (taxi-like structure).
  std::vector<double> x = gen::SeasonalComposite(
      &rng, 7000, {50.0, 350.0}, {1.0, 0.8}, 0.3);
  AcfInfo info = ComputeAcfInfo(x, 700);
  EXPECT_TRUE(ContainsNear(info.peaks, 50, 2));
  EXPECT_TRUE(ContainsNear(info.peaks, 350, 3));
}

TEST(ComputeAcfInfoTest, MaxLagClampedToSeriesLength) {
  std::vector<double> x = gen::Sine(64, 8.0);
  AcfInfo info = ComputeAcfInfo(x, 10000);  // absurd max_lag
  EXPECT_EQ(info.correlations.size(), 64u);
}

TEST(ComputeAcfInfoTest, PeaksAreSortedAscending) {
  std::vector<double> x = gen::Sine(1024, 20.0);
  AcfInfo info = ComputeAcfInfo(x, 256);
  EXPECT_TRUE(std::is_sorted(info.peaks.begin(), info.peaks.end()));
}

TEST(ComputeAcfInfoTest, MaxAcfIsMaxOverPeaks) {
  std::vector<double> x = gen::Sine(1024, 32.0);
  AcfInfo info = ComputeAcfInfo(x, 128);
  double expected = 0.0;
  for (size_t p : info.peaks) {
    expected = std::max(expected, info.correlations[p]);
  }
  EXPECT_DOUBLE_EQ(info.max_acf, expected);
}

// --- SlidingAcf -------------------------------------------------------------------

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SlidingAcfTest, MatchesBruteForceAtEverySlide) {
  // The fft_test geometries (n, max_lag, level), then a ramp, a level
  // shift of 40, a jump of 1e6 and a NaN that enters and leaves, which
  // stress the anchor and the cases where Correlations declines. The
  // window slides one value at a time for two rebuild periods and one
  // more slide; the sums are rebuilt at every multiple of the period
  // and whenever Correlations declines, as the operator does.
  enum class Shape { kPlain, kRamp, kShift, kJump, kNan };
  struct Case {
    size_t n;
    size_t max_lag;
    double level;
    Shape shape;
  };
  const Case cases[] = {
      {400, 112, 0.0, Shape::kPlain},  {400, 113, 0.0, Shape::kPlain},
      {333, 40, 0.0, Shape::kPlain},   {1, 0, 0.0, Shape::kPlain},
      {2, 1, 0.0, Shape::kPlain},      {3, 0, 0.0, Shape::kPlain},
      {3, 2, 0.0, Shape::kPlain},      {100, 99, 0.0, Shape::kPlain},
      {257, 256, 0.0, Shape::kPlain},  {400, 41, 0.0, Shape::kPlain},
      {2000, 201, 0.0, Shape::kPlain}, {2000, 201, 1e9, Shape::kPlain},
      {400, 41, 0.0, Shape::kRamp},    {400, 41, 0.0, Shape::kShift},
      {400, 41, 0.0, Shape::kJump},    {400, 41, 0.0, Shape::kNan},
  };
  for (const Case& c : cases) {
    // One window turnover per period, as the operator's R at I = 1;
    // tiny windows get a longer one so that they slide at all.
    const size_t period = std::max<size_t>(c.n, 16);
    const size_t slides = 2 * period + 1;
    const size_t length = c.n + slides;
    Pcg32 rng(c.n * 31 + c.max_lag);
    std::vector<double> x =
        gen::Add(gen::Sine(length, 25.0, 1.0), gen::Ar1(&rng, length, 0.6, 0.5));
    const size_t event = c.n + period / 2;  // where a shift, jump or NaN enters
    for (size_t t = 0; t < length; ++t) {
      x[t] += c.level;
      if (c.shape == Shape::kRamp) {
        x[t] += 0.05 * static_cast<double>(t);
      } else if (c.shape == Shape::kShift && t >= event) {
        x[t] += 40.0;
      } else if (c.shape == Shape::kJump && t >= event) {
        x[t] += 1e6;
      }
    }
    if (c.shape == Shape::kNan) {
      x[event] = std::nan("");
    }

    std::deque<double> window(x.begin(), x.begin() + c.n);
    SlidingAcf sliding;
    std::vector<double> acf;
    fft::AcfScratch scratch;
    size_t rebuilds = 0;
    size_t degenerate = 0;
    for (size_t slide = 0; slide <= slides; ++slide) {
      if (slide > 0) {
        const double evicted = window.front();
        window.pop_front();
        window.push_back(x[c.n + slide - 1]);
        sliding.Slide(window, evicted);
      }
      const std::vector<double> visible(window.begin(), window.end());
      const bool rebuild =
          slide % period == 0 || !sliding.Correlations(window, &acf);
      if (rebuild) {
        sliding.Rebuild(visible, c.max_lag, &scratch, &acf);
        ++rebuilds;
      }
      const std::string where = "n=" + std::to_string(c.n) +
                                " max_lag=" + std::to_string(c.max_lag) +
                                " shape=" + std::to_string(int(c.shape)) +
                                " slide " + std::to_string(slide);
      ASSERT_EQ(acf.size(), c.max_lag + 1) << where;
      const bool nan_visible = c.shape == Shape::kNan && event >= slide &&
                               event < slide + c.n;
      if (nan_visible) {
        // Degenerate while the NaN is visible, as the FFT path is.
        ASSERT_TRUE(rebuild) << where;
        ++degenerate;
        EXPECT_EQ(acf[0], 1.0) << where;
        for (size_t k = 1; k <= c.max_lag; ++k) {
          ASSERT_EQ(acf[k], 0.0) << where << " lag " << k;
        }
        continue;
      }
      if (rebuild) {
        // A rebuild is the FFT refresh's ACF, bit for bit.
        ASSERT_TRUE(SameBits(acf, fft::AutocorrelationFft(visible, c.max_lag)))
            << where;
        if (c.n >= 2) {
          AcfInfo info;
          info.correlations = acf;
          SetAcfPeaks(0.2, &info);
          const AcfInfo want = ComputeAcfInfo(visible, c.max_lag);
          EXPECT_TRUE(SameBits(info.correlations, want.correlations)) << where;
          EXPECT_EQ(info.peaks, want.peaks) << where;
          EXPECT_EQ(info.max_acf, want.max_acf) << where;
        }
      }
      // The brute force centres on a plain sum, which at a 1e9 level
      // is itself ~1e-7 off; the sliding sums centre on the exact
      // window mean, so between rebuilds they are held to the brute
      // force of the de-levelled window (x - 1e9 is exact there).
      std::vector<double> reference_input = visible;
      if (!rebuild) {
        for (double& v : reference_input) {
          v -= c.level;
        }
      }
      const std::vector<double> reference =
          fft::AutocorrelationBruteForce(reference_input, c.max_lag);
      for (size_t k = 0; k <= c.max_lag; ++k) {
        ASSERT_NEAR(acf[k], reference[k], 1e-9) << where << " lag " << k;
      }
    }
    // Slides 0, period and 2 * period rebuild. With the NaN, so do the
    // n slides that see it (period among them) and the one after it
    // leaves; after the jump, the first slide whose window holds only
    // the new level. A one-value window is constant, and away from the
    // anchor its centring cancels every bit: it rebuilds at each slide.
    const size_t extra = c.n == 1                  ? slides - 2
                         : c.shape == Shape::kNan  ? c.n
                         : c.shape == Shape::kJump ? 1
                                                   : 0;
    EXPECT_EQ(rebuilds, 3 + extra) << "n=" << c.n;
    EXPECT_EQ(degenerate, c.shape == Shape::kNan ? c.n : 0) << "n=" << c.n;
  }
}

}  // namespace
}  // namespace asap
