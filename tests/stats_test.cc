// Tests for src/stats: descriptive moments, Welford streaming
// accumulation, normalization, histograms.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/normalize.h"
#include "stats/welford.h"

namespace asap {
namespace stats {
namespace {

// --- Descriptive ---------------------------------------------------------------

TEST(DescriptiveTest, MeanKnownValues) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({-5}), -5.0);
}

TEST(DescriptiveTest, VarianceIsPopulation) {
  // Population variance of {1..4} = 1.25 (sample would be 5/3).
  EXPECT_DOUBLE_EQ(Variance({1, 2, 3, 4}), 1.25);
  EXPECT_DOUBLE_EQ(Variance({7}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(DescriptiveTest, StdDevMatchesVariance) {
  EXPECT_DOUBLE_EQ(StdDev({1, 2, 3, 4}), std::sqrt(1.25));
}

TEST(DescriptiveTest, CovarianceKnownValues) {
  // Perfectly linear: cov = var.
  EXPECT_DOUBLE_EQ(Covariance({1, 2, 3}, {1, 2, 3}), Variance({1, 2, 3}));
  // Anti-correlated.
  EXPECT_LT(Covariance({1, 2, 3}, {3, 2, 1}), 0.0);
}

TEST(DescriptiveTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({9}), 9.0);
}

TEST(DescriptiveTest, MinMax) {
  EXPECT_DOUBLE_EQ(Min({3, -1, 2}), -1.0);
  EXPECT_DOUBLE_EQ(Max({3, -1, 2}), 3.0);
}

TEST(DescriptiveTest, FirstDifferences) {
  std::vector<double> d = FirstDifferences({1, 4, 9, 16});
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
  EXPECT_DOUBLE_EQ(d[2], 7.0);
  EXPECT_TRUE(FirstDifferences({1.0}).empty());
  EXPECT_TRUE(FirstDifferences({}).empty());
}

TEST(DescriptiveTest, KurtosisOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(Kurtosis({2, 2, 2, 2}), 0.0);
}

TEST(DescriptiveTest, KurtosisKnownSmallCase) {
  // {-1, 1} repeated: two-point symmetric distribution has kurtosis 1.
  EXPECT_NEAR(Kurtosis({-1, 1, -1, 1, -1, 1}), 1.0, 1e-12);
}

TEST(DescriptiveTest, SkewnessSignReflectsAsymmetry) {
  EXPECT_GT(Skewness({0, 0, 0, 0, 10}), 1.0);
  EXPECT_LT(Skewness({0, 0, 0, 0, -10}), -1.0);
  EXPECT_NEAR(Skewness({-1, 0, 1}), 0.0, 1e-12);
}

TEST(DescriptiveTest, ComputeMomentsAgreesWithPieces) {
  Pcg32 rng(3);
  std::vector<double> v = GaussianVector(&rng, 5000, 2.0, 3.0);
  Moments m = ComputeMoments(v);
  EXPECT_DOUBLE_EQ(m.mean, Mean(v));
  EXPECT_NEAR(m.variance, Variance(v), 1e-9);
  EXPECT_EQ(m.count, v.size());
}

// Distribution anchors used throughout the paper (Fig. 5).
TEST(DescriptiveTest, KurtosisAnchorsNormalLaplaceUniform) {
  Pcg32 rng(11);
  EXPECT_NEAR(Kurtosis(GaussianVector(&rng, 300000, 0, 1)), 3.0, 0.1);
  EXPECT_NEAR(Kurtosis(LaplaceVector(&rng, 300000, 0, 1)), 6.0, 0.4);
  EXPECT_NEAR(Kurtosis(UniformVector(&rng, 300000, 0, 1)), 1.8, 0.05);
}

// --- Welford ---------------------------------------------------------------------

TEST(WelfordTest, EmptyAccumulator) {
  WelfordAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.kurtosis(), 0.0);
}

class WelfordAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(WelfordAgreementTest, MatchesBatchMoments) {
  Pcg32 rng(GetParam());
  // Alternate distributions across seeds to vary tail weight.
  std::vector<double> v = GetParam() % 2 == 0
                              ? GaussianVector(&rng, 3000, 1.0, 2.0)
                              : LaplaceVector(&rng, 3000, -1.0, 1.5);
  WelfordAccumulator acc;
  for (double x : v) {
    acc.Add(x);
  }
  Moments m = ComputeMoments(v);
  EXPECT_EQ(acc.count(), v.size());
  EXPECT_NEAR(acc.mean(), m.mean, 1e-9);
  EXPECT_NEAR(acc.variance(), m.variance, 1e-9);
  EXPECT_NEAR(acc.skewness(), m.skewness, 1e-9);
  EXPECT_NEAR(acc.kurtosis(), m.kurtosis, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WelfordAgreementTest, ::testing::Range(1, 9));

TEST(WelfordTest, MergeEqualsSequential) {
  Pcg32 rng(42);
  std::vector<double> v = GaussianVector(&rng, 2000, 0.5, 1.5);
  WelfordAccumulator whole;
  for (double x : v) {
    whole.Add(x);
  }
  WelfordAccumulator left;
  WelfordAccumulator right;
  for (size_t i = 0; i < v.size(); ++i) {
    (i < 700 ? left : right).Add(v[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_NEAR(left.kurtosis(), whole.kurtosis(), 1e-9);
}

// --- ScoreAccumulator (generalized Welford: M4 + diff variance) -----------------

class ScoreAccumulatorAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(ScoreAccumulatorAgreementTest, TracksValueKurtosisAndDiffStddev) {
  Pcg32 rng(GetParam() * 13);
  std::vector<double> v = GetParam() % 2 == 0
                              ? GaussianVector(&rng, 2500, 2.0, 1.5)
                              : LaplaceVector(&rng, 2500, 0.0, 1.0);
  ScoreAccumulator acc;
  for (double x : v) {
    acc.Add(x);
  }
  const Moments m = ComputeMoments(v);
  EXPECT_EQ(acc.count(), v.size());
  EXPECT_NEAR(acc.mean(), m.mean, 1e-9);
  EXPECT_NEAR(acc.variance(), m.variance, 1e-9);
  EXPECT_NEAR(acc.kurtosis(), m.kurtosis, 1e-9);
  // The difference stream must match the batch pipeline
  // StdDev(FirstDifferences(v)) — i.e. the Roughness definition.
  EXPECT_NEAR(acc.roughness(), StdDev(FirstDifferences(v)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreAccumulatorAgreementTest,
                         ::testing::Range(1, 9));

TEST(ScoreAccumulatorTest, DegenerateInputsScoreZero) {
  ScoreAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.kurtosis(), 0.0);
  EXPECT_DOUBLE_EQ(acc.roughness(), 0.0);
  acc.Add(5.0);
  EXPECT_DOUBLE_EQ(acc.kurtosis(), 0.0);  // single point
  EXPECT_DOUBLE_EQ(acc.roughness(), 0.0);
  acc.Add(5.0);
  // Two points: one difference is not enough for a roughness (matches
  // Roughness() returning 0 below 3 points), constant => kurtosis 0.
  EXPECT_DOUBLE_EQ(acc.kurtosis(), 0.0);
  EXPECT_DOUBLE_EQ(acc.roughness(), 0.0);
  acc.Add(5.0);
  EXPECT_DOUBLE_EQ(acc.kurtosis(), 0.0);
  EXPECT_DOUBLE_EQ(acc.roughness(), 0.0);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0u);
}

TEST(WelfordTest, MergeWithEmptyIsNoOp) {
  WelfordAccumulator acc;
  acc.Add(1.0);
  acc.Add(2.0);
  WelfordAccumulator empty;
  acc.Merge(empty);
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_DOUBLE_EQ(acc.mean(), 1.5);
  empty.Merge(acc);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(WelfordTest, ResetClearsState) {
  WelfordAccumulator acc;
  acc.Add(5.0);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

// --- Normalization -----------------------------------------------------------------

TEST(NormalizeTest, ZScoreHasZeroMeanUnitVariance) {
  Pcg32 rng(12);
  std::vector<double> v = GaussianVector(&rng, 1000, 5.0, 3.0);
  std::vector<double> z = ZScore(v);
  EXPECT_NEAR(Mean(z), 0.0, 1e-10);
  EXPECT_NEAR(StdDev(z), 1.0, 1e-10);
}

TEST(NormalizeTest, ZScoreOfConstantIsZeros) {
  std::vector<double> z = ZScore({4, 4, 4});
  for (double x : z) {
    EXPECT_DOUBLE_EQ(x, 0.0);
  }
}

TEST(NormalizeTest, MinMaxScaleHitsEndpoints) {
  std::vector<double> s = MinMaxScale({2, 4, 6}, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.5);
  EXPECT_DOUBLE_EQ(s[2], 1.0);
}

TEST(NormalizeTest, DemeanCentersSeries) {
  std::vector<double> d = Demean({1, 2, 3});
  EXPECT_NEAR(Mean(d), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(d[0], -1.0);
}

// --- Histogram -----------------------------------------------------------------------

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);    // bin 0
  h.Add(9.99);   // bin 9
  h.Add(-50.0);  // clamped to bin 0
  h.Add(50.0);   // clamped to bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, BinCenters) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.BinCenter(0), 0.5);
  EXPECT_DOUBLE_EQ(h.BinCenter(9), 9.5);
}

TEST(HistogramTest, TailFractionSeparatesNormalFromLaplace) {
  // Fig. 5's observation: equal variance, different tail mass.
  Pcg32 rng(13);
  Histogram normal(-10, 10, 200);
  Histogram laplace(-10, 10, 200);
  normal.AddAll(GaussianVector(&rng, 100000, 0.0, std::sqrt(2.0)));
  laplace.AddAll(LaplaceVector(&rng, 100000, 0.0, 1.0));
  const double normal_tail = normal.TailFraction(0.0, std::sqrt(2.0), 3.0);
  const double laplace_tail = laplace.TailFraction(0.0, std::sqrt(2.0), 3.0);
  EXPECT_GT(laplace_tail, 2.0 * normal_tail);
}

TEST(HistogramTest, AsciiRenderingHasOneRowPerBin) {
  Histogram h(0, 1, 5);
  h.Add(0.5);
  std::string art = h.ToAscii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 5);
}

}  // namespace
}  // namespace stats
}  // namespace asap
