// Tests for src/core/smooth: the public batch API.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/metrics.h"
#include "core/smooth.h"
#include "ts/generators.h"

namespace asap {
namespace {

std::vector<double> PeriodicSeries(uint64_t seed, size_t n = 12000,
                                   double period = 300.0) {
  Pcg32 rng(seed);
  return gen::Add(gen::Sine(n, period, 1.0), gen::WhiteNoise(&rng, n, 0.4));
}

TEST(SmoothTest, RejectsTinyInputs) {
  SmoothOptions options;
  EXPECT_FALSE(Smooth(std::vector<double>{}, options).ok());
  EXPECT_FALSE(Smooth(std::vector<double>{1, 2, 3}, options).ok());
}

TEST(SmoothTest, RejectsZeroGridStep) {
  SmoothOptions options;
  options.strategy = SearchStrategy::kGrid;
  options.search.grid_step = 0;
  const Result<SmoothingResult> r = Smooth(PeriodicSeries(1), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("grid_step"), std::string::npos);
}

TEST(SmoothTest, PreaggregatesToResolution) {
  SmoothOptions options;
  options.resolution = 1000;
  Result<SmoothingResult> r = Smooth(PeriodicSeries(1), options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->points_per_pixel, 12u);  // 12000 / 1000
  EXPECT_EQ(r->window_raw_points, r->window * 12u);
  // Output fits the display (plus rounding).
  EXPECT_LE(r->series.size(), 1000u);
}

TEST(SmoothTest, ZeroResolutionDisablesPreaggregation) {
  SmoothOptions options;
  options.resolution = 0;
  Result<SmoothingResult> r = Smooth(PeriodicSeries(2, 3000), options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->points_per_pixel, 1u);
}

TEST(SmoothTest, ReducesRoughnessAndPreservesKurtosis) {
  SmoothOptions options;
  options.resolution = 800;
  Result<SmoothingResult> r = Smooth(PeriodicSeries(3), options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->window, 1u);
  EXPECT_LT(r->roughness_after, r->roughness_before);
  EXPECT_GE(r->kurtosis_after, r->kurtosis_before - 1e-12);
  EXPECT_LT(r->RoughnessRatio(), 1.0);
}

TEST(SmoothTest, AllStrategiesProduceFeasibleResults) {
  const std::vector<double> x = PeriodicSeries(4);
  for (SearchStrategy strategy :
       {SearchStrategy::kAsap, SearchStrategy::kExhaustive,
        SearchStrategy::kGrid, SearchStrategy::kBinary}) {
    SmoothOptions options;
    options.resolution = 600;
    options.strategy = strategy;
    options.search.grid_step = 2;
    Result<SmoothingResult> r = Smooth(x, options);
    ASSERT_TRUE(r.ok()) << SearchStrategyName(strategy);
    EXPECT_GE(r->kurtosis_after, r->kurtosis_before - 1e-12)
        << SearchStrategyName(strategy);
  }
}

TEST(SmoothTest, AsapTracksExhaustiveQuality) {
  const std::vector<double> x = PeriodicSeries(5);
  SmoothOptions options;
  options.resolution = 800;
  options.strategy = SearchStrategy::kAsap;
  Result<SmoothingResult> asap = Smooth(x, options);
  options.strategy = SearchStrategy::kExhaustive;
  Result<SmoothingResult> exhaustive = Smooth(x, options);
  ASSERT_TRUE(asap.ok());
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_LE(asap->roughness_after,
            exhaustive->roughness_after * 1.05 + 1e-9);
  EXPECT_LT(asap->diag.candidates_evaluated,
            exhaustive->diag.candidates_evaluated);
}

TEST(SmoothTest, TimeSeriesOverload) {
  TimeSeries ts(PeriodicSeries(6, 4000), 0.0, 60.0, "metric");
  SmoothOptions options;
  options.resolution = 500;
  Result<SmoothingResult> r = Smooth(ts, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->window, 0u);
}

TEST(SmoothTest, StrategyNames) {
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kAsap), "ASAP");
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kExhaustive), "Exhaustive");
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kGrid), "Grid");
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kBinary), "Binary");
}

TEST(SmoothTest, RoughnessRatioHandlesDegenerateInput) {
  SmoothingResult r;
  r.roughness_before = 0.0;
  r.roughness_after = 0.0;
  EXPECT_DOUBLE_EQ(r.RoughnessRatio(), 0.0);
}

TEST(ApplyWindowTest, AppliesRequestedWindow) {
  const std::vector<double> x = PeriodicSeries(7, 4000);
  Result<std::vector<double>> y = ApplyWindow(x, 500, 10);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->size(), 500u - 10u + 1u);
}

TEST(ApplyWindowTest, RejectsOutOfRangeWindow) {
  const std::vector<double> x = PeriodicSeries(8, 1000);
  EXPECT_FALSE(ApplyWindow(x, 100, 0).ok());
  EXPECT_FALSE(ApplyWindow(x, 100, 101).ok());
  EXPECT_FALSE(ApplyWindow(std::vector<double>{}, 100, 1).ok());
}

TEST(SmoothTest, SpikySeriesLeftUnsmoothed) {
  Pcg32 rng(9);
  std::vector<double> x = gen::WhiteNoise(&rng, 4000, 0.1);
  gen::InjectSpike(&x, 1000, 50.0);
  gen::InjectSpike(&x, 2500, 40.0);
  SmoothOptions options;
  options.resolution = 0;  // keep the spikes un-averaged
  Result<SmoothingResult> r = Smooth(x, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->window, 1u);
  EXPECT_DOUBLE_EQ(r->roughness_after, r->roughness_before);
}

}  // namespace
}  // namespace asap
