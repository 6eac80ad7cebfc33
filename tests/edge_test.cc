// Edge-case and failure-injection tests: minimum sizes, degenerate
// configurations, and boundary behavior across the public API.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "core/search.h"
#include "core/smooth.h"
#include "core/streaming_asap.h"
#include "fft/fft.h"
#include "stream/alerts.h"
#include "ts/generators.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {
namespace {

// --- Minimum-size inputs -------------------------------------------------------

TEST(EdgeTest, SmoothAtMinimumSize) {
  const std::vector<double> x = {1.0, 5.0, 2.0, 4.0};
  SmoothOptions options;
  options.resolution = 0;
  const Result<SmoothingResult> r = Smooth(x, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->window, 1u);  // max_window = 4/10 -> clamped to 1
}

TEST(EdgeTest, FftSizeOne) {
  std::vector<fft::Complex> data = {fft::Complex(3.0, -2.0)};
  fft::Transform(&data);
  EXPECT_DOUBLE_EQ(data[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(data[0].imag(), -2.0);
  fft::InverseTransform(&data);
  EXPECT_DOUBLE_EQ(data[0].real(), 3.0);
}

TEST(EdgeTest, FftSizeTwo) {
  std::vector<fft::Complex> data = {fft::Complex(1.0, 0.0),
                                    fft::Complex(-1.0, 0.0)};
  fft::Transform(&data);
  EXPECT_NEAR(data[0].real(), 0.0, 1e-12);
  EXPECT_NEAR(data[1].real(), 2.0, 1e-12);
}

// --- Degenerate configurations -------------------------------------------------

TEST(EdgeTest, MaxWindowOneDegeneratesAllSearches) {
  Pcg32 rng(1);
  const std::vector<double> x = GaussianVector(&rng, 100, 0, 1);
  SearchOptions options;
  options.max_window = 1;
  EXPECT_EQ(ExhaustiveSearch(x, options).window, 1u);
  EXPECT_EQ(GridSearch(x, options).window, 1u);
  EXPECT_EQ(BinarySearch(x, options).window, 1u);
  EXPECT_EQ(AsapSearch(x, options).window, 1u);
}

TEST(EdgeTest, ImpossibleAcfThresholdFallsBackToBinary) {
  const std::vector<double> x = gen::Sine(1000, 50.0);
  SearchOptions options;
  options.acf_threshold = 1.0;  // no correlation can exceed 1
  const SearchResult result = AsapSearch(x, options);
  EXPECT_EQ(result.diag.acf_peaks, 0u);
  EXPECT_GE(result.window, 1u);  // still returns something feasible
}

TEST(EdgeTest, ConstantSeriesSmoothsTrivially) {
  const std::vector<double> x(100, 5.0);
  SmoothOptions options;
  options.resolution = 0;
  const Result<SmoothingResult> r = Smooth(x, options);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->roughness_before, 0.0);
  EXPECT_DOUBLE_EQ(r->roughness_after, 0.0);
}

TEST(EdgeTest, SmoothRejectsNonFiniteValues) {
  std::vector<double> x(100, 1.0);
  x[50] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(Smooth(x, SmoothOptions{}).ok());
  x[50] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(Smooth(x, SmoothOptions{}).ok());
  x[50] = 1.0;
  SmoothOptions options;
  options.resolution = 0;
  EXPECT_TRUE(Smooth(x, options).ok());
}

TEST(EdgeTest, PreaggregateExtremeRatio) {
  Pcg32 rng(2);
  std::vector<double> x = UniformVector(&rng, 1'000'000, 0, 1);
  const window::Preaggregated agg = window::Preaggregate(x, 272);
  EXPECT_EQ(agg.points_per_pixel, 3676u);
  EXPECT_EQ(agg.series.size(), 1'000'000u / 3676u);
}

// --- Streaming boundaries ---------------------------------------------------

TEST(EdgeTest, StreamingPrefillDoesNotRefresh) {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 1000;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  Pcg32 rng(3);
  op.Prefill(GaussianVector(&rng, 5000, 0, 1));
  EXPECT_EQ(op.frame().refreshes, 0u);
  EXPECT_EQ(op.points_consumed(), 5000u);
  // The very next points can trigger an immediate refresh on a full
  // window.
  op.PushBatch(GaussianVector(&rng, 20, 0, 1));
  EXPECT_GE(op.frame().refreshes, 1u);
}

TEST(EdgeTest, StreamingRefreshIntervalLargerThanWindow) {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 1000;
  options.refresh_every_points = 5000;  // 5 full window turnovers
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  Pcg32 rng(4);
  const size_t refreshes = op.PushBatch(GaussianVector(&rng, 10'000, 0, 1));
  EXPECT_EQ(refreshes, 2u);
}

TEST(EdgeTest, StreamingVisiblePointsBelowResolution) {
  // Fewer visible points than pixels: panes are single points.
  StreamingOptions options;
  options.resolution = 1000;
  options.visible_points = 64;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  EXPECT_EQ(op.pane_size(), 1u);
  Pcg32 rng(5);
  op.PushBatch(GaussianVector(&rng, 128, 0, 1));
  EXPECT_GT(op.frame().refreshes, 0u);
}

// --- Alerts boundaries -------------------------------------------------------

TEST(EdgeTest, AlertsOnMinimumLengthSeries) {
  std::vector<double> x(8, 0.0);
  x[4] = 100.0;
  const Result<std::vector<stream::Alert>> alerts =
      stream::FindDeviations(x, {});
  ASSERT_TRUE(alerts.ok());  // exactly at the minimum length
}

TEST(EdgeTest, AlertsEntireSeriesDeviantIsStillOneRun) {
  // Robust baseline centers on the series itself, so a uniformly
  // shifted series has no deviation from its own baseline.
  std::vector<double> x(100, 50.0);
  const std::vector<stream::Alert> alerts =
      stream::FindDeviations(x, {}).ValueOrDie();
  EXPECT_TRUE(alerts.empty());
}

// --- SMA boundaries -----------------------------------------------------------

TEST(EdgeTest, SmaWindowEqualsLengthMinusOne) {
  Pcg32 rng(6);
  std::vector<double> x = UniformVector(&rng, 10, 0, 1);
  std::vector<double> y = window::Sma(x, 9);
  EXPECT_EQ(y.size(), 2u);
}

}  // namespace
}  // namespace asap
