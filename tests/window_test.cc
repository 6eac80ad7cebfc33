// Tests for src/window: SMA, the pane buffer and pixel-aware
// preaggregation.

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "common/random.h"
#include "window/panes.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {
namespace window {
namespace {

std::vector<double> NaiveSma(const std::vector<double>& x, size_t w,
                             size_t slide) {
  std::vector<double> out;
  for (size_t b = 0; b + w <= x.size(); b += slide) {
    double sum = 0.0;
    for (size_t i = b; i < b + w; ++i) {
      sum += x[i];
    }
    out.push_back(sum / static_cast<double>(w));
  }
  return out;
}

// --- Batch SMA --------------------------------------------------------------

TEST(SmaTest, WindowOneIsIdentity) {
  std::vector<double> x = {3, 1, 4, 1, 5};
  EXPECT_EQ(Sma(x, 1), x);
}

TEST(SmaTest, FullWindowIsSinglePoint) {
  std::vector<double> x = {2, 4, 6};
  std::vector<double> y = Sma(x, 3);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
}

TEST(SmaTest, KnownSmallCase) {
  std::vector<double> y = Sma({1, 2, 3, 4}, 2);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
  EXPECT_DOUBLE_EQ(y[1], 2.5);
  EXPECT_DOUBLE_EQ(y[2], 3.5);
}

class SmaPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SmaPropertyTest, MatchesNaiveForAllWindows) {
  Pcg32 rng(GetParam());
  std::vector<double> x = UniformVector(&rng, 200, -10, 10);
  const size_t w = GetParam();
  std::vector<double> fast = Sma(x, w);
  std::vector<double> slow = NaiveSma(x, w, 1);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, SmaPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 50, 199, 200));

TEST(SmaTest, OutputLengthIsNMinusWPlusOne) {
  std::vector<double> x(100, 1.0);
  EXPECT_EQ(Sma(x, 10).size(), 91u);
  EXPECT_EQ(Sma(x, 100).size(), 1u);
}

TEST(SmaTest, ConstantSeriesIsUnchanged) {
  std::vector<double> x(50, 2.5);
  for (double v : Sma(x, 13)) {
    EXPECT_DOUBLE_EQ(v, 2.5);
  }
}

// --- Running-sum drift regression (kRecomputeInterval) -------------------------

// Exact mean of x[begin, begin + w) via compensated summation — the
// drift-free reference the running-sum implementations are pinned to.
double ExactWindowMean(const std::vector<double>& x, size_t begin, size_t w) {
  double sum = 0.0;
  double comp = 0.0;
  for (size_t i = begin; i < begin + w; ++i) {
    const double y = x[i] - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum / static_cast<double>(w);
}

TEST(SmaTest, DriftStaysBelow1e9OnMillionPointSeries) {
  Pcg32 rng(2024);
  std::vector<double> x = UniformVector(&rng, 1000000, 10.0, 11.0);
  const size_t w = 1000;
  const std::vector<double> y = Sma(x, w);
  ASSERT_EQ(y.size(), x.size() - w + 1);
  // Sample positions across the whole series, including the tail where
  // an unbounded running sum would have accumulated the most error.
  for (size_t i = 0; i < y.size(); i += 9973) {
    ASSERT_NEAR(y[i], ExactWindowMean(x, i, w), 1e-9) << "i=" << i;
  }
  ASSERT_NEAR(y.back(), ExactWindowMean(x, y.size() - 1, w), 1e-9);
}

// --- Panes ----------------------------------------------------------------------

// The retained pane means, oldest first.
std::vector<double> Means(const PaneBuffer& buffer) {
  return std::vector<double>(buffer.means().begin(), buffer.means().end());
}

// Feeds every point, returning the number of panes committed.
size_t AddAll(PaneBuffer* buffer, const std::vector<double>& xs,
              const std::vector<int64_t>& ticks = {}) {
  size_t commits = 0;
  buffer->Add(xs.data(), ticks.empty() ? nullptr : ticks.data(), xs.size(),
              [&] { ++commits; });
  return commits;
}

TEST(PaneBufferTest, CompletesPanesAtBoundary) {
  // Arrival input: the frontier after a point is its index + 1, so a
  // pane commits on its width-th point.
  PaneBuffer buffer(/*width=*/3, /*epoch=*/0, /*max_panes=*/0);
  EXPECT_EQ(AddAll(&buffer, {1, 2}), 0u);
  EXPECT_EQ(buffer.open_pane_last(), std::optional<int64_t>(2));
  EXPECT_EQ(AddAll(&buffer, {3}), 1u);  // pane completed
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_FALSE(buffer.open_pane_last().has_value());
  EXPECT_DOUBLE_EQ(buffer.means()[0], 2.0);
  // A batch spanning boundaries reports each commit as it happens,
  // before the next point joins a pane.
  const std::vector<double> xs = {4, 5, 6, 7, 8, 9, 10};
  std::vector<std::vector<double>> at_commit;
  buffer.Add(xs.data(), nullptr, xs.size(),
             [&] { at_commit.push_back(Means(buffer)); });
  ASSERT_EQ(at_commit.size(), 2u);
  EXPECT_EQ(at_commit[0], (std::vector<double>{2, 5}));
  EXPECT_EQ(at_commit[1], (std::vector<double>{2, 5, 8}));
  EXPECT_EQ(buffer.open_pane_last(), std::optional<int64_t>(11));
}

TEST(PaneBufferTest, TimedPaneCommitsWhenTheFrontierReachesItsEnd) {
  // Width 10, epoch 5: buckets [-5, 5), [5, 15), [15, 25), ...
  PaneBuffer buffer(/*width=*/10, /*epoch=*/5, /*max_panes=*/0);
  EXPECT_EQ(AddAll(&buffer, {1, 3}, {5, 14}), 0u);
  EXPECT_EQ(buffer.open_pane_last(), std::optional<int64_t>(14));
  EXPECT_FALSE(buffer.AdvanceFrontier(14));
  // A point at the pane's end commits it before joining the next.
  EXPECT_EQ(AddAll(&buffer, {10}, {15}), 1u);
  EXPECT_EQ(Means(buffer), (std::vector<double>{2}));
  // Skipped buckets leave no panes; a point older than the open pane
  // joins it.
  EXPECT_EQ(AddAll(&buffer, {20, 6}, {47, 12}), 1u);
  EXPECT_EQ(buffer.open_pane_last(), std::optional<int64_t>(54));
  // An outside frontier commits the open pane once it passes the end.
  EXPECT_FALSE(buffer.AdvanceFrontier(54));
  EXPECT_TRUE(buffer.AdvanceFrontier(55));
  EXPECT_FALSE(buffer.AdvanceFrontier(1000));
  EXPECT_EQ(Means(buffer), (std::vector<double>{2, 10, 13}));
  // Pre-epoch ticks map to negative buckets.
  PaneBuffer early(/*width=*/10, /*epoch=*/5, /*max_panes=*/0);
  EXPECT_EQ(AddAll(&early, {1}, {-6}), 0u);
  EXPECT_EQ(early.open_pane_last(), std::optional<int64_t>(-6));
}

TEST(PaneBufferTest, ExtremeTicksLandInTheirBuckets) {
  // Timed ticks come off the wire, so the smallest and largest int64
  // must bucket without overflow, and the pane holding the largest
  // tick ends there: it cannot commit, but it still takes points.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  // Width 10, epoch -3: buckets [-3 + 10k, 7 + 10k).
  PaneBuffer buffer(/*width=*/10, /*epoch=*/-3, /*max_panes=*/0);
  EXPECT_EQ(AddAll(&buffer, {1, 2}, {lo, lo + 1}), 0u);
  EXPECT_EQ(buffer.open_pane_last(), std::optional<int64_t>(lo + 4));
  EXPECT_EQ(AddAll(&buffer, {3, 5}, {hi, hi}), 1u);
  EXPECT_EQ(buffer.open_pane_last(), std::optional<int64_t>(hi));
  EXPECT_FALSE(buffer.AdvanceFrontier(hi));
  EXPECT_EQ(Means(buffer), (std::vector<double>{1.5}));
}

TEST(PaneBufferTest, EvictsOldestBeyondCapacity) {
  PaneBuffer buffer(/*width=*/1, /*epoch=*/0, /*max_panes=*/3);
  // Each commit callback sees the pane that commit pushed out, if any.
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<std::optional<double>> evicted;
  buffer.Add(xs.data(), nullptr, xs.size(),
             [&] { evicted.push_back(buffer.evicted()); });
  EXPECT_EQ(evicted, (std::vector<std::optional<double>>{
                         std::nullopt, std::nullopt, std::nullopt, 1.0, 2.0}));
  EXPECT_EQ(Means(buffer), (std::vector<double>{3, 4, 5}));
  // Restored panes evict the same way; evicted() names the last one's.
  const double restored[] = {6, 7};
  PaneBuffer restore(/*width=*/1, /*epoch=*/0, /*max_panes=*/3);
  restore.RestoreCompleted(restored, 2);
  EXPECT_EQ(restore.evicted(), std::nullopt);
  restore.RestoreCompleted(xs.data(), 3);
  EXPECT_EQ(restore.evicted(), std::optional<double>(7));
  EXPECT_EQ(Means(restore), (std::vector<double>{1, 2, 3}));
}

TEST(PaneBufferTest, ResetClears) {
  PaneBuffer buffer(/*width=*/2, /*epoch=*/0, /*max_panes=*/0);
  AddAll(&buffer, {1, 2, 3});
  buffer.Reset();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.open_pane_last().has_value());
  // The arrival clock restarts: the next pane is a whole one again.
  EXPECT_EQ(AddAll(&buffer, {5, 7}), 1u);
  EXPECT_EQ(Means(buffer), (std::vector<double>{6}));
}

// --- Preaggregation --------------------------------------------------------------

TEST(PreaggregateTest, RatioComputation) {
  EXPECT_EQ(PointToPixelRatio(1'000'000, 272), 3676u);   // Apple Watch row
  EXPECT_EQ(PointToPixelRatio(1'000'000, 2304), 434u);   // MacBook Pro row
  EXPECT_EQ(PointToPixelRatio(604'800, 2304), 262u);     // §4.4 example
  EXPECT_EQ(PointToPixelRatio(100, 200), 1u);            // more pixels than pts
  EXPECT_EQ(PointToPixelRatio(100, 0), 1u);              // disabled
}

TEST(PreaggregateTest, AggregatesBucketMeans) {
  Preaggregated agg = Preaggregate({1, 2, 3, 4, 5, 6}, 3);
  EXPECT_EQ(agg.points_per_pixel, 2u);
  ASSERT_EQ(agg.series.size(), 3u);
  EXPECT_DOUBLE_EQ(agg.series[0], 1.5);
  EXPECT_DOUBLE_EQ(agg.series[2], 5.5);
}

TEST(PreaggregateTest, DropsTrailingPartialBucket) {
  Preaggregated agg = Preaggregate({1, 2, 3, 4, 5, 6, 7}, 3);
  EXPECT_EQ(agg.points_per_pixel, 2u);
  EXPECT_EQ(agg.series.size(), 3u);  // 7th point dropped
}

TEST(PreaggregateTest, NoOpWhenWithinResolution) {
  std::vector<double> x = {1, 2, 3};
  Preaggregated agg = Preaggregate(x, 10);
  EXPECT_EQ(agg.points_per_pixel, 1u);
  EXPECT_EQ(agg.series, x);
}

TEST(PreaggregateTest, ZeroResolutionDisables) {
  std::vector<double> x = {1, 2, 3, 4};
  Preaggregated agg = Preaggregate(x, 0);
  EXPECT_EQ(agg.points_per_pixel, 1u);
  EXPECT_EQ(agg.series, x);
}

TEST(PreaggregateTest, PreservesMeanOfCoveredPrefix) {
  Pcg32 rng(8);
  std::vector<double> x = UniformVector(&rng, 1000, 0, 1);
  Preaggregated agg = Preaggregate(x, 100);
  double raw_mean = 0.0;
  const size_t covered = agg.series.size() * agg.points_per_pixel;
  for (size_t i = 0; i < covered; ++i) {
    raw_mean += x[i];
  }
  raw_mean /= static_cast<double>(covered);
  double agg_mean = 0.0;
  for (double v : agg.series) {
    agg_mean += v;
  }
  agg_mean /= static_cast<double>(agg.series.size());
  EXPECT_NEAR(agg_mean, raw_mean, 1e-9);
}

}  // namespace
}  // namespace window
}  // namespace asap
