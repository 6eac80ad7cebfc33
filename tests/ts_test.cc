// Tests for src/ts: the TimeSeries container, generators and CSV I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "fft/autocorrelation.h"
#include "stats/descriptive.h"
#include "ts/csv.h"
#include "ts/generators.h"
#include "ts/timeseries.h"

namespace asap {
namespace {

// --- TimeSeries -----------------------------------------------------------------

TEST(TimeSeriesTest, BasicAccessors) {
  TimeSeries ts({1, 2, 3}, /*start=*/100.0, /*interval=*/5.0, "cpu");
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_FALSE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.value(1), 2.0);
  EXPECT_DOUBLE_EQ(ts.TimeAt(0), 100.0);
  EXPECT_DOUBLE_EQ(ts.TimeAt(2), 110.0);
  EXPECT_DOUBLE_EQ(ts.Duration(), 10.0);
  EXPECT_EQ(ts.name(), "cpu");
}

TEST(TimeSeriesTest, FromValuesUsesUnitGrid) {
  TimeSeries ts = TimeSeries::FromValues({5, 6});
  EXPECT_DOUBLE_EQ(ts.interval(), 1.0);
  EXPECT_DOUBLE_EQ(ts.TimeAt(1), 1.0);
}

TEST(TimeSeriesTest, SlicePreservesGrid) {
  TimeSeries ts({0, 1, 2, 3, 4}, 0.0, 2.0);
  TimeSeries sub = ts.Slice(1, 4);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.value(0), 1.0);
  EXPECT_DOUBLE_EQ(sub.start(), 2.0);
  EXPECT_DOUBLE_EQ(sub.interval(), 2.0);
}

TEST(TimeSeriesTest, SliceEmptyRange) {
  TimeSeries ts({0, 1, 2}, 0.0, 1.0);
  EXPECT_EQ(ts.Slice(1, 1).size(), 0u);
}

TEST(TimeSeriesTest, ZNormalized) {
  TimeSeries ts({2, 4, 6}, 0.0, 1.0);
  TimeSeries z = ts.ZNormalized();
  EXPECT_NEAR(stats::Mean(z.values()), 0.0, 1e-12);
  EXPECT_NEAR(stats::StdDev(z.values()), 1.0, 1e-12);
}

TEST(TimeSeriesTest, AppendExtendsGrid) {
  TimeSeries ts({1.0}, 0.0, 1.0);
  ts.Append(2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.value(1), 2.0);
}

// --- Generators -----------------------------------------------------------------

TEST(GeneratorsTest, SineHasRequestedPeriodAndAmplitude) {
  std::vector<double> x = gen::Sine(1024, 32.0, 2.0);
  EXPECT_NEAR(stats::Max(x), 2.0, 1e-2);
  EXPECT_NEAR(stats::Min(x), -2.0, 1e-2);
  // Period check via ACF peak location. The biased estimator caps the
  // lag-k value at ~(N-k)/N, hence the 0.9 threshold at N=1024.
  std::vector<double> acf = fft::AutocorrelationFft(x, 64);
  EXPECT_GT(acf[32], 0.9);
}

TEST(GeneratorsTest, LinearIsExact) {
  std::vector<double> x = gen::Linear(4, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[3], 2.5);
}

TEST(GeneratorsTest, WhiteNoiseMoments) {
  Pcg32 rng(1);
  std::vector<double> x = gen::WhiteNoise(&rng, 100000, 2.0);
  EXPECT_NEAR(stats::Mean(x), 0.0, 0.05);
  EXPECT_NEAR(stats::StdDev(x), 2.0, 0.05);
}

TEST(GeneratorsTest, Ar1IsStationaryWithExpectedVariance) {
  Pcg32 rng(2);
  const double phi = 0.7;
  std::vector<double> x = gen::Ar1(&rng, 200000, phi, 1.0);
  // Stationary variance = sigma^2 / (1 - phi^2).
  EXPECT_NEAR(stats::Variance(x), 1.0 / (1.0 - phi * phi), 0.1);
}

TEST(GeneratorsTest, RandomWalkVarianceGrows) {
  Pcg32 rng(3);
  std::vector<double> x = gen::RandomWalk(&rng, 10000, 1.0);
  const double early = stats::Variance(
      std::vector<double>(x.begin(), x.begin() + 100));
  const double late_mean_sq = x.back() * x.back();
  // Not a strict test, but a 10000-step walk should wander far beyond
  // the early-window spread with overwhelming probability.
  EXPECT_GT(late_mean_sq + stats::Variance(x), early);
}

TEST(GeneratorsTest, SeasonalCompositeContainsAllPeriods) {
  Pcg32 rng(4);
  std::vector<double> x =
      gen::SeasonalComposite(&rng, 2048, {16.0, 64.0}, {1.0, 1.0}, 0.0);
  std::vector<double> acf = fft::AutocorrelationFft(x, 128);
  EXPECT_GT(acf[64], 0.5);  // both periods align at lag 64
}

TEST(GeneratorsTest, DailyProfileIsPeriodic) {
  Pcg32 rng(5);
  std::vector<double> x = gen::DailyProfile(&rng, 288 * 14, 288.0, 10.0, 0.0);
  std::vector<double> acf = fft::AutocorrelationFft(x, 600);
  // Biased estimator ceiling at lag 288 of a 4032-point series is
  // (4032-288)/4032 ~ 0.93; a noise-free profile should be close to it.
  EXPECT_GT(acf[288], 0.9);
}

TEST(GeneratorsTest, AddAndScale) {
  std::vector<double> s = gen::Add({1, 2}, {3, 4});
  EXPECT_DOUBLE_EQ(s[0], 4.0);
  EXPECT_DOUBLE_EQ(s[1], 6.0);
  std::vector<double> sc = gen::Scale({1, -2}, 3.0);
  EXPECT_DOUBLE_EQ(sc[0], 3.0);
  EXPECT_DOUBLE_EQ(sc[1], -6.0);
}

TEST(GeneratorsTest, InjectLevelShift) {
  std::vector<double> v(10, 0.0);
  gen::InjectLevelShift(&v, 3, 6, 5.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_DOUBLE_EQ(v[3], 5.0);
  EXPECT_DOUBLE_EQ(v[5], 5.0);
  EXPECT_DOUBLE_EQ(v[6], 0.0);
}

TEST(GeneratorsTest, InjectRampReachesAndPersists) {
  std::vector<double> v(10, 0.0);
  gen::InjectRamp(&v, 2, 6, 4.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[5], 4.0);  // end of ramp
  EXPECT_DOUBLE_EQ(v[9], 4.0);  // persists
  EXPECT_GT(v[3], 0.0);
  EXPECT_LT(v[3], 4.0);
}

TEST(GeneratorsTest, InjectSpikeAndAmplitude) {
  std::vector<double> v(5, 1.0);
  gen::InjectSpike(&v, 2, 9.0);
  EXPECT_DOUBLE_EQ(v[2], 10.0);
  gen::InjectAmplitudeChange(&v, 0, 2, 3.0);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 3.0);
}

TEST(GeneratorsTest, InjectFrequencyChangeReplacesSpan) {
  std::vector<double> v(64, 0.0);
  gen::InjectFrequencyChange(&v, 16, 48, 8.0, 1.0);
  // Outside the span untouched.
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[60], 0.0);
  // Inside: a sine of period 8 hits +-1.
  double max_inside = 0.0;
  for (size_t i = 16; i < 48; ++i) {
    max_inside = std::max(max_inside, std::fabs(v[i]));
  }
  EXPECT_NEAR(max_inside, 1.0, 1e-6);
}

// --- CSV ------------------------------------------------------------------------

TEST(CsvTest, StringRoundTrip) {
  TimeSeries ts({1.5, -2.25, 3.75}, 10.0, 0.5, "t");
  Result<TimeSeries> back = FromCsvString(ToCsvString(ts));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 3u);
  EXPECT_DOUBLE_EQ(back->value(1), -2.25);
  EXPECT_DOUBLE_EQ(back->start(), 10.0);
  EXPECT_DOUBLE_EQ(back->interval(), 0.5);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/asap_csv_test.csv";
  TimeSeries ts({9, 8, 7, 6}, 0.0, 2.0);
  ASSERT_TRUE(WriteCsv(ts, path).ok());
  Result<TimeSeries> back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 4u);
  EXPECT_DOUBLE_EQ(back->value(3), 6.0);
  std::remove(path.c_str());
}

TEST(CsvTest, SingleColumnIsValues) {
  Result<TimeSeries> ts = FromCsvString("1.0\n2.0\n3.0\n");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(ts->size(), 3u);
  EXPECT_DOUBLE_EQ(ts->interval(), 1.0);
}

TEST(CsvTest, HeaderIsSkipped) {
  Result<TimeSeries> ts = FromCsvString("time,value\n0,5\n1,6\n");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(ts->size(), 2u);
}

TEST(CsvTest, RejectsEmptyAndGarbage) {
  EXPECT_FALSE(FromCsvString("").ok());
  EXPECT_FALSE(FromCsvString("header,only\n").ok());
  EXPECT_FALSE(FromCsvString("0,1\nabc,def\n").ok());
}

TEST(CsvTest, RejectsNonIncreasingGrid) {
  EXPECT_FALSE(FromCsvString("5,1\n5,2\n").ok());
}

TEST(CsvTest, MissingFileIsIOError) {
  Result<TimeSeries> r = ReadCsv("/nonexistent/definitely/missing.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace asap
