// Tests for src/stream/alerts: the batch deviation detector and the
// streaming smoothed-alert monitor.

#include <gtest/gtest.h>

#include "common/random.h"
#include "stream/alerts.h"
#include "ts/generators.h"

namespace asap {
namespace stream {
namespace {

TEST(FindDeviationsTest, RejectsBadInput) {
  EXPECT_FALSE(FindDeviations({1, 2, 3}).ok());
  AlertOptions bad;
  bad.threshold_sigmas = 0.0;
  EXPECT_FALSE(FindDeviations(std::vector<double>(100, 1.0), bad).ok());
}

TEST(FindDeviationsTest, FlatSeriesHasNoAlerts) {
  std::vector<Alert> alerts =
      FindDeviations(std::vector<double>(100, 2.5)).ValueOrDie();
  EXPECT_TRUE(alerts.empty());
}

TEST(FindDeviationsTest, DetectsSustainedHighRun) {
  Pcg32 rng(1);
  std::vector<double> x = GaussianVector(&rng, 500, 0.0, 0.1);
  gen::InjectLevelShift(&x, 200, 240, 5.0);
  std::vector<Alert> alerts = FindDeviations(x).ValueOrDie();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].is_high);
  EXPECT_GE(alerts[0].begin, 198u);
  EXPECT_LE(alerts[0].end, 242u);
  EXPECT_GT(alerts[0].peak_z, 3.0);
  EXPECT_EQ(alerts[0].Duration(), alerts[0].end - alerts[0].begin);
}

TEST(FindDeviationsTest, DetectsLowRunWithSign) {
  Pcg32 rng(2);
  std::vector<double> x = GaussianVector(&rng, 500, 10.0, 0.1);
  gen::InjectLevelShift(&x, 100, 160, -4.0);
  std::vector<Alert> alerts = FindDeviations(x).ValueOrDie();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_FALSE(alerts[0].is_high);
  EXPECT_LT(alerts[0].peak_z, -3.0);
}

TEST(FindDeviationsTest, MinDurationFiltersBlips) {
  Pcg32 rng(3);
  std::vector<double> x = GaussianVector(&rng, 300, 0.0, 0.1);
  gen::InjectSpike(&x, 150, 10.0);  // one-point excursion
  AlertOptions options;
  // 6-sigma threshold: noise points never cross, only the spike can.
  options.threshold_sigmas = 6.0;
  options.min_duration = 3;
  EXPECT_TRUE(FindDeviations(x, options).ValueOrDie().empty());
  options.min_duration = 1;
  std::vector<Alert> alerts = FindDeviations(x, options).ValueOrDie();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].begin, 150u);
}

TEST(FindDeviationsTest, TwoSeparatedEventsYieldTwoAlerts) {
  Pcg32 rng(4);
  std::vector<double> x = GaussianVector(&rng, 600, 0.0, 0.1);
  gen::InjectLevelShift(&x, 100, 130, 4.0);
  gen::InjectLevelShift(&x, 400, 430, -4.0);
  std::vector<Alert> alerts = FindDeviations(x).ValueOrDie();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_TRUE(alerts[0].is_high);
  EXPECT_FALSE(alerts[1].is_high);
  EXPECT_LT(alerts[0].end, alerts[1].begin);
}

TEST(FindDeviationsTest, RobustBaselineSurvivesTheAnomalyItself) {
  // A large sustained anomaly shifts mean/stddev; median/MAD should
  // still flag it. Make the anomaly 30% of the series.
  Pcg32 rng(5);
  std::vector<double> x = GaussianVector(&rng, 500, 0.0, 0.1);
  gen::InjectLevelShift(&x, 300, 450, 3.0);
  EXPECT_FALSE(FindDeviations(x).ValueOrDie().empty());
}

TEST(FindDeviationsTest, AlertAtSeriesEndIsClosed) {
  Pcg32 rng(7);
  std::vector<double> x = GaussianVector(&rng, 300, 0.0, 0.1);
  gen::InjectLevelShift(&x, 280, 300, 5.0);  // runs to the end
  std::vector<Alert> alerts = FindDeviations(x).ValueOrDie();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].end, 300u);
}

// --- Streaming monitor ----------------------------------------------------

TEST(SmoothedAlertMonitorTest, CreateValidates) {
  StreamingOptions stream;
  stream.resolution = 200;
  stream.visible_points = 4000;
  AlertOptions bad;
  bad.threshold_sigmas = -1.0;
  EXPECT_FALSE(SmoothedAlertMonitor::Create(stream, bad).ok());
  EXPECT_TRUE(SmoothedAlertMonitor::Create(stream).ok());
}

TEST(SmoothedAlertMonitorTest, SubThresholdShiftCaughtAfterSmoothing) {
  // The anomaly_alerts example's scenario, compressed: noise sd 1.0,
  // shift +0.8 (sub-threshold on raw), periodic component removed by
  // ASAP.
  const size_t n = 20'000;
  Pcg32 rng(8);
  std::vector<double> x =
      gen::Add(gen::Sine(n, 500.0, 1.0), gen::WhiteNoise(&rng, n, 1.0));
  gen::InjectLevelShift(&x, 14'000, n, 0.8);

  StreamingOptions stream;
  stream.resolution = 250;
  stream.visible_points = n;
  stream.refresh_every_points = 1000;
  AlertOptions alert;
  alert.threshold_sigmas = 3.0;
  alert.min_duration = 3;

  SmoothedAlertMonitor monitor =
      SmoothedAlertMonitor::Create(stream, alert).ValueOrDie();
  bool fired = false;
  size_t fired_at = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (monitor.Push(x[i]) && !fired) {
      fired = true;
      fired_at = i;
    }
  }
  EXPECT_TRUE(fired);
  EXPECT_GE(fired_at, 14'000u);  // not before the shift exists

  // The raw detector at the same policy sees nothing.
  EXPECT_TRUE(FindDeviations(x, alert).ValueOrDie().empty());
}

TEST(SmoothedAlertMonitorTest, QuietStreamNeverFires) {
  const size_t n = 10'000;
  Pcg32 rng(9);
  std::vector<double> x =
      gen::Add(gen::Sine(n, 400.0, 1.0), gen::WhiteNoise(&rng, n, 0.5));
  StreamingOptions stream;
  stream.resolution = 250;
  stream.visible_points = n;
  stream.refresh_every_points = 1000;
  SmoothedAlertMonitor monitor =
      SmoothedAlertMonitor::Create(stream).ValueOrDie();
  bool fired = false;
  for (double v : x) {
    fired |= monitor.Push(v);
  }
  EXPECT_FALSE(fired);
  EXPECT_TRUE(monitor.current_alerts().empty());
}

}  // namespace
}  // namespace stream
}  // namespace asap
