// Cross-module property tests: algebraic invariants that must hold for
// arbitrary inputs, swept over seeds/parameters with TEST_P. These
// complement the per-module unit tests by checking relationships
// *between* components (equivariances, consistency between independent
// implementations, idempotence).

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/m4.h"
#include "baselines/paa.h"
#include "common/random.h"
#include "core/metrics.h"
#include "core/search.h"
#include "core/smooth.h"
#include "core/streaming_asap.h"
#include "fft/autocorrelation.h"
#include "stats/descriptive.h"
#include "stats/welford.h"
#include "ts/csv.h"
#include "ts/generators.h"
#include "window/panes.h"
#include "window/preaggregate.h"
#include "window/sma.h"

namespace asap {
namespace {

std::vector<double> RandomMixedSeries(uint64_t seed, size_t n = 1500) {
  Pcg32 rng(seed);
  std::vector<double> x = gen::Add(
      gen::Sine(n, 40.0 + static_cast<double>(seed % 7) * 13.0, 1.0),
      gen::WhiteNoise(&rng, n, 0.5));
  if (seed % 3 == 0) {
    gen::InjectLevelShift(&x, n / 3, n / 2, 2.0);
  }
  return x;
}

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range<uint64_t>(1, 13));

// --- Affine equivariance ----------------------------------------------------

TEST_P(SeedSweep, SmaIsAffineEquivariant) {
  const std::vector<double> x = RandomMixedSeries(GetParam());
  const double a = 2.5;
  const double b = -7.0;
  std::vector<double> ax(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    ax[i] = a * x[i] + b;
  }
  const size_t w = 17;
  std::vector<double> lhs = window::Sma(ax, w);
  std::vector<double> rhs = window::Sma(x, w);
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs[i], a * rhs[i] + b, 1e-9);
  }
}

TEST_P(SeedSweep, RoughnessScalesKurtosisInvariantUnderAffine) {
  const std::vector<double> x = RandomMixedSeries(GetParam());
  const double a = 3.0;
  const double b = 100.0;
  std::vector<double> ax(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    ax[i] = a * x[i] + b;
  }
  EXPECT_NEAR(Roughness(ax), a * Roughness(x), 1e-8);
  EXPECT_NEAR(Kurtosis(ax), Kurtosis(x), 1e-8);
}

TEST_P(SeedSweep, AcfInvariantUnderAffine) {
  const std::vector<double> x = RandomMixedSeries(GetParam(), 600);
  std::vector<double> ax(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    ax[i] = -1.5 * x[i] + 42.0;  // negative scale too
  }
  std::vector<double> acf_x = fft::AutocorrelationFft(x, 60);
  std::vector<double> acf_ax = fft::AutocorrelationFft(ax, 60);
  for (size_t k = 0; k <= 60; ++k) {
    EXPECT_NEAR(acf_x[k], acf_ax[k], 1e-9) << "lag " << k;
  }
}

TEST_P(SeedSweep, SearchWindowInvariantUnderAffine) {
  // ASAP's decision depends only on shape, not units: Fahrenheit and
  // Celsius dashboards get the same window.
  const std::vector<double> x = RandomMixedSeries(GetParam());
  std::vector<double> ax(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    ax[i] = 1.8 * x[i] + 32.0;
  }
  const SearchResult rx = AsapSearch(x, {});
  const SearchResult rax = AsapSearch(ax, {});
  EXPECT_EQ(rx.window, rax.window);
}

// --- Linearity / decomposition ----------------------------------------------

TEST_P(SeedSweep, SmaIsLinearInItsInput) {
  Pcg32 rng(GetParam() * 11);
  const std::vector<double> x = UniformVector(&rng, 400, -1, 1);
  const std::vector<double> y = UniformVector(&rng, 400, -1, 1);
  const std::vector<double> sum = gen::Add(x, y);
  const size_t w = 9;
  std::vector<double> lhs = window::Sma(sum, w);
  std::vector<double> sx = window::Sma(x, w);
  std::vector<double> sy = window::Sma(y, w);
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs[i], sx[i] + sy[i], 1e-10);
  }
}

TEST_P(SeedSweep, PreaggregateCommutesWithScaling) {
  const std::vector<double> x = RandomMixedSeries(GetParam());
  const std::vector<double> scaled = gen::Scale(x, 4.0);
  window::Preaggregated a = window::Preaggregate(scaled, 100);
  window::Preaggregated b = window::Preaggregate(x, 100);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_NEAR(a.series[i], 4.0 * b.series[i], 1e-9);
  }
}

// --- Independent implementations agree ---------------------------------------

TEST_P(SeedSweep, WelfordAndBatchAgree) {
  const std::vector<double> x = RandomMixedSeries(GetParam(), 256);
  stats::WelfordAccumulator welford;
  for (double v : x) {
    welford.Add(v);
  }
  const stats::Moments batch = stats::ComputeMoments(x);
  EXPECT_NEAR(welford.mean(), batch.mean, 1e-9);
  EXPECT_NEAR(welford.variance(), batch.variance, 1e-8);
  EXPECT_NEAR(welford.kurtosis(), batch.kurtosis, 1e-6);
}

TEST_P(SeedSweep, PaneSmaEqualsDirectSmaOnRandomGeometry) {
  Pcg32 rng(GetParam() * 17 + 1);
  const std::vector<double> x = RandomMixedSeries(GetParam(), 500);
  // Random window/slide combinations.
  const size_t w = 2 + rng.NextBounded(40);
  const size_t s = 1 + rng.NextBounded(w);
  std::vector<double> via_panes = window::PaneSma(x, w, s);
  std::vector<double> direct = window::SmaWithSlide(x, w, s);
  ASSERT_EQ(via_panes.size(), direct.size()) << "w=" << w << " s=" << s;
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(via_panes[i], direct[i], 1e-9);
  }
}

TEST_P(SeedSweep, AcfFftMatchesBruteForceOnMixedSignals) {
  const std::vector<double> x = RandomMixedSeries(GetParam(), 700);
  std::vector<double> fast = fft::AutocorrelationFft(x, 100);
  std::vector<double> slow = fft::AutocorrelationBruteForce(x, 100);
  for (size_t k = 0; k <= 100; ++k) {
    EXPECT_NEAR(fast[k], slow[k], 1e-9);
  }
}

// --- Feasibility and optimality envelopes -------------------------------------

TEST_P(SeedSweep, EveryStrategyReturnsAFeasibleWindow) {
  const std::vector<double> x = RandomMixedSeries(GetParam());
  const double kurt_x = Kurtosis(x);
  SearchOptions options;
  options.grid_step = 3;
  for (const SearchResult& result :
       {ExhaustiveSearch(x, options), GridSearch(x, options),
        BinarySearch(x, options), AsapSearch(x, options)}) {
    const CandidateScore score = EvaluateWindow(x, result.window);
    EXPECT_GE(score.kurtosis, kurt_x - 1e-9);
    EXPECT_NEAR(score.roughness, result.roughness, 1e-9);
  }
}

TEST_P(SeedSweep, ExhaustiveIsTheQualityLowerBound) {
  const std::vector<double> x = RandomMixedSeries(GetParam());
  SearchOptions options;
  options.grid_step = 2;
  const double best = ExhaustiveSearch(x, options).roughness;
  EXPECT_GE(GridSearch(x, options).roughness, best - 1e-12);
  EXPECT_GE(BinarySearch(x, options).roughness, best - 1e-12);
  EXPECT_GE(AsapSearch(x, options).roughness, best - 1e-12);
}

TEST_P(SeedSweep, SmoothNeverIncreasesRoughness) {
  const std::vector<double> x = RandomMixedSeries(GetParam());
  SmoothOptions options;
  options.resolution = 300;
  const SmoothingResult result = Smooth(x, options).ValueOrDie();
  EXPECT_LE(result.roughness_after, result.roughness_before + 1e-12);
}

// --- Determinism ---------------------------------------------------------------

TEST_P(SeedSweep, SmoothIsDeterministic) {
  const std::vector<double> x = RandomMixedSeries(GetParam());
  SmoothOptions options;
  options.resolution = 250;
  const SmoothingResult a = Smooth(x, options).ValueOrDie();
  const SmoothingResult b = Smooth(x, options).ValueOrDie();
  EXPECT_EQ(a.window, b.window);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.diag.candidates_evaluated, b.diag.candidates_evaluated);
}

// --- Reduction invariants ---------------------------------------------------

TEST_P(SeedSweep, M4PreservesEveryBucketExtreme) {
  const std::vector<double> x = RandomMixedSeries(GetParam(), 997);
  const size_t buckets = 31;
  const baselines::ReducedSeries r = baselines::M4Reduce(x, buckets);
  EXPECT_DOUBLE_EQ(stats::Min(r.value), stats::Min(x));
  EXPECT_DOUBLE_EQ(stats::Max(r.value), stats::Max(x));
  EXPECT_LE(r.size(), 4 * buckets);
}

TEST_P(SeedSweep, PaaIsMeanPreservingWhenDivisible) {
  const std::vector<double> x = RandomMixedSeries(GetParam(), 1200);
  const std::vector<double> means = baselines::PaaMeans(x, 60);  // 1200/60
  EXPECT_NEAR(stats::Mean(means), stats::Mean(x), 1e-9);
}

TEST_P(SeedSweep, PaaReducesRoughnessOnNoise) {
  // On IID noise, segment means have 1/sqrt(len) of the per-point
  // spread, so PAA output is smoother. (On periodic data PAA can
  // *alias* — segments shorter than the period re-sample the cycle at
  // full amplitude over fewer points, raising roughness; that failure
  // mode is exactly why the paper uses PAA as a contrast, not as the
  // smoother.)
  Pcg32 rng(GetParam() * 41);
  const std::vector<double> x = GaussianVector(&rng, 1500, 0.0, 1.0);
  EXPECT_LT(Roughness(baselines::PaaMeans(x, 100)), Roughness(x));
}

// --- Serialization -----------------------------------------------------------

TEST_P(SeedSweep, CsvRoundTripIsLossless) {
  Pcg32 rng(GetParam() * 23);
  std::vector<double> values(64);
  for (double& v : values) {
    // Extreme magnitudes exercise the %.17g serialization.
    v = rng.Gaussian(0.0, std::pow(10.0, rng.Uniform(-8, 8)));
  }
  TimeSeries ts(values, rng.Uniform(0, 1e6), rng.Uniform(0.001, 3600.0));
  const TimeSeries back = FromCsvString(ToCsvString(ts)).ValueOrDie();
  ASSERT_EQ(back.size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.value(i), ts.value(i));
  }
  EXPECT_NEAR(back.interval(), ts.interval(), 1e-9 * ts.interval());
}

// --- IID theory sweep (Eq. 2 x Eq. 4 jointly) ---------------------------------

struct IidCase {
  size_t window;
  double sigma;
};

class IidJointSweep : public ::testing::TestWithParam<IidCase> {};

TEST_P(IidJointSweep, RoughnessAndKurtosisFollowTheory) {
  const IidCase param = GetParam();
  Pcg32 rng(param.window * 1000 + static_cast<uint64_t>(param.sigma * 10));
  std::vector<double> x = GaussianVector(&rng, 150000, 0.0, param.sigma);
  std::vector<double> y = window::Sma(x, param.window);
  const double expected_rough = IidRoughness(param.sigma, param.window);
  EXPECT_NEAR(Roughness(y), expected_rough, 0.06 * expected_rough);
  // Gaussian input: kurtosis stays ~3 for every window (Eq. 4 fixed
  // point).
  EXPECT_NEAR(Kurtosis(y), 3.0, 0.15);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IidJointSweep,
    ::testing::Values(IidCase{2, 0.5}, IidCase{2, 2.0}, IidCase{8, 0.5},
                      IidCase{8, 2.0}, IidCase{32, 1.0}, IidCase{64, 1.0}));

// --- Streaming == batch under controlled pane geometry -------------------------

TEST_P(SeedSweep, StreamingWindowMatchesBatchOnAlignedPanes) {
  // When visible_points is an exact multiple of the pane size and the
  // stream delivers exactly the visible window, streaming and batch
  // see identical preaggregated series and must agree exactly.
  const size_t n = 6000;
  Pcg32 rng(GetParam() * 31);
  std::vector<double> x =
      gen::Add(gen::Sine(n, 120.0, 1.0), gen::WhiteNoise(&rng, n, 0.4));

  StreamingOptions stream;
  stream.resolution = 300;  // pane = 20, 300 panes
  stream.visible_points = n;
  StreamingAsap op = StreamingAsap::Create(stream).ValueOrDie();
  op.PushBatch(x);

  SmoothOptions batch;
  batch.resolution = 300;
  const SmoothingResult direct = Smooth(x, batch).ValueOrDie();
  EXPECT_EQ(op.frame().window, direct.window);
}

}  // namespace
}  // namespace asap
