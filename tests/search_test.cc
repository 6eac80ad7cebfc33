// Tests for src/core/search: the four window-search strategies and
// their agreement/diagnostic properties.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/metrics.h"
#include "core/search.h"
#include "ts/generators.h"
#include "window/sma.h"

namespace asap {
namespace {

std::vector<double> PeriodicSeries(uint64_t seed, size_t n = 2000,
                                   double period = 50.0,
                                   double noise = 0.5) {
  Pcg32 rng(seed);
  return gen::Add(gen::Sine(n, period, 1.0),
                  gen::WhiteNoise(&rng, n, noise));
}

// --- Options ------------------------------------------------------------------

TEST(SearchOptionsTest, ResolveMaxWindowDefaults) {
  SearchOptions options;
  EXPECT_EQ(options.ResolveMaxWindow(1200), 120u);  // N/10
  EXPECT_EQ(options.ResolveMaxWindow(5), 1u);       // floor to >= 1
}

TEST(SearchOptionsTest, ResolveMaxWindowExplicit) {
  SearchOptions options;
  options.max_window = 300;
  EXPECT_EQ(options.ResolveMaxWindow(1200), 300u);
  EXPECT_EQ(options.ResolveMaxWindow(100), 100u);  // clamped to N
}

// --- EvaluateWindow --------------------------------------------------------------

TEST(EvaluateWindowTest, MatchesDirectComputation) {
  std::vector<double> x = PeriodicSeries(1);
  const CandidateScore score = EvaluateWindow(x, 25);
  std::vector<double> y = window::Sma(x, 25);
  EXPECT_DOUBLE_EQ(score.roughness, Roughness(y));
  EXPECT_DOUBLE_EQ(score.kurtosis, Kurtosis(y));
}

// --- Exhaustive -------------------------------------------------------------------

TEST(ExhaustiveSearchTest, FindsFeasibleMinimum) {
  std::vector<double> x = PeriodicSeries(2);
  SearchOptions options;
  SearchResult result = ExhaustiveSearch(x, options);
  const double kurt_x = Kurtosis(x);
  // Re-verify optimality by brute force.
  for (size_t w = 1; w <= options.ResolveMaxWindow(x.size()); ++w) {
    const CandidateScore s = EvaluateWindow(x, w);
    if (s.kurtosis >= kurt_x) {
      EXPECT_GE(s.roughness, result.roughness - 1e-12) << "w=" << w;
    }
  }
  // Result itself must be feasible.
  const CandidateScore chosen = EvaluateWindow(x, result.window);
  EXPECT_GE(chosen.kurtosis, kurt_x);
}

TEST(ExhaustiveSearchTest, EvaluatesAllCandidates) {
  std::vector<double> x = PeriodicSeries(3, 500);
  SearchOptions options;
  SearchResult result = ExhaustiveSearch(x, options);
  EXPECT_EQ(result.diag.candidates_evaluated,
            options.ResolveMaxWindow(x.size()) - 1);  // w=1 is the seed
}

TEST(ExhaustiveSearchTest, SmoothsPureNoiseAggressively) {
  Pcg32 rng(4);
  std::vector<double> x = gen::WhiteNoise(&rng, 2000, 1.0);
  SearchResult result = ExhaustiveSearch(x, SearchOptions{});
  // Gaussian noise (kurtosis ~3) stays ~3 under averaging, so large
  // windows remain feasible and far smoother than w = 1.
  EXPECT_GT(result.window, 50u);
}

// --- Grid ----------------------------------------------------------------------

TEST(GridSearchTest, StepOneMatchesExhaustive) {
  std::vector<double> x = PeriodicSeries(5);
  SearchOptions options;
  options.grid_step = 1;
  SearchResult grid = GridSearch(x, options);
  SearchResult exhaustive = ExhaustiveSearch(x, options);
  EXPECT_EQ(grid.window, exhaustive.window);
  EXPECT_DOUBLE_EQ(grid.roughness, exhaustive.roughness);
}

TEST(GridSearchTest, LargerStepEvaluatesFewer) {
  std::vector<double> x = PeriodicSeries(6);
  SearchOptions options;
  options.grid_step = 10;
  SearchResult coarse = GridSearch(x, options);
  options.grid_step = 2;
  SearchResult fine = GridSearch(x, options);
  EXPECT_LT(coarse.diag.candidates_evaluated,
            fine.diag.candidates_evaluated);
  // Coarser grids cannot beat finer grids on quality.
  EXPECT_GE(coarse.roughness, fine.roughness - 1e-12);
}

// --- Binary -----------------------------------------------------------------------

TEST(BinarySearchTest, LogarithmicCandidateCount) {
  std::vector<double> x = PeriodicSeries(7, 4000);
  SearchResult result = BinarySearch(x, SearchOptions{});
  EXPECT_LE(result.diag.candidates_evaluated, 12u);  // log2(400) ~ 9
}

TEST(BinarySearchTest, NearOptimalOnIidData) {
  // §4.2: for IID data binary search is justified. Sampling noise in
  // the kurtosis of smoothed noise makes the feasibility boundary
  // ragged, so binary can land below the exhaustive optimum; the paper
  // itself measures binary up to 7.5x rougher (Fig. 8). Assert it
  // stays within that envelope while still smoothing substantially.
  Pcg32 rng(8);
  std::vector<double> x = gen::WhiteNoise(&rng, 3000, 1.0);
  SearchResult binary = BinarySearch(x, SearchOptions{});
  SearchResult exhaustive = ExhaustiveSearch(x, SearchOptions{});
  EXPECT_LE(binary.roughness, 8.0 * exhaustive.roughness + 1e-9);
  EXPECT_LT(binary.roughness, 0.5 * Roughness(x));
}

TEST(BinarySearchTest, ResultIsFeasible) {
  std::vector<double> x = PeriodicSeries(9);
  SearchResult result = BinarySearch(x, SearchOptions{});
  EXPECT_GE(EvaluateWindow(x, result.window).kurtosis, Kurtosis(x) - 1e-12);
}

// --- ASAP -------------------------------------------------------------------------

class AsapAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(AsapAgreementTest, MatchesExhaustiveOnPeriodicData) {
  // The headline Table-2 property: near-exhaustive quality at a
  // fraction of the evaluations. On synthetic single-period data the
  // feasible set is exactly the period multiples, so ASAP can settle
  // one period alignment short of exhaustive's boundary pick — a
  // bounded quality gap (the Table-2 integration test checks the
  // tighter 10% bound on all 11 realistic datasets).
  std::vector<double> x = PeriodicSeries(GetParam() * 31 + 1);
  SearchOptions options;
  SearchResult asap = AsapSearch(x, options);
  SearchResult exhaustive = ExhaustiveSearch(x, options);
  EXPECT_LE(asap.roughness, exhaustive.roughness * 1.25 + 1e-9);
  // Cost: must evaluate at most half the candidates.
  EXPECT_LT(asap.diag.candidates_evaluated,
            exhaustive.diag.candidates_evaluated / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsapAgreementTest, ::testing::Range(1, 9));

TEST(AsapSearchTest, FallsBackToBinaryOnAperiodicData) {
  Pcg32 rng(10);
  std::vector<double> x = gen::WhiteNoise(&rng, 4000, 1.0);
  SearchResult result = AsapSearch(x, SearchOptions{});
  EXPECT_EQ(result.diag.acf_peaks, 0u);
  // Still produces a feasible, aggressive window via binary fallback.
  EXPECT_GT(result.window, 10u);
}

TEST(AsapSearchTest, ResultIsAlwaysFeasible) {
  for (int seed = 1; seed <= 6; ++seed) {
    std::vector<double> x = PeriodicSeries(seed, 1500, 40.0, 1.0);
    SearchResult result = AsapSearch(x, SearchOptions{});
    EXPECT_GE(EvaluateWindow(x, result.window).kurtosis,
              Kurtosis(x) - 1e-12)
        << "seed=" << seed;
  }
}

TEST(AsapSearchTest, PruningCountersPopulated) {
  std::vector<double> x = PeriodicSeries(11, 3000, 30.0, 0.3);
  SearchResult result = AsapSearch(x, SearchOptions{});
  EXPECT_GT(result.diag.acf_peaks, 2u);
  // At least one pruning rule must have fired on a strongly periodic
  // series with many peaks.
  EXPECT_GT(result.diag.pruned_lower_bound + result.diag.pruned_roughness,
            0u);
}

TEST(AsapSearchTest, SeedStateWarmStartsSearch) {
  std::vector<double> x = PeriodicSeries(12);
  SearchOptions options;
  // Cold run to learn the solution.
  SearchResult cold = AsapSearch(x, options);

  AsapState seed;
  seed.window = cold.window;
  seed.roughness = cold.roughness;
  seed.has_feasible = true;
  SearchResult warm = AsapSearch(x, options, &seed);
  // Warm start must not degrade quality...
  EXPECT_LE(warm.roughness, cold.roughness + 1e-12);
  // ...and the state must track the final solution.
  EXPECT_EQ(seed.window, warm.window);
}

TEST(AsapSearchTest, RespectsMaxWindow) {
  std::vector<double> x = PeriodicSeries(13);
  SearchOptions options;
  options.max_window = 10;
  SearchResult result = AsapSearch(x, options);
  EXPECT_LE(result.window, 10u);
}

TEST(AsapSearchTest, HighKurtosisSpikeSeriesStaysUnsmoothed) {
  // The Twitter-AAPL behavior: a series whose information is a few
  // extreme spikes must be left alone (window 1).
  Pcg32 rng(14);
  std::vector<double> x = gen::WhiteNoise(&rng, 2000, 0.1);
  gen::InjectSpike(&x, 500, 30.0);
  gen::InjectSpike(&x, 1200, 25.0);
  SearchResult result = AsapSearch(x, SearchOptions{});
  EXPECT_EQ(result.window, 1u);
}

}  // namespace
}  // namespace asap
