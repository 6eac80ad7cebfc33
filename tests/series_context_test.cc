// Tests for core/series_context: the zero-allocation fused evaluator
// must agree with the naive reference evaluator (EvaluateWindow) to
// 1e-9 across arbitrary series and windows, perform no heap
// allocations per candidate, and drive every search strategy to the
// same chosen window.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/random.h"
#include "core/metrics.h"
#include "core/search.h"
#include "core/series_context.h"
#include "core/smooth.h"
#include "core/streaming_asap.h"
#include "ts/generators.h"
#include "window/sma.h"

// --- Global allocation counting ---------------------------------------------
//
// Replacing the global allocation functions lets the allocation-free
// tests assert, not assume. Counting is process-wide; the tests
// snapshot the counter around the exact calls under test.

namespace {
std::atomic<size_t> g_heap_allocations{0};
}  // namespace

// GCC pairs call sites that inlined the *default* operator new with
// these replacements and warns about malloc/free mismatch; with both
// sides globally replaced the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace asap {
namespace {

constexpr double kScoreTol = 1e-9;

std::vector<double> MixedSeries(uint64_t seed, size_t n) {
  Pcg32 rng(seed);
  std::vector<double> x = gen::Add(
      gen::Sine(n, 30.0 + static_cast<double>(seed % 5) * 11.0, 1.0),
      gen::WhiteNoise(&rng, n, 0.5));
  if (seed % 3 == 0) {
    gen::InjectLevelShift(&x, n / 3, n / 2, 2.0);
  }
  if (seed % 4 == 0) {
    gen::InjectSpike(&x, n / 5, 8.0);
  }
  return x;
}

void ExpectScoreParity(const std::vector<double>& x, size_t w,
                       const char* label) {
  SeriesContext ctx(x);
  const CandidateScore fused = ScoreWindow(ctx, w);
  const CandidateScore naive = EvaluateWindow(x, w);
  EXPECT_NEAR(fused.roughness, naive.roughness, kScoreTol)
      << label << " n=" << x.size() << " w=" << w;
  EXPECT_NEAR(fused.kurtosis, naive.kurtosis, kScoreTol)
      << label << " n=" << x.size() << " w=" << w;
}

// --- ScoreWindow vs naive evaluator (the core property) ----------------------

class ScoreParitySweep : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ScoreParitySweep,
                         ::testing::Range<uint64_t>(1, 9));

TEST_P(ScoreParitySweep, MatchesNaiveAcrossAllWindowsOnMixedSeries) {
  for (size_t n : {64u, 257u, 1024u}) {
    const std::vector<double> x = MixedSeries(GetParam(), n);
    SeriesContext ctx(x);
    for (size_t w = 1; w <= n / 2; ++w) {
      const CandidateScore fused = ScoreWindow(ctx, w);
      const CandidateScore naive = EvaluateWindow(x, w);
      ASSERT_NEAR(fused.roughness, naive.roughness, kScoreTol)
          << "n=" << n << " w=" << w;
      ASSERT_NEAR(fused.kurtosis, naive.kurtosis, kScoreTol)
          << "n=" << n << " w=" << w;
    }
  }
}

TEST_P(ScoreParitySweep, MatchesNaiveOnGaussianAndLaplaceNoise) {
  Pcg32 rng(GetParam() * 101);
  const std::vector<double> gauss = GaussianVector(&rng, 512, 3.0, 2.0);
  const std::vector<double> laplace = LaplaceVector(&rng, 512, -1.0, 0.7);
  for (size_t w : {2u, 3u, 7u, 32u, 128u, 256u}) {
    ExpectScoreParity(gauss, w, "gaussian");
    ExpectScoreParity(laplace, w, "laplace");
  }
}

TEST(ScoreWindowTest, MatchesNaiveAtDegenerateWindowSizes) {
  const std::vector<double> x = MixedSeries(5, 200);
  // w = n, n-1, n-2 leave fewer than 3 smoothed points (roughness is
  // defined as 0 there), and w = 1 is the identity candidate.
  for (size_t w : {1u, 197u, 198u, 199u, 200u}) {
    ExpectScoreParity(x, w, "degenerate");
  }
}

TEST(ScoreWindowTest, ConstantSeriesMatchesNaiveExactly) {
  // Constant series are a rounding minefield: the naive evaluator's
  // smoothed series is exactly constant, but its Kahan mean can land
  // one ulp off the value, making every deviation identical and the
  // kurtosis exactly 1 instead of 0. The fused kernel must reproduce
  // whichever of the two the naive path lands on, bit for bit, and
  // roughness must be exactly 0 (zero first differences).
  for (double value : {0.0, 3.7, -123.456, 1e8}) {
    const std::vector<double> x(300, value);
    SeriesContext ctx(x);
    for (size_t w : {1u, 2u, 13u, 150u, 300u}) {
      const CandidateScore fused = ScoreWindow(ctx, w);
      const CandidateScore naive = EvaluateWindow(x, w);
      EXPECT_EQ(fused.roughness, naive.roughness) << "value=" << value;
      EXPECT_EQ(fused.kurtosis, naive.kurtosis)
          << "value=" << value << " w=" << w;
      EXPECT_EQ(fused.roughness, 0.0);
    }
  }
}

TEST(ScoreWindowTest, ExactlyPeriodicSeriesMatchesNaiveExactly) {
  // Regression: when x is exactly w-periodic, the naive running-sum
  // SMA is exactly constant and its kurtosis comes purely from
  // rounding (exactly 0 or exactly 1) — prefix-sum dust would instead
  // produce an arbitrary O(1) kurtosis and could flip feasibility.
  std::vector<double> alternating(400);
  for (size_t i = 0; i < alternating.size(); ++i) {
    alternating[i] = i % 2 == 0 ? 0.1 : 0.2;
  }
  std::vector<double> square(420);
  for (size_t i = 0; i < square.size(); ++i) {
    square[i] = (i / 7) % 2 == 0 ? -1.5 : 2.5;  // period 14
  }
  for (const std::vector<double>& x : {alternating, square}) {
    SeriesContext ctx(x);
    for (size_t w = 2; w <= x.size() / 2; ++w) {
      const CandidateScore fused = ScoreWindow(ctx, w);
      const CandidateScore naive = EvaluateWindow(x, w);
      ASSERT_NEAR(fused.roughness, naive.roughness, kScoreTol) << "w=" << w;
      ASSERT_NEAR(fused.kurtosis, naive.kurtosis, kScoreTol) << "w=" << w;
    }
  }
}

TEST(ScoreWindowTest, PeriodMultipleWindowsStayInfeasibleOnSquareWaves) {
  // The end-to-end regression behind the case above: on a square wave,
  // period-multiple windows smooth to an *exactly constant* series,
  // whose kurtosis (exactly 0 or 1) must fall below the series
  // kurtosis — i.e. those windows are infeasible. The fused kernel
  // used to square prefix rounding dust into an arbitrary O(1)
  // kurtosis there, letting an infeasible roughness-0 window win the
  // whole search.
  //
  // Note exact *window* equality between the evaluators is not
  // assertable on exactly periodic input: windows w = k*period +/- 1
  // smooth to a rescaled copy of the same cycle, so their kurtosis
  // equals the feasibility bound exactly in real arithmetic and the
  // comparison is decided by rounding under any evaluator.
  std::vector<double> x(420);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = i % 14 < 3 ? 2.5 : -1.5;  // period 14, 3/11 duty cycle
  }
  SeriesContext ctx(x);
  const double kurtosis_x = Kurtosis(x);
  ASSERT_GT(kurtosis_x, 2.0);  // far from the constant-series 0/1
  for (size_t w = 14; w <= 140; w += 14) {
    const CandidateScore fused = ScoreWindow(ctx, w);
    const CandidateScore naive = EvaluateWindow(x, w);
    EXPECT_EQ(fused.kurtosis, naive.kurtosis) << "w=" << w;
    EXPECT_EQ(fused.roughness, naive.roughness) << "w=" << w;
    EXPECT_LT(fused.kurtosis, kurtosis_x) << "w=" << w;  // infeasible
  }
  // Neither evaluator's search may hand back a degenerate
  // period-multiple window (the bug's symptom: roughness exactly 0).
  SearchOptions fused_options;
  SearchOptions naive_options;
  naive_options.use_naive_evaluator = true;
  const SearchResult fused_search = ExhaustiveSearch(x, fused_options);
  const SearchResult naive_search = ExhaustiveSearch(x, naive_options);
  EXPECT_NE(fused_search.window % 14, 0u);
  EXPECT_NE(naive_search.window % 14, 0u);
  EXPECT_GT(fused_search.roughness, 0.01);
  EXPECT_GT(naive_search.roughness, 0.01);
}

TEST(ScoreWindowTest, NearConstantSeriesStaysWithinTolerance) {
  Pcg32 rng(77);
  std::vector<double> x(600);
  for (double& v : x) {
    v = 1.0 + 1e-4 * rng.Gaussian();
  }
  SeriesContext ctx(x);
  for (size_t w = 1; w <= x.size() / 2; w += 7) {
    const CandidateScore fused = ScoreWindow(ctx, w);
    const CandidateScore naive = EvaluateWindow(x, w);
    ASSERT_NEAR(fused.roughness, naive.roughness, kScoreTol) << "w=" << w;
    ASSERT_NEAR(fused.kurtosis, naive.kurtosis, kScoreTol) << "w=" << w;
  }
}

// --- SeriesContext bookkeeping ------------------------------------------------

// The bit pattern of a double, so a comparison is bitwise.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(SeriesContextTest, CachedMetricsMatchBatchMetrics) {
  const std::vector<double> x = MixedSeries(9, 400);
  SeriesContext ctx(x);
  EXPECT_EQ(ctx.size(), x.size());
  EXPECT_DOUBLE_EQ(ctx.roughness(), Roughness(x));
  EXPECT_EQ(Bits(ctx.kurtosis()), Bits(Kurtosis(x)));
}

TEST(SeriesContextTest, SmaAtReconstructsBatchSma) {
  const std::vector<double> x = MixedSeries(11, 500);
  SeriesContext ctx(x);
  for (size_t w : {1u, 4u, 25u, 250u}) {
    const std::vector<double> y = window::Sma(x, w);
    for (size_t i = 0; i < y.size(); i += 17) {
      ASSERT_NEAR(ctx.SmaAt(w, i), y[i], kScoreTol) << "w=" << w << " i=" << i;
    }
  }
}

TEST(SeriesContextTest, ResetRebindsToNewSeries) {
  SeriesContext ctx(MixedSeries(1, 300));
  const std::vector<double> x2 = MixedSeries(2, 450);
  ctx.Reset(x2);
  EXPECT_EQ(ctx.size(), x2.size());
  EXPECT_EQ(Bits(ctx.kurtosis()), Bits(Kurtosis(x2)));
  ExpectScoreParity(x2, 20, "after reset");
  const CandidateScore fused = ScoreWindow(ctx, 20);
  const CandidateScore naive = EvaluateWindow(x2, 20);
  EXPECT_NEAR(fused.roughness, naive.roughness, kScoreTol);
}

TEST(SeriesContextTest, EnsureAcfMatchesDirectComputationAndCaches) {
  const std::vector<double> x = MixedSeries(3, 600);
  SeriesContext ctx(x);
  const AcfInfo& acf = ctx.EnsureAcf(60, 0.2);
  const AcfInfo direct = ComputeAcfInfo(x, 60, 0.2);
  ASSERT_EQ(acf.correlations.size(), direct.correlations.size());
  for (size_t k = 0; k < direct.correlations.size(); ++k) {
    EXPECT_DOUBLE_EQ(acf.correlations[k], direct.correlations[k]);
  }
  EXPECT_EQ(acf.peaks, direct.peaks);
  // Identical parameters reuse the cached computation...
  EXPECT_EQ(ctx.EnsureAcf(60, 0.2).correlations.size(), 61u);
  // ...but a different max_lag recomputes at exactly that lag, so the
  // result (including max_acf, which feeds Eq. 6 pruning) never
  // depends on what an earlier caller requested.
  const AcfInfo& shorter = ctx.EnsureAcf(30, 0.2);
  const AcfInfo direct30 = ComputeAcfInfo(x, 30, 0.2);
  ASSERT_EQ(shorter.correlations.size(), 31u);
  EXPECT_DOUBLE_EQ(shorter.max_acf, direct30.max_acf);
  EXPECT_EQ(shorter.peaks, direct30.peaks);
}

// --- Zero allocations per candidate ------------------------------------------

TEST(ScoreWindowTest, PerformsZeroHeapAllocationsPerCandidate) {
  const std::vector<double> x = MixedSeries(7, 2048);
  SeriesContext ctx(x);
  CandidateScore sink{};
  (void)ScoreWindow(ctx, 2);  // warm up outside the measured region
  const size_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (size_t w = 2; w <= 512; ++w) {
    sink = ScoreWindow(ctx, w);
  }
  const size_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "ScoreWindow must not touch the heap";
  EXPECT_GT(sink.kurtosis, 0.0);  // keep the loop observable
}

TEST(ScoreWindowTest, NaiveEvaluatorDoesAllocate) {
  // Sanity-check the counter actually observes the naive path's
  // allocations, so the zero-allocation assertion above has teeth.
  const std::vector<double> x = MixedSeries(7, 2048);
  const size_t before = g_heap_allocations.load(std::memory_order_relaxed);
  (void)EvaluateWindow(x, 64);
  const size_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after, before);
}

// --- Search strategies: fused vs naive evaluator ------------------------------

class EvaluatorParitySweep : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorParitySweep,
                         ::testing::Range<uint64_t>(1, 11));

TEST_P(EvaluatorParitySweep, AllStrategiesChooseIdenticalWindows) {
  const std::vector<double> x = MixedSeries(GetParam(), 1500);
  SearchOptions fused_options;
  fused_options.grid_step = 3;
  SearchOptions naive_options = fused_options;
  naive_options.use_naive_evaluator = true;

  const std::pair<const char*, SearchResult (*)(const std::vector<double>&,
                                                const SearchOptions&)>
      strategies[] = {
          {"exhaustive", &ExhaustiveSearch},
          {"grid", &GridSearch},
          {"binary", &BinarySearch},
      };
  for (const auto& [name, strategy] : strategies) {
    const SearchResult fused = strategy(x, fused_options);
    const SearchResult naive = strategy(x, naive_options);
    EXPECT_EQ(fused.window, naive.window) << name;
    EXPECT_NEAR(fused.roughness, naive.roughness, kScoreTol) << name;
    EXPECT_NEAR(fused.kurtosis, naive.kurtosis, kScoreTol) << name;
    EXPECT_EQ(fused.diag.candidates_evaluated,
              naive.diag.candidates_evaluated)
        << name;
    EXPECT_EQ(fused.diag.allocation_free_evals,
              fused.diag.candidates_evaluated)
        << name;
    EXPECT_EQ(naive.diag.allocation_free_evals, 0u) << name;
  }

  const SearchResult fused_asap = AsapSearch(x, fused_options);
  const SearchResult naive_asap = AsapSearch(x, naive_options);
  EXPECT_EQ(fused_asap.window, naive_asap.window);
  EXPECT_NEAR(fused_asap.roughness, naive_asap.roughness, kScoreTol);
  EXPECT_NEAR(fused_asap.kurtosis, naive_asap.kurtosis, kScoreTol);
  EXPECT_EQ(fused_asap.diag.candidates_evaluated,
            naive_asap.diag.candidates_evaluated);
  EXPECT_EQ(fused_asap.diag.allocation_free_evals,
            fused_asap.diag.candidates_evaluated);
}

TEST(SearchContextReuseTest, ContextOverloadMatchesVectorOverload) {
  const std::vector<double> x = MixedSeries(13, 1200);
  SearchOptions options;
  SeriesContext ctx(x);
  const SearchResult via_ctx = AsapSearch(&ctx, options);
  const SearchResult via_vec = AsapSearch(x, options);
  EXPECT_EQ(via_ctx.window, via_vec.window);
  EXPECT_DOUBLE_EQ(via_ctx.roughness, via_vec.roughness);
  // Re-running on the same context reuses its cached ACF and must be
  // deterministic.
  const SearchResult again = AsapSearch(&ctx, options);
  EXPECT_EQ(again.window, via_ctx.window);
}

// --- Streaming operator parity ------------------------------------------------

TEST(StreamingEvaluatorParityTest, FusedAndNaiveRefreshesAgreeExactly) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Pcg32 rng(seed * 7);
    const size_t n = 6000;
    std::vector<double> x =
        gen::Add(gen::Sine(n, 100.0, 1.0), gen::WhiteNoise(&rng, n, 0.4));

    StreamingOptions fused_options;
    fused_options.resolution = 300;
    fused_options.visible_points = 3000;
    StreamingOptions naive_options = fused_options;
    naive_options.search.use_naive_evaluator = true;

    StreamingAsap fused = StreamingAsap::Create(fused_options).ValueOrDie();
    StreamingAsap naive = StreamingAsap::Create(naive_options).ValueOrDie();
    for (double v : x) {
      const bool fused_refreshed = fused.Push(v);
      const bool naive_refreshed = naive.Push(v);
      ASSERT_EQ(fused_refreshed, naive_refreshed) << "seed=" << seed;
      if (fused_refreshed) {
        ASSERT_EQ(fused.frame().window, naive.frame().window)
            << "seed=" << seed << " at point " << fused.points_consumed();
      }
    }
    EXPECT_GT(fused.frame().refreshes, 0u);
    EXPECT_EQ(fused.frame().refreshes, naive.frame().refreshes);
    // seeded_searches is deliberately NOT compared: the chosen window
    // sits at the ragged kurtosis-feasibility boundary, so the
    // previous window's margin on refreshed data is ~0 and 1e-12
    // evaluator rounding can legitimately flip the warm-start
    // decision. The chosen window (asserted per refresh above) is the
    // contract; both operators must still warm-start most of the time.
    EXPECT_GT(fused.frame().seeded_searches, fused.frame().refreshes / 2);
    EXPECT_GT(naive.frame().seeded_searches, naive.frame().refreshes / 2);
    // Every evaluation in fused mode (including the CheckLastWindow
    // warm-start check) must go through the zero-allocation kernel.
    EXPECT_EQ(fused.frame().allocation_free_evals,
              fused.frame().candidates_evaluated);
    EXPECT_EQ(naive.frame().allocation_free_evals, 0u);
  }
}

}  // namespace
}  // namespace asap
