// Execution-policy parity tier: scalar vs SIMD and 1 vs T threads must
// produce *bitwise-identical* results for every kernel the ExecPolicy
// touches — ScoreWindow, Smooth() frames, FFT/ACF, the fleet rollups
// (BandsOf, DiffHistory, rankings), and the search strategies.
// Comparisons use bit patterns (not ==) so NaN-carrying outputs are
// pinned too. The TSan CI job runs this binary: the task-split sweeps
// here are the concurrency coverage for common/task_pool.
//
// Build note: -DASAP_DISABLE_SIMD=ON turns kern::ActiveKernels(kAuto)
// into the scalar table; the parity assertions then compare scalar
// against scalar and still must hold.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/exec_policy.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "core/kernels.h"
#include "core/search.h"
#include "core/series_context.h"
#include "core/smooth.h"
#include "fft/autocorrelation.h"
#include "fft/fft.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace asap {
namespace {

using stream::FleetPercentileBands;
using stream::FleetSample;
using stream::FleetView;
using stream::SampledSeries;

// Bit-pattern equality: distinguishes -0.0 from 0.0 and treats equal
// NaN payloads as equal (== would not).
bool BitEq(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

::testing::AssertionResult BitEqVec(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEq(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> NoisySeasonal(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  return gen::Add(gen::Sine(n, 48.0, 2.0), gen::WhiteNoise(&rng, n, 0.5));
}

ExecPolicy Threads(size_t t, SimdMode simd = SimdMode::kAuto) {
  ExecPolicy policy;
  policy.threads = t;
  policy.simd = simd;
  return policy;
}

// --- ScoreWindow ------------------------------------------------------------

TEST(ScoreWindowParityTest, ScalarSimdAndThreadCountsAgreeBitwise) {
  // 100k elements spans many kern::ChunksFor chunks; 300 elements is a
  // single chunk; both must agree across every policy.
  for (size_t n : {size_t{300}, size_t{100000}}) {
    const std::vector<double> x = NoisySeasonal(n, 7);
    SeriesContext ctx(x);
    for (size_t w : {size_t{1}, size_t{2}, size_t{7}, size_t{96}, n / 3}) {
      const CandidateScore base = ScoreWindow(ctx, w);
      for (const ExecPolicy& policy :
           {Threads(1, SimdMode::kScalar), Threads(1, SimdMode::kAuto),
            Threads(4, SimdMode::kScalar), Threads(4, SimdMode::kAuto),
            Threads(16, SimdMode::kAuto)}) {
        const CandidateScore got = ScoreWindow(ctx, w, policy);
        EXPECT_TRUE(BitEq(base.roughness, got.roughness))
            << "n=" << n << " w=" << w << " threads=" << policy.threads;
        EXPECT_TRUE(BitEq(base.kurtosis, got.kurtosis))
            << "n=" << n << " w=" << w << " threads=" << policy.threads;
      }
    }
  }
}

TEST(ScoreWindowParityTest, NaNInputStaysBitwiseIdenticalAcrossPolicies) {
  // ScoreWindow is only specified for finite input (Smooth validates),
  // but the kernels must still be deterministic if garbage reaches
  // them: a NaN anywhere must corrupt every policy identically.
  std::vector<double> x = NoisySeasonal(50000, 11);
  x[123] = std::numeric_limits<double>::quiet_NaN();
  x[40000] = -std::numeric_limits<double>::infinity();
  SeriesContext ctx(x);
  const CandidateScore scalar = ScoreWindow(ctx, 33, Threads(1, SimdMode::kScalar));
  const CandidateScore simd = ScoreWindow(ctx, 33, Threads(8, SimdMode::kAuto));
  EXPECT_TRUE(BitEq(scalar.roughness, simd.roughness));
  EXPECT_TRUE(BitEq(scalar.kurtosis, simd.kurtosis));
}

// --- Smooth -----------------------------------------------------------------

TEST(SmoothParityTest, FramesIdenticalAcrossPoliciesAndStrategies) {
  const std::vector<double> values = NoisySeasonal(20000, 21);
  for (SearchStrategy strategy :
       {SearchStrategy::kAsap, SearchStrategy::kExhaustive,
        SearchStrategy::kGrid, SearchStrategy::kBinary}) {
    SmoothOptions base_options;
    base_options.strategy = strategy;
    const SmoothingResult base = Smooth(values, base_options).ValueOrDie();
    for (const ExecPolicy& policy :
         {Threads(1, SimdMode::kScalar), Threads(4, SimdMode::kAuto),
          Threads(4, SimdMode::kScalar)}) {
      SmoothOptions options = base_options;
      options.search.exec = policy;
      const SmoothingResult got = Smooth(values, options).ValueOrDie();
      EXPECT_EQ(base.window, got.window) << SearchStrategyName(strategy);
      EXPECT_TRUE(BitEqVec(base.series, got.series))
          << SearchStrategyName(strategy);
      EXPECT_TRUE(BitEq(base.roughness_after, got.roughness_after));
      EXPECT_TRUE(BitEq(base.kurtosis_after, got.kurtosis_after));
    }
  }
}

// --- Search strategies ------------------------------------------------------

TEST(SearchParityTest, AllStrategiesReportIdenticalResultsAndDiagnostics) {
  const std::vector<double> x = NoisySeasonal(4000, 33);
  SeriesContext ctx(x);
  for (int strategy = 0; strategy < 4; ++strategy) {
    SearchOptions seq;
    seq.exec = Threads(1);
    SearchOptions par;
    par.exec = Threads(4);
    const auto run = [&](const SearchOptions& options) {
      switch (strategy) {
        case 0:
          return ExhaustiveSearch(&ctx, options);
        case 1:
          return GridSearch(&ctx, options);
        case 2:
          return BinarySearch(&ctx, options);
        default:
          return AsapSearch(&ctx, options);
      }
    };
    const SearchResult a = run(seq);
    const SearchResult b = run(par);
    EXPECT_EQ(a.window, b.window) << "strategy " << strategy;
    EXPECT_TRUE(BitEq(a.roughness, b.roughness)) << "strategy " << strategy;
    EXPECT_TRUE(BitEq(a.kurtosis, b.kurtosis)) << "strategy " << strategy;
    // The task-split sweep must not change what the diagnostics count.
    EXPECT_EQ(a.diag.candidates_evaluated, b.diag.candidates_evaluated);
    EXPECT_EQ(a.diag.allocation_free_evals, b.diag.allocation_free_evals);
    EXPECT_EQ(a.diag.pruned_lower_bound, b.diag.pruned_lower_bound);
    EXPECT_EQ(a.diag.pruned_roughness, b.diag.pruned_roughness);
  }
}

// --- FFT / ACF --------------------------------------------------------------

TEST(FftParityTest, Radix2TransformIdenticalAcrossThreadCounts) {
  Pcg32 rng(55);
  const size_t n = 1u << 15;  // above kMinParallelFftSize
  std::vector<fft::Complex> base(n);
  for (size_t i = 0; i < n; ++i) {
    base[i] = fft::Complex(rng.NextDouble() - 0.5, rng.NextDouble() - 0.5);
  }
  std::vector<fft::Complex> seq = base;
  fft::TransformRadix2(&seq, /*inverse=*/false, Threads(1));
  std::vector<fft::Complex> par = base;
  fft::TransformRadix2(&par, /*inverse=*/false, Threads(8));
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(BitEq(seq[i].real(), par[i].real())) << i;
    EXPECT_TRUE(BitEq(seq[i].imag(), par[i].imag())) << i;
  }
}

TEST(FftParityTest, AutocorrelationIdenticalAcrossPolicies) {
  const std::vector<double> x = NoisySeasonal(30000, 77);
  const std::vector<double> base = fft::AutocorrelationFft(x, 3000);
  for (const ExecPolicy& policy :
       {Threads(1, SimdMode::kScalar), Threads(4, SimdMode::kAuto),
        Threads(4, SimdMode::kScalar)}) {
    EXPECT_TRUE(BitEqVec(base, fft::AutocorrelationFft(x, 3000, policy)));
  }
}

// --- Fleet rollups over synthetic samples -----------------------------------

// Builds a sample member whose "frame" is just the given series (the
// rollups only read frame->series/window/refreshes).
SampledSeries Member(const std::string& name, std::vector<double> series) {
  static std::vector<std::unique_ptr<std::string>>* names =
      new std::vector<std::unique_ptr<std::string>>();
  names->push_back(std::make_unique<std::string>(name));
  auto frame = std::make_shared<StreamingAsap::Frame>();
  frame->series = std::move(series);
  frame->window = 3;
  frame->refreshes = 1;
  SampledSeries member;
  member.name = *names->back();
  member.id = static_cast<stream::SeriesId>(names->size() - 1);
  member.frame = std::move(frame);
  return member;
}

// The PR 5 rollup, verbatim: per-position gather + std::sort + linear
// interpolation between closest order statistics. BandsOf must match
// it bitwise on NaN-free samples.
FleetPercentileBands ReferenceBands(const FleetSample& sample) {
  FleetPercentileBands bands;
  bands.skipped_unpublished = sample.skipped_unpublished;
  size_t positions = static_cast<size_t>(-1);
  for (const SampledSeries& member : sample.series) {
    positions = std::min(positions, member.frame->series.size());
  }
  if (sample.series.empty() || positions == 0) {
    bands.series = sample.series.size();
    return bands;
  }
  bands.positions = positions;
  bands.series = sample.series.size();
  bands.p50.resize(positions);
  bands.p90.resize(positions);
  bands.p99.resize(positions);
  std::vector<double> column(sample.series.size());
  const auto percentile = [](const std::vector<double>& sorted, double p) {
    if (sorted.size() == 1) {
      return sorted[0];
    }
    const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  for (size_t j = 0; j < positions; ++j) {
    for (size_t s = 0; s < sample.series.size(); ++s) {
      const std::vector<double>& series = sample.series[s].frame->series;
      column[s] = series[series.size() - positions + j];
    }
    std::sort(column.begin(), column.end());
    bands.p50[j] = percentile(column, 50.0);
    bands.p90[j] = percentile(column, 90.0);
    bands.p99[j] = percentile(column, 99.0);
  }
  return bands;
}

FleetSample SyntheticFleet(size_t members, size_t positions, uint64_t seed) {
  FleetSample sample;
  for (size_t s = 0; s < members; ++s) {
    // Ragged lengths: alignment must pick the newest common panes.
    sample.series.push_back(Member(
        "host-" + std::to_string(s),
        NoisySeasonal(positions + s % 5, seed + s)));
  }
  return sample;
}

void ExpectBandsBitEq(const FleetPercentileBands& a,
                      const FleetPercentileBands& b) {
  EXPECT_EQ(a.positions, b.positions);
  EXPECT_EQ(a.series, b.series);
  EXPECT_TRUE(BitEqVec(a.p50, b.p50));
  EXPECT_TRUE(BitEqVec(a.p90, b.p90));
  EXPECT_TRUE(BitEqVec(a.p99, b.p99));
}

TEST(BandsParityTest, MatchesSortBasedReferenceBitwise) {
  // Fleet sizes straddle the small-n rank inversions (p90's upper
  // order statistic above p99's lower one) and the 4-wide gather tail.
  for (size_t members : {size_t{1}, size_t{2}, size_t{3}, size_t{10},
                         size_t{12}, size_t{37}, size_t{256}}) {
    for (size_t positions : {size_t{1}, size_t{2}, size_t{5}, size_t{103}}) {
      const FleetSample sample = SyntheticFleet(members, positions, 1000);
      ExpectBandsBitEq(ReferenceBands(sample), FleetView::BandsOf(sample));
    }
  }
}

TEST(BandsParityTest, PoliciesAgreeBitwiseIncludingEdgeColumns) {
  FleetSample sample = SyntheticFleet(19, 64, 5000);
  // Constant member: every column gets one repeated value.
  sample.series.push_back(Member("const", std::vector<double>(64, 4.25)));
  // Denormal-range member: bucket scale overflows to +inf.
  std::vector<double> tiny(64);
  for (size_t i = 0; i < 64; ++i) {
    tiny[i] = static_cast<double>(i % 7) * 5e-324;
  }
  sample.series.push_back(Member("denormal", std::move(tiny)));
  // Infinite member: bucket scale collapses to 0.
  std::vector<double> wide = NoisySeasonal(64, 5010);
  wide[0] = std::numeric_limits<double>::infinity();
  wide[63] = -std::numeric_limits<double>::infinity();
  sample.series.push_back(Member("inf", std::move(wide)));
  // NaN member: those columns take the total-order fallback.
  std::vector<double> poisoned = NoisySeasonal(64, 5020);
  poisoned[5] = std::numeric_limits<double>::quiet_NaN();
  poisoned[63] = std::numeric_limits<double>::quiet_NaN();
  sample.series.push_back(Member("nan", std::move(poisoned)));

  const FleetPercentileBands base =
      FleetView::BandsOf(sample, Threads(1, SimdMode::kScalar));
  for (const ExecPolicy& policy :
       {Threads(1, SimdMode::kAuto), Threads(4, SimdMode::kScalar),
        Threads(4, SimdMode::kAuto), Threads(16, SimdMode::kAuto)}) {
    ExpectBandsBitEq(base, FleetView::BandsOf(sample, policy));
  }
  // NaN-free positions must still match the sort-based reference.
  const FleetPercentileBands ref = ReferenceBands(sample);
  for (size_t j = 0; j < base.positions; ++j) {
    if (j == 5 || j == 63) {
      continue;  // the poisoned columns (reference sort is unspecified)
    }
    EXPECT_TRUE(BitEq(ref.p50[j], base.p50[j])) << j;
    EXPECT_TRUE(BitEq(ref.p90[j], base.p90[j])) << j;
    EXPECT_TRUE(BitEq(ref.p99[j], base.p99[j])) << j;
  }
}

TEST(BandsParityTest, ShortAndEmptySamplesAcrossPolicies) {
  // Single member, single position; and a sample with a zero-length
  // frame (positions == 0).
  FleetSample one;
  one.series.push_back(Member("solo", {2.5}));
  ExpectBandsBitEq(FleetView::BandsOf(one),
                   FleetView::BandsOf(one, Threads(8)));
  EXPECT_EQ(FleetView::BandsOf(one, Threads(8)).positions, 1u);

  FleetSample with_empty = SyntheticFleet(3, 8, 42);
  with_empty.series.push_back(Member("empty", {}));
  const FleetPercentileBands bands =
      FleetView::BandsOf(with_empty, Threads(8));
  EXPECT_EQ(bands.positions, 0u);
  EXPECT_EQ(bands.series, 4u);
}

TEST(RollupParityTest, RankingsAggregatesAndAnomalyCountsAgree) {
  const FleetSample sample = SyntheticFleet(23, 400, 9000);
  const auto base_rank = FleetView::TopKByRoughnessOf(sample, 10);
  const auto par_rank =
      FleetView::TopKByRoughnessOf(sample, 10, Threads(4));
  ASSERT_EQ(base_rank.ranks.size(), par_rank.ranks.size());
  for (size_t i = 0; i < base_rank.ranks.size(); ++i) {
    EXPECT_EQ(base_rank.ranks[i].name, par_rank.ranks[i].name);
    EXPECT_TRUE(BitEq(base_rank.ranks[i].roughness,
                      par_rank.ranks[i].roughness));
  }

  const auto base_counts = FleetView::AnomalyCountsOf(sample, {});
  const auto par_counts =
      FleetView::AnomalyCountsOf(sample, {}, Threads(4));
  EXPECT_EQ(base_counts.series, par_counts.series);
  EXPECT_EQ(base_counts.series_alerting, par_counts.series_alerting);
  EXPECT_EQ(base_counts.alerts, par_counts.alerts);
  EXPECT_EQ(base_counts.skipped_short, par_counts.skipped_short);
}

// --- Rollups through a live engine ------------------------------------------

TEST(EngineParityTest, PolicyViewMatchesDefaultViewOnSettledEngine) {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  options.snapshot_ring_frames = 4;
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(options, engine_options).ValueOrDie();
  stream::InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < 12; ++i) {
    source.AddVector("host-" + std::to_string(i),
                     NoisySeasonal(3000, 400 + i));
  }
  engine.RunToCompletion(&source);

  const FleetView plain(&engine);
  const FleetView threaded(&engine, Threads(4, SimdMode::kAuto));

  const stream::SeriesSelector all = stream::SeriesSelector::All();
  ExpectBandsBitEq(
      FleetView::BandsOf(plain.Sample(all), plain.exec_policy()),
      FleetView::BandsOf(threaded.Sample(all), threaded.exec_policy()));

  const auto diff_a = plain.DiffHistory("host-3", 2);
  const auto diff_b = threaded.DiffHistory("host-3", 2);
  ASSERT_TRUE(diff_a.known);
  ASSERT_TRUE(diff_b.known);
  EXPECT_EQ(diff_a.frames_apart, diff_b.frames_apart);
  EXPECT_TRUE(BitEqVec(diff_a.delta, diff_b.delta));
  EXPECT_TRUE(BitEq(diff_a.mean_abs_delta, diff_b.mean_abs_delta));
  EXPECT_TRUE(BitEq(diff_a.max_abs_delta, diff_b.max_abs_delta));

  const auto change_a = plain.TopKByChange(5, 2);
  const auto change_b = threaded.TopKByChange(5, 2);
  ASSERT_EQ(change_a.ranks.size(), change_b.ranks.size());
  for (size_t i = 0; i < change_a.ranks.size(); ++i) {
    EXPECT_EQ(change_a.ranks[i].name, change_b.ranks[i].name);
    EXPECT_TRUE(BitEq(change_a.ranks[i].mean_abs_delta,
                      change_b.ranks[i].mean_abs_delta));
  }
}

// --- TaskPool ---------------------------------------------------------------

TEST(TaskPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) {
    h.store(0);
  }
  TaskPool::Global().ParallelFor(kCount, 8, [&](size_t i) {
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(TaskPoolTest, NestedParallelForFallsBackInlineWithoutDeadlock) {
  constexpr size_t kOuter = 32;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) {
    h.store(0);
  }
  TaskPool::Global().ParallelFor(kOuter, 4, [&](size_t o) {
    // The pool is busy with the outer job, so this must run inline.
    TaskPool::Global().ParallelFor(kInner, 4, [&](size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (size_t i = 0; i < kOuter * kInner; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(TaskPoolTest, ConcurrentParallelForsFromManyThreadsComplete) {
  constexpr size_t kThreads = 8;
  constexpr size_t kCount = 2000;
  std::vector<std::thread> threads;
  std::atomic<size_t> total{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TaskPool::Global().ParallelFor(kCount, 4, [&](size_t) {
        total.fetch_add(1);
      });
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(total.load(), kThreads * kCount);
}

#if defined(__linux__)
// A helper woken onto the caller's own CPU only takes turns with the
// caller, which halves a two-thread fan-out. The caller is pinned to
// each allowed CPU in turn while busy threads occupy the others, which
// leaves the kernel no idle CPU to place a woken helper on; every
// index a helper ran must still have run on another CPU than the
// caller's.
TEST(TaskPoolTest, HelpersNeverRunOnTheCallersCpu) {
  // Start the pool while this thread may still run on any CPU.
  ASSERT_GE(TaskPool::Global().worker_count(), 1u);
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original)) {
      cpus.push_back(c);
    }
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> busy;
  for (size_t k = 1; k < cpus.size(); ++k) {
    busy.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  constexpr size_t kCount = 64;
  const std::thread::id caller = std::this_thread::get_id();
  size_t helped = 0;
  for (const int cpu : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      ADD_FAILURE() << "cannot pin the caller to CPU " << cpu;
      break;  // the busy threads must still be joined
    }
    std::vector<int> ran_on(kCount, -1);
    std::vector<std::thread::id> ran_by(kCount);
    TaskPool::Global().ParallelFor(kCount, 2, [&](size_t i) {
      // Long enough (~13 ms a job) for a woken helper to join.
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(200);
      while (std::chrono::steady_clock::now() < until) {
      }
      ran_on[i] = sched_getcpu();
      ran_by[i] = std::this_thread::get_id();
    });
    for (size_t i = 0; i < kCount; ++i) {
      if (ran_by[i] != caller) {
        ++helped;
        EXPECT_NE(ran_on[i], cpu) << "index " << i;
      }
    }
  }
  stop.store(true);
  for (std::thread& t : busy) {
    t.join();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  if (cpus.size() > 1) {
    EXPECT_GT(helped, 0u);
  }
}
#endif

TEST(TaskPoolTest, ZeroAndOneCountsAndPolicyResolution) {
  TaskPool::Global().ParallelFor(0, 8, [&](size_t) { FAIL(); });
  std::atomic<int> hits{0};
  TaskPool::Global().ParallelFor(1, 8, [&](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 1);
  EXPECT_GE(TaskPool::Global().worker_count(), 1u);
  EXPECT_GE(ExecPolicy{}.ResolveThreads(), 1u);
  ExecPolicy all;
  all.threads = 0;  // 0 = all hardware threads
  EXPECT_GE(all.ResolveThreads(), 1u);
}

TEST(KernelTableTest, DispatchIsConsistentWithBuildConfiguration) {
  const kern::KernelTable& scalar = kern::ScalarKernels();
  EXPECT_STREQ(scalar.name, "scalar");
  const kern::KernelTable& active = kern::ActiveKernels(SimdMode::kAuto);
  if (!kern::SimdAvailable()) {
    EXPECT_STREQ(active.name, scalar.name);
  }
  // Forcing scalar always returns the reference table.
  EXPECT_STREQ(kern::ActiveKernels(SimdMode::kScalar).name, "scalar");
  // Chunk layout is a pure function of the element count.
  EXPECT_EQ(kern::ChunksFor(0), 0u);
  EXPECT_EQ(kern::ChunksFor(100), 1u);
  EXPECT_GT(kern::ChunksFor(1u << 20), 1u);
  const size_t total = 1000003, chunks = kern::ChunksFor(total);
  EXPECT_EQ(kern::ChunkBound(total, chunks, 0), 0u);
  EXPECT_EQ(kern::ChunkBound(total, chunks, chunks), total);
  for (size_t c = 0; c < chunks; ++c) {
    EXPECT_LE(kern::ChunkBound(total, chunks, c),
              kern::ChunkBound(total, chunks, c + 1));
  }
}

}  // namespace
}  // namespace asap
