// Google-benchmark microbenches for libasap's hot kernels: FFT,
// autocorrelation, SMA, candidate evaluation, the end-to-end Smooth()
// operator, the streaming ingest and refresh paths, and the reduction
// baselines.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "baselines/m4.h"
#include "baselines/paa.h"
#include "baselines/visvalingam.h"
#include "common/random.h"
#include "core/kernels.h"
#include "core/search.h"
#include "core/series_context.h"
#include "core/smooth.h"
#include "core/streaming_asap.h"
#include "fft/autocorrelation.h"
#include "fft/fft.h"
#include "ts/generators.h"
#include "window/sma.h"

namespace {

std::vector<double> MakeSignal(size_t n) {
  asap::Pcg32 rng(n);
  return asap::gen::Add(asap::gen::Sine(n, 48.0, 1.0),
                        asap::gen::WhiteNoise(&rng, n, 0.4));
}

void BM_FftRadix2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  asap::Pcg32 rng(7);
  std::vector<asap::fft::Complex> data(n);
  for (auto& c : data) {
    c = asap::fft::Complex(rng.Uniform(-1, 1), 0.0);
  }
  for (auto _ : state) {
    std::vector<asap::fft::Complex> copy = data;
    asap::fft::TransformRadix2(&copy, false);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftRadix2)->Range(1 << 10, 1 << 20);

void BM_FftBluestein(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0)) - 1;  // odd size
  asap::Pcg32 rng(7);
  std::vector<asap::fft::Complex> data(n);
  for (auto& c : data) {
    c = asap::fft::Complex(rng.Uniform(-1, 1), 0.0);
  }
  for (auto _ : state) {
    std::vector<asap::fft::Complex> copy = data;
    asap::fft::TransformBluestein(&copy, false);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftBluestein)->Range(1 << 10, 1 << 16);

void BM_AutocorrelationFft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::fft::AutocorrelationFft(x, n / 10));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AutocorrelationFft)->Range(1 << 10, 1 << 20);

void BM_Sma(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::window::Sma(x, n / 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Sma)->Range(1 << 10, 1 << 20);

void BM_EvaluateWindow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::EvaluateWindow(x, n / 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EvaluateWindow)->Range(1 << 10, 1 << 16);

// --- Naive vs fused candidate evaluation -------------------------------------
//
// The pair below measures the SeriesContext re-platform head to head:
// identical window, identical series, one naive materialize+multi-pass
// evaluation vs one fused allocation-free ScoreWindow pass. Context
// construction is excluded (it is amortized over every candidate of a
// search); run with --benchmark_filter='WindowScore' to see the ratio.
void BM_WindowScoreNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::EvaluateWindow(x, n / 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_WindowScoreNaive)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_WindowScoreFused(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  asap::SeriesContext ctx(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::ScoreWindow(ctx, n / 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_WindowScoreFused)->Arg(10000)->Arg(100000)->Arg(1000000);

// Same comparison through the full search stack: AsapSearch with the
// fused evaluator vs the same search forced onto the naive evaluator.
// Note both sides pay SeriesContext construction (the public search
// entry points always build one), so this measures the end-to-end
// search as shipped in each mode; the per-candidate kernel ratio is
// the WindowScore pair above.
void BM_AsapSearchNaiveEvaluator(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  asap::SearchOptions options;
  options.use_naive_evaluator = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::AsapSearch(x, options));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AsapSearchNaiveEvaluator)->Range(1 << 10, 1 << 13);

void BM_AsapSearch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::AsapSearch(x, {}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AsapSearch)->Range(1 << 10, 1 << 13);

void BM_SmoothEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  asap::SmoothOptions options;
  options.resolution = 800;
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::Smooth(x, options).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SmoothEndToEnd)->Range(1 << 12, 1 << 20);

void BM_M4Reduce(benchmark::State& state) {
  std::vector<double> x = MakeSignal(1 << 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::baselines::M4Reduce(x, 1200));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_M4Reduce);

void BM_PaaReduce(benchmark::State& state) {
  std::vector<double> x = MakeSignal(1 << 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::baselines::PaaReduce(x, 1200));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_PaaReduce);

void BM_VisvalingamSimplify(benchmark::State& state) {
  std::vector<double> x = MakeSignal(1 << 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(asap::baselines::VisvalingamSimplify(x, 800));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 15));
}
BENCHMARK(BM_VisvalingamSimplify);

// --- Scalar vs SIMD kernel table ---------------------------------------------
//
// Side-by-side pairs for each dispatched kernel: the same work through
// kern::ScalarKernels() and through kern::ActiveKernels(), the widest
// table the build and CPU support (identical results by contract — see
// core/kernels.h — so the pair isolates the vectorization win). On a
// host without AVX2/NEON, or in a -DASAP_DISABLE_SIMD=ON build, the
// Simd variants measure scalar again.
// Run with --benchmark_filter='ScoreWindow(Scalar|Simd)|AbsDelta' for
// just these.

// The moment pass of ScoreWindow(ctx, n / 20) as one score_segment
// call over smoothed positions [1, m), the range ScoreWindow splits
// into chunks (position 0 seeds the sums outside the kernel).
void BM_ScalarVsSimd_ScoreWindow(benchmark::State& state,
                                 const asap::kern::KernelTable& kt) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(n);
  asap::SeriesContext ctx(x);
  const size_t w = n / 20;
  const size_t m = n - w + 1;
  const double* prefix = ctx.prefix();
  const double* prefix2 = ctx.prefix2();
  const double inv_w = 1.0 / static_cast<double>(w);
  const double mean_u = (prefix2[n + 1] - prefix2[w] - prefix2[m]) * inv_w /
                        static_cast<double>(m);
  const double mean_d = ((prefix[n] - prefix[m - 1]) - prefix[w]) * inv_w /
                        static_cast<double>(m - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kt.score_segment(prefix, w, inv_w, mean_u, mean_d, 1, m));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
void BM_ScoreWindowScalar(benchmark::State& state) {
  BM_ScalarVsSimd_ScoreWindow(state, asap::kern::ScalarKernels());
}
void BM_ScoreWindowSimd(benchmark::State& state) {
  BM_ScalarVsSimd_ScoreWindow(state, asap::kern::ActiveKernels());
}
BENCHMARK(BM_ScoreWindowScalar)->Arg(100000)->Arg(1000000)->Arg(10000000);
BENCHMARK(BM_ScoreWindowSimd)->Arg(100000)->Arg(1000000)->Arg(10000000);

void BM_ScalarVsSimd_AbsDelta(benchmark::State& state,
                              const asap::kern::KernelTable& kt) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> newer = MakeSignal(n);
  const std::vector<double> older = MakeSignal(n + 1);
  std::vector<double> delta(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kt.abs_delta(newer.data(), older.data(), n, delta.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
void BM_AbsDeltaScalar(benchmark::State& state) {
  BM_ScalarVsSimd_AbsDelta(state, asap::kern::ScalarKernels());
}
void BM_AbsDeltaSimd(benchmark::State& state) {
  BM_ScalarVsSimd_AbsDelta(state, asap::kern::ActiveKernels());
}
BENCHMARK(BM_AbsDeltaScalar)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_AbsDeltaSimd)->Arg(1 << 16)->Arg(1 << 20);

// Streaming ingest: per-point Push vs the pane-granular PushBatch
// fast path, at a lazy refresh cadence where ingest (not the window
// search) dominates. range(0) is the batch size handed to the
// operator per call.

asap::StreamingAsap MakeIngestOperator() {
  asap::StreamingOptions options;
  options.resolution = 400;
  options.visible_points = 8000;
  options.refresh_every_points = 100000;  // ingest-bound
  return asap::StreamingAsap::Create(options).ValueOrDie();
}

void BM_StreamingIngestPerPointPush(benchmark::State& state) {
  const size_t chunk = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(chunk);
  asap::StreamingAsap op = MakeIngestOperator();
  for (auto _ : state) {
    for (double v : x) {
      benchmark::DoNotOptimize(op.Push(v));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(chunk));
}
BENCHMARK(BM_StreamingIngestPerPointPush)->Range(1 << 10, 1 << 16);

void BM_StreamingIngestPushBatch(benchmark::State& state) {
  const size_t chunk = static_cast<size_t>(state.range(0));
  std::vector<double> x = MakeSignal(chunk);
  asap::StreamingAsap op = MakeIngestOperator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.PushBatch(x.data(), x.size()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(chunk));
}
BENCHMARK(BM_StreamingIngestPushBatch)->Range(1 << 10, 1 << 16);

// Streaming refresh: the cost of one refresh (ACF, context rebuild,
// warm-started search, frame publish) at the pipeline benchmark's two
// refresh geometries, 400 and 2000 visible panes (range(0)) of 10
// points each, in timed-pane mode, refreshing every range(1) panes.
// The window starts full (restored panes); each iteration pushes one
// refresh interval of panes, so the time per iteration is one refresh
// plus the ingest of its panes. At one pane per refresh the operator
// slides its ACF (refresh_bound's geometry at 2000); at 400 it runs
// the FFT at every refresh (firehose's cadence).
void BM_StreamingRefresh(benchmark::State& state) {
  const size_t panes = static_cast<size_t>(state.range(0));
  const size_t interval = static_cast<size_t>(state.range(1));
  const size_t pane_size = 10;
  asap::StreamingOptions options;
  options.resolution = panes;
  options.visible_points = panes * pane_size;
  options.refresh_every_points = interval * pane_size;
  options.pane_width_ticks = static_cast<int64_t>(pane_size);
  asap::StreamingAsap op = asap::StreamingAsap::Create(options).ValueOrDie();

  const std::vector<double> x = MakeSignal(2 * panes * pane_size);
  std::vector<double> means(panes);
  for (size_t p = 0; p < panes; ++p) {
    double sum = 0.0;
    for (size_t i = 0; i < pane_size; ++i) {
      sum += x[p * pane_size + i];
    }
    means[p] = sum / static_cast<double>(pane_size);
  }
  op.RestorePanes(means.data(), panes, /*cadenced=*/false);

  // Live panes cycle through the signal; timestamps keep rising.
  const size_t points = interval * pane_size;
  std::vector<int64_t> ts(points);
  int64_t next_ts = static_cast<int64_t>(panes * pane_size);
  size_t offset = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < points; ++i) {
      ts[i] = next_ts++;
    }
    benchmark::DoNotOptimize(op.PushTimed(x.data() + offset, ts.data(), points));
    offset = (offset + points) % x.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingRefresh)->Args({400, 1})->Args({2000, 1})->Args({400, 400});

}  // namespace

BENCHMARK_MAIN();
