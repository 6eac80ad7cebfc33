// Fleet-scale throughput: aggregate points/second of the sharded
// engine as a function of shard count and concurrent series count.
// This is the scaling wall the fleet engine removes — one
// StreamingAsap on one thread caps at single-core refresh throughput
// no matter how many metrics a deployment needs smoothed.
//
// Methodology: each series is a looped synthetic host metric; every
// operator is prefilled to a full visible window so refreshes pay
// steady-state cost from the first point. The producer runs under a
// fixed wall-clock budget; queued batches drain before the clock
// stops, so reported points/sec includes all consumed work.
//
// A second table takes the pipeline benchmark's firehose shape (4096
// timed series on 2 shards, one record per series per tick) and
// reports what one record costs a shard worker, once with every
// series' state created by the workers and once with every state
// created by RestoreSeries on the caller's thread first. The two rows
// should match: where a state lives must not depend on which thread
// made it.
//
//   $ ./bench_multiseries_scaling [budget_seconds]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace {

std::vector<double> HostMetric(size_t index, size_t n) {
  asap::Pcg32 rng(77 + index);
  const double period = 32.0 + 4.0 * static_cast<double>(index % 13);
  return asap::gen::Add(asap::gen::Sine(n, period, 1.0),
                        asap::gen::WhiteNoise(&rng, n, 0.4));
}

std::string HostName(size_t index) {
  return "host-" + std::to_string(index);
}

// Per-shard busy time per record in the firehose shape, with the
// series' states created by the shard workers (a live warm-up run) or
// by RestoreSeries. Both warm every series to a full visible window
// and then time one budgeted run whose ticks continue the window's.
void CreatorTable(double budget_seconds) {
  using asap::bench::Fmt;
  using asap::bench::FmtEng;
  using asap::bench::Row;
  using asap::bench::Rule;

  constexpr size_t kSeries = 4096;
  constexpr size_t kShards = 2;
  constexpr size_t kCycle = 256;  // ticks before a payload repeats
  asap::StreamingOptions options;
  options.resolution = 400;
  options.visible_points = 4000;
  options.refresh_every_points = 4000;
  options.pane_width_ticks = 10;
  const size_t window_ticks = options.visible_points;
  const size_t pane_ticks = static_cast<size_t>(options.pane_width_ticks);

  std::vector<std::vector<double>> payloads;
  payloads.reserve(kSeries);
  for (size_t i = 0; i < kSeries; ++i) {
    payloads.push_back(HostMetric(i, kCycle));
  }

  std::printf(
      "\nShard cost per record by state creator: %zu timed series on %zu "
      "shards,\none record per series per tick (the firehose shape), "
      "budget %ss/run\n\n",
      kSeries, kShards, Fmt(budget_seconds, 1).c_str());
  Row({"Created by", "Shard 0 ns", "Shard 1 ns", "Points/sec"}, 16);
  Rule(4, 16);
  for (const bool restored : {false, true}) {
    asap::stream::ShardedEngineOptions engine_options;
    engine_options.shards = kShards;
    engine_options.batch_size = kSeries;  // one record per series
    asap::stream::ShardedEngine engine =
        asap::stream::ShardedEngine::Create(options, engine_options)
            .ValueOrDie();
    if (restored) {
      std::vector<double> means(window_ticks / pane_ticks);
      for (size_t i = 0; i < kSeries; ++i) {
        for (size_t p = 0; p < means.size(); ++p) {
          double sum = 0.0;
          for (size_t t = p * pane_ticks; t < (p + 1) * pane_ticks; ++t) {
            sum += payloads[i][t % kCycle];
          }
          means[p] = sum / static_cast<double>(pane_ticks);
        }
        const asap::Status st = engine.RestoreSeries(
            HostName(i), means.data(), means.size(), /*cadenced=*/true);
        if (!st.ok()) {
          std::fprintf(stderr, "restore: %s\n", st.ToString().c_str());
          std::exit(1);
        }
      }
    } else {
      asap::stream::InterleavingMultiSource warmup(engine.catalog());
      warmup.StampTimestamps(/*epoch=*/0, /*tick=*/1);
      for (size_t i = 0; i < kSeries; ++i) {
        warmup.AddLooping(HostName(i), payloads[i], window_ticks);
      }
      engine.RunToCompletion(&warmup);
    }

    asap::stream::InterleavingMultiSource source(engine.catalog());
    source.StampTimestamps(static_cast<int64_t>(window_ticks), /*tick=*/1);
    for (size_t i = 0; i < kSeries; ++i) {
      source.AddLooping(HostName(i), payloads[i],
                        /*total_points=*/size_t{1} << 40);
    }
    const asap::stream::FleetReport report =
        engine.RunForBudget(&source, budget_seconds);
    std::vector<std::string> cells = {restored ? "RestoreSeries"
                                               : "shard workers"};
    for (const asap::stream::ShardReport& shard : report.shards) {
      cells.push_back(
          shard.points == 0
              ? "-"
              : Fmt(shard.busy_seconds * 1e9 /
                        static_cast<double>(shard.points),
                    1));
    }
    cells.push_back(FmtEng(report.points_per_second));
    Row(cells, 16);
  }
  Rule(4, 16);
}

}  // namespace

int main(int argc, char** argv) {
  using asap::bench::Banner;
  using asap::bench::Fmt;
  using asap::bench::FmtEng;
  using asap::bench::Row;
  using asap::bench::Rule;

  const double budget_seconds = argc > 1 ? std::atof(argv[1]) : 0.6;
  const unsigned hw_threads = std::thread::hardware_concurrency();

  Banner("Fleet scaling: aggregate throughput vs shard count vs series\n"
         "count (sharded engine, prefilled windows, budget " +
         Fmt(budget_seconds, 1) + "s/run; " +
         std::to_string(hw_threads) + " hardware threads)");

  asap::StreamingOptions series_options;
  series_options.resolution = 400;
  series_options.visible_points = 8000;
  series_options.refresh_every_points = 2000;

  const std::vector<size_t> series_counts = {64, 256};
  const std::vector<size_t> shard_counts = {1, 2, 4, 8};

  Row({"Series", "Shards", "Points/sec", "Refreshes", "Speedup vs 1"}, 14);
  Rule(5, 14);

  for (size_t series_count : series_counts) {
    // One payload per series, shared across shard configurations so
    // every run smooths identical data.
    std::vector<std::vector<double>> payloads;
    payloads.reserve(series_count);
    for (size_t i = 0; i < series_count; ++i) {
      payloads.push_back(HostMetric(i, 8000));
    }

    double base_throughput = 0.0;
    for (size_t shards : shard_counts) {
      asap::stream::ShardedEngineOptions engine_options;
      engine_options.shards = shards;
      engine_options.batch_size = 8192;
      // Deep queues keep workers fed across producer scheduling gaps
      // (matters most when shards exceed hardware threads).
      engine_options.queue_capacity = 64;
      asap::stream::ShardedEngine engine =
          asap::stream::ShardedEngine::Create(series_options, engine_options)
              .ValueOrDie();

      // Prefill every operator with a full visible window, then loop
      // the payloads for the measured run.
      asap::stream::InterleavingMultiSource warmup(engine.catalog());
      for (size_t i = 0; i < series_count; ++i) {
        warmup.AddVector(HostName(i), payloads[i]);
      }
      engine.RunToCompletion(&warmup);

      asap::stream::InterleavingMultiSource source(engine.catalog());
      for (size_t i = 0; i < series_count; ++i) {
        source.AddLooping(HostName(i), payloads[i],
                          /*total_points=*/size_t{1} << 40);
      }
      const asap::stream::FleetReport report =
          engine.RunForBudget(&source, budget_seconds);

      if (shards == 1) {
        base_throughput = report.points_per_second;
      }
      const double speedup = base_throughput > 0.0
                                 ? report.points_per_second / base_throughput
                                 : 0.0;
      Row({std::to_string(series_count), std::to_string(shards),
           FmtEng(report.points_per_second),
           std::to_string(report.refreshes), Fmt(speedup, 2) + "x"},
          14);
    }
    Rule(5, 14);
  }

  std::printf(
      "\nEach series is pinned to one shard by hash, so scaling comes\n"
      "from parallel refresh work across shards; expect near-linear\n"
      "speedup up to the hardware thread count, flat beyond it.\n");

  CreatorTable(budget_seconds);
  return 0;
}
