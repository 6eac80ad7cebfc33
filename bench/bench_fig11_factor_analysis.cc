// Figure 11: factor analysis and lesion study of ASAP's three
// optimizations on machine_temp under 2000 px and 5000 px displays.
//
//   Factor analysis (left panel): enable optimizations cumulatively —
//     Baseline  : no preaggregation, exhaustive search, refresh / point
//     +Pixel    : + pixel-aware preaggregation (refresh / pane)
//     +AC       : + autocorrelation-pruned (ASAP) search
//     +Lazy     : + on-demand updates (refresh once per simulated day,
//                 288 points, matching the paper's daily interval)
//
//   Lesion study (right panel): disable one optimization at a time
//   from the full configuration.
//
// Expensive configurations are measured under a wall-clock budget on a
// looped stream with a prefilled window (marginal throughput), which
// is how order-of-magnitude gaps stay measurable.

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/streaming_asap.h"
#include "datasets/datasets.h"
#include "stream/source.h"

namespace {

struct Config {
  const char* name;
  bool pixel;
  bool ac;
  bool lazy;
};

double MeasureThroughput(const std::vector<double>& data, size_t resolution,
                         const Config& config) {
  asap::StreamingOptions options;
  options.resolution = resolution;
  options.visible_points = data.size();
  options.enable_preaggregation = config.pixel;
  options.strategy = config.ac ? asap::SearchStrategy::kAsap
                               : asap::SearchStrategy::kExhaustive;
  // Lazy: refresh daily (288 points); otherwise per pane (0 = default),
  // or per point when preaggregation is off.
  options.refresh_every_points = config.lazy ? 288 : (config.pixel ? 0 : 1);

  asap::StreamingAsap op = asap::StreamingAsap::Create(options).ValueOrDie();
  op.Prefill(data);
  asap::stream::LoopingSource source(data, /*total_points=*/200'000'000);
  // Per-point batches for configurations that refresh on every point:
  // the budget is only checked between batches, and one refresh of an
  // unoptimized configuration costs ~0.1 s.
  const size_t batch_size =
      options.refresh_every_points == 1 ? 1 : 64;
  return asap::bench::PushBatchForBudget(&source, &op,
                                         /*budget_seconds=*/1.2, batch_size);
}

}  // namespace

int main() {
  using asap::bench::Banner;
  using asap::bench::FmtEng;
  using asap::bench::Row;
  using asap::bench::Rule;

  Banner(
      "Figure 11: factor analysis (cumulative) and lesion study of\n"
      "ASAP's optimizations on machine_temp — throughput in pts/s");

  const asap::datasets::Dataset ds = asap::datasets::MakeMachineTemp();
  const std::vector<double>& data = ds.series.values();
  const std::vector<size_t> resolutions = {2000, 5000};

  const Config cumulative[] = {
      {"Baseline", false, false, false},
      {"+Pixel", true, false, false},
      {"+AC", true, true, false},
      {"+Lazy", true, true, true},
  };
  const Config lesions[] = {
      {"no Pixel", false, true, true},
      {"no AC", true, false, true},
      {"no Lazy", true, true, false},
      {"ASAP (full)", true, true, true},
  };

  std::printf("\n-- Factor analysis (enable cumulatively) --\n");
  Row({"Config", "2000px (pts/s)", "5000px (pts/s)"}, 18);
  Rule(3, 18);
  double baseline_2000 = 0.0;
  double full_2000 = 0.0;
  for (const Config& config : cumulative) {
    std::vector<std::string> cells = {config.name};
    for (size_t resolution : resolutions) {
      const double tput = MeasureThroughput(data, resolution, config);
      cells.push_back(FmtEng(tput));
      if (resolution == 2000 && std::string(config.name) == "Baseline") {
        baseline_2000 = tput;
      }
      if (resolution == 2000 && std::string(config.name) == "+Lazy") {
        full_2000 = tput;
      }
    }
    Row(cells, 18);
  }

  std::printf("\n-- Lesion study (disable one at a time) --\n");
  Row({"Config", "2000px (pts/s)", "5000px (pts/s)"}, 18);
  Rule(3, 18);
  for (const Config& config : lesions) {
    std::vector<std::string> cells = {config.name};
    for (size_t resolution : resolutions) {
      cells.push_back(FmtEng(MeasureThroughput(data, resolution, config)));
    }
    Row(cells, 18);
  }

  if (baseline_2000 > 0.0) {
    std::printf(
        "\nShape check: fully optimized ASAP is %.0fx faster than the\n"
        "unoptimized baseline at 2000 px.\n",
        full_2000 / baseline_2000);
  }
  std::printf(
      "Paper reference: each optimization contributes multiplicatively;\n"
      "combined ~7 orders of magnitude over baseline (0.01 -> 113K\n"
      "pts/s at 2000 px); removing any one optimization costs 2-3\n"
      "orders of magnitude; without preaggregation the two resolutions\n"
      "perform identically.\n");
  return 0;
}
