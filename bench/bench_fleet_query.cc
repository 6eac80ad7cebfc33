// Fleet query-tier throughput: the read side of the fleet engine under
// dashboard load. Measures SeriesSelector matching over interned names
// (glob vs regex vs the all-selector), catalog Select() sweeps, and
// the whole-frame rollup queries (percentile bands, roughness ranking,
// anomaly counts, history diffs, change ranking) against a live-run
// fleet. The two rollups that read cached frame summaries are timed
// cold (every summary computed) and warm (every summary cached). The
// percentile bands are also timed single-threaded against the
// sort-based rollup, on the fleet (gated) and in the member x position
// geometries of the perfbench dashboard slices (reported).
//
//   $ ./bench_fleet_query [scale]
//
// `scale` multiplies the fleet size (default 1 -> 512 series). Exits
// nonzero if glob selector matching drops below the 1M matches/s CI
// floor — the selector sits on every scoped query, so its regression
// is a query-tier regression.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/exec_policy.h"
#include "common/random.h"
#include "core/series_context.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace {

using asap::stream::FleetPercentileBands;
using asap::stream::FleetSample;
using asap::stream::FleetView;
using asap::stream::SampledSeries;
using asap::stream::SeriesCatalog;
using asap::stream::SeriesId;
using asap::stream::SeriesSelector;

std::string HostName(size_t index) {
  // dcN/rackNN/host-NNN/cpu — deep enough that glob matching does
  // real work per name.
  char name[64];
  std::snprintf(name, sizeof(name), "dc%zu/rack%02zu/host-%03zu/cpu",
                index % 4, index % 16, index);
  return name;
}

/// Match throughput of one compiled selector over every interned name.
double MatchesPerSecond(const SeriesSelector& selector,
                        const SeriesCatalog& catalog, size_t rounds,
                        size_t* matched_out) {
  // Resolve names once: the bench measures the matcher, not the
  // catalog's shared-lock NameOf (Select() sweeps cover that below).
  std::vector<std::string_view> names;
  names.reserve(catalog.size());
  for (SeriesId id = 0; static_cast<size_t>(id) < catalog.size(); ++id) {
    names.push_back(catalog.NameOf(id));
  }
  size_t matched = 0;
  const double seconds = asap::bench::TimeBest(
      [&] {
        matched = 0;
        for (size_t round = 0; round < rounds; ++round) {
          for (const std::string_view name : names) {
            matched += selector.Matches(name) ? 1 : 0;
          }
        }
      },
      3);
  *matched_out = matched;
  return static_cast<double>(rounds * names.size()) / seconds;
}

/// The pre-optimization percentile-band rollup, kept verbatim as the
/// throughput baseline the kernel rewrite is gated against: for every
/// pane position, gather the member column, fully std::sort it, and
/// interpolate the three percentiles. FleetView::BandsOf must return
/// bitwise-identical bands (the exec_parity_test pins that) at a
/// multiple of this throughput (the floor below).
FleetPercentileBands BaselineBands(const FleetSample& sample) {
  FleetPercentileBands bands;
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

/// The same members over fresh copies of their frames: a copy starts
/// with no summary, so a rollup over it computes every one, as the
/// first dashboard tick after each series' refresh does.
FleetSample FreshCopies(const FleetSample& sample) {
  FleetSample copy = sample;
  for (SampledSeries& member : copy.series) {
    member.frame =
        std::make_shared<const asap::StreamingAsap::Frame>(*member.frame);
  }
  return copy;
}

/// `members` published frames of `positions` points each: noisy
/// seasonal series with a per-member level, the shape of a dashboard
/// slice's smoothed frames.
FleetSample GeometrySample(size_t members, size_t positions) {
  FleetSample sample;
  for (size_t s = 0; s < members; ++s) {
    asap::Pcg32 rng(700 + s);
    auto frame = std::make_shared<asap::StreamingAsap::Frame>();
    frame->series = asap::gen::Add(
        asap::gen::Sine(positions, 48.0 + static_cast<double>(s % 7), 1.0),
        asap::gen::WhiteNoise(&rng, positions, 0.4));
    for (double& v : frame->series) {
      v += 0.05 * static_cast<double>(s);
    }
    frame->refreshes = 1;
    sample.series.push_back(
        SampledSeries{std::string_view(), static_cast<SeriesId>(s),
                      std::move(frame)});
  }
  return sample;
}

/// Best of `reps` timings of `rollup` over fresh frame copies of
/// `sample`, each made outside the timed call.
double TimeBestCold(const FleetSample& sample,
                    const std::function<void(const FleetSample&)>& rollup,
                    int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const FleetSample copies = FreshCopies(sample);
    best = std::min(best,
                    asap::bench::TimeBest([&] { rollup(copies); }, 1));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using asap::bench::Banner;
  using asap::bench::Fmt;
  using asap::bench::FmtEng;
  using asap::bench::Row;
  using asap::bench::Rule;

  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  const size_t kSeries = static_cast<size_t>(512 * scale);
  const size_t kPointsPerSeries = 4000;

  Banner("Fleet query tier: selector matching and whole-frame rollups\n"
         "over a " +
         std::to_string(kSeries) + "-series fleet");

  // A live fleet with published frames and a 4-deep snapshot ring, so
  // rollups and history diffs measure real query work.
  asap::StreamingOptions series_options;
  series_options.resolution = 100;
  series_options.visible_points = 2000;
  series_options.refresh_every_points = 500;
  series_options.snapshot_ring_frames = 4;
  asap::stream::ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  asap::stream::ShardedEngine engine =
      asap::stream::ShardedEngine::Create(series_options, engine_options)
          .ValueOrDie();
  asap::stream::InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < kSeries; ++i) {
    asap::Pcg32 rng(31 + i);
    source.AddVector(
        HostName(i),
        asap::gen::Add(asap::gen::Sine(kPointsPerSeries, 48.0, 1.0),
                       asap::gen::WhiteNoise(&rng, kPointsPerSeries, 0.4)));
  }
  engine.RunToCompletion(&source);
  const SeriesCatalog& catalog = *engine.catalog();
  const FleetView view(&engine);

  // --- Selector matching over interned names ------------------------------
  Row({"Selector", "Pattern", "Matches/s", "Hit rate"}, 18);
  Rule(4, 18);
  const size_t kRounds = 200;
  double glob_rate = 0.0;
  struct SelectorCase {
    const char* label;
    SeriesSelector selector;
  };
  const SelectorCase cases[] = {
      {"all", SeriesSelector::All()},
      {"glob prefix", SeriesSelector::Glob("dc1/*")},
      {"glob suffix", SeriesSelector::Glob("*/cpu")},
      {"glob nested", SeriesSelector::Glob("dc?/rack0*/host-*/cpu")},
      {"regex", SeriesSelector::Regex("dc1/rack[0-9]+/.*/cpu").ValueOrDie()},
  };
  for (const SelectorCase& c : cases) {
    size_t matched = 0;
    const double rate = MatchesPerSecond(c.selector, catalog, kRounds,
                                         &matched);
    if (std::string(c.label) == "glob nested") {
      glob_rate = rate;
    }
    const double hit = static_cast<double>(matched) /
                       static_cast<double>(kRounds * catalog.size());
    Row({c.label,
         c.selector.pattern().empty() ? "<all>" : c.selector.pattern(),
         FmtEng(rate), Fmt(100.0 * hit, 1) + "%"},
        18);
  }

  // --- Catalog sweeps and whole-frame rollups -----------------------------
  const SeriesSelector dc1 = SeriesSelector::Glob("dc1/*");
  std::vector<SeriesId> ids;
  const double select_seconds =
      asap::bench::TimeBest([&] { dc1.SelectInto(catalog, &ids); }, 5);
  const double sample_seconds =
      asap::bench::TimeBest([&] { (void)view.Sample(dc1); }, 5);
  const asap::ExecPolicy& policy = view.exec_policy();
  const double bands_seconds = asap::bench::TimeBest(
      [&] { (void)FleetView::BandsOf(view.Sample(dc1), policy); }, 5);
  // Summary readers, over one sample taken outside the timing: cold on
  // fresh frame copies, warm on the sample's own frames once a first
  // call has cached their summaries. Timing warm reads alone, best of
  // five would silently pick a cached read after the first.
  const FleetSample dc1_sample = view.Sample(dc1);
  const auto topk = [&](const FleetSample& sample) {
    (void)FleetView::TopKByRoughnessOf(sample, 10, policy);
  };
  const auto anomalies = [&](const FleetSample& sample) {
    (void)FleetView::AnomalyCountsOf(sample, {}, policy);
  };
  const double topk_cold_seconds = TimeBestCold(dc1_sample, topk, 5);
  const double anomaly_cold_seconds = TimeBestCold(dc1_sample, anomalies, 5);
  topk(dc1_sample);
  anomalies(dc1_sample);
  const double topk_warm_seconds =
      asap::bench::TimeBest([&] { topk(dc1_sample); }, 5);
  const double anomaly_warm_seconds =
      asap::bench::TimeBest([&] { anomalies(dc1_sample); }, 5);
  const double change_seconds =
      asap::bench::TimeBest([&] { (void)view.TopKByChange(10, 3, dc1); }, 5);
  const double diff_seconds = asap::bench::TimeBest(
      [&] {
        for (size_t i = 0; i < 64; ++i) {
          (void)view.DiffHistory(HostName(i), 3);
        }
      },
      5);

  std::printf("\n");
  Row({"Query (dc1 slice)", "Time/query", "Queries/s"}, 18);
  Rule(3, 18);
  const auto query_row = [](const char* label, double seconds) {
    Row({label, asap::bench::Fmt(seconds * 1e3, 3) + " ms",
         asap::bench::FmtEng(1.0 / seconds)},
        18);
  };
  query_row("SelectInto", select_seconds);
  query_row("Sample", sample_seconds);
  query_row("BandsOf", bands_seconds);
  query_row("TopKRough cold", topk_cold_seconds);
  query_row("TopKRough warm", topk_warm_seconds);
  query_row("Anomalies cold", anomaly_cold_seconds);
  query_row("Anomalies warm", anomaly_warm_seconds);
  query_row("TopKByChange", change_seconds);
  query_row("DiffHistory x64", diff_seconds);
  Rule(3, 18);

  std::printf(
      "\nMatching runs each compiled selector over every interned name\n"
      "(%zu series); rollups run against live published frames with a\n"
      "4-deep snapshot ring. BandsOf includes taking its sample and\n"
      "covers every pane position of every selected frame. The\n"
      "TopKRough (TopKByRoughnessOf, k = 10) and Anomalies\n"
      "(AnomalyCountsOf) rows read each frame's cached summary and run\n"
      "over a sample taken beforehand: cold rows over fresh frame\n"
      "copies, so every roughness and median/MAD baseline is computed,\n"
      "as on the first tick after a refresh; warm rows once the\n"
      "summaries are cached, as on every later tick. Warm Anomalies\n"
      "scans only frames with a point at or past the threshold.\n",
      catalog.size());

  // --- Rollup kernel floors -----------------------------------------------
  //
  // The optimized percentile-band rollup (tiled transpose gather +
  // bucketed order-statistic selection, core/kernels dispatch) is
  // gated at >= 4x the throughput of the sort-based baseline it
  // replaced, single-threaded, on the same sample. Both produce
  // bitwise-identical bands (exec_parity_test), so the ratio isolates
  // the kernel work. Sequential execution keeps the gate deterministic
  // across CI core counts.
  const FleetSample rollup_sample = view.Sample(SeriesSelector::All());
  asap::ExecPolicy sequential;
  sequential.threads = 1;
  const double baseline_seconds =
      asap::bench::TimeBest([&] { (void)BaselineBands(rollup_sample); }, 5);
  const double optimized_seconds = asap::bench::TimeBest(
      [&] { (void)FleetView::BandsOf(rollup_sample, sequential); }, 5);
  const double rollup_ratio = baseline_seconds / optimized_seconds;

  // The same single-threaded comparison in the dashboard slice
  // geometries of the perfbench workloads (members x pane positions).
  // Small samples are where per-column overhead shows; these rows are
  // reported, not gated.
  struct Geometry {
    const char* label;
    size_t members;
    size_t positions;
  };
  const Geometry geometries[] = {
      {"refresh_bound", 16, 2000},
      {"firehose", 63, 400},
      {"dashboard", 256, 400},
  };
  std::printf("\n");
  Row({"Bands geometry", "Members x pos", "BandsOf", "Sort-based", "Ratio"},
      16);
  Rule(5, 16);
  for (const Geometry& g : geometries) {
    const FleetSample sample = GeometrySample(g.members, g.positions);
    const double base =
        asap::bench::TimeBest([&] { (void)BaselineBands(sample); }, 7);
    const double fast = asap::bench::TimeBest(
        [&] { (void)FleetView::BandsOf(sample, sequential); }, 7);
    Row({g.label,
         std::to_string(g.members) + " x " + std::to_string(g.positions),
         Fmt(fast * 1e6, 1) + " us", Fmt(base * 1e6, 1) + " us",
         Fmt(base / fast, 2) + "x"},
        16);
  }
  Rule(5, 16);

  // Smoothing-kernel latency at scale: one fused ScoreWindow pass over
  // a 10M-point series (the per-candidate unit of every window
  // search). The floor is ~8x the tuned single-core time, so it trips
  // on a kernel regression, not on a slow CI runner.
  constexpr size_t kSmoothN = 10'000'000;
  asap::Pcg32 smooth_rng(99);
  const std::vector<double> smooth_x = asap::gen::Add(
      asap::gen::Sine(kSmoothN, 480.0, 1.0),
      asap::gen::WhiteNoise(&smooth_rng, kSmoothN, 0.4));
  asap::SeriesContext smooth_ctx(smooth_x);
  const double smooth_seconds = asap::bench::TimeBest(
      [&] { (void)asap::ScoreWindow(smooth_ctx, kSmoothN / 2000); }, 3);

  std::printf("\n");
  Row({"Kernel floor", "Time", "Floor", "Status"}, 18);
  Rule(4, 18);
  const bool rollup_ok = rollup_ratio >= 4.0;
  const bool smooth_ok = smooth_seconds <= 0.120;
  Row({"Bands vs sort-based", Fmt(rollup_ratio, 2) + "x",
       ">= 4.00x", rollup_ok ? "ok" : "FAIL"},
      18);
  Row({"ScoreWindow 10M", Fmt(smooth_seconds * 1e3, 1) + " ms",
       "<= 120.0 ms", smooth_ok ? "ok" : "FAIL"},
      18);
  Rule(4, 18);

  bool failed = false;
  if (glob_rate < 1e6) {
    std::printf("\nWARNING: glob selector matching below 1M matches/s.\n");
    failed = true;
  }
  if (!rollup_ok) {
    std::printf(
        "\nWARNING: percentile-band rollup below 4x the sort-based "
        "baseline.\n");
    failed = true;
  }
  if (!smooth_ok) {
    std::printf(
        "\nWARNING: 10M-point ScoreWindow above the 120 ms latency "
        "floor.\n");
    failed = true;
  }
  return failed ? 1 : 0;
}
