// Tests for FleetView, the name-addressed query tier over the fleet
// engine's published frames: per-name frame/history reads,
// ForEachSeries enumeration, and the sample-then-rollup path
// (top-k-by-roughness ranking, cross-series aggregates) — including
// concurrent queries while a run is in flight (the TSan CI job runs
// this binary).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/metrics.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace asap {
namespace stream {
namespace {

std::vector<double> FleetSeries(size_t index, size_t n) {
  Pcg32 rng(1000 + index);
  const double period = 24.0 + 8.0 * static_cast<double>(index % 7);
  return gen::Add(gen::Sine(n, period, 1.0 + 0.1 * index),
                  gen::WhiteNoise(&rng, n, 0.4));
}

std::string HostName(size_t index) {
  return "host-" + std::to_string(index) + "/load";
}

StreamingOptions FleetOptions() {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  return options;
}

ShardedEngine RunFleet(const StreamingOptions& options, size_t series,
                       size_t points_per_series, size_t shards = 4) {
  ShardedEngineOptions engine_options;
  engine_options.shards = shards;
  ShardedEngine engine =
      ShardedEngine::Create(options, engine_options).ValueOrDie();
  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < series; ++i) {
    source.AddVector(HostName(i), FleetSeries(i, points_per_series));
  }
  engine.RunToCompletion(&source);
  return engine;
}

// The read path under test: take one sample, run one pure rollup.
RoughnessRanking TopKOfAll(const FleetView& view, size_t k) {
  return FleetView::TopKByRoughnessOf(view.Sample(SeriesSelector::All()), k,
                                      view.exec_policy());
}

FleetAggregate AggregateOfSelected(
    const FleetView& view, AggKind kind,
    const SeriesSelector& selector = SeriesSelector::All()) {
  return FleetView::AggregateOf(view.Sample(selector), kind);
}

TEST(FleetViewTest, FrameResolvesNamesAndRejectsUnknowns) {
  ShardedEngine engine = RunFleet(FleetOptions(), 6, 4000);
  FleetView view(&engine);

  EXPECT_EQ(view.series_count(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    const auto frame = view.Frame(HostName(i));
    ASSERT_NE(frame, nullptr) << HostName(i);
    EXPECT_GT(frame->refreshes, 0u);
    EXPECT_FALSE(frame->series.empty());
    // Frame(name) serves the published frame itself, not a copy.
    const std::optional<SeriesId> id = engine.catalog()->FindId(HostName(i));
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(frame.get(), engine.SnapshotById(*id).get());
  }
  EXPECT_EQ(view.Frame("host-99/load"), nullptr);
  EXPECT_TRUE(view.History("host-99/load").empty());
}

TEST(FleetViewTest, ForEachSeriesVisitsRefreshedSeriesInCatalogOrder) {
  ShardedEngine engine = RunFleet(FleetOptions(), 5, 4000);
  FleetView view(&engine);

  std::vector<std::string> visited;
  view.ForEachSeries(
      [&visited](std::string_view name, const StreamingAsap::Frame& frame) {
        EXPECT_GT(frame.refreshes, 0u);
        visited.push_back(std::string(name));
      });
  std::vector<std::string> expected;
  for (size_t i = 0; i < 5; ++i) {
    expected.push_back(HostName(i));  // catalog order == Add order here
  }
  EXPECT_EQ(visited, expected);
}

TEST(FleetViewTest, TopKByRoughnessRanksAndTruncates) {
  ShardedEngine engine = RunFleet(FleetOptions(), 8, 4000);
  FleetView view(&engine);

  // Reference: roughness of each series' latest smoothed frame.
  std::map<std::string, double> expected;
  view.ForEachSeries(
      [&expected](std::string_view name, const StreamingAsap::Frame& frame) {
        expected[std::string(name)] = Roughness(frame.series);
      });
  ASSERT_EQ(expected.size(), 8u);

  const std::vector<SeriesRank> all = TopKOfAll(view, 100).ranks;
  ASSERT_EQ(all.size(), 8u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].roughness, expected.at(all[i].name)) << all[i].name;
    if (i > 0) {
      // Descending, deterministic ties.
      EXPECT_GE(all[i - 1].roughness, all[i].roughness);
    }
    EXPECT_GE(all[i].window, 1u);
    EXPECT_GT(all[i].refreshes, 0u);
  }

  const std::vector<SeriesRank> top3 = TopKOfAll(view, 3).ranks;
  ASSERT_EQ(top3.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top3[i].name, all[i].name);
    EXPECT_EQ(top3[i].roughness, all[i].roughness);
  }
}

TEST(FleetViewTest, AggregateRollsUpLatestSmoothedValues) {
  ShardedEngine engine = RunFleet(FleetOptions(), 6, 4000);
  FleetView view(&engine);

  std::vector<double> latest;
  view.ForEachSeries(
      [&latest](std::string_view, const StreamingAsap::Frame& frame) {
        ASSERT_FALSE(frame.series.empty());
        latest.push_back(frame.series.back());
      });
  ASSERT_EQ(latest.size(), 6u);
  double sum = 0.0;
  for (double x : latest) {
    sum += x;
  }

  const FleetAggregate agg_sum = AggregateOfSelected(view, AggKind::kSum);
  EXPECT_EQ(agg_sum.series, 6u);
  EXPECT_DOUBLE_EQ(agg_sum.value, sum);
  const FleetAggregate agg_mean = AggregateOfSelected(view, AggKind::kMean);
  EXPECT_DOUBLE_EQ(agg_mean.value, sum / 6.0);
  const FleetAggregate agg_min = AggregateOfSelected(view, AggKind::kMin);
  EXPECT_EQ(agg_min.value, *std::min_element(latest.begin(), latest.end()));
  const FleetAggregate agg_max = AggregateOfSelected(view, AggKind::kMax);
  EXPECT_EQ(agg_max.value, *std::max_element(latest.begin(), latest.end()));
}

TEST(FleetViewTest, EmptyFleetAggregatesToZeroSeries) {
  ShardedEngine engine = ShardedEngine::Create(FleetOptions()).ValueOrDie();
  FleetView view(&engine);
  EXPECT_EQ(view.series_count(), 0u);
  const RoughnessRanking ranking = TopKOfAll(view, 5);
  EXPECT_EQ(ranking.ranks.size(), 0u);
  EXPECT_EQ(ranking.skipped_unpublished, 0u);
  const FleetAggregate agg = AggregateOfSelected(view, AggKind::kMean);
  EXPECT_EQ(agg.series, 0u);
  EXPECT_EQ(agg.value, 0.0);
  EXPECT_EQ(agg.skipped_unpublished, 0u);
}

TEST(FleetViewTest, SkippedUnpublishedDistinguishesWarmupFromQuietFleet) {
  // Two ways a series can be interned yet contribute nothing: its name
  // arrived but no record reached a shard (no operator), or records
  // arrived but too few for a first refresh (operator, empty frame).
  // Both must be *counted*, not silently dropped, so a caller can tell
  // "the fleet is quiet" from "the fleet is still warming up".
  ShardedEngine engine = RunFleet(FleetOptions(), 4, 4000);
  engine.catalog()->Intern("host-interned-only/load");
  InterleavingMultiSource trickle(engine.catalog());
  trickle.AddVector("host-warming/load", FleetSeries(9, 50));  // < 1 refresh
  engine.RunToCompletion(&trickle);
  FleetView view(&engine);

  EXPECT_EQ(view.series_count(), 6u);
  const FleetAggregate agg = AggregateOfSelected(view, AggKind::kSum);
  EXPECT_EQ(agg.series, 4u);
  EXPECT_EQ(agg.skipped_unpublished, 2u);
  const RoughnessRanking ranking = TopKOfAll(view, 100);
  EXPECT_EQ(ranking.ranks.size(), 4u);
  EXPECT_EQ(ranking.skipped_unpublished, 2u);
  const FleetSample sample = view.Sample(SeriesSelector::All());
  EXPECT_EQ(sample.series.size(), 4u);
  EXPECT_EQ(sample.skipped_unpublished, 2u);

  // Scoping to the warming slice: everything selected is unpublished.
  const SeriesSelector warming = SeriesSelector::Glob("host-warming/*");
  const FleetAggregate warming_agg =
      AggregateOfSelected(view, AggKind::kSum, warming);
  EXPECT_EQ(warming_agg.series, 0u);
  EXPECT_EQ(warming_agg.skipped_unpublished, 1u);
}

TEST(FleetViewTest, HistoryServesTheSnapshotRingByName) {
  StreamingOptions options = FleetOptions();
  options.snapshot_ring_frames = 3;
  ShardedEngine engine = RunFleet(options, 3, 6000);
  FleetView view(&engine);

  for (size_t i = 0; i < 3; ++i) {
    const auto history = view.History(HostName(i));
    ASSERT_EQ(history.size(), 3u) << HostName(i);
    // Oldest first, consecutive, newest == Frame(name).
    EXPECT_EQ(history[0]->refreshes + 1, history[1]->refreshes);
    EXPECT_EQ(history[1]->refreshes + 1, history[2]->refreshes);
    EXPECT_EQ(history[2].get(), view.Frame(HostName(i)).get());
  }
}

TEST(FleetViewTest, QueriesAreSafeWhileARunIsInFlight) {
  // A dashboard polls fleet-wide queries while ingestion runs: every
  // query must see coherent frames (TSan gates data races here).
  ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();
  InterleavingMultiSource source(engine.catalog());
  const size_t kSeries = 6;
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddLooping(HostName(i), FleetSeries(i, 4000),
                      /*total_points=*/50000);
  }

  FleetView view(&engine);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto ranks = TopKOfAll(view, 3).ranks;
      for (const SeriesRank& rank : ranks) {
        EXPECT_TRUE(std::isfinite(rank.roughness));
        EXPECT_GE(rank.window, 1u);
      }
      const FleetAggregate agg = AggregateOfSelected(view, AggKind::kMean);
      if (agg.series > 0) {
        EXPECT_TRUE(std::isfinite(agg.value));
      }
      std::this_thread::yield();
    }
  });

  engine.RunToCompletion(&source);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(TopKOfAll(view, 100).ranks.size(), kSeries);
}

}  // namespace
}  // namespace stream
}  // namespace asap
