// Tests for the fleet analytics queries: SeriesSelector (glob/regex
// over interned names), whole-frame percentile bands, anomaly-count
// rollups through stream/alerts, and history-diff queries over the
// snapshot ring — including the queries racing live ingestion across
// shard counts (the TSan CI job runs this binary).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/metrics.h"
#include "stream/alerts.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace asap {
namespace stream {
namespace {

std::vector<double> FleetSeries(size_t index, size_t n) {
  Pcg32 rng(2000 + index);
  const double period = 24.0 + 8.0 * static_cast<double>(index % 7);
  return gen::Add(gen::Sine(n, period, 1.0 + 0.1 * index),
                  gen::WhiteNoise(&rng, n, 0.4));
}

std::string HostName(size_t index) {
  const char* dc = index % 2 == 0 ? "dc1" : "dc2";
  return std::string(dc) + "/host-" + std::to_string(index) + "/cpu";
}

StreamingOptions FleetOptions() {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  options.snapshot_ring_frames = 4;
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

// --- SeriesSelector ---------------------------------------------------------

TEST(SeriesSelectorTest, GlobSemantics) {
  EXPECT_TRUE(GlobMatch("*", "anything-at/all"));
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "x"));
  EXPECT_TRUE(GlobMatch("dc1/*", "dc1/host-0/cpu"));
  EXPECT_FALSE(GlobMatch("dc1/*", "dc2/host-0/cpu"));
  EXPECT_TRUE(GlobMatch("*/cpu", "dc1/host-0/cpu"));
  EXPECT_FALSE(GlobMatch("*/cpu", "dc1/host-0/mem"));
  EXPECT_TRUE(GlobMatch("dc?/host-*/cpu", "dc2/host-12/cpu"));
  EXPECT_FALSE(GlobMatch("dc?/host-*/cpu", "dcXX/host-12/cpu"));
  EXPECT_TRUE(GlobMatch("exact-name", "exact-name"));
  EXPECT_FALSE(GlobMatch("exact-name", "exact-nam"));
  EXPECT_FALSE(GlobMatch("exact-nam", "exact-name"));
  // '?' is exactly one byte, never zero.
  EXPECT_FALSE(GlobMatch("ab?", "ab"));
  // Star runs collapse; backtracking finds the split.
  EXPECT_TRUE(GlobMatch("**a**b**", "xaxxxbx"));
  EXPECT_TRUE(GlobMatch("*a*a*a*", "aaa"));
  EXPECT_FALSE(GlobMatch("*a*a*a*a*", "aaa"));
}

TEST(SeriesSelectorTest, SelectMatchesNaiveFilterInCatalogOrder) {
  SeriesCatalog catalog;
  std::vector<std::string> names = {"dc1/a/cpu", "dc2/a/cpu", "dc1/b/mem",
                                    "dc1/ab/cpu", "edge/a/cpu"};
  for (const std::string& name : names) {
    catalog.Intern(name);
  }
  const SeriesSelector selector = SeriesSelector::Glob("dc1/*/cpu");
  std::vector<SeriesId> expected;
  for (SeriesId id = 0; id < names.size(); ++id) {
    if (GlobMatch("dc1/*/cpu", names[id])) {
      expected.push_back(id);
    }
  }
  EXPECT_EQ(selector.Select(catalog), expected);
  EXPECT_EQ(expected.size(), 2u);  // dc1/a/cpu, dc1/ab/cpu

  // All() selects everything; reusing the output vector is supported.
  std::vector<SeriesId> ids;
  SeriesSelector::All().SelectInto(catalog, &ids);
  EXPECT_EQ(ids.size(), names.size());
  selector.SelectInto(catalog, &ids);
  EXPECT_EQ(ids, expected);
}

TEST(SeriesSelectorTest, RegexIsAnchoredAndValidated) {
  const SeriesSelector selector =
      SeriesSelector::Regex("dc[0-9]+/host-[0-9]+/cpu").ValueOrDie();
  EXPECT_TRUE(selector.Matches("dc1/host-0/cpu"));
  EXPECT_TRUE(selector.Matches("dc42/host-117/cpu"));
  // Anchored: a matching substring is not enough.
  EXPECT_FALSE(selector.Matches("xx-dc1/host-0/cpu"));
  EXPECT_FALSE(selector.Matches("dc1/host-0/cpu-extra"));
  EXPECT_FALSE(selector.Matches("dc1/host-x/cpu"));

  const Result<SeriesSelector> bad = SeriesSelector::Regex("dc[0-9+/(");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SeriesSelectorTest, MatchingIsAllocationStableAfterCompile) {
  // The selector may allocate while compiling; the steady-state match
  // loop over interned names must not churn the catalog or selector.
  SeriesCatalog catalog;
  for (size_t i = 0; i < 64; ++i) {
    catalog.Intern(HostName(i));
  }
  const size_t blocks_before = catalog.arena_blocks();
  const SeriesSelector glob = SeriesSelector::Glob("dc1/*/cpu");
  size_t matched = 0;
  for (size_t round = 0; round < 100; ++round) {
    for (SeriesId id = 0; id < 64; ++id) {
      matched += glob.Matches(catalog.NameOf(id)) ? 1 : 0;
    }
  }
  EXPECT_EQ(matched, 100u * 32u);
  EXPECT_EQ(catalog.arena_blocks(), blocks_before);
}

// --- Percentile bands -------------------------------------------------------

TEST(FleetQueryTest, PercentileBandsMatchNaiveRecomputation) {
  ShardedEngine engine = RunFleet(FleetOptions(), 8, 4000);
  FleetView view(&engine);
  const FleetPercentileBands bands = FleetView::BandsOf(
      view.Sample(SeriesSelector::All()), view.exec_policy());
  ASSERT_EQ(bands.series, 8u);
  ASSERT_GT(bands.positions, 0u);

  // Naive reference: gather every member's aligned column and take
  // percentiles by the same inclusive linear-interpolation definition.
  std::vector<const std::vector<double>*> frames;
  view.ForEachSeries(
      [&frames](std::string_view, const StreamingAsap::Frame& frame) {
        frames.push_back(&frame.series);
      });
  // NOTE: ForEachSeries resamples, but the run is complete, so frames
  // are stable. Recompute the min length and each column.
  size_t positions = static_cast<size_t>(-1);
  for (const std::vector<double>* f : frames) {
    positions = std::min(positions, f->size());
  }
  ASSERT_EQ(bands.positions, positions);
  auto percentile = [](std::vector<double> column, double p) {
    std::sort(column.begin(), column.end());
    const double rank = (p / 100.0) * static_cast<double>(column.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, column.size() - 1);
    return column[lo] + (rank - lo) * (column[hi] - column[lo]);
  };
  for (size_t j = 0; j < positions; j += 97) {  // spot-check positions
    std::vector<double> column;
    for (const std::vector<double>* f : frames) {
      column.push_back((*f)[f->size() - positions + j]);
    }
    EXPECT_DOUBLE_EQ(bands.p50[j], percentile(column, 50.0)) << "pos " << j;
    EXPECT_DOUBLE_EQ(bands.p90[j], percentile(column, 90.0)) << "pos " << j;
    EXPECT_DOUBLE_EQ(bands.p99[j], percentile(column, 99.0)) << "pos " << j;
  }
}

TEST(FleetQueryTest, PercentileBandsAreOrderedAndBracketed) {
  ShardedEngine engine = RunFleet(FleetOptions(), 6, 4000);
  FleetView view(&engine);
  const FleetSample sample = view.Sample(SeriesSelector::All());
  const FleetPercentileBands bands = FleetView::BandsOf(sample);
  ASSERT_GT(bands.positions, 0u);
  for (size_t j = 0; j < bands.positions; ++j) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (const SampledSeries& member : sample.series) {
      const std::vector<double>& s = member.frame->series;
      const double v = s[s.size() - bands.positions + j];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_GE(bands.p50[j], lo) << "pos " << j;
    EXPECT_LE(bands.p50[j], bands.p90[j]) << "pos " << j;
    EXPECT_LE(bands.p90[j], bands.p99[j]) << "pos " << j;
    EXPECT_LE(bands.p99[j], hi) << "pos " << j;
  }
}

TEST(FleetQueryTest, PercentileBandsRespectSelectorAndEmptySelection) {
  ShardedEngine engine = RunFleet(FleetOptions(), 6, 4000);
  FleetView view(&engine);
  const SeriesSelector dc1 = SeriesSelector::Glob("dc1/*");
  const FleetPercentileBands bands =
      FleetView::BandsOf(view.Sample(dc1), view.exec_policy());
  EXPECT_EQ(bands.series, 3u);  // even indices land in dc1
  const SeriesSelector none = SeriesSelector::Glob("mars/*");
  const FleetPercentileBands empty =
      FleetView::BandsOf(view.Sample(none), view.exec_policy());
  EXPECT_EQ(empty.series, 0u);
  EXPECT_EQ(empty.positions, 0u);
  EXPECT_TRUE(empty.p50.empty());
}

// --- Anomaly counts ---------------------------------------------------------

TEST(FleetQueryTest, AnomalyCountsMatchPerSeriesDetector) {
  // One host gets a sustained incident injected; the fleet rollup must
  // agree exactly with running the detector per frame by hand.
  const StreamingOptions options = FleetOptions();
  ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  ShardedEngine engine =
      ShardedEngine::Create(options, engine_options).ValueOrDie();
  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < 6; ++i) {
    std::vector<double> xs = FleetSeries(i, 4000);
    if (i == 3) {
      // The incident host: a sustained shift over the last ~15% of the
      // visible window — narrow enough that the robust MAD baseline
      // stays anchored on healthy data, so the detector must fire.
      gen::InjectLevelShift(&xs, 3500, 3800, 8.0);
    }
    source.AddVector(HostName(i), xs);
  }
  engine.RunToCompletion(&source);
  FleetView view(&engine);

  const AlertOptions alert_options;
  const FleetAnomalyCounts counts = FleetView::AnomalyCountsOf(
      view.Sample(SeriesSelector::All()), alert_options, view.exec_policy());
  size_t expected_alerts = 0;
  size_t expected_alerting = 0;
  size_t expected_scanned = 0;
  view.ForEachSeries([&](std::string_view, const StreamingAsap::Frame& f) {
    const auto alerts = FindDeviations(f.series, alert_options);
    ASSERT_TRUE(alerts.ok());
    expected_scanned += 1;
    expected_alerts += alerts.ValueOrDie().size();
    expected_alerting += alerts.ValueOrDie().empty() ? 0 : 1;
  });
  EXPECT_EQ(counts.series, expected_scanned);
  EXPECT_EQ(counts.alerts, expected_alerts);
  EXPECT_EQ(counts.series_alerting, expected_alerting);
  EXPECT_EQ(counts.skipped_short, 0u);
  EXPECT_EQ(counts.skipped_unpublished, 0u);
  // The injected incident is visible in the rollup.
  EXPECT_GE(counts.series_alerting, 1u);

  // And the incident localizes under a selector scoped to that host.
  const SeriesSelector incident_only =
      SeriesSelector::Glob("*/host-3/cpu");
  const FleetAnomalyCounts scoped = FleetView::AnomalyCountsOf(
      view.Sample(incident_only), {}, view.exec_policy());
  EXPECT_EQ(scoped.series, 1u);
  EXPECT_EQ(scoped.series_alerting, 1u);
}

// --- History diffs ----------------------------------------------------------

TEST(FleetQueryTest, DiffHistoryZeroIsIdenticallyZero) {
  ShardedEngine engine = RunFleet(FleetOptions(), 4, 5000);
  FleetView view(&engine);
  for (size_t i = 0; i < 4; ++i) {
    const HistoryDiff diff = view.DiffHistory(HostName(i), 0);
    ASSERT_TRUE(diff.known) << HostName(i);
    EXPECT_EQ(diff.frames_apart, 0u);
    EXPECT_EQ(diff.refreshes_apart, 0u);
    EXPECT_EQ(diff.window_delta, 0);
    EXPECT_EQ(diff.max_abs_delta, 0.0);
    EXPECT_EQ(diff.mean_abs_delta, 0.0);
    for (double d : diff.delta) {
      EXPECT_EQ(d, 0.0);
    }
  }
}

TEST(FleetQueryTest, DiffHistoryMatchesNaiveRingDiff) {
  ShardedEngine engine = RunFleet(FleetOptions(), 4, 6000);
  FleetView view(&engine);
  const std::string name = HostName(1);
  const auto history = view.History(name);
  ASSERT_GE(history.size(), 3u);

  const HistoryDiff diff = view.DiffHistory(name, 2);
  ASSERT_TRUE(diff.known);
  EXPECT_EQ(diff.frames_apart, 2u);
  const StreamingAsap::Frame& newer = *history.back();
  const StreamingAsap::Frame& older = *history[history.size() - 3];
  EXPECT_EQ(diff.refreshes_apart, newer.refreshes - older.refreshes);
  const size_t len = std::min(newer.series.size(), older.series.size());
  ASSERT_EQ(diff.delta.size(), len);
  double max_abs = 0.0;
  double sum_abs = 0.0;
  for (size_t j = 0; j < len; ++j) {
    const double expected = newer.series[newer.series.size() - len + j] -
                            older.series[older.series.size() - len + j];
    EXPECT_DOUBLE_EQ(diff.delta[j], expected) << "pos " << j;
    max_abs = std::max(max_abs, std::fabs(expected));
    sum_abs += std::fabs(expected);
  }
  EXPECT_DOUBLE_EQ(diff.max_abs_delta, max_abs);
  EXPECT_DOUBLE_EQ(diff.mean_abs_delta, sum_abs / len);
}

TEST(FleetQueryTest, DiffHistoryClampsToRingDepthAndRejectsUnknowns) {
  ShardedEngine engine = RunFleet(FleetOptions(), 2, 5000);
  FleetView view(&engine);
  const auto history = view.History(HostName(0));
  ASSERT_GE(history.size(), 2u);
  const HistoryDiff deep = view.DiffHistory(HostName(0), 999);
  ASSERT_TRUE(deep.known);
  EXPECT_EQ(deep.frames_apart, history.size() - 1);

  const HistoryDiff unknown = view.DiffHistory("never/heard/of-it", 1);
  EXPECT_FALSE(unknown.known);
  EXPECT_TRUE(unknown.delta.empty());
}

TEST(FleetQueryTest, TopKByChangeRanksMatchPerSeriesDiffs) {
  ShardedEngine engine = RunFleet(FleetOptions(), 6, 5000);
  FleetView view(&engine);
  const ChangeRanking ranking = view.TopKByChange(100, 2);
  ASSERT_EQ(ranking.ranks.size(), 6u);
  EXPECT_EQ(ranking.skipped_unpublished, 0u);
  for (const SeriesChange& change : ranking.ranks) {
    const HistoryDiff diff = view.DiffHistory(change.name, 2);
    ASSERT_TRUE(diff.known) << change.name;
    EXPECT_DOUBLE_EQ(change.mean_abs_delta, diff.mean_abs_delta)
        << change.name;
    EXPECT_DOUBLE_EQ(change.max_abs_delta, diff.max_abs_delta);
    EXPECT_EQ(change.frames_apart, diff.frames_apart);
  }
  for (size_t i = 1; i < ranking.ranks.size(); ++i) {
    EXPECT_GE(ranking.ranks[i - 1].mean_abs_delta,
              ranking.ranks[i].mean_abs_delta);
  }
  // Truncation keeps the head of the full ranking.
  const ChangeRanking top2 = view.TopKByChange(2, 2);
  ASSERT_EQ(top2.ranks.size(), 2u);
  EXPECT_EQ(top2.ranks[0].name, ranking.ranks[0].name);
  EXPECT_EQ(top2.ranks[1].name, ranking.ranks[1].name);
}

// --- Cached glob sampling ---------------------------------------------------

void ExpectSamplesEqual(const FleetSample& cached, const FleetSample& plain,
                        const std::string& context) {
  EXPECT_EQ(cached.skipped_unpublished, plain.skipped_unpublished) << context;
  ASSERT_EQ(cached.series.size(), plain.series.size()) << context;
  for (size_t i = 0; i < cached.series.size(); ++i) {
    EXPECT_EQ(cached.series[i].id, plain.series[i].id) << context;
    EXPECT_EQ(cached.series[i].name, plain.series[i].name) << context;
    // Both paths must hand out the same published frame object, not
    // merely equal contents — the cache only memoizes *which* series
    // match, never the data.
    EXPECT_EQ(cached.series[i].frame, plain.series[i].frame) << context;
  }
}

TEST(FleetQueryTest, SampleGlobMatchesUncachedSelectorExactly) {
  ShardedEngine engine = RunFleet(FleetOptions(), 8, 4000);
  FleetView view(&engine);

  // Cold compile, warm cache hit, pattern switch, switch back (the
  // cache holds only the last pattern, so this recompiles), and an
  // empty selection — each must equal the uncached selector path.
  const char* patterns[] = {"dc1/*", "dc1/*", "dc2/*", "dc1/*", "mars/*"};
  for (const char* pattern : patterns) {
    ExpectSamplesEqual(view.SampleGlob(pattern),
                       view.Sample(SeriesSelector::Glob(pattern)), pattern);
  }

  // Catalog growth invalidates the cached match set: newly interned
  // names must be considered on the next call. The fresh series has no
  // published frame yet, so parity shows up via skipped_unpublished.
  const FleetSample before = view.SampleGlob("dc1/*");
  engine.catalog()->Intern("dc1/host-99/cpu");
  engine.catalog()->Intern("dc2/host-98/cpu");  // non-matching growth
  const FleetSample after = view.SampleGlob("dc1/*");
  EXPECT_EQ(after.skipped_unpublished, before.skipped_unpublished + 1);
  ExpectSamplesEqual(after, view.Sample(SeriesSelector::Glob("dc1/*")),
                     "after growth");
  ExpectSamplesEqual(view.SampleGlob("dc2/*"),
                     view.Sample(SeriesSelector::Glob("dc2/*")),
                     "after growth, other dc");
}

// --- Concurrency: the query tier racing live ingestion ----------------------

class FleetQueryConcurrencyTest : public ::testing::TestWithParam<size_t> {};
INSTANTIATE_TEST_SUITE_P(Shards, FleetQueryConcurrencyTest,
                         ::testing::Values(2, 8));

TEST_P(FleetQueryConcurrencyTest, RollupsAreCoherentMidRun) {
  // A dashboard fires every cross-series query while ingestion runs.
  // Each query must see per-series-coherent published frames (TSan
  // gates data races), and rollups over one already-taken sample must
  // be bitwise reproducible even as new frames publish underneath.
  const size_t shards = GetParam();
  ShardedEngineOptions engine_options;
  engine_options.shards = shards;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();
  InterleavingMultiSource source(engine.catalog());
  const size_t kSeries = 6;
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddLooping(HostName(i), FleetSeries(i, 4000),
                      /*total_points=*/40000);
  }

  FleetView view(&engine);
  const SeriesSelector dc1 = SeriesSelector::Glob("dc1/*");
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      // Pure rollups over one sample: bitwise-stable per sample.
      const FleetSample sample = view.Sample(dc1);
      const FleetPercentileBands once = FleetView::BandsOf(sample);
      const FleetPercentileBands twice = FleetView::BandsOf(sample);
      EXPECT_EQ(once.p50, twice.p50);
      EXPECT_EQ(once.p90, twice.p90);
      EXPECT_EQ(once.p99, twice.p99);
      for (size_t j = 0; j < once.positions; ++j) {
        EXPECT_TRUE(std::isfinite(once.p50[j]));
        EXPECT_LE(once.p50[j], once.p99[j]);
      }
      const AlertOptions alert_options;
      const FleetAnomalyCounts counts =
          FleetView::AnomalyCountsOf(sample, alert_options);
      EXPECT_EQ(counts.alerts,
                FleetView::AnomalyCountsOf(sample, alert_options).alerts);
      EXPECT_LE(counts.series_alerting, counts.series);

      // DiffHistory(k=0) diffs a published frame against itself: zero
      // at every instant, no matter how the ring advances between
      // calls — each call is internally coherent.
      for (size_t i = 0; i < kSeries; ++i) {
        const HistoryDiff self = view.DiffHistory(HostName(i), 0);
        if (self.known) {
          EXPECT_EQ(self.max_abs_delta, 0.0) << HostName(i);
        }
        const HistoryDiff back = view.DiffHistory(HostName(i), 2);
        if (back.known) {
          EXPECT_TRUE(std::isfinite(back.mean_abs_delta));
          EXPECT_LE(back.mean_abs_delta, back.max_abs_delta + 1e-12);
        }
      }
      const ChangeRanking movers = view.TopKByChange(3, 1);
      EXPECT_LE(movers.ranks.size(), 3u);
      std::this_thread::yield();
    }
  });

  engine.RunToCompletion(&source);
  done.store(true, std::memory_order_release);
  reader.join();

  const FleetPercentileBands final_bands = FleetView::BandsOf(
      view.Sample(SeriesSelector::All()), view.exec_policy());
  EXPECT_EQ(final_bands.series + final_bands.skipped_unpublished, kSeries);
}

}  // namespace
}  // namespace stream
}  // namespace asap
