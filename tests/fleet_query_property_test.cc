// Property tests for the fleet analytics query tier: random fleets
// (random names, series counts, pane shapes, shard counts) pinning the
// invariants that must hold for *any* fleet —
//
//   * SeriesSelector results match a naive name filter (compiled glob
//     vs an independent recursive reference; compiled regex vs a
//     direct std::regex sweep);
//   * fleet percentile bands bracket every member series at every
//     aligned pane position, and are internally ordered;
//   * AggregateOf(kSum) equals the sum of per-series latest smoothed
//     values read back one Frame(name) at a time;
//   * DiffHistory(name, 0) is identically zero for every series.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <regex>
#include <string>
#include <vector>

#include "common/random.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace asap {
namespace stream {
namespace {

/// Independent glob reference: naive recursion, no shared code with
/// the iterative matcher under test.
bool NaiveGlob(std::string_view pattern, std::string_view name) {
  if (pattern.empty()) {
    return name.empty();
  }
  if (pattern[0] == '*') {
    for (size_t skip = 0; skip <= name.size(); ++skip) {
      if (NaiveGlob(pattern.substr(1), name.substr(skip))) {
        return true;
      }
    }
    return false;
  }
  if (name.empty()) {
    return false;
  }
  if (pattern[0] == '?' || pattern[0] == name[0]) {
    return NaiveGlob(pattern.substr(1), name.substr(1));
  }
  return false;
}

/// A random fleet: random names over a few datacenter/metric shapes,
/// random pane geometry, random shard count — everything the query
/// tier's answers may depend on.
struct RandomFleet {
  StreamingOptions options;
  size_t shards = 1;
  std::vector<std::string> names;
  std::vector<size_t> points;
};

RandomFleet MakeFleet(uint64_t seed) {
  Pcg32 rng(seed * 7919 + 17);
  RandomFleet fleet;
  fleet.options.resolution = 50 + 25 * rng.NextBounded(6);  // 50..175
  fleet.options.visible_points =
      800 + 200 * rng.NextBounded(8);  // 800..2200
  fleet.options.refresh_every_points = 100 + 50 * rng.NextBounded(6);
  fleet.options.snapshot_ring_frames = 1 + rng.NextBounded(4);
  fleet.shards = 1 + rng.NextBounded(4);
  const size_t series = 1 + rng.NextBounded(10);
  const char* dcs[] = {"dc1", "dc2", "edge"};
  const char* metrics[] = {"cpu", "mem", "io.read", "net_rx"};
  for (size_t i = 0; i < series; ++i) {
    // Random body length and bytes from the valid charset, plus a
    // unique index so names never collide.
    std::string body;
    const size_t body_len = 1 + rng.NextBounded(8);
    const std::string charset = "abcxyz019._-";
    for (size_t j = 0; j < body_len; ++j) {
      body.push_back(charset[rng.NextBounded(
          static_cast<uint32_t>(charset.size()))]);
    }
    fleet.names.push_back(std::string(dcs[rng.NextBounded(3)]) + "/" + body +
                          "-" + std::to_string(i) + "/" +
                          metrics[rng.NextBounded(4)]);
    fleet.points.push_back(fleet.options.visible_points +
                           500 * rng.NextBounded(6));
  }
  return fleet;
}

ShardedEngine RunRandomFleet(const RandomFleet& fleet, uint64_t seed) {
  ShardedEngineOptions engine_options;
  engine_options.shards = fleet.shards;
  ShardedEngine engine =
      ShardedEngine::Create(fleet.options, engine_options).ValueOrDie();
  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < fleet.names.size(); ++i) {
    Pcg32 rng(seed * 31 + i);
    const double period = 20.0 + 6.0 * static_cast<double>(i % 9);
    source.AddVector(fleet.names[i],
                     gen::Add(gen::Sine(fleet.points[i], period, 1.0),
                              gen::WhiteNoise(&rng, fleet.points[i], 0.4)));
  }
  engine.RunToCompletion(&source);
  return engine;
}

/// Random glob patterns derived from the fleet's own names (so a good
/// fraction actually match): a random name with a random span replaced
/// by '*', a random byte replaced by '?', a random prefix + '*', plus
/// a few fixed shapes.
std::vector<std::string> RandomGlobs(const RandomFleet& fleet, Pcg32* rng) {
  std::vector<std::string> globs = {"*", "dc1/*", "*/cpu", "edge/*/mem",
                                    "no-such-*"};
  for (size_t round = 0; round < 6; ++round) {
    std::string name = fleet.names[rng->NextBounded(
        static_cast<uint32_t>(fleet.names.size()))];
    switch (rng->NextBounded(3)) {
      case 0: {  // splice a '*' over a random span
        const size_t begin = rng->NextBounded(
            static_cast<uint32_t>(name.size()));
        const size_t len =
            rng->NextBounded(static_cast<uint32_t>(name.size() - begin + 1));
        name.replace(begin, len, "*");
        break;
      }
      case 1: {  // point mutation to '?'
        name[rng->NextBounded(static_cast<uint32_t>(name.size()))] = '?';
        break;
      }
      default: {  // random prefix + '*'
        name.resize(rng->NextBounded(static_cast<uint32_t>(name.size())));
        name.push_back('*');
        break;
      }
    }
    globs.push_back(std::move(name));
  }
  return globs;
}

class FleetSweep : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FleetSweep,
                         ::testing::Range<uint64_t>(1, 11));

TEST_P(FleetSweep, SelectorMatchesNaiveNameFilter) {
  const RandomFleet fleet = MakeFleet(GetParam());
  ShardedEngine engine = RunRandomFleet(fleet, GetParam());
  const SeriesCatalog& catalog = *engine.catalog();
  Pcg32 rng(GetParam() * 101 + 5);

  for (const std::string& pattern : RandomGlobs(fleet, &rng)) {
    const SeriesSelector selector = SeriesSelector::Glob(pattern);
    std::vector<SeriesId> expected;
    for (SeriesId id = 0; static_cast<size_t>(id) < catalog.size(); ++id) {
      if (NaiveGlob(pattern, catalog.NameOf(id))) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(selector.Select(catalog), expected) << "glob: " << pattern;
  }

  // Regex selectors against a direct std::regex sweep.
  for (const std::string& pattern :
       {std::string("dc[0-9]/.*"), std::string(".*/(cpu|mem)"),
        std::string("edge/.*-[0-9]+/.*")}) {
    const SeriesSelector selector =
        SeriesSelector::Regex(pattern).ValueOrDie();
    const std::regex re(pattern);
    std::vector<SeriesId> expected;
    for (SeriesId id = 0; static_cast<size_t>(id) < catalog.size(); ++id) {
      const std::string_view name = catalog.NameOf(id);
      if (std::regex_match(name.begin(), name.end(), re)) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(selector.Select(catalog), expected) << "regex: " << pattern;
  }
}

TEST_P(FleetSweep, PercentileBandsBracketEveryMemberSeries) {
  const RandomFleet fleet = MakeFleet(GetParam());
  ShardedEngine engine = RunRandomFleet(fleet, GetParam());
  FleetView view(&engine);
  const FleetSample sample = view.Sample(SeriesSelector::All());
  const FleetPercentileBands bands = FleetView::BandsOf(sample);
  ASSERT_EQ(bands.series, sample.series.size());
  ASSERT_EQ(bands.p50.size(), bands.positions);
  ASSERT_EQ(bands.p90.size(), bands.positions);
  ASSERT_EQ(bands.p99.size(), bands.positions);
  for (size_t j = 0; j < bands.positions; ++j) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (const SampledSeries& member : sample.series) {
      const std::vector<double>& s = member.frame->series;
      ASSERT_GE(s.size(), bands.positions);
      const double v = s[s.size() - bands.positions + j];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // Bracketing: every band lies within the member envelope, and the
    // bands are mutually ordered.
    EXPECT_GE(bands.p50[j], lo) << "pos " << j;
    EXPECT_LE(bands.p50[j], bands.p90[j]) << "pos " << j;
    EXPECT_LE(bands.p90[j], bands.p99[j]) << "pos " << j;
    EXPECT_LE(bands.p99[j], hi) << "pos " << j;
  }
}

TEST_P(FleetSweep, AggregateSumEqualsSumOfPerSeriesLatestValues) {
  const RandomFleet fleet = MakeFleet(GetParam());
  ShardedEngine engine = RunRandomFleet(fleet, GetParam());
  FleetView view(&engine);
  const FleetAggregate agg =
      FleetView::AggregateOf(view.Sample(SeriesSelector::All()), AggKind::kSum);
  double expected = 0.0;
  size_t published = 0;
  for (const std::string& name : fleet.names) {
    const auto frame = view.Frame(name);
    if (frame != nullptr && frame->refreshes > 0) {
      expected += frame->series.back();
      published += 1;
    }
  }
  EXPECT_EQ(agg.series, published);
  EXPECT_EQ(agg.series + agg.skipped_unpublished, fleet.names.size());
  EXPECT_DOUBLE_EQ(agg.value, expected);
}

TEST_P(FleetSweep, DiffHistoryAtZeroIsIdenticallyZero) {
  const RandomFleet fleet = MakeFleet(GetParam());
  ShardedEngine engine = RunRandomFleet(fleet, GetParam());
  FleetView view(&engine);
  for (const std::string& name : fleet.names) {
    const HistoryDiff diff = view.DiffHistory(name, 0);
    if (!diff.known) {
      continue;  // too few points for a first refresh
    }
    EXPECT_EQ(diff.frames_apart, 0u) << name;
    EXPECT_EQ(diff.refreshes_apart, 0u) << name;
    EXPECT_EQ(diff.window_delta, 0) << name;
    EXPECT_EQ(diff.max_abs_delta, 0.0) << name;
    EXPECT_EQ(diff.mean_abs_delta, 0.0) << name;
    for (double d : diff.delta) {
      EXPECT_EQ(d, 0.0) << name;
    }
    // And any legal depth stays within the ring.
    const HistoryDiff deep = view.DiffHistory(name, 1000);
    EXPECT_LT(deep.frames_apart, fleet.options.snapshot_ring_frames) << name;
  }
}

}  // namespace
}  // namespace stream
}  // namespace asap
