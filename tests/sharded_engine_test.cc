// Tests for the multi-series fleet runtime: named tagged sources, the
// fleet-wide series table (lazy per-series state, lock-free reads while
// it grows), lossless backpressure, RestoreSeries' refusals, and the
// sharded engine's determinism parity — for any shard count, every
// series' final frame must be identical to running that series alone
// through StreamingAsap.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/macros.h"
#include "common/random.h"
#include "storage/store.h"
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
  return "host-" + std::to_string(index);
}

StreamingOptions FleetOptions() {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  return options;
}

TEST(TaggedSourceTest, TagsEveryPointWithTheInternedSeries) {
  SeriesCatalog catalog;
  auto inner = std::make_unique<VectorSource>(std::vector<double>{1, 2, 3});
  TaggedSource source(&catalog, "tagged/series", std::move(inner));
  const SeriesId id = catalog.FindId("tagged/series").value();
  RecordBatch out;
  EXPECT_EQ(source.NextBatch(2, &out), 2u);
  EXPECT_EQ(source.NextBatch(10, &out), 1u);
  EXPECT_EQ(source.NextBatch(10, &out), 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Record{id, 1.0}));
  EXPECT_EQ(out[2], (Record{id, 3.0}));
  EXPECT_EQ(source.TotalPoints(), 3u);
}

TEST(InterleavingMultiSourceTest, PreservesPerSeriesOrder) {
  SeriesCatalog catalog;
  InterleavingMultiSource source(&catalog);
  const std::vector<std::vector<double>> series = {
      {1, 2, 3, 4, 5, 6, 7}, {10, 20, 30}, {100, 200, 300, 400, 500}};
  for (size_t i = 0; i < series.size(); ++i) {
    source.AddVector(HostName(i), series[i]);
  }
  EXPECT_EQ(source.series_count(), 3u);
  EXPECT_EQ(source.TotalPoints(), 15u);
  EXPECT_EQ(catalog.size(), 3u);  // Add interned each name

  RecordBatch all;
  RecordBatch batch;
  size_t n;
  while ((n = source.NextBatch(4, &batch)) > 0) {
    all.insert(all.end(), batch.begin(), batch.end());
    batch.clear();
  }
  ASSERT_EQ(all.size(), 15u);

  // Projecting the interleaved stream onto one series must yield that
  // series' values in order.
  std::map<SeriesId, std::vector<double>> by_series;
  for (const Record& r : all) {
    by_series[r.series_id].push_back(r.value);
  }
  ASSERT_EQ(by_series.size(), 3u);
  for (size_t i = 0; i < series.size(); ++i) {
    const SeriesId id = catalog.FindId(HostName(i)).value();
    EXPECT_EQ(by_series[id], series[i]) << HostName(i);
  }
}

TEST(InterleavingMultiSourceTest, UnboundedMemberMakesFleetUnbounded) {
  SeriesCatalog catalog;
  InterleavingMultiSource source(&catalog);
  source.AddVector("bounded", {1, 2, 3});
  source.AddLooping("endless", {4, 5}, /*total_points=*/0);  // 0 = endless
  EXPECT_EQ(source.TotalPoints(), 0u);
  // The endless member really does keep producing.
  RecordBatch out;
  EXPECT_EQ(source.NextBatch(100, &out), 100u);
  EXPECT_EQ(source.NextBatch(100, &out), 100u);
}

TEST(ShardedEngineTest, SeriesStateIsCreatedOnFirstRecordOnly) {
  ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  // Interned, but no record yet: no state, so no frame and no history.
  const SeriesId idle = engine.catalog()->Intern("lazy/idle");
  InterleavingMultiSource source(engine.catalog());
  source.AddVector("lazy/fed", FleetSeries(3, 3000));
  const SeriesId fed = engine.catalog()->FindId("lazy/fed").value();
  for (SeriesId id : {idle, fed}) {
    EXPECT_EQ(engine.SnapshotById(id), nullptr);
    EXPECT_TRUE(engine.FrameHistoryById(id).empty());
  }

  const FleetReport report = engine.RunToCompletion(&source);

  // The idle name still has no state: no row, and no shard counts it.
  EXPECT_EQ(engine.SnapshotById(idle), nullptr);
  EXPECT_TRUE(engine.FrameHistoryById(idle).empty());
  EXPECT_EQ(report.series, 1u);
  ASSERT_EQ(report.per_series.size(), 1u);
  EXPECT_EQ(report.per_series[0].name, "lazy/fed");
  // Exactly the owning shard counts the fed series.
  const size_t owner = ShardedEngine::ShardOf(fed, engine_options.shards);
  ASSERT_EQ(report.shards.size(), engine_options.shards);
  for (const ShardReport& sr : report.shards) {
    EXPECT_EQ(sr.series, sr.shard == owner ? 1u : 0u) << "shard " << sr.shard;
  }

  // One operator, built from the engine's options: repeated reads
  // return the same published frame, which matches a standalone
  // operator fed the same points.
  const auto frame = engine.SnapshotById(fed);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(engine.SnapshotById(fed), frame);
  ASSERT_FALSE(engine.FrameHistoryById(fed).empty());
  EXPECT_EQ(engine.FrameHistoryById(fed).back(), frame);
  StreamingAsap reference = StreamingAsap::Create(FleetOptions()).ValueOrDie();
  reference.PushBatch(FleetSeries(3, 3000));
  EXPECT_GT(frame->refreshes, 0u);
  EXPECT_EQ(frame->refreshes, reference.frame().refreshes);
  EXPECT_EQ(frame->window, reference.frame().window);
  EXPECT_EQ(frame->series, reference.frame().series);
}

/// Blocks in its first NextBatch until Release(), then ends the stream:
/// holds a run in flight for as long as a test needs.
class BlockingSource : public MultiSource {
 public:
  size_t NextBatch(size_t /*max_records*/, RecordBatch* /*out*/) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    return 0;
  }
  size_t TotalPoints() const override { return 0; }

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(ShardedEngineTest, RestoreSeriesRefusals) {
  ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();
  const std::vector<double> means(40, 1.5);

  // An invalid name is refused before anything is interned.
  const Status bad_name =
      engine.RestoreSeries("has space", means.data(), means.size(), true);
  EXPECT_EQ(bad_name.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.catalog()->FindId("has space").has_value());

  // A series that already has points keeps its frame.
  InterleavingMultiSource source(engine.catalog());
  source.AddVector("restore/live", FleetSeries(1, 3000));
  (void)engine.RunToCompletion(&source);
  const FleetView view(&engine);
  const auto live = view.Frame("restore/live");
  ASSERT_NE(live, nullptr);
  const Status live_series =
      engine.RestoreSeries("restore/live", means.data(), means.size(), true);
  EXPECT_EQ(live_series.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(view.Frame("restore/live"), live);

  // A call while a run is in flight is refused and interns nothing.
  BlockingSource blocking;
  std::thread run([&] { (void)engine.RunToCompletion(&blocking); });
  blocking.WaitUntilEntered();
  const Status in_flight =
      engine.RestoreSeries("restore/fresh", means.data(), means.size(), true);
  blocking.Release();
  run.join();
  EXPECT_EQ(in_flight.code(), StatusCode::kInternal);
  EXPECT_NE(in_flight.message().find("run in flight"), std::string::npos)
      << in_flight.message();
  EXPECT_FALSE(engine.catalog()->FindId("restore/fresh").has_value());

  // Between runs the same call succeeds.
  EXPECT_TRUE(
      engine.RestoreSeries("restore/fresh", means.data(), means.size(), true)
          .ok());
  const auto restored = view.Frame("restore/fresh");
  ASSERT_NE(restored, nullptr);
  EXPECT_GT(restored->refreshes, 0u);
}

TEST(ShardedEngineTest, ShardOfIsStableAndInRange) {
  for (size_t shard_count : {1u, 2u, 7u, 8u}) {
    for (SeriesId id = 0; id < 200; ++id) {
      const size_t shard = ShardedEngine::ShardOf(id, shard_count);
      EXPECT_LT(shard, shard_count);
      EXPECT_EQ(shard, ShardedEngine::ShardOf(id, shard_count));
    }
  }
  // The hash must actually spread the catalog's dense ids across 8
  // shards.
  std::vector<size_t> counts(8, 0);
  for (SeriesId id = 0; id < 64; ++id) {
    ++counts[ShardedEngine::ShardOf(id, 8)];
  }
  for (size_t c : counts) {
    EXPECT_GT(c, 0u);
  }
}

TEST(ShardedEngineTest, CreateValidatesOptions) {
  StreamingOptions bad_series;
  bad_series.visible_points = 4;  // StreamingAsap::Create rejects < 8
  EXPECT_FALSE(ShardedEngine::Create(bad_series).ok());
  StreamingOptions bad_search = FleetOptions();
  bad_search.strategy = SearchStrategy::kGrid;
  bad_search.search.grid_step = 0;  // was accepted, then aborted a shard
  EXPECT_FALSE(ShardedEngine::Create(bad_search).ok());

  ShardedEngineOptions bad_engine;
  bad_engine.shards = 0;
  EXPECT_FALSE(ShardedEngine::Create(FleetOptions(), bad_engine).ok());
  bad_engine.shards = 2;
  bad_engine.queue_capacity = 0;
  EXPECT_FALSE(ShardedEngine::Create(FleetOptions(), bad_engine).ok());
}

// The acceptance criterion: for T in {1, 4, 8}, every series' final
// frame (window, series values, refresh count) is identical to running
// that series alone through StreamingAsap sequentially.
TEST(ShardedEngineTest, DeterminismParityAcrossShardCounts) {
  const size_t kSeries = 16;
  const size_t kPointsPerSeries = 5000;
  const StreamingOptions options = FleetOptions();

  // Sequential reference: one series at a time, point by point.
  std::vector<StreamingAsap> reference;
  for (size_t i = 0; i < kSeries; ++i) {
    StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
    for (double x : FleetSeries(i, kPointsPerSeries)) {
      op.Push(x);
    }
    reference.push_back(std::move(op));
  }

  for (size_t shard_count : {1u, 4u, 8u}) {
    ShardedEngineOptions engine_options;
    engine_options.shards = shard_count;
    engine_options.batch_size = 512;
    ShardedEngine engine =
        ShardedEngine::Create(options, engine_options).ValueOrDie();

    InterleavingMultiSource source(engine.catalog());
    for (size_t i = 0; i < kSeries; ++i) {
      source.AddVector(HostName(i), FleetSeries(i, kPointsPerSeries));
    }
    const FleetReport report = engine.RunToCompletion(&source);

    EXPECT_EQ(report.points, kSeries * kPointsPerSeries);
    EXPECT_EQ(report.series, kSeries);
    ASSERT_EQ(report.per_series.size(), kSeries);

    std::map<std::string, const SeriesReport*> by_name;
    for (const SeriesReport& sr : report.per_series) {
      by_name[sr.name] = &sr;
    }
    const FleetView view(&engine);
    for (size_t i = 0; i < kSeries; ++i) {
      const auto frame = view.Frame(HostName(i));
      ASSERT_NE(frame, nullptr) << HostName(i);
      const StreamingAsap::Frame& expected = reference[i].frame();
      EXPECT_EQ(frame->window, expected.window)
          << "shards=" << shard_count << " " << HostName(i);
      EXPECT_EQ(frame->refreshes, expected.refreshes)
          << "shards=" << shard_count << " " << HostName(i);
      EXPECT_EQ(frame->series, expected.series)
          << "shards=" << shard_count << " " << HostName(i);
      // The report row must agree with the frame.
      ASSERT_NE(by_name[HostName(i)], nullptr) << HostName(i);
      const SeriesReport& sr = *by_name[HostName(i)];
      EXPECT_EQ(sr.refreshes, expected.refreshes);
      EXPECT_EQ(sr.window, expected.window);
      EXPECT_EQ(sr.points, kPointsPerSeries);
    }
  }
}

TEST(ShardedEngineTest, FleetReportAggregatesShardSlices) {
  ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  engine_options.batch_size = 256;
  engine_options.queue_capacity = 4;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  const size_t kSeries = 12;
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddVector(HostName(i), FleetSeries(i, 3000));
  }
  const FleetReport report = engine.RunToCompletion(&source);

  ASSERT_EQ(report.shards.size(), 4u);
  uint64_t shard_points = 0;
  uint64_t shard_refreshes = 0;
  size_t shard_series = 0;
  for (const ShardReport& sr : report.shards) {
    shard_points += sr.points;
    shard_refreshes += sr.refreshes;
    shard_series += sr.series;
    EXPECT_LE(sr.peak_queue_depth, engine_options.queue_capacity);
  }
  EXPECT_EQ(shard_points, report.points);
  EXPECT_EQ(shard_refreshes, report.refreshes);
  EXPECT_EQ(shard_series, report.series);
  EXPECT_EQ(report.series, kSeries);
  EXPECT_GT(report.refreshes, 0u);
  EXPECT_GT(report.points_per_second, 0.0);

  // Names in per_series are sorted and unique.
  for (size_t i = 1; i < report.per_series.size(); ++i) {
    EXPECT_LT(report.per_series[i - 1].name, report.per_series[i].name);
  }
}

TEST(ShardedEngineTest, SnapshotIsSafeWhileRunIsInFlight) {
  // A dashboard thread polls frames by name while the fleet streams —
  // the TSan CI job gates this path for data races.
  ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  engine_options.batch_size = 512;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  const size_t kSeries = 8;
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddLooping(HostName(i), FleetSeries(i, 4000),
                      /*total_points=*/60000);
  }

  const FleetView view(&engine);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> frames_seen{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (size_t i = 0; i < kSeries; ++i) {
        const auto frame = view.Frame(HostName(i));
        if (frame != nullptr && frame->refreshes > 0) {
          // Reading through the snapshot must always be coherent.
          EXPECT_GE(frame->window, 1u);
          frames_seen.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::this_thread::yield();
    }
  });

  const FleetReport report = engine.RunToCompletion(&source);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(report.points, kSeries * 60000u);
  EXPECT_GT(report.refreshes, 0u);
  // The reader must have observed at least the final frames.
  for (size_t i = 0; i < kSeries; ++i) {
    EXPECT_NE(view.Frame(HostName(i)), nullptr);
  }
}

TEST(ShardedEngineTest, RunForBudgetStopsPullingEarly) {
  ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.batch_size = 1024;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < 4; ++i) {
    // Effectively endless: the budget, not the source, must stop us.
    source.AddLooping(HostName(i), FleetSeries(i, 4000),
                      /*total_points=*/size_t{1} << 40);
  }
  const FleetReport report = engine.RunForBudget(&source, 0.15);
  EXPECT_GT(report.points, 0u);
  EXPECT_GE(report.seconds, 0.15);
  EXPECT_LT(report.seconds, 10.0);  // termination, with headroom for CI
}

TEST(ShardedEngineTest, BlockPolicyNeverDrops) {
  // A tiny queue, refresh-heavy operators, and exhaustive search make
  // the workers slow enough that the producer overruns the queues and
  // blocks on nearly every batch. Blocking is lossless, so the
  // saturated run must still consume every record and match each
  // series' sequential reference bitwise.
  const size_t kSeries = 8;
  const size_t kPointsPerSeries = 8000;
  StreamingOptions series_options = FleetOptions();
  series_options.strategy = SearchStrategy::kExhaustive;
  series_options.refresh_every_points = 100;

  ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.batch_size = 64;
  engine_options.queue_capacity = 1;  // maximal backpressure
  ShardedEngine engine =
      ShardedEngine::Create(series_options, engine_options).ValueOrDie();

  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < kSeries; ++i) {
    source.AddVector(HostName(i), FleetSeries(i, kPointsPerSeries));
  }
  const FleetReport report = engine.RunToCompletion(&source);

  EXPECT_EQ(report.points, kSeries * kPointsPerSeries);
  uint64_t consumed = 0;
  for (const ShardReport& sr : report.shards) {
    consumed += sr.points;
    EXPECT_LE(sr.peak_queue_depth, engine_options.queue_capacity);
  }
  EXPECT_EQ(consumed, report.points);  // lossless

  const FleetView view(&engine);
  for (size_t i = 0; i < kSeries; ++i) {
    StreamingAsap reference =
        StreamingAsap::Create(series_options).ValueOrDie();
    for (double x : FleetSeries(i, kPointsPerSeries)) {
      reference.Push(x);
    }
    const auto frame = view.Frame(HostName(i));
    ASSERT_NE(frame, nullptr) << HostName(i);
    EXPECT_EQ(frame->window, reference.frame().window) << HostName(i);
    EXPECT_EQ(frame->refreshes, reference.frame().refreshes) << HostName(i);
    EXPECT_EQ(frame->series, reference.frame().series) << HostName(i);
  }
}

// ---------------------------------------------------------------------
// Timed pane mode + the per-shard sequencer.

/// Replays a prebuilt RecordBatch — wire-style input whose records
/// already carry timestamps (and arbitrary order).
class BatchSource : public MultiSource {
 public:
  explicit BatchSource(RecordBatch records) : records_(std::move(records)) {}

  size_t NextBatch(size_t max_records, RecordBatch* out) override {
    const size_t n = std::min(max_records, records_.size() - position_);
    out->insert(out->end(), records_.begin() + static_cast<ptrdiff_t>(position_),
                records_.begin() + static_cast<ptrdiff_t>(position_ + n));
    position_ += n;
    return n;
  }
  size_t TotalPoints() const override { return records_.size(); }

 private:
  RecordBatch records_;
  size_t position_ = 0;
};

/// The count-mode configuration the timed parity tests mirror on a
/// pane grid of pane_size() ticks.
StreamingOptions TimedParityOptions() { return FleetOptions(); }

TEST(ShardedEngineTimedTest, TimedPaneParityMatchesArrivalOrder) {
  const size_t kSeries = 8;
  const size_t kPointsPerSeries = 4000;
  for (size_t refresh_every : {size_t{0}, size_t{7}, size_t{250}}) {
    StreamingOptions arrival_options = TimedParityOptions();
    arrival_options.refresh_every_points = refresh_every;
    const size_t pane_size =
        StreamingAsap::Create(arrival_options).ValueOrDie().pane_size();

    // Arrival-order reference: one series at a time, count-based panes.
    std::vector<StreamingAsap> reference;
    for (size_t i = 0; i < kSeries; ++i) {
      StreamingAsap op = StreamingAsap::Create(arrival_options).ValueOrDie();
      for (double x : FleetSeries(i, kPointsPerSeries)) {
        op.Push(x);
      }
      reference.push_back(std::move(op));
    }

    // Timed engine: uniform 1-tick sample clock, pane width = pane_size
    // ticks, so pane k holds exactly the points count mode gives it and
    // commits at the same pane count. Each series sends one more point,
    // in the next bucket (ts = kPointsPerSeries): a timed stream cannot
    // know its last pane is complete without a later point. Frames
    // must come out bitwise identical at any shard count.
    StreamingOptions timed_options = arrival_options;
    timed_options.pane_epoch = 0;
    timed_options.pane_width_ticks = static_cast<int64_t>(pane_size);

    for (size_t shard_count : {1u, 4u, 8u}) {
      ShardedEngineOptions engine_options;
      engine_options.shards = shard_count;
      engine_options.batch_size = 512;
      // The interleaver deals unequal per-series shares inside a batch,
      // so per-series sample clocks skew by up to a couple of batches;
      // the horizon must cover that skew for in-order-per-series input
      // to stay late-free (the sorted emit order is the same for any
      // sufficient horizon).
      engine_options.sequencer_horizon_ticks =
          4 * static_cast<int64_t>(engine_options.batch_size);
      ShardedEngine engine =
          ShardedEngine::Create(timed_options, engine_options).ValueOrDie();

      InterleavingMultiSource source(engine.catalog());
      source.StampTimestamps(0, 1);
      for (size_t i = 0; i < kSeries; ++i) {
        std::vector<double> values = FleetSeries(i, kPointsPerSeries);
        values.push_back(0.0);  // ts = kPointsPerSeries
        source.AddVector(HostName(i), values);
      }
      const FleetReport report = engine.RunToCompletion(&source);

      EXPECT_EQ(report.points, kSeries * (kPointsPerSeries + 1));
      EXPECT_EQ(report.late, 0u) << "in-order input must never be late";
      const FleetView view(&engine);
      for (size_t i = 0; i < kSeries; ++i) {
        const auto frame = view.Frame(HostName(i));
        ASSERT_NE(frame, nullptr) << HostName(i);
        const StreamingAsap::Frame& expected = reference[i].frame();
        SCOPED_TRACE("refresh_every=" + std::to_string(refresh_every) +
                     " shards=" + std::to_string(shard_count) + " " +
                     HostName(i));
        EXPECT_EQ(frame->refreshes, expected.refreshes);
        EXPECT_EQ(frame->window, expected.window);
        EXPECT_EQ(frame->series, expected.series);
      }
    }
  }
}

TEST(ShardedEngineTimedTest, ShuffledWithinHorizonMatchesSortedInput) {
  // Wire-style skew: the same timed records, shuffled within blocks
  // small enough that no record leaves the reordering horizon, must
  // produce frames bitwise identical to the in-order replay — the
  // sequencer undoes the skew before the panes see it.
  const size_t kSeries = 6;
  const size_t kPointsPerSeries = 3000;
  StreamingOptions timed_options = TimedParityOptions();
  const size_t pane_size =
      StreamingAsap::Create(timed_options).ValueOrDie().pane_size();
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = static_cast<int64_t>(pane_size);

  std::vector<std::string> names;
  std::vector<std::vector<double>> series;
  for (size_t i = 0; i < kSeries; ++i) {
    names.push_back(HostName(i));
    series.push_back(FleetSeries(i, kPointsPerSeries));
  }

  auto run = [&](const RecordBatch& records) {
    ShardedEngineOptions engine_options;
    engine_options.shards = 3;
    engine_options.batch_size = 256;
    engine_options.sequencer_horizon_ticks = 40;
    ShardedEngine engine =
        ShardedEngine::Create(timed_options, engine_options).ValueOrDie();
    // Intern the names in sender order: ids are dense and assigned in
    // first-sight order, so the prebuilt records' ids resolve to the
    // same names in this engine's catalog.
    for (const std::string& name : names) {
      engine.catalog()->Intern(name);
    }
    BatchSource source(records);
    const FleetReport report = engine.RunToCompletion(&source);
    EXPECT_EQ(report.late, 0u);
    std::vector<std::vector<double>> frames;
    const FleetView view(&engine);
    for (size_t i = 0; i < kSeries; ++i) {
      const auto frame = view.Frame(names[i]);
      EXPECT_NE(frame, nullptr) << names[i];
      frames.push_back(frame == nullptr ? std::vector<double>{}
                                        : frame->series);
    }
    return frames;
  };

  SeriesCatalog catalog;  // shared sender-side catalog for both batches
  const RecordBatch sorted =
      InterleaveToRecordsTimed(&catalog, names, series, 0, 1);
  RecordBatch shuffled = sorted;
  Pcg32 rng(0xf00d);
  const size_t kBlock = 24;  // spans ~4 ticks << horizon 40
  for (size_t start = 0; start + kBlock <= shuffled.size();
       start += kBlock) {
    for (size_t k = kBlock - 1; k > 0; --k) {
      std::swap(shuffled[start + k],
                shuffled[start + rng.NextBounded(static_cast<uint32_t>(k + 1))]);
    }
  }

  const auto frames_sorted = run(sorted);
  const auto frames_shuffled = run(shuffled);
  for (size_t i = 0; i < kSeries; ++i) {
    EXPECT_EQ(frames_shuffled[i], frames_sorted[i]) << names[i];
    EXPECT_FALSE(frames_sorted[i].empty()) << names[i];
  }
}

TEST(ShardedEngineTimedTest, LateRecordsAreCountedExactly) {
  StreamingOptions timed_options = FleetOptions();
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = 10;

  ShardedEngineOptions engine_options;
  engine_options.shards = 1;
  engine_options.sequencer_horizon_ticks = 50;
  ShardedEngine engine =
      ShardedEngine::Create(timed_options, engine_options).ValueOrDie();

  const SeriesId id = engine.catalog()->Intern("late/a");
  RecordBatch records;
  for (int64_t ts = 0; ts < 100; ++ts) {
    records.push_back(Record{id, 1.0, ts});  // in order: never late
  }
  records.push_back(Record{id, 1.0, 200});  // watermark jumps to 200
  for (int64_t ts = 100; ts < 150; ++ts) {
    records.push_back(Record{id, 1.0, ts});  // all < floor 150: late
  }
  records.push_back(Record{id, 1.0, 150});  // exactly at floor: on time
  records.push_back(Record{id, 1.0, 160});  // on time
  BatchSource source(records);
  const FleetReport report = engine.RunToCompletion(&source);

  EXPECT_EQ(report.points, records.size());
  EXPECT_EQ(report.late, 50u);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].late, 50u);
  EXPECT_EQ(report.shards[0].points + report.late, report.points);
  ASSERT_EQ(report.per_series.size(), 1u);
  EXPECT_EQ(report.per_series[0].late, 50u);
}

TEST(ShardedEngineTimedTest, SequencerWatermarkSurvivesRunBoundaries) {
  // A record older than the watermark minus the horizon is late no
  // matter where a run boundary falls: each shard's sequencer lives as
  // long as the engine. Splitting one input into two runs, right before
  // a block of stale records, must count the same late records and
  // publish a bitwise-equal frame — the stale values (1000) must not
  // reopen the committed panes they would fall in.
  StreamingOptions timed_options = FleetOptions();
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = 10;
  ShardedEngineOptions engine_options;
  engine_options.shards = 1;
  engine_options.sequencer_horizon_ticks = 50;
  ShardedEngine one_run =
      ShardedEngine::Create(timed_options, engine_options).ValueOrDie();
  ShardedEngine two_runs =
      ShardedEngine::Create(timed_options, engine_options).ValueOrDie();
  const SeriesId id = one_run.catalog()->Intern("split/a");
  ASSERT_EQ(two_runs.catalog()->Intern("split/a"), id);

  const std::vector<double> values = FleetSeries(0, 4000);
  RecordBatch head;  // ts 0..2999, in order
  for (int64_t ts = 0; ts < 3000; ++ts) {
    head.push_back(Record{id, values[static_cast<size_t>(ts)], ts});
  }
  RecordBatch tail;  // 200 stale records, then ts 3000..3999
  for (int64_t ts = 100; ts < 300; ++ts) {
    tail.push_back(Record{id, 1000.0, ts});
  }
  for (int64_t ts = 3000; ts < 4000; ++ts) {
    tail.push_back(Record{id, values[static_cast<size_t>(ts)], ts});
  }
  RecordBatch all = head;
  all.insert(all.end(), tail.begin(), tail.end());

  BatchSource whole(all);
  const FleetReport single = one_run.RunToCompletion(&whole);
  EXPECT_EQ(single.late, 200u);

  BatchSource first(head);
  BatchSource second(tail);
  const FleetReport r1 = two_runs.RunToCompletion(&first);
  const FleetReport r2 = two_runs.RunToCompletion(&second);
  EXPECT_EQ(r1.late, 0u);
  EXPECT_EQ(r2.late, 200u);
  EXPECT_EQ(r1.late + r2.late, single.late);
  ASSERT_EQ(r2.shards.size(), 1u);
  EXPECT_EQ(r2.shards[0].late, 200u);
  EXPECT_EQ(r2.shards[0].points + r2.late, r2.points);  // per run

  const auto want = FleetView(&one_run).Frame("split/a");
  const auto got = FleetView(&two_runs).Frame("split/a");
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->refreshes, want->refreshes);
  EXPECT_EQ(got->window, want->window);
  EXPECT_EQ(got->series, want->series);

  // A third run of stale records only: the run report counts this
  // run's late records, the per-series row counts the series' lifetime.
  RecordBatch stale;
  for (int64_t ts = 500; ts < 510; ++ts) {
    stale.push_back(Record{id, 1000.0, ts});
  }
  BatchSource third(stale);
  const FleetReport r3 = two_runs.RunToCompletion(&third);
  EXPECT_EQ(r3.late, 10u);
  EXPECT_EQ(r3.shards[0].late, 10u);
  EXPECT_EQ(r3.shards[0].points, 0u);
  ASSERT_EQ(r3.per_series.size(), 1u);
  EXPECT_EQ(r3.per_series[0].late, 210u);
  EXPECT_EQ(FleetView(&two_runs).Frame("split/a")->series, want->series);
}

TEST(ShardedEngineTimedTest, FlushedRecordsBoundTheNextRunsLateRule) {
  // Run 1 ends with a flush that releases everything up to ts 999.
  // Record 985, withheld from run 1, arrives in run 2: it must count
  // as late, not reopen committed bucket 98 as a one-point pane, so
  // the split run renders the single-run frame of the input without
  // it.
  StreamingOptions timed_options = FleetOptions();
  timed_options.pane_epoch = 0;
  timed_options.pane_width_ticks = 10;
  ShardedEngineOptions engine_options;
  engine_options.shards = 1;
  engine_options.sequencer_horizon_ticks = 50;
  ShardedEngine split =
      ShardedEngine::Create(timed_options, engine_options).ValueOrDie();
  ShardedEngine whole =
      ShardedEngine::Create(timed_options, engine_options).ValueOrDie();
  const SeriesId id = split.catalog()->Intern("split/b");
  ASSERT_EQ(whole.catalog()->Intern("split/b"), id);

  const std::vector<double> values = FleetSeries(2, 2000);
  RecordBatch first;  // ts 0..999 without 985
  RecordBatch second;  // 985, then ts 1000..1999
  second.push_back(Record{id, values[985], 985});
  for (int64_t ts = 0; ts < 2000; ++ts) {
    const Record r{id, values[static_cast<size_t>(ts)], ts};
    if (ts < 1000 && ts != 985) {
      first.push_back(r);
    } else if (ts >= 1000) {
      second.push_back(r);
    }
  }
  RecordBatch without = first;
  without.insert(without.end(), second.begin() + 1, second.end());

  BatchSource run1_source(first);
  BatchSource run2_source(second);
  const FleetReport r1 = split.RunToCompletion(&run1_source);
  const FleetReport r2 = split.RunToCompletion(&run2_source);
  EXPECT_EQ(r1.late, 0u);
  EXPECT_EQ(r2.late, 1u);
  for (const FleetReport* r : {&r1, &r2}) {
    ASSERT_EQ(r->shards.size(), 1u);
    EXPECT_EQ(r->shards[0].points + r->late, r->points);
  }
  ASSERT_EQ(r2.per_series.size(), 1u);
  EXPECT_EQ(r2.per_series[0].late, 1u);

  BatchSource whole_source(without);
  EXPECT_EQ(whole.RunToCompletion(&whole_source).late, 0u);
  const auto want = FleetView(&whole).Frame("split/b");
  const auto got = FleetView(&split).Frame("split/b");
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_GT(want->refreshes, 0u);
  EXPECT_EQ(got->refreshes, want->refreshes);
  EXPECT_EQ(got->window, want->window);
  EXPECT_EQ(got->series, want->series);
}

/// A self-deleting temp directory holding one durable store.
class TempStoreDir {
 public:
  TempStoreDir() {
    char tmpl[] = "/tmp/asap_engine_XXXXXX";
    const char* made = mkdtemp(tmpl);
    ASAP_CHECK(made != nullptr);
    root_ = made;
  }
  ~TempStoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  std::string path() const { return root_ + "/store"; }

 private:
  std::string root_;
};

TEST(ShardedEngineTimedTest, QuietSeriesCommitsItsLastPaneBehindTheSequencer) {
  // Series B goes quiet after ts 499 while A runs on to 1999. B's own
  // clock never reaches its last pane's end (500), but the shard's
  // floor (watermark - horizon) does: that pane commits, refreshes B,
  // and reaches the store, so B renders the count-mode frame of its
  // 500 points.
  StreamingOptions count_options;
  count_options.resolution = 100;
  count_options.visible_points = 1000;  // pane 10
  StreamingOptions timed_options = count_options;
  timed_options.pane_width_ticks = 10;

  const std::vector<double> a_values = FleetSeries(0, 2000);
  const std::vector<double> b_values = FleetSeries(1, 500);
  StreamingAsap reference = StreamingAsap::Create(count_options).ValueOrDie();
  reference.PushBatch(b_values);
  ASSERT_EQ(reference.frame().refreshes, 47u);

  TempStoreDir dir;
  storage::StoreOptions store_options;
  store_options.sync = storage::SyncPolicy::kEveryBatch;
  store_options.background_maintenance = false;
  auto store = storage::DurableStore::Open(dir.path(), store_options);
  ASSERT_TRUE(store.ok());
  ShardedEngineOptions engine_options;
  engine_options.shards = 1;
  engine_options.batch_size = 256;
  engine_options.sequencer_horizon_ticks = 50;
  engine_options.storage = store->get();
  ShardedEngine engine =
      ShardedEngine::Create(timed_options, engine_options).ValueOrDie();
  const SeriesId a = engine.catalog()->Intern("quiet/a");
  const SeriesId b = engine.catalog()->Intern("quiet/b");
  RecordBatch records;
  for (int64_t ts = 0; ts < 2000; ++ts) {
    const size_t k = static_cast<size_t>(ts);
    records.push_back(Record{a, a_values[k], ts});
    if (ts < 500) {
      records.push_back(Record{b, b_values[k], ts});
    }
  }
  BatchSource source(records);
  const FleetReport report = engine.RunToCompletion(&source);
  EXPECT_EQ(report.late, 0u);

  const auto frame = FleetView(&engine).Frame("quiet/b");
  ASSERT_NE(frame, nullptr);
  const StreamingAsap::Frame& want = reference.frame();
  EXPECT_EQ(frame->refreshes, want.refreshes);
  EXPECT_EQ(frame->window, want.window);
  EXPECT_EQ(frame->seeded_searches, want.seeded_searches);
  EXPECT_EQ(frame->candidates_evaluated, want.candidates_evaluated);
  ASSERT_EQ(frame->series.size(), want.series.size());
  EXPECT_EQ(0, std::memcmp(frame->series.data(), want.series.data(),
                           want.series.size() * sizeof(double)));
  const Result<uint32_t> sid = (*store)->FindSeries("quiet/b");
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ((*store)->PaneCount(sid.ValueOrDie()), 50u);
}

// The series table grows (new chunks, new slots) while readers read.
// Series join one at a time, so a 4-shard run first sees each of the
// 600 ids (past the chunk boundaries at ids 64, 192 and 448) while two
// dashboard threads loop over every read path; the TSan CI job runs
// this case as a step of its own.
TEST(ShardedEngineTest, SeriesTableGrowsUnderConcurrentReaders) {
  const size_t kSeries = 600;
  const size_t kPointsPerSeries = 300;  // one refresh each
  ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  engine_options.batch_size = 64;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  // Round r carries one point of each series i <= r, so series i's
  // first record arrives in round i.
  std::vector<std::string> names;
  std::vector<SeriesId> ids;
  for (size_t i = 0; i < kSeries; ++i) {
    names.push_back("grow/" + std::to_string(i));
    ids.push_back(engine.catalog()->Intern(names.back()));
  }
  RecordBatch records;
  for (size_t r = 0; r < kSeries + kPointsPerSeries; ++r) {
    for (size_t i = 0; i <= std::min(r, kSeries - 1); ++i) {
      if (r - i < kPointsPerSeries) {
        records.push_back(Record{ids[i], static_cast<double>((r * 7 + i) % 13)});
      }
    }
  }
  ASSERT_EQ(records.size(), kSeries * kPointsPerSeries);
  BatchSource source(std::move(records));

  const FleetView view(&engine);
  std::atomic<bool> done{false};
  std::atomic<size_t> passes{0};
  auto coherent = [](const std::shared_ptr<const StreamingAsap::Frame>& f) {
    return f == nullptr || f->window >= 1;
  };
  auto reader = [&](size_t offset) {
    size_t next = offset;
    while (!done.load(std::memory_order_acquire)) {
      const std::string& name = names[next % kSeries];
      next += 7;
      EXPECT_TRUE(coherent(view.Frame(name))) << name;
      for (const auto& frame : view.History(name)) {
        EXPECT_TRUE(frame != nullptr && coherent(frame)) << name;
      }
      for (const FleetSample& sample :
           {view.Sample(SeriesSelector::All()), view.SampleGlob("grow/*")}) {
        for (const SampledSeries& member : sample.series) {
          EXPECT_TRUE(member.frame != nullptr && coherent(member.frame))
              << member.name;
        }
      }
      const ChangeRanking change = view.TopKByChange(5, 1);
      EXPECT_LE(change.ranks.size(), 5u);
      passes.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread reader_a(reader, 0);
  std::thread reader_b(reader, 3);
  while (passes.load(std::memory_order_relaxed) < 2) {
    std::this_thread::yield();  // the readers loop before any id arrives
  }
  const FleetReport report = engine.RunToCompletion(&source);
  done.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();

  EXPECT_EQ(report.points, kSeries * kPointsPerSeries);
  EXPECT_EQ(report.series, kSeries);
  size_t shard_series = 0;
  for (const ShardReport& sr : report.shards) {
    shard_series += sr.series;
  }
  EXPECT_EQ(shard_series, kSeries);
  for (const std::string& name : names) {
    const auto frame = view.Frame(name);
    ASSERT_NE(frame, nullptr) << name;
    EXPECT_GT(frame->refreshes, 0u) << name;
  }
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// A shard's series states fill its slab from any thread. Two threads
// restore disjoint series that all belong to shard 0 at once, 80 of
// them (a slab block holds 64), while a reader loops Frame, History
// and Sample(All); a run then feeds them and creates 60 more shard-0
// series live (past slot 128). Each frame must be bitwise a standalone
// operator's fed the same panes and points; under ASan the engine's
// destruction must free every state once. The TSan CI job runs this
// case as a step of its own.
TEST(ShardedEngineTest, SlabFillsUnderConcurrentRestoresAndReaders) {
  const size_t kShards = 2;
  const size_t kRestoredPerThread = 40;
  const size_t kLive = 60;
  const size_t kRestoredPanes = 120;   // 9 refreshes each
  const size_t kPointsPerSeries = 600;  // 30 more panes
  ShardedEngineOptions engine_options;
  engine_options.shards = kShards;
  engine_options.batch_size = 64;
  ShardedEngine engine =
      ShardedEngine::Create(FleetOptions(), engine_options).ValueOrDie();

  // Names are interned up front, so which restore thread runs first
  // cannot change an id or its shard. Every name kept maps to shard 0;
  // the first 2 * kRestoredPerThread are restored.
  std::vector<std::string> names;
  for (size_t i = 0; names.size() < 2 * kRestoredPerThread + kLive; ++i) {
    std::string name = "slab/" + std::to_string(i);
    if (ShardedEngine::ShardOf(engine.catalog()->Intern(name), kShards) ==
        0) {
      names.push_back(std::move(name));
    }
  }
  const size_t restored = 2 * kRestoredPerThread;
  std::vector<std::vector<double>> panes(restored);
  for (size_t i = 0; i < restored; ++i) {
    panes[i] = FleetSeries(100 + i, kRestoredPanes);
  }

  const FleetView view(&engine);
  std::atomic<bool> done{false};
  std::atomic<size_t> passes{0};
  std::thread reader([&] {
    size_t next = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::string& name = names[next++ % names.size()];
      const auto frame = view.Frame(name);
      EXPECT_TRUE(frame == nullptr || frame->window >= 1) << name;
      for (const auto& f : view.History(name)) {
        EXPECT_TRUE(f != nullptr && f->window >= 1) << name;
      }
      for (const SampledSeries& member :
           view.Sample(SeriesSelector::All()).series) {
        EXPECT_TRUE(member.frame != nullptr && member.frame->window >= 1)
            << member.name;
      }
      passes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (passes.load(std::memory_order_relaxed) < 2) {
    std::this_thread::yield();  // the reader loops before any restore
  }
  auto restore = [&](size_t begin) {
    for (size_t i = begin; i < begin + kRestoredPerThread; ++i) {
      EXPECT_TRUE(engine
                      .RestoreSeries(names[i], panes[i].data(),
                                     panes[i].size(), /*cadenced=*/true)
                      .ok())
          << names[i];
    }
  };
  std::thread restore_a(restore, 0);
  std::thread restore_b(restore, kRestoredPerThread);
  restore_a.join();
  restore_b.join();

  // The reference operators, after the restore and after the run. No
  // ASSERT before the reader is joined: an early return would destroy
  // it joinable.
  std::vector<StreamingAsap> reference;
  for (size_t i = 0; i < names.size(); ++i) {
    reference.push_back(StreamingAsap::Create(FleetOptions()).ValueOrDie());
    if (i < restored) {
      StreamingAsap& want = reference.back();
      want.RestorePanes(panes[i].data(), panes[i].size(), /*cadenced=*/true);
      const auto frame = view.Frame(names[i]);
      EXPECT_TRUE(frame != nullptr && frame->refreshes > 0 &&
                  frame->refreshes == want.frame().refreshes &&
                  BitwiseEqual(frame->series, want.frame().series))
          << names[i];
    } else {
      EXPECT_EQ(view.Frame(names[i]), nullptr) << names[i];
    }
  }

  InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < names.size(); ++i) {
    const std::vector<double> points = FleetSeries(i, kPointsPerSeries);
    reference[i].PushBatch(points);
    source.AddVector(names[i], points);
  }
  const FleetReport report = engine.RunToCompletion(&source);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(report.points, names.size() * kPointsPerSeries);
  EXPECT_EQ(report.shards[0].series, names.size());
  EXPECT_EQ(report.shards[1].series, 0u);
  for (size_t i = 0; i < names.size(); ++i) {
    const StreamingAsap::Frame& want = reference[i].frame();
    const auto frame = view.Frame(names[i]);
    ASSERT_NE(frame, nullptr) << names[i];
    EXPECT_GT(frame->refreshes, 0u) << names[i];
    EXPECT_EQ(frame->refreshes, want.refreshes) << names[i];
    EXPECT_EQ(frame->window, want.window) << names[i];
    EXPECT_TRUE(BitwiseEqual(frame->series, want.series)) << names[i];
    const auto history = view.History(names[i]);
    ASSERT_FALSE(history.empty()) << names[i];
    EXPECT_EQ(history.back(), frame) << names[i];
  }
}

TEST(ShardedEngineTest, RegistriesPersistAcrossRuns) {
  ShardedEngine engine = ShardedEngine::Create(FleetOptions()).ValueOrDie();

  InterleavingMultiSource first(engine.catalog());
  first.AddVector("persistent/series", FleetSeries(5, 3000));
  const FleetReport r1 = engine.RunToCompletion(&first);
  const uint64_t refreshes_after_first = r1.refreshes;
  EXPECT_GT(refreshes_after_first, 0u);

  // A second run over the same named series continues its state:
  // refresh counters are lifetime, and the visible window carries
  // over.
  InterleavingMultiSource second(engine.catalog());
  second.AddVector("persistent/series", FleetSeries(5, 3000));
  const FleetReport r2 = engine.RunToCompletion(&second);
  EXPECT_GT(r2.refreshes, refreshes_after_first);
  EXPECT_EQ(r2.series, 1u);
  EXPECT_EQ(FleetView(&engine).Frame("persistent/series")->refreshes,
            r2.refreshes);
}

}  // namespace
}  // namespace stream
}  // namespace asap
