// Tests for src/core/streaming_asap: Algorithm 3's refresh mechanics,
// warm starts, consistency with the batch operator, and the sliding
// ACF's rebuild schedule against the FFT refresh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/acf_peaks.h"
#include "core/metrics.h"
#include "core/search.h"
#include "core/series_context.h"
#include "core/smooth.h"
#include "core/streaming_asap.h"
#include "stats/descriptive.h"
#include "ts/generators.h"
#include "window/sma.h"

namespace asap {
namespace {

std::vector<double> PeriodicStream(uint64_t seed, size_t n,
                                   double period = 48.0) {
  Pcg32 rng(seed);
  return gen::Add(gen::Sine(n, period, 1.0), gen::WhiteNoise(&rng, n, 0.4));
}

StreamingOptions BasicOptions() {
  StreamingOptions options;
  options.resolution = 200;
  options.visible_points = 4000;
  return options;
}

TEST(StreamingAsapTest, CreateValidatesOptions) {
  StreamingOptions options;
  options.visible_points = 0;
  EXPECT_FALSE(StreamingAsap::Create(options).ok());
  options.visible_points = 4;
  EXPECT_FALSE(StreamingAsap::Create(options).ok());
  options.visible_points = 4000;
  EXPECT_TRUE(StreamingAsap::Create(options).ok());
  options.strategy = SearchStrategy::kGrid;
  options.search.grid_step = 0;
  EXPECT_FALSE(StreamingAsap::Create(options).ok());
}

TEST(StreamingAsapTest, PaneSizeIsPointToPixelRatio) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  EXPECT_EQ(op.pane_size(), 20u);  // 4000 / 200
}

TEST(StreamingAsapTest, DisablingPreaggregationMakesUnitPanes) {
  StreamingOptions options = BasicOptions();
  options.enable_preaggregation = false;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  EXPECT_EQ(op.pane_size(), 1u);
}

TEST(StreamingAsapTest, DefaultRefreshIsPerPane) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  EXPECT_EQ(op.refresh_interval_panes(), 1u);
}

TEST(StreamingAsapTest, RefreshCadenceFollowsInterval) {
  // Pane 20. Refreshes fire on pane commits: per pane by default once
  // the 4-pane floor is met (points 80, 100, 120, ...), and every 25
  // panes at a 500-point interval (points 500, 1000, ...).
  const std::vector<double> data = PeriodicStream(1, 5000);
  for (size_t refresh_every : {size_t{0}, size_t{500}}) {
    StreamingOptions options = BasicOptions();
    options.refresh_every_points = refresh_every;
    StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
    ASSERT_EQ(op.pane_size(), 20u);
    std::vector<size_t> fired;
    for (size_t i = 0; i < data.size(); ++i) {
      if (op.Push(data[i])) {
        fired.push_back(i + 1);
      }
    }
    std::vector<size_t> expected;
    const size_t first = refresh_every == 0 ? 80 : refresh_every;
    const size_t step = refresh_every == 0 ? 20 : refresh_every;
    for (size_t point = first; point <= data.size(); point += step) {
      expected.push_back(point);
    }
    EXPECT_EQ(fired, expected) << "refresh_every=" << refresh_every;
    EXPECT_EQ(op.frame().refreshes, expected.size());
  }
  // A cadence that is not a whole number of panes rounds up to one.
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 250;
  EXPECT_EQ(StreamingAsap::Create(options).ValueOrDie().refresh_interval_panes(),
            13u);
}

TEST(StreamingAsapTest, NoRefreshBeforeWarmup) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  // 3 panes' worth of points: not enough to search.
  for (size_t i = 0; i < 3 * op.pane_size(); ++i) {
    EXPECT_FALSE(op.Push(1.0));
  }
  EXPECT_EQ(op.frame().refreshes, 0u);
  EXPECT_TRUE(op.frame().series.empty());
}

TEST(StreamingAsapTest, FrameCarriesSmoothedSeries) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  op.PushBatch(PeriodicStream(2, 4000));
  ASSERT_GT(op.frame().refreshes, 0u);
  EXPECT_FALSE(op.frame().series.empty());
  EXPECT_GE(op.frame().window, 1u);
  EXPECT_EQ(op.points_consumed(), 4000u);
}

TEST(StreamingAsapTest, WarmStartsAfterFirstRefresh) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  op.PushBatch(PeriodicStream(3, 8000));
  const auto& frame = op.frame();
  EXPECT_GE(frame.refreshes, 2u);
  // The very first search is necessarily cold; later refreshes may
  // occasionally re-seed when the previous window loses feasibility on
  // the shifted data, but warm starts must dominate on a stationary
  // stream.
  EXPECT_GE(frame.cold_searches, 1u);
  EXPECT_EQ(frame.cold_searches + frame.seeded_searches, frame.refreshes);
  EXPECT_GT(frame.seeded_searches, frame.refreshes / 2);
}

TEST(StreamingAsapTest, StreamingMatchesBatchOnStationaryData) {
  // Once the visible window is full of stationary data, the streaming
  // choice should match what batch ASAP picks on the same window.
  StreamingOptions options;
  options.resolution = 250;
  options.visible_points = 5000;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  const std::vector<double> data = PeriodicStream(4, 10000, 40.0);
  op.PushBatch(data);

  SmoothOptions batch_options;
  batch_options.resolution = 250;
  const std::vector<double> window(data.end() - 5000, data.end());
  Result<SmoothingResult> batch = Smooth(window, batch_options);
  ASSERT_TRUE(batch.ok());
  // Identical pane grids are not guaranteed (stream pane boundaries
  // depend on arrival order), so allow the neighborhood.
  EXPECT_NEAR(static_cast<double>(op.frame().window),
              static_cast<double>(batch->window),
              static_cast<double>(batch->window) * 0.5 + 2.0);
}

TEST(StreamingAsapTest, AdaptsWindowWhenPeriodChanges) {
  StreamingOptions options;
  options.resolution = 200;
  options.visible_points = 4000;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  op.PushBatch(PeriodicStream(5, 6000, 40.0));
  const size_t window_before = op.frame().window;
  // Stream in data with a very different period; after the visible
  // window fully turns over, the chosen window should move.
  op.PushBatch(PeriodicStream(6, 6000, 160.0));
  const size_t window_after = op.frame().window;
  EXPECT_NE(window_before, window_after);
}

TEST(StreamingAsapTest, ExplicitRefreshBeforeIntervalIsNoOpUntilWarm) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  op.Refresh();  // no panes yet: must not crash or count
  EXPECT_EQ(op.frame().refreshes, 0u);
  op.PushBatch(PeriodicStream(7, 4000));
  const uint64_t before = op.frame().refreshes;
  op.Refresh();  // explicit re-render (zoom/scroll path)
  EXPECT_EQ(op.frame().refreshes, before + 1);
}

TEST(StreamingAsapTest, LesionStrategiesRun) {
  // The Fig. 11 lesions must all be executable.
  for (SearchStrategy strategy :
       {SearchStrategy::kAsap, SearchStrategy::kExhaustive,
        SearchStrategy::kBinary}) {
    StreamingOptions options = BasicOptions();
    options.strategy = strategy;
    StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
    op.PushBatch(PeriodicStream(8, 4000));
    EXPECT_GT(op.frame().refreshes, 0u);
  }
}

TEST(StreamingAsapTest, CandidateAccountingAccumulates) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  op.PushBatch(PeriodicStream(9, 6000));
  EXPECT_GT(op.frame().candidates_evaluated, op.frame().refreshes);
}

void ExpectSameOperatorState(const StreamingAsap& got,
                             const StreamingAsap& want) {
  EXPECT_EQ(got.points_consumed(), want.points_consumed());
  EXPECT_EQ(got.frame().refreshes, want.frame().refreshes);
  EXPECT_EQ(got.frame().window, want.frame().window);
  EXPECT_EQ(got.frame().series, want.frame().series);
  EXPECT_EQ(got.frame().candidates_evaluated,
            want.frame().candidates_evaluated);
}

TEST(StreamingAsapTest, PushBatchFastPathMatchesPerPointPush) {
  // The bulk ingest path must be refresh-for-refresh (and bitwise)
  // identical to per-point ingest, for any batch segmentation and
  // refresh cadence — including batch boundaries that split panes
  // and refresh intervals smaller than a batch.
  const std::vector<double> data = PeriodicStream(10, 2500);
  const std::vector<size_t> batches = {1, 3, 64, 1000, data.size()};
  for (size_t refresh_every : {size_t{0}, size_t{7}, size_t{500}}) {
    for (bool preaggregate : {true, false}) {
      StreamingOptions options;
      options.resolution = 100;
      options.visible_points = 1000;
      options.refresh_every_points = refresh_every;
      options.enable_preaggregation = preaggregate;

      StreamingAsap per_point = StreamingAsap::Create(options).ValueOrDie();
      size_t point_refreshes = 0;
      for (double x : data) {
        point_refreshes += per_point.Push(x) ? 1 : 0;
      }

      for (size_t batch : batches) {
        StreamingAsap bulk = StreamingAsap::Create(options).ValueOrDie();
        size_t bulk_refreshes = 0;
        for (size_t i = 0; i < data.size(); i += batch) {
          const size_t n = std::min(batch, data.size() - i);
          bulk_refreshes += bulk.PushBatch(data.data() + i, n);
        }
        SCOPED_TRACE("refresh_every=" + std::to_string(refresh_every) +
                     " preaggregate=" + std::to_string(preaggregate) +
                     " batch=" + std::to_string(batch));
        EXPECT_EQ(bulk_refreshes, point_refreshes);
        ExpectSameOperatorState(bulk, per_point);
      }
    }
  }

  // Timed leg (pane width 10): runs of points sharing a bucket and a
  // tick, steps of 20 ticks (one empty bucket skipped), jumps of 47
  // (several), and batch splits inside a bucket.
  std::vector<int64_t> ts;
  int64_t tick = 0;
  Pcg32 rng(11);
  for (size_t i = 0; i < data.size(); ++i) {
    const uint32_t r = rng.NextBounded(100);
    tick += r < 30 ? 0 : r < 90 ? 1 : r < 97 ? 20 : 47;
    ts.push_back(tick);
  }
  for (size_t refresh_every : {size_t{0}, size_t{7}, size_t{500}}) {
    StreamingOptions options;
    options.resolution = 100;
    options.visible_points = 1000;
    options.refresh_every_points = refresh_every;
    options.pane_width_ticks = 10;
    StreamingAsap per_point = StreamingAsap::Create(options).ValueOrDie();
    size_t point_refreshes = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      point_refreshes += per_point.PushTimed(&data[i], &ts[i], 1);
    }
    ASSERT_GE(point_refreshes, 5u);
    for (size_t batch : batches) {
      StreamingAsap bulk = StreamingAsap::Create(options).ValueOrDie();
      size_t bulk_refreshes = 0;
      for (size_t i = 0; i < data.size(); i += batch) {
        const size_t n = std::min(batch, data.size() - i);
        bulk_refreshes += bulk.PushTimed(data.data() + i, ts.data() + i, n);
      }
      SCOPED_TRACE("timed refresh_every=" + std::to_string(refresh_every) +
                   " batch=" + std::to_string(batch));
      EXPECT_EQ(bulk_refreshes, point_refreshes);
      ExpectSameOperatorState(bulk, per_point);
    }
  }
}

TEST(StreamingAsapTest, TimedFramesDoNotLagCountFrames) {
  // Timestamps ts = i on a pane grid of 10 ticks: the point with
  // ts = 10(p + 1) is the frontier reaching pane p's end, so it
  // commits pane p and renders the frame count mode renders after
  // 10(p + 1) points — not one pane behind.
  StreamingOptions count_options;
  count_options.resolution = 100;
  count_options.visible_points = 1000;
  StreamingOptions timed_options = count_options;
  timed_options.pane_width_ticks = 10;
  StreamingAsap count = StreamingAsap::Create(count_options).ValueOrDie();
  StreamingAsap timed = StreamingAsap::Create(timed_options).ValueOrDie();
  ASSERT_EQ(count.pane_size(), 10u);
  const std::vector<double> data = PeriodicStream(12, 2000);

  std::vector<StreamingAsap::Frame> count_frames;  // after 10(p + 1) points
  for (size_t i = 0; i < data.size(); ++i) {
    count.Push(data[i]);
    if ((i + 1) % 10 == 0) {
      count_frames.push_back(count.frame());
    }
  }
  size_t compared = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const int64_t ts = static_cast<int64_t>(i);
    timed.PushTimed(&data[i], &ts, 1);
    if (i % 10 != 0 || i < 40) {
      continue;
    }
    const size_t p = i / 10 - 1;
    const StreamingAsap::Frame& want = count_frames[p];
    const StreamingAsap::Frame& got = timed.frame();
    SCOPED_TRACE("p=" + std::to_string(p));
    ASSERT_EQ(got.series.size(), want.series.size());
    EXPECT_EQ(0, std::memcmp(got.series.data(), want.series.data(),
                             want.series.size() * sizeof(double)));
    EXPECT_EQ(got.window, want.window);
    EXPECT_EQ(got.refreshes, want.refreshes);
    EXPECT_EQ(got.seeded_searches, want.seeded_searches);
    EXPECT_EQ(got.cold_searches, want.cold_searches);
    EXPECT_EQ(got.candidates_evaluated, want.candidates_evaluated);
    ++compared;
  }
  EXPECT_EQ(compared, 196u);  // p = 3 .. 198
}

TEST(StreamingAsapTest, FrameSnapshotPublishesEachRefresh) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  const auto empty = op.frame_snapshot();
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->refreshes, 0u);

  op.PushBatch(PeriodicStream(11, 4000));
  const auto frame = op.frame_snapshot();
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->refreshes, op.frame().refreshes);
  EXPECT_EQ(frame->window, op.frame().window);
  EXPECT_EQ(frame->series, op.frame().series);
  // The old snapshot is immutable — publishing never touched it.
  EXPECT_EQ(empty->refreshes, 0u);

  // A snapshot taken now survives (and stays coherent) across future
  // refreshes.
  op.PushBatch(PeriodicStream(12, 4000));
  EXPECT_GT(op.frame().refreshes, frame->refreshes);
}

TEST(StreamingAsapTest, SnapshotRingRejectsZeroFrames) {
  StreamingOptions options = BasicOptions();
  options.snapshot_ring_frames = 0;
  EXPECT_FALSE(StreamingAsap::Create(options).ok());
}

TEST(StreamingAsapTest, DefaultRingKeepsOnlyTheLatestFrame) {
  StreamingAsap op = StreamingAsap::Create(BasicOptions()).ValueOrDie();
  EXPECT_TRUE(op.FrameHistory().empty());  // nothing published yet

  op.PushBatch(PeriodicStream(21, 8000));
  const auto history = op.FrameHistory();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0]->refreshes, op.frame().refreshes);
  EXPECT_EQ(history[0].get(), op.frame_snapshot().get());
}

TEST(StreamingAsapTest, SnapshotRingRetainsLastKFrames) {
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 500;
  options.snapshot_ring_frames = 3;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  EXPECT_TRUE(op.FrameHistory().empty());

  // Fewer refreshes than the ring holds: history grows with each.
  op.PushBatch(PeriodicStream(22, 1000));  // 2 refreshes
  ASSERT_EQ(op.FrameHistory().size(), 2u);

  op.PushBatch(PeriodicStream(23, 4000));  // many more refreshes
  const auto history = op.FrameHistory();
  ASSERT_EQ(history.size(), 3u);
  // Oldest first, consecutive refreshes, newest == frame_snapshot().
  EXPECT_EQ(history[0]->refreshes + 1, history[1]->refreshes);
  EXPECT_EQ(history[1]->refreshes + 1, history[2]->refreshes);
  EXPECT_EQ(history[2].get(), op.frame_snapshot().get());
  EXPECT_EQ(history[2]->refreshes, op.frame().refreshes);

  // Dashboard diffing: every retained frame is immutable, so a reader
  // can compare consecutive frames without copies.
  EXPECT_GE(history[2]->window, 1u);
}

TEST(StreamingAsapTest, SnapshotRingEvictsOldestInOrderOnWraparound) {
  // Publish far more refreshes than the ring holds: the window slides
  // forward refresh by refresh, always the *newest* K in order — the
  // oldest frame evicted first, never reordered or skipped.
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 200;
  const size_t kRing = 4;
  options.snapshot_ring_frames = kRing;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();

  const std::vector<double> data = PeriodicStream(24, 12000);
  size_t pushed = 0;
  uint64_t last_newest = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (op.Push(data[i])) {
      ++pushed;
      const auto history = op.FrameHistory();
      ASSERT_EQ(history.size(), std::min<size_t>(pushed, kRing));
      // Contiguous ascending refresh counters ending at the current
      // refresh — exactly the newest min(pushed, K) frames.
      for (size_t j = 0; j < history.size(); ++j) {
        EXPECT_EQ(history[j]->refreshes,
                  pushed - history.size() + 1 + j);
      }
      EXPECT_EQ(history.back()->refreshes, pushed);
      EXPECT_GT(history.back()->refreshes, last_newest);
      last_newest = history.back()->refreshes;
    }
  }
  ASSERT_GT(pushed, 3 * kRing);  // the ring really wrapped, repeatedly
  EXPECT_EQ(op.FrameHistory().size(), kRing);
}

TEST(StreamingAsapTest, SnapshotRingReadsStayCoherentUnderConcurrentPush) {
  // A reader diffs FrameHistory() while the ingest thread pushes: it
  // must always observe an immutable ring — oldest-first, contiguous
  // refresh counters, back() agreeing with frame_snapshot() — no
  // matter how the writer races it (the TSan CI job gates this).
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 100;
  options.snapshot_ring_frames = 3;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> rings_seen{0};
  std::thread reader([&] {
    uint64_t newest_seen = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto history = op.FrameHistory();
      if (history.empty()) {
        continue;
      }
      rings_seen.fetch_add(1, std::memory_order_relaxed);
      ASSERT_LE(history.size(), 3u);
      for (size_t j = 1; j < history.size(); ++j) {
        EXPECT_EQ(history[j - 1]->refreshes + 1, history[j]->refreshes);
      }
      // Monotone publication: the ring never goes backwards.
      EXPECT_GE(history.back()->refreshes, newest_seen);
      newest_seen = history.back()->refreshes;
      // A frame_snapshot taken right after must be at least as new as
      // the ring's back (the ring IS the publication point).
      EXPECT_GE(op.frame_snapshot()->refreshes, newest_seen);
    }
  });

  // Publish the first frame and let the reader see a ring before the
  // rest races it: a fast writer could otherwise finish before the
  // reader thread first runs.
  const std::vector<double> data = PeriodicStream(25, 30000);
  size_t pushed = 0;
  while (op.frame().refreshes == 0) {
    op.Push(data[pushed++]);
  }
  while (rings_seen.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  op.PushBatch(data.data() + pushed, data.size() - pushed);
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(op.frame().refreshes, 3u);
  EXPECT_GT(rings_seen.load(), 0u);
  const auto final_history = op.FrameHistory();
  ASSERT_EQ(final_history.size(), 3u);
  EXPECT_EQ(final_history.back()->refreshes, op.frame().refreshes);
}

// --- Per-thread refresh scratch -----------------------------------------------

// Every refresh of one operator, in order, as the frames it rendered.
using Frames = std::vector<StreamingAsap::Frame>;

constexpr size_t kLivePanes = 40;

struct ScratchFeed {
  size_t panes;                // visible panes (2 points each)
  std::vector<double> points;  // a full window, then the live panes
};

ScratchFeed MakeScratchFeed(size_t panes, uint64_t seed, double period) {
  return ScratchFeed{panes,
                     PeriodicStream(seed, 2 * (panes + kLivePanes), period)};
}

// Feeds the operators in turn, one pane each, on the calling thread,
// after preloading each with a full window, so every push refreshes.
std::vector<Frames> FeedInTurn(const std::vector<ScratchFeed>& feeds) {
  std::vector<StreamingAsap> ops;
  for (const ScratchFeed& feed : feeds) {
    StreamingOptions options;
    options.resolution = feed.panes;
    options.visible_points = 2 * feed.panes;
    ops.push_back(StreamingAsap::Create(options).ValueOrDie());
    ops.back().Prefill(std::vector<double>(
        feed.points.begin(), feed.points.begin() + 2 * feed.panes));
  }
  std::vector<Frames> frames(feeds.size());
  for (size_t pane = 0; pane < kLivePanes; ++pane) {
    for (size_t i = 0; i < ops.size(); ++i) {
      const size_t first = 2 * (feeds[i].panes + pane);
      EXPECT_EQ(ops[i].PushBatch(feeds[i].points.data() + first, 2), 1u);
      frames[i].push_back(ops[i].frame());
    }
  }
  return frames;
}

void ExpectBitwiseEqualFrames(const Frames& got, const Frames& want,
                              const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].series.size(), want[r].series.size()) << what;
    EXPECT_EQ(0, std::memcmp(got[r].series.data(), want[r].series.data(),
                             want[r].series.size() * sizeof(double)))
        << what << " refresh " << r;
    EXPECT_EQ(got[r].window, want[r].window) << what << " refresh " << r;
    EXPECT_EQ(got[r].seeded_searches, want[r].seeded_searches) << what;
    EXPECT_EQ(got[r].candidates_evaluated, want[r].candidates_evaluated)
        << what;
  }
}

TEST(StreamingAsapTest, PerThreadScratchCarriesNothingBetweenOperators) {
  // A refresh evaluates in its thread's SeriesContext, so operators
  // fed from one thread share it. Operators with 400 and 2000 visible
  // panes change its size and the ACF's transform size at every
  // refresh; a third with the first one's geometry but other data
  // would also expose an ACF cached across operators. Every frame must
  // equal, bit for bit, the frame the operator renders when it is fed
  // alone on its own thread.
  const std::vector<ScratchFeed> feeds = {MakeScratchFeed(400, 31, 48.0),
                                          MakeScratchFeed(2000, 32, 60.0),
                                          MakeScratchFeed(400, 33, 24.0)};
  std::vector<Frames> alone(feeds.size());
  for (size_t i = 0; i < feeds.size(); ++i) {
    std::thread([&, i] { alone[i] = FeedInTurn({feeds[i]})[0]; }).join();
  }

  const std::vector<Frames> interleaved = FeedInTurn(feeds);
  for (size_t i = 0; i < feeds.size(); ++i) {
    ExpectBitwiseEqualFrames(interleaved[i], alone[i],
                             "one thread, operator " + std::to_string(i));
  }

  // Two threads interleaving their own operators at the same time.
  std::vector<Frames> first;
  std::vector<Frames> second;
  std::thread a([&] { first = FeedInTurn(feeds); });
  std::thread b([&] { second = FeedInTurn({feeds[2], feeds[1], feeds[0]}); });
  a.join();
  b.join();
  for (size_t i = 0; i < feeds.size(); ++i) {
    ExpectBitwiseEqualFrames(first[i], alone[i],
                             "thread a, operator " + std::to_string(i));
    ExpectBitwiseEqualFrames(second[2 - i], alone[i],
                             "thread b, operator " + std::to_string(i));
  }
}

// --- The operator against the FFT refresh -----------------------------------------

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The mean of one arrival-input pane of `pane` points, computed as
// window::PaneBuffer does.
double PaneMean(const double* points, size_t pane) {
  double sum = 0.0;
  for (size_t i = 0; i < pane; ++i) {
    sum += points[i];
  }
  return sum / static_cast<double>(pane);
}

// A refresh as the operator ran it before the sliding ACF: seed with
// the previous window if it is still feasible, then AsapSearchWithAcf
// on ComputeAcfInfo of the visible panes.
struct FftRefresh {
  SearchOptions options;
  size_t previous = 0;  // 0 before the first refresh
  uint64_t candidates = 0;

  size_t Run(const std::vector<double>& x) {
    SeriesContext ctx(x);
    const AcfInfo acf = ComputeAcfInfo(
        x, options.ResolveMaxWindow(x.size()) + 1, options.acf_threshold);
    AsapState state;
    if (previous >= 1 && previous <= x.size()) {
      candidates += 1;
      const CandidateScore score = ScoreWindow(ctx, previous);
      if (score.kurtosis >= ctx.kurtosis()) {
        state.window = previous;
        state.roughness = score.roughness;
        state.has_feasible = true;
        const double corr = previous < acf.correlations.size()
                                ? acf.correlations[previous]
                                : 0.0;
        state.lower_bound =
            std::max(1.0, WindowLowerBound(previous, corr, acf.max_acf));
      }
    }
    const SearchResult result = AsapSearchWithAcf(&ctx, acf, options, &state);
    candidates += result.diag.candidates_evaluated;
    previous = result.window;
    return result.window;
  }
};

TEST(StreamingAsapTest, SlidesOnlyWhereUpkeepBeatsTheFft) {
  // I * (L + 1) < NextPowerOfTwo(n + L) at the full window.
  struct Geometry {
    size_t resolution;
    size_t visible_points;
    size_t refresh_every_points;
    size_t period;
  };
  const Geometry geometries[] = {
      {2000, 20000, 0, 2000},  // refresh_bound: 1 * 202 < 4096
      {400, 4000, 4000, 0},    // firehose: 400 * 42 >= 512
      {400, 4000, 250, 0},     // dashboard: 25 * 42 >= 512
      {100, 2000, 250, 0},     // 13 * 12 >= 128
      {100, 2000, 20, 100},    // 1 * 12 < 128
      {200, 4000, 100, 200},   // 5 * 22 < 256: R = 5 * ceil(200 / 5)
      {200, 4000, 220, 209},   // 11 * 22 < 256: R = 11 * ceil(200 / 11)
  };
  for (const Geometry& g : geometries) {
    StreamingOptions options;
    options.resolution = g.resolution;
    options.visible_points = g.visible_points;
    options.refresh_every_points = g.refresh_every_points;
    EXPECT_EQ(StreamingAsap::Create(options).ValueOrDie().acf_rebuild_period(),
              g.period)
        << g.resolution << "/" << g.refresh_every_points;
    // Only ASAP reads the ACF.
    for (SearchStrategy strategy :
         {SearchStrategy::kExhaustive, SearchStrategy::kGrid,
          SearchStrategy::kBinary}) {
      options.strategy = strategy;
      EXPECT_EQ(
          StreamingAsap::Create(options).ValueOrDie().acf_rebuild_period(), 0u);
    }
  }
}

TEST(StreamingAsapTest, RebuildingOperatorsRenderTheFftRefreshFrames) {
  // The firehose and dashboard geometries recompute the ACF with the
  // FFT at every refresh, so every frame is the FFT refresh's: same
  // window, same series bits, same candidate count.
  for (size_t refresh_every_points : {size_t{4000}, size_t{250}}) {
    StreamingOptions options;
    options.resolution = 400;
    options.visible_points = 4000;
    options.refresh_every_points = refresh_every_points;
    StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
    ASSERT_EQ(op.acf_rebuild_period(), 0u);
    const size_t pane = op.pane_size();
    const size_t interval = op.refresh_interval_panes();
    const std::vector<double> data = PeriodicStream(61, 3 * 4000, 37.0);
    std::deque<double> panes;
    FftRefresh reference{options.search};
    size_t refreshes = 0;
    for (size_t start = 0; start + pane <= data.size(); start += pane) {
      panes.push_back(PaneMean(data.data() + start, pane));
      if (panes.size() > 400) {
        panes.pop_front();
      }
      if (op.PushBatch(data.data() + start, pane) == 0) {
        continue;
      }
      const std::vector<double> x(panes.begin(), panes.end());
      const size_t window = reference.Run(x);
      const StreamingAsap::Frame& frame = op.frame();
      ASSERT_EQ(frame.window, window) << "refresh " << refreshes;
      const std::vector<double> series = window::Sma(x, window);
      ASSERT_TRUE(SameBits(frame.series, series)) << "refresh " << refreshes;
      ASSERT_EQ(frame.candidates_evaluated, reference.candidates);
      ++refreshes;
      ASSERT_EQ(frame.acf_rebuilds, refreshes);
    }
    EXPECT_GE(refreshes, 3 * 400 / interval - 1);
  }
}

TEST(StreamingAsapTest, SlidingAcfRebuildsOncePerWindowTurnover) {
  // 200 one-point panes refreshing every I panes slide their ACF. A
  // refresh rebuilds it with the FFT when the window grew since the
  // last refresh, when a multiple of R = I * ceil(200 / I) committed
  // panes passed since then, and while a NaN pane is or has been
  // visible since the last rebuild; otherwise it slides. An exhaustive
  // operator computes no ACF at all.
  const std::vector<double> data = [] {
    std::vector<double> v = PeriodicStream(81, 1400, 30.0);
    v[700] = std::nan("");  // pane 701, visible at panes 701..900
    return v;
  }();
  for (size_t interval : {size_t{1}, size_t{5}, size_t{11}}) {
    StreamingOptions options;
    options.resolution = 200;
    options.visible_points = 200;
    options.enable_preaggregation = false;
    options.refresh_every_points = interval;
    StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
    const size_t period = op.acf_rebuild_period();
    ASSERT_EQ(period, interval * ((200 + interval - 1) / interval));
    uint64_t last = 0;  // committed panes at the previous refresh
    uint64_t rebuilds = 0;
    for (uint64_t p = 1; p <= data.size(); ++p) {
      if (!op.Push(data[p - 1])) {
        continue;
      }
      const bool grew =
          std::min<uint64_t>(last, 200) != std::min<uint64_t>(p, 200);
      const bool scheduled = p / period != last / period;
      const bool nan = p >= 701 && last <= 900;
      rebuilds += grew || scheduled || nan ? 1 : 0;
      ASSERT_EQ(op.frame().acf_rebuilds, rebuilds)
          << "interval " << interval << " at pane " << p;
      last = p;
    }
    EXPECT_LT(rebuilds, op.frame().refreshes / 2) << "interval " << interval;

    options.strategy = SearchStrategy::kExhaustive;
    StreamingAsap exhaustive = StreamingAsap::Create(options).ValueOrDie();
    exhaustive.PushBatch(data);
    EXPECT_GT(exhaustive.frame().refreshes, 0u);
    EXPECT_EQ(exhaustive.frame().acf_rebuilds, 0u);
  }
}

// Every frame an operator published, oldest first (its ring must be
// deep enough to hold them all).
Frames Published(const StreamingAsap& op) {
  Frames frames;
  for (const auto& frame : op.FrameHistory()) {
    frames.push_back(*frame);
  }
  return frames;
}

TEST(StreamingAsapTest, CadencedRestoreMatchesArrivalIngest) {
  // One-point panes, so the restored means are the pushed points. At
  // one refresh per pane the operator slides (R = 200 panes); at one
  // per 20 it rebuilds at every refresh. Either way restore replays
  // the same commits and refreshes, so the frames and the ring match
  // bit for bit, lifetime counters included.
  for (size_t refresh_every_points : {size_t{0}, size_t{20}}) {
    StreamingOptions options;
    options.resolution = 200;
    options.visible_points = 200;
    options.enable_preaggregation = false;
    options.refresh_every_points = refresh_every_points;
    options.snapshot_ring_frames = 1000;
    const std::vector<double> data = PeriodicStream(71, 700, 30.0);

    StreamingAsap live = StreamingAsap::Create(options).ValueOrDie();
    EXPECT_EQ(live.acf_rebuild_period(), refresh_every_points == 0 ? 200u : 0u);
    live.PushBatch(data);
    StreamingAsap restored = StreamingAsap::Create(options).ValueOrDie();
    restored.RestorePanes(data.data(), data.size(), /*cadenced=*/true);

    const std::string what =
        "refresh every " + std::to_string(refresh_every_points);
    EXPECT_EQ(restored.points_consumed(), live.points_consumed()) << what;
    const Frames want = Published(live);
    ASSERT_GT(want.size(), 2 * 200 / live.refresh_interval_panes()) << what;
    const Frames got = Published(restored);
    ExpectBitwiseEqualFrames(got, want, what);
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].refreshes, want[r].refreshes) << what;
      EXPECT_EQ(got[r].cold_searches, want[r].cold_searches) << what;
      EXPECT_EQ(got[r].allocation_free_evals, want[r].allocation_free_evals)
          << what;
      EXPECT_EQ(got[r].acf_rebuilds, want[r].acf_rebuilds) << what;
    }
  }
}

// --- Frame summaries --------------------------------------------------------

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSummaryBitEq(const FrameSummary& got, const FrameSummary& want,
                        const std::string& what) {
  EXPECT_TRUE(BitEq(got.roughness, want.roughness)) << what;
  EXPECT_TRUE(BitEq(got.baseline.center, want.baseline.center)) << what;
  EXPECT_TRUE(BitEq(got.baseline.scale, want.baseline.scale)) << what;
  EXPECT_TRUE(BitEq(got.max_abs_z, want.max_abs_z)) << what;
}

// The summary recomputed the way the rollups computed it before frames
// cached it: Roughness, then the detector's median and 1.4826 x MAD,
// then the largest |(x - center) / scale| that is not NaN.
FrameSummary ReferenceSummary(const std::vector<double>& series) {
  FrameSummary want;
  want.roughness = Roughness(series);
  if (series.size() < 8) {
    return want;
  }
  want.baseline.center = stats::Median(series);
  std::vector<double> abs_dev(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    abs_dev[i] = std::fabs(series[i] - want.baseline.center);
  }
  want.baseline.scale = 1.4826 * stats::Median(abs_dev);
  if (want.baseline.scale > 0.0) {
    for (const double x : series) {
      const double z =
          std::fabs((x - want.baseline.center) / want.baseline.scale);
      if (!std::isnan(z)) {
        want.max_abs_z = std::max(want.max_abs_z, z);
      }
    }
  }
  return want;
}

// Frames the summary must cover: a smoothed periodic series, one with
// a sustained shift, NaN, +inf and -inf points, a flat one, and frames
// shorter than the detector's 8 points.
std::vector<std::pair<std::string, std::vector<double>>> SummaryCases() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, std::vector<double>>> cases;
  cases.emplace_back("periodic", PeriodicStream(81, 373));
  std::vector<double> shifted = PeriodicStream(82, 373);
  for (size_t i = 300; i < 340; ++i) {
    shifted[i] += 9.0;
  }
  cases.emplace_back("shifted", shifted);
  std::vector<double> with_nan = PeriodicStream(83, 64);
  with_nan[10] = nan;
  cases.emplace_back("nan", with_nan);
  std::vector<double> with_inf = PeriodicStream(84, 64);
  with_inf[20] = inf;
  with_inf[21] = -inf;
  cases.emplace_back("inf", with_inf);
  cases.emplace_back("flat", std::vector<double>(50, 2.5));
  cases.emplace_back("eight", PeriodicStream(85, 8));
  cases.emplace_back("seven", PeriodicStream(86, 7));
  cases.emplace_back("two", std::vector<double>{1.0, 3.0});
  cases.emplace_back("empty", std::vector<double>{});
  return cases;
}

TEST(FrameSummaryTest, MatchesRoughnessAndTheDetectorBaselineBitwise) {
  for (const auto& [what, series] : SummaryCases()) {
    StreamingAsap::Frame frame;
    frame.series = series;
    const FrameSummary& summary = frame.summary();
    ExpectSummaryBitEq(summary, ReferenceSummary(series), what);
    EXPECT_TRUE(BitEq(summary.roughness, Roughness(series))) << what;
    if (series.size() >= FrameSummary::kMinBaselinePoints) {
      const stats::RobustBaseline baseline = stats::MedianMad(series);
      EXPECT_TRUE(BitEq(summary.baseline.center, baseline.center)) << what;
      EXPECT_TRUE(BitEq(summary.baseline.scale, baseline.scale)) << what;
    }
    // A second read returns the cached value itself.
    EXPECT_EQ(&frame.summary(), &summary) << what;
  }
}

TEST(FrameSummaryTest, ACopiedOrAssignedFrameRecomputesItsSummary) {
  const std::vector<double> first = PeriodicStream(91, 200);
  const std::vector<double> second = PeriodicStream(92, 300, 30.0);
  StreamingAsap::Frame original;
  original.series = first;
  const FrameSummary first_summary = original.summary();

  // A copy starts uncomputed, so it summarizes the series it holds
  // when first read, not the one its source had summarized.
  StreamingAsap::Frame copy = original;
  copy.series = second;
  ExpectSummaryBitEq(copy.summary(), ReferenceSummary(second), "copy");
  ExpectSummaryBitEq(original.summary(), first_summary, "original");

  // So does an assigned frame, whatever it had cached before.
  StreamingAsap::Frame assigned;
  assigned.series = second;
  (void)assigned.summary();
  assigned = original;
  ExpectSummaryBitEq(assigned.summary(), first_summary, "assigned");
}

TEST(FrameSummaryTest, WorkingFrameSummaryFollowsRefreshes) {
  // The operator's own frame is refreshed in place: a summary read
  // before a refresh must not survive it.
  StreamingOptions options = BasicOptions();
  options.refresh_every_points = 200;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();
  const std::vector<double> data = PeriodicStream(93, 8000);
  size_t pushed = 0;
  while (op.frame().refreshes == 0) {
    op.Push(data[pushed++]);
  }
  const FrameSummary before = op.frame().summary();
  ExpectSummaryBitEq(before, ReferenceSummary(op.frame().series), "before");
  const std::vector<double> old_series = op.frame().series;
  const uint64_t refreshes = op.frame().refreshes;
  while (op.frame().refreshes == refreshes) {
    op.Push(data[pushed++]);
  }
  ASSERT_NE(op.frame().series, old_series);
  const FrameSummary after = op.frame().summary();
  ExpectSummaryBitEq(after, ReferenceSummary(op.frame().series), "after");
  EXPECT_FALSE(BitEq(after.roughness, before.roughness));
  // The published copy of the same refresh agrees.
  ExpectSummaryBitEq(op.frame_snapshot()->summary(), after, "published");
}

TEST(FrameSummaryTest, ConcurrentFirstReadsSeeTheSameBits) {
  // Eight threads, released together, make the first read of one
  // fresh frame's summary: exactly one computes it, every reader sees
  // the same bits (the TSan CI job runs this case by name).
  constexpr size_t kThreads = 8;
  for (uint64_t round = 0; round < 16; ++round) {
    auto frame = std::make_shared<StreamingAsap::Frame>();
    frame->series = PeriodicStream(100 + round, 373);
    const std::shared_ptr<const StreamingAsap::Frame> published = frame;
    const FrameSummary want = ReferenceSummary(published->series);

    std::atomic<size_t> waiting{0};
    std::vector<FrameSummary> seen(kThreads);
    std::vector<const FrameSummary*> where(kThreads, nullptr);
    std::vector<std::thread> readers;
    for (size_t t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        waiting.fetch_add(1, std::memory_order_acq_rel);
        while (waiting.load(std::memory_order_acquire) < kThreads) {
          std::this_thread::yield();
        }
        where[t] = &published->summary();
        seen[t] = *where[t];
      });
    }
    for (std::thread& reader : readers) {
      reader.join();
    }
    for (size_t t = 0; t < kThreads; ++t) {
      const std::string what =
          "round " + std::to_string(round) + " thread " + std::to_string(t);
      EXPECT_EQ(where[t], where[0]) << what;
      ExpectSummaryBitEq(seen[t], want, what);
    }
  }
}

}  // namespace
}  // namespace asap
