// Property tests for the per-shard reordering sequencer: across
// random seeds, emitted order is sorted by (ts, arrival), late counts
// match an independent replay of the late rule exactly, and the
// emitted multiset equals the accepted records — so the sequencer is
// a pure reorder-or-drop stage, never a mutate stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "stream/sequencer.h"

namespace asap {
namespace stream {
namespace {

TEST(SequencerTest, HoldsRecordsInsideTheHorizonUntilFlush) {
  Sequencer seq(100);
  const RecordBatch input = {{1, 1.0, 10}, {1, 2.0, 30}, {1, 3.0, 20}};
  RecordBatch out;
  // Watermark 30, floor -70: everything is inside the horizon.
  EXPECT_EQ(seq.Push(input.data(), input.size(), &out), 0u);
  EXPECT_EQ(seq.buffered(), 3u);
  EXPECT_EQ(seq.Flush(&out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].ts, 10);
  EXPECT_EQ(out[1].ts, 20);
  EXPECT_EQ(out[2].ts, 30);
}

TEST(SequencerTest, ReleasesRecordsThatAgePastTheHorizon) {
  Sequencer seq(10);
  RecordBatch out;
  const Record early{1, 1.0, 0};
  seq.Push(&early, 1, &out);
  EXPECT_TRUE(out.empty());  // watermark 0, floor -10
  const Record later{1, 2.0, 25};
  seq.Push(&later, 1, &out);
  // Watermark 25, floor 15: ts 0 is released, ts 25 still staged.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 0);
  EXPECT_EQ(seq.buffered(), 1u);
}

TEST(SequencerTest, DropsLateRecordsAndCountsPerSeries) {
  Sequencer seq(10);
  RecordBatch out;
  const Record head{1, 1.0, 100};
  seq.Push(&head, 1, &out);
  // Floor is 90: ts 50 and 89 are late, ts 90 is on time.
  const RecordBatch tail = {{2, 2.0, 50}, {3, 3.0, 89}, {2, 4.0, 90}};
  seq.Push(tail.data(), tail.size(), &out);
  EXPECT_EQ(seq.late_dropped(), 2u);
  EXPECT_EQ(seq.late_by_series().at(2), 1u);
  EXPECT_EQ(seq.late_by_series().at(3), 1u);
  // ts 90 sits exactly at the floor (watermark - horizon), so it was
  // released by the Push itself; only ts 100 waits for Flush.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 90);
  RecordBatch rest;
  seq.Flush(&rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].ts, 100);
}

TEST(SequencerTest, LateRuleFollowsArrivalOrderWithinABatch) {
  // The watermark advances per record in arrival order: {100, 50}
  // drops the 50 (it arrives behind a newer record), but {50, 100} —
  // the same timestamps in order — drops nothing. In-order input is
  // never late, whatever its span.
  Sequencer backwards(10);
  const RecordBatch reversed = {{1, 1.0, 100}, {1, 2.0, 50}};
  RecordBatch out;
  backwards.Push(reversed.data(), reversed.size(), &out);
  EXPECT_EQ(backwards.late_dropped(), 1u);
  RecordBatch rest;
  backwards.Flush(&rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].ts, 100);

  Sequencer forwards(10);
  const RecordBatch in_order = {{1, 2.0, 50}, {1, 1.0, 100}};
  out.clear();
  forwards.Push(in_order.data(), in_order.size(), &out);
  forwards.Flush(&out);
  EXPECT_EQ(forwards.late_dropped(), 0u);
  EXPECT_EQ(out.size(), 2u);
}

TEST(SequencerTest, OutputStaysInOrderAcrossFlush) {
  // A Flush releases records newer than watermark - horizon, so the
  // floor rises to the newest one released: a record older than that
  // is late in any later push, and emission stays non-decreasing in
  // ts across the flush.
  Sequencer seq(50);
  RecordBatch out;
  RecordBatch first;
  for (int64_t ts = 0; ts < 1000; ++ts) {
    if (ts != 985) {
      first.push_back(Record{1, 1.0, ts});
    }
  }
  seq.Push(first.data(), first.size(), &out);
  EXPECT_EQ(seq.floor(), 949);
  seq.Flush(&out);
  EXPECT_EQ(seq.floor(), 999);
  ASSERT_EQ(out.size(), first.size());

  const RecordBatch second = {{2, 2.0, 985}, {1, 3.0, 999}, {1, 4.0, 1000}};
  seq.Push(second.data(), second.size(), &out);
  seq.Flush(&out);
  EXPECT_EQ(seq.late_dropped(), 1u);
  EXPECT_EQ(seq.late_by_series().at(2), 1u);
  EXPECT_EQ(seq.late_by_series().count(1), 0u);
  // ts 999 equals the newest flushed timestamp: still on time.
  ASSERT_EQ(out.size(), first.size() + 2);
  EXPECT_EQ(out[out.size() - 2].ts, 999);
  EXPECT_EQ(out.back().ts, 1000);
  for (size_t k = 1; k < out.size(); ++k) {
    EXPECT_LE(out[k - 1].ts, out[k].ts) << "position " << k;
  }
}

// ---------------------------------------------------------------------
// Seeded property: random timestamps within and beyond the horizon,
// pushed in random batch splits, checked against an independent
// replay of the sequencer's contract.

class SequencerProperty : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SequencerProperty,
                         ::testing::Range<uint64_t>(1, 25));

TEST_P(SequencerProperty, EmitsSortedDropsExactlyTheLateOnes) {
  Pcg32 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 12345);
  const int64_t horizon = 20 + static_cast<int64_t>(rng.NextBounded(80));
  Sequencer seq(horizon);

  // A drifting clock with jitter occasionally far enough back to be
  // late. Values encode arrival order so the multiset check below
  // also pins that payloads ride along unmutated.
  const size_t n = 500 + rng.NextBounded(1500);
  RecordBatch input;
  input.reserve(n);
  int64_t clock = 0;
  for (size_t i = 0; i < n; ++i) {
    clock += static_cast<int64_t>(rng.NextBounded(4));
    int64_t ts = clock - static_cast<int64_t>(rng.NextBounded(
                             static_cast<uint32_t>(horizon) * 2));
    input.push_back(
        Record{1 + rng.NextBounded(5), static_cast<double>(i), ts});
  }

  // Reference replay of the contract: the watermark advances per
  // record in arrival order, and a record is late iff
  // ts < watermark - horizon at its own arrival; accepted records are
  // emitted sorted by (ts, arrival index).
  RecordBatch emitted;
  uint64_t expected_late = 0;
  std::unordered_map<SeriesId, uint64_t> expected_late_by_series;
  std::vector<std::pair<int64_t, size_t>> accepted;  // (ts, arrival)
  int64_t watermark = std::numeric_limits<int64_t>::min();

  size_t i = 0;
  while (i < input.size()) {
    const size_t batch = std::min<size_t>(1 + rng.NextBounded(64),
                                          input.size() - i);
    for (size_t k = i; k < i + batch; ++k) {
      watermark = std::max(watermark, input[k].ts);
      if (input[k].ts < watermark - horizon) {
        expected_late += 1;
        expected_late_by_series[input[k].series_id] += 1;
      } else {
        accepted.emplace_back(input[k].ts, k);
      }
    }
    const size_t before = emitted.size();
    const size_t appended = seq.Push(input.data() + i, batch, &emitted);
    EXPECT_EQ(emitted.size(), before + appended);
    i += batch;
  }
  seq.Flush(&emitted);

  EXPECT_EQ(seq.late_dropped(), expected_late);
  EXPECT_EQ(seq.late_by_series().size(), expected_late_by_series.size());
  for (const auto& [id, count] : expected_late_by_series) {
    EXPECT_EQ(seq.late_by_series().at(id), count) << "series " << id;
  }
  EXPECT_EQ(seq.emitted(), emitted.size());
  EXPECT_EQ(seq.buffered(), 0u);
  EXPECT_EQ(seq.records_in(), emitted.size());

  // The emitted sequence IS the accepted records sorted by
  // (ts, arrival) — same length, same order, payloads intact.
  std::sort(accepted.begin(), accepted.end());
  ASSERT_EQ(emitted.size(), accepted.size());
  for (size_t k = 0; k < emitted.size(); ++k) {
    EXPECT_EQ(emitted[k].ts, accepted[k].first) << "position " << k;
    EXPECT_EQ(emitted[k], input[accepted[k].second]) << "position " << k;
    if (k > 0) {
      EXPECT_LE(emitted[k - 1].ts, emitted[k].ts) << "position " << k;
    }
  }
}

TEST_P(SequencerProperty, ShuffleWithinHorizonEmitsTheSortedSequence) {
  // Two pushes of the same multiset in different within-horizon orders
  // must emit identical sequences — the determinism-under-skew
  // property engine parity rests on.
  Pcg32 rng(GetParam() * 0xda3e39cb94b95bdbULL + 7);
  const int64_t horizon = 50;
  const size_t n = 400;

  RecordBatch sorted_input;
  sorted_input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Strictly increasing ts so order within equal ts cannot differ.
    sorted_input.push_back(
        Record{1 + rng.NextBounded(3), rng.NextDouble(),
               static_cast<int64_t>(i) * 2});
  }
  RecordBatch shuffled = sorted_input;
  // Displace each record at most horizon/4 ticks (blocks of 8 at
  // stride-2 ticks): comfortably inside the reordering window.
  for (size_t start = 0; start + 8 <= shuffled.size(); start += 8) {
    for (size_t k = 7; k > 0; --k) {
      std::swap(shuffled[start + k],
                shuffled[start + rng.NextBounded(static_cast<uint32_t>(k + 1))]);
    }
  }

  RecordBatch out_sorted;
  RecordBatch out_shuffled;
  Sequencer a(horizon);
  Sequencer b(horizon);
  for (size_t i = 0; i < n; i += 37) {
    const size_t batch = std::min<size_t>(37, n - i);
    a.Push(sorted_input.data() + i, batch, &out_sorted);
    b.Push(shuffled.data() + i, batch, &out_shuffled);
  }
  a.Flush(&out_sorted);
  b.Flush(&out_shuffled);

  EXPECT_EQ(a.late_dropped(), 0u);
  EXPECT_EQ(b.late_dropped(), 0u);
  EXPECT_EQ(out_shuffled, out_sorted);
  EXPECT_EQ(out_sorted.size(), n);
}

}  // namespace
}  // namespace stream
}  // namespace asap
