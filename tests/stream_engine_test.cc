// Tests for src/stream sources, and for driving a StreamingAsap from
// one in batches.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/streaming_asap.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace asap {
namespace stream {
namespace {

TEST(VectorSourceTest, EmitsAllPointsInOrder) {
  VectorSource source({1, 2, 3, 4, 5});
  std::vector<double> out;
  EXPECT_EQ(source.NextBatch(2, &out), 2u);
  EXPECT_EQ(source.NextBatch(10, &out), 3u);
  EXPECT_EQ(source.NextBatch(10, &out), 0u);
  EXPECT_EQ(out, (std::vector<double>{1, 2, 3, 4, 5}));
  EXPECT_EQ(source.TotalPoints(), 5u);
}

TEST(VectorSourceTest, RewindRestarts) {
  VectorSource source({1, 2});
  std::vector<double> out;
  source.NextBatch(10, &out);
  source.Rewind();
  EXPECT_EQ(source.NextBatch(10, &out), 2u);
}

TEST(LoopingSourceTest, WrapsAroundUntilTotal) {
  LoopingSource source({1, 2, 3}, 7);
  std::vector<double> out;
  size_t total = 0;
  size_t n;
  while ((n = source.NextBatch(4, &out)) > 0) {
    total += n;
  }
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(out, (std::vector<double>{1, 2, 3, 1, 2, 3, 1}));
}

TEST(LoopingSourceTest, PartialFinalBatchStopsAtTotal) {
  // total_points is not a multiple of either the payload length or the
  // batch size: the final batch must be partial and stop exactly at
  // the total.
  LoopingSource source({1, 2, 3, 4, 5}, /*total_points=*/12);
  std::vector<double> out;
  EXPECT_EQ(source.NextBatch(5, &out), 5u);
  EXPECT_EQ(source.NextBatch(5, &out), 5u);
  EXPECT_EQ(source.NextBatch(5, &out), 2u);  // partial final batch
  EXPECT_EQ(source.NextBatch(5, &out), 0u);
  EXPECT_EQ(out,
            (std::vector<double>{1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2}));
}

TEST(LoopingSourceTest, ZeroTotalMeansEndless) {
  LoopingSource source({1, 2}, /*total_points=*/0);
  EXPECT_EQ(source.TotalPoints(), 0u);  // 0 = unbounded, per the contract
  std::vector<double> out;
  EXPECT_EQ(source.NextBatch(1000, &out), 1000u);
  EXPECT_EQ(source.NextBatch(1000, &out), 1000u);
  EXPECT_EQ(out[999], 2.0);
  EXPECT_EQ(out[1000], 1.0);
}

TEST(LoopingSourceTest, WrapAroundMidBatch) {
  // A batch that straddles the payload boundary must wrap in place.
  LoopingSource source({7, 8, 9}, /*total_points=*/8);
  std::vector<double> out;
  EXPECT_EQ(source.NextBatch(100, &out), 8u);
  EXPECT_EQ(out, (std::vector<double>{7, 8, 9, 7, 8, 9, 7, 8}));
}

// Feeds `source` to exhaustion through op->PushBatch in batches of
// `batch_size`; returns the refreshes the batches reported.
uint64_t PushAll(Source* source, StreamingAsap* op, size_t batch_size) {
  std::vector<double> batch;
  uint64_t refreshes = 0;
  while (source->NextBatch(batch_size, &batch) > 0) {
    refreshes += op->PushBatch(batch);
    batch.clear();
  }
  return refreshes;
}

TEST(SourceDrivenAsapTest, BatchesCountPointsAndRefreshes) {
  Pcg32 rng(1);
  std::vector<double> data =
      gen::Add(gen::Sine(8000, 50.0), gen::WhiteNoise(&rng, 8000, 0.3));
  VectorSource source(data);

  StreamingOptions options;
  options.resolution = 200;
  options.visible_points = 4000;
  StreamingAsap op = StreamingAsap::Create(options).ValueOrDie();

  const uint64_t refreshes = PushAll(&source, &op, 512);
  EXPECT_EQ(op.points_consumed(), 8000u);
  EXPECT_GT(refreshes, 0u);
  EXPECT_EQ(refreshes, op.frame().refreshes);
}

TEST(SourceDrivenAsapTest, LazyRefreshReducesRefreshCount) {
  Pcg32 rng(2);
  std::vector<double> data =
      gen::Add(gen::Sine(20000, 50.0), gen::WhiteNoise(&rng, 20000, 0.3));

  StreamingOptions eager;
  eager.resolution = 200;
  eager.visible_points = 4000;
  StreamingAsap eager_op = StreamingAsap::Create(eager).ValueOrDie();
  VectorSource s1(data);
  const uint64_t eager_refreshes = PushAll(&s1, &eager_op, 1024);

  StreamingOptions lazy = eager;
  lazy.refresh_every_points = 2000;  // 100x lazier than per-pane (20)
  StreamingAsap lazy_op = StreamingAsap::Create(lazy).ValueOrDie();
  VectorSource s2(data);
  const uint64_t lazy_refreshes = PushAll(&s2, &lazy_op, 1024);

  EXPECT_GT(eager_refreshes, 10 * lazy_refreshes);
}

}  // namespace
}  // namespace stream
}  // namespace asap
