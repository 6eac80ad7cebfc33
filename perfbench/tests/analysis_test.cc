// Checks of the benchmark's own analysis (src/analysis.h). Built by
// perfbench/CMakeLists.txt and run by run.py before every benchmark
// run; exits 1 on the first failed check.

#include "analysis.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

int g_checks = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    ++g_checks;                                                       \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

void PercentileSelection() {
  // p99 of 1000 samples leaves exactly 10 beyond it: qualifies.
  EXPECT(SamplesBeyond(1000, 99.0) == 10);
  EXPECT(HighestQualifyingPercentile(1000) == 99.0);
  // One sample short of that and only p90 qualifies.
  EXPECT(SamplesBeyond(999, 99.0) == 9);
  EXPECT(HighestQualifyingPercentile(999) == 90.0);
  EXPECT(HighestQualifyingPercentile(10000) == 99.9);
  EXPECT(HighestQualifyingPercentile(100000) == 99.99);
  EXPECT(HighestQualifyingPercentile(100) == 90.0);
  EXPECT(HighestQualifyingPercentile(19) == 0.0);
  EXPECT(HighestQualifyingPercentile(20) == 50.0);
  EXPECT(HighestQualifyingPercentile(0) == 0.0);

  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(i);
  EXPECT(Quantile(xs, 0.5) == 50.0);
  EXPECT(Quantile(xs, 0.99) == 99.0);
  EXPECT(Quantile({}, 0.5) == 0.0);
  EXPECT(Quantile({1.0, 3.0}, 0.5) == 2.0);
}

void TriggerPoints() {
  // Warmed by a bulk restore (one refresh, no points into the current
  // interval), refreshing every 10 points: counter 2 is due to the
  // 10th timed point, counter 3 to the 20th.
  Cadence restore{10, 1, 0};
  EXPECT(TriggerPoint(restore, 1) == 0);
  EXPECT(TriggerPoint(restore, 2) == 10);
  EXPECT(TriggerPoint(restore, 3) == 20);
  // A staggered warm-up: 2 refreshes fired and the series is 500
  // points into a 2000-point interval.
  Cadence staggered{2000, 2, 500};
  EXPECT(TriggerPoint(staggered, 2) == 0);
  EXPECT(TriggerPoint(staggered, 3) == 1500);
  EXPECT(TriggerPoint(staggered, 4) == 3500);
}

void OpenLoopDue() {
  // Two collectors, 1 ms ticks; collector 1 lags 5 ticks.
  Schedule s;
  s.t0_ns = 1000000;
  s.tick_ns = 1e6;
  s.ticks = 100;
  s.lag_ticks = {0, 5};
  EXPECT(s.Due(0, 0) == 1000000);
  EXPECT(s.Due(0, 7) == 8000000);
  EXPECT(s.Due(1, 7) == 13000000);

  // No sequencer: a record is due when it is sent.
  EXPECT(ReleaseDue(s, 1, 7, 0, {0, 1}) == 13000000);
  EXPECT(ReleaseDue(s, 0, 100, 0, {0}) == kNeverDue);

  // Horizon 10: tick 7 is released by the first record stamped 17 on
  // the shard. With the punctual collector on the shard that is its
  // send of tick 17, even for the lagging collector's record.
  EXPECT(ReleaseDue(s, 1, 7, 10, {0, 1}) == 18000000);
  EXPECT(ReleaseDue(s, 0, 7, 10, {0, 1}) == 18000000);
  // A shard fed only by the lagging collector waits for its tick 17.
  EXPECT(ReleaseDue(s, 1, 7, 10, {1}) == 23000000);
  // The releasing record must itself be sent: near the end of the run
  // the tail is flushed, not released, and yields no sample.
  EXPECT(ReleaseDue(s, 0, 89, 10, {0}) == 99000000 + 1000000);
  EXPECT(ReleaseDue(s, 0, 90, 10, {0}) == kNeverDue);
  // A horizon shorter than the lag: the record itself arrives last.
  EXPECT(ReleaseDue(s, 1, 7, 2, {0, 1}) == 13000000);
}

}  // namespace

int main() {
  PercentileSelection();
  TriggerPoints();
  OpenLoopDue();
  std::printf("perfbench_selftest: %d checks passed\n", g_checks);
  return 0;
}
