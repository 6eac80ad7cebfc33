// Pure analysis the benchmark applies to what it measured: percentile
// selection and the due-record rule behind the freshness metric. Kept
// free of the library so tests/analysis_test.cc can pin it on
// synthetic schedules.

#ifndef PERFBENCH_ANALYSIS_H_
#define PERFBENCH_ANALYSIS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `sorted` (ascending) by linear interpolation
/// between closest ranks. 0 for an empty sample.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Samples strictly above the p-th percentile rank of an n-sample set:
/// n - ceil(p/100 * n).
inline size_t SamplesBeyond(size_t n, double percentile) {
  const double at = std::ceil(percentile / 100.0 * static_cast<double>(n) - 1e-9);
  return at >= static_cast<double>(n) ? 0 : n - static_cast<size_t>(at);
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that
/// has at least `min_beyond` samples beyond it; 0 when not even the
/// median qualifies.
inline double HighestQualifyingPercentile(size_t n, size_t min_beyond = 10) {
  static const double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};
  double best = 0.0;
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

/// Refresh cadence of one series in the timed phase. Refreshes fire
/// every `interval` points; `base_refreshes` had fired before the first
/// timed point and `offset` points of the current interval were already
/// consumed then. So the frame whose counter reads c (c > base) is
/// due to the timed point with 1-based index (c - base) * interval -
/// offset: that point's push completes the interval.
struct Cadence {
  uint64_t interval = 1;
  uint64_t base_refreshes = 0;
  uint64_t offset = 0;
};

/// 1-based timed-point index whose arrival makes refresh `counter`
/// due; 0 when the counter was already reached before the timed phase.
inline uint64_t TriggerPoint(const Cadence& cadence, uint64_t counter) {
  if (counter <= cadence.base_refreshes) return 0;
  return (counter - cadence.base_refreshes) * cadence.interval -
         cadence.offset;
}

/// Open-loop send schedule: collector c sends the record stamped with
/// timed tick k (0-based) at t0 + (k + lag[c]) * tick_ns. Every
/// collector sends ticks [0, ticks).
struct Schedule {
  int64_t t0_ns = 0;
  double tick_ns = 1.0;
  uint64_t ticks = 0;
  std::vector<int64_t> lag_ticks;  // per collector

  int64_t Due(size_t collector, uint64_t tick) const {
    return t0_ns + static_cast<int64_t>(
                       (static_cast<double>(tick) +
                        static_cast<double>(lag_ticks[collector])) *
                       tick_ns);
  }
};

constexpr int64_t kNeverDue = std::numeric_limits<int64_t>::min();

/// When the record stamped with timed tick `tick` of `collector` could
/// first reach its operator. It must have been sent; with a sequencer
/// horizon h > 0 (in ticks, one tick per timed point) it is released
/// only once the shard's watermark reaches tick + h, i.e. when the
/// earliest-sent record stamped tick + h from any collector feeding
/// that shard (`shard_collectors`) arrives. Returns kNeverDue when the
/// releasing record is never sent (the run's tail, released by the
/// end-of-run flush instead).
inline int64_t ReleaseDue(const Schedule& schedule, size_t collector,
                          uint64_t tick, uint64_t horizon,
                          const std::vector<size_t>& shard_collectors) {
  if (tick >= schedule.ticks) return kNeverDue;
  const int64_t sent = schedule.Due(collector, tick);
  if (horizon == 0) return sent;
  const uint64_t release_tick = tick + horizon;
  if (release_tick >= schedule.ticks) return kNeverDue;
  int64_t release = std::numeric_limits<int64_t>::max();
  for (size_t c : shard_collectors) {
    release = std::min(release, schedule.Due(c, release_tick));
  }
  if (shard_collectors.empty()) return kNeverDue;
  return std::max(sent, release);
}

}  // namespace perfbench

#endif  // PERFBENCH_ANALYSIS_H_
