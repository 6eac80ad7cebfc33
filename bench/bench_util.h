// Shared helpers for the paper-reproduction bench harnesses: aligned
// text tables, robust timing, and the budgeted single-series drive
// loop.

#ifndef ASAP_BENCH_BENCH_UTIL_H_
#define ASAP_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/streaming_asap.h"
#include "stream/source.h"

namespace asap {
namespace bench {

/// Prints a section banner.
inline void Banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Prints a row of cells padded to `width` characters each.
inline void Row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

/// Prints a separator sized for `columns` cells of `width` chars.
inline void Rule(size_t columns, int width = 14) {
  std::string line(columns * static_cast<size_t>(width), '-');
  std::printf("%s\n", line.c_str());
}

/// Formats a double with the given precision.
inline std::string Fmt(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

/// Formats a throughput / speedup in engineering style (1.2K, 3.4M).
inline std::string FmtEng(double value) {
  char buffer[64];
  if (value >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.1fM", value / 1e6);
  } else if (value >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.1fK", value / 1e3);
  } else if (value >= 1.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  }
  return buffer;
}

/// Runs `fn` `reps` times and returns the minimum wall-clock seconds
/// (minimum is the standard noise-robust estimator for short kernels).
inline double TimeBest(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Pulls `source` through `op->PushBatch` in batches of `batch_size`
/// points until the source runs dry or `budget_seconds` of wall time
/// have passed (checked between batches, so one batch can overrun the
/// budget), and returns the points/second achieved. Lets benches
/// measure configurations whose full-stream runtime would be
/// impractical (e.g. the Fig. 11 unoptimized baseline).
inline double PushBatchForBudget(stream::Source* source, StreamingAsap* op,
                                 double budget_seconds, size_t batch_size) {
  Stopwatch watch;
  std::vector<double> batch;
  batch.reserve(batch_size);
  uint64_t points = 0;
  while (watch.ElapsedSeconds() < budget_seconds) {
    batch.clear();
    const size_t n = source->NextBatch(batch_size, &batch);
    if (n == 0) {
      break;
    }
    op->PushBatch(batch.data(), n);
    points += n;
  }
  const double seconds = watch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
}

}  // namespace bench
}  // namespace asap

#endif  // ASAP_BENCH_BENCH_UTIL_H_
