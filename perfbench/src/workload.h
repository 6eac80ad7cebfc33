// The benchmark's workloads and the deterministic inputs they send.
// Shared by the server side (bench.cc) and the load generator
// (gen.cc): both derive every value from (seed, series, tick), so the
// server can replay exactly what a series received through a
// standalone operator without the values crossing the process
// boundary.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Every workload's server: one event loop feeding two shards.
constexpr size_t kEventLoops = 1;
constexpr size_t kShards = 2;

struct WorkloadConfig {
  std::string name;
  /// Series-name prefix; series i is "<prefix>/g<i % 4>/h<i / 4 % 4>/s<i>",
  /// so "<prefix>/g0/*" selects a quarter of the fleet and
  /// "<prefix>/g0/h0/*" a sixteenth.
  std::string prefix;

  // Fleet and wire.
  size_t series = 0;
  /// Collector connections; series i is sent by collector i % connections.
  size_t connections = 1;
  /// Three-token text lines instead of 0xA7 timed binary frames.
  bool text = false;

  // Per-series operator (timed panes, one timestamp tick per point).
  size_t resolution = 0;
  size_t visible_points = 0;
  /// 0 refreshes on every pane.
  size_t refresh_every_points = 0;
  size_t snapshot_ring = 1;

  // Server.
  int64_t sequencer_horizon_ticks = 0;
  bool durable_store = false;

  // Load: records are due on a fixed schedule at rate_rps (an open
  // loop, see README.md).
  double rate_rps = 0.0;
  /// The last collector's records are due this many ticks after their
  /// timestamps (a lagging collector the sequencer must absorb).
  int64_t lag_ticks_last = 0;
  /// Ticks of values the generator pre-encodes; tick k sends the values
  /// of tick k % cycle_ticks with timestamp k + 1.
  size_t cycle_ticks = 0;

  // Readers.
  double query_hz = 100.0;
  /// The slice each dashboard tick samples, below the prefix.
  std::string query_slice = "g0/*";
  /// Threads the tick's rollups may fan out to (ExecPolicy::threads).
  size_t query_threads = 1;

  size_t pane_ticks() const { return visible_points / resolution; }
  size_t refresh_interval() const {
    return refresh_every_points != 0 ? refresh_every_points : pane_ticks();
  }
  std::string SeriesName(size_t i) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s/g%zu/h%zu/s%05zu", prefix.c_str(), i % 4,
                  i / 4 % 4, i);
    return buf;
  }
  size_t SeriesPerCollector(size_t c) const {
    return series / connections + (c < series % connections ? 1 : 0);
  }
  /// Per-collector lag of the send schedule in ticks.
  std::vector<int64_t> LagTicks() const {
    std::vector<int64_t> lag(connections, 0);
    lag.back() = lag_ticks_last;
    return lag;
  }
};

/// The three workloads; see README.md for why each exists.
inline std::vector<WorkloadConfig> Workloads() {
  std::vector<WorkloadConfig> all;

  WorkloadConfig fh;
  fh.name = "firehose";
  fh.prefix = "fh";
  fh.series = 4096;
  fh.connections = 4;
  fh.resolution = 400;
  fh.visible_points = 4000;
  fh.refresh_every_points = 4000;
  fh.rate_rps = 5000000.0;
  fh.cycle_ticks = 256;
  fh.query_slice = "g0/h0/s00*";
  all.push_back(fh);

  WorkloadConfig rb;
  rb.name = "refresh_bound";
  rb.prefix = "rb";
  rb.series = 64;
  rb.connections = 1;
  rb.resolution = 2000;
  rb.visible_points = 20000;
  rb.refresh_every_points = 0;
  rb.rate_rps = 16000.0;
  rb.cycle_ticks = 20000;
  all.push_back(rb);

  WorkloadConfig db;
  db.name = "dashboard";
  db.prefix = "db";
  db.series = 1024;
  db.connections = 2;
  db.text = true;
  db.resolution = 400;
  db.visible_points = 4000;
  db.refresh_every_points = 250;
  db.snapshot_ring = 4;
  db.sequencer_horizon_ticks = 80;
  db.durable_store = true;
  db.rate_rps = 200000.0;
  db.lag_ticks_last = 20;
  db.cycle_ticks = 512;
  db.query_hz = 60.0;
  db.query_threads = 2;
  all.push_back(db);
  return all;
}

inline const WorkloadConfig* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadConfig> all = Workloads();
  for (const WorkloadConfig& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform in [0, 1) from a hash.
inline double Unit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// The value series `s` sends at cycle position `phase`: a seasonal
/// component whose period divides the cycle (so the wrap is seamless),
/// a slower harmonic, noise, and rare level shifts, rounded to three
/// decimals like typical telemetry.
inline double Value(uint64_t seed, size_t cycle, size_t s, size_t phase) {
  const uint64_t hs = SplitMix64(seed * 0x100000001b3ULL + s);
  const size_t divisors[] = {2, 4, 8, 16};
  const double period =
      static_cast<double>(cycle) / static_cast<double>(divisors[hs % 4]);
  const double amp = 5.0 + 20.0 * Unit(SplitMix64(hs + 1));
  const double level = 50.0 + 100.0 * Unit(SplitMix64(hs + 2));
  const double p = static_cast<double>(phase);
  const double kTwoPi = 6.283185307179586;
  double v = level + amp * std::sin(kTwoPi * p / period) +
             0.3 * amp * std::sin(kTwoPi * p / static_cast<double>(cycle));
  const uint64_t hn = SplitMix64(hs ^ (static_cast<uint64_t>(phase) << 20));
  v += amp * 0.4 * (Unit(hn) - 0.5);
  if ((hn & 0x3ff) == 0) v += 3.0 * amp;
  return std::round(v * 1000.0) / 1000.0;
}

/// Whether the warm-up restore replays the refresh cadence. It does
/// when a refresh spans several panes: each series then restores a
/// different number of extra panes, so the fleet's refreshes are spread
/// over the interval instead of all falling on one tick.
inline bool CadencedWarm(const WorkloadConfig& cfg) {
  return cfg.refresh_interval() > cfg.pane_ticks();
}

/// Points series `s` is into its refresh interval when warm-up ends.
inline size_t WarmOffsetPoints(const WorkloadConfig& cfg, size_t s) {
  if (!CadencedWarm(cfg)) return 0;
  const size_t panes_per_refresh = cfg.refresh_interval() / cfg.pane_ticks();
  return (s * 37 % panes_per_refresh) * cfg.pane_ticks();
}

/// Synthetic history the warm-up restores: a visible window of
/// pane means of series `s`, plus the staggering panes, oldest first.
inline std::vector<double> WarmPanes(uint64_t seed, const WorkloadConfig& cfg,
                                     size_t s) {
  const size_t width = cfg.pane_ticks();
  const size_t panes =
      cfg.visible_points / width + WarmOffsetPoints(cfg, s) / width;
  std::vector<double> means(panes);
  for (size_t j = 0; j < panes; ++j) {
    double sum = 0.0;
    for (size_t t = 0; t < width; ++t) {
      sum += Value(seed, cfg.cycle_ticks, s, (j * width + t) % cfg.cycle_ticks);
    }
    means[j] = sum / static_cast<double>(width);
  }
  return means;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
