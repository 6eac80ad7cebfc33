// Durable-tier throughput: what the storage subsystem costs on the
// paths the fleet engine exercises — WAL appends under each sync
// policy, compaction of the WAL tail into columnar chunks, recovery
// replay on reopen, and stitched chunk+tail reads.
//
// The pane is the unit everywhere (§6 pre-aggregation: the store
// persists pane means, never raw points), so "rec/s" here is pane
// records per second. The CI gate at the bottom holds the kInterval
// append path — the policy the engine defaults to — at >= 2M rec/s.
//
//   $ ./bench_storage [panes_millions]

#include <sys/stat.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "storage/store.h"

namespace {

using asap::storage::DurableStore;
using asap::storage::PaneRun;
using asap::storage::StoreOptions;
using asap::storage::SyncPolicy;

constexpr size_t kSeries = 64;
constexpr uint32_t kPanesPerRun = 256;  // one shard drain's worth per series
constexpr size_t kRunsPerBatch = 8;     // runs per AppendPanes call

/// Smooth-plus-noise pane means, like real dashboards produce (and
/// like the Gorilla codec sees in production).
std::vector<std::vector<double>> MakePaneMeans(size_t per_series) {
  std::vector<std::vector<double>> means(kSeries);
  asap::Pcg32 rng(77);
  for (size_t s = 0; s < kSeries; ++s) {
    means[s].resize(per_series);
    double level = 40.0 + static_cast<double>(s);
    for (size_t i = 0; i < per_series; ++i) {
      level += rng.Gaussian(0.0, 0.25);
      means[s][i] = level;
    }
  }
  return means;
}

StoreOptions BenchStoreOptions(SyncPolicy sync) {
  StoreOptions options;
  options.sync = sync;
  // Compaction is measured as its own phase below, so the append
  // phases run with maintenance off and segments big enough that the
  // appends themselves never trigger a seal-and-compact.
  options.background_maintenance = false;
  options.wal_segment_bytes = 1u << 30;
  return options;
}

struct AppendResult {
  double panes_per_s = 0.0;
  double mb_per_s = 0.0;
};

/// Appends `per_series` panes to every series in interleaved
/// engine-shaped batches (kRunsPerBatch runs x kPanesPerRun panes per
/// AppendPanes call) and times the whole ingest.
AppendResult AppendAll(DurableStore* store,
                       const std::vector<std::vector<double>>& means) {
  std::vector<uint32_t> sids(kSeries);
  for (size_t s = 0; s < kSeries; ++s) {
    sids[s] = store->RegisterSeries("bench/series-" + std::to_string(s))
                  .ValueOrDie();
  }
  const size_t per_series = means[0].size();
  const uint64_t bytes_before = store->wal_appended_bytes();
  uint64_t panes = 0;
  asap::Stopwatch watch;
  std::vector<PaneRun> runs(kRunsPerBatch);
  for (size_t offset = 0; offset < per_series; offset += kPanesPerRun) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<size_t>(kPanesPerRun, per_series - offset));
    for (size_t group = 0; group < kSeries; group += kRunsPerBatch) {
      for (size_t r = 0; r < kRunsPerBatch; ++r) {
        runs[r] = PaneRun{sids[group + r], means[group + r].data() + offset,
                          count};
      }
      store->AppendPanes(runs.data(), runs.size()).Abort();
      panes += static_cast<uint64_t>(count) * kRunsPerBatch;
    }
  }
  store->Sync().Abort();
  const double seconds = watch.ElapsedSeconds();
  const double bytes =
      static_cast<double>(store->wal_appended_bytes() - bytes_before);
  return AppendResult{static_cast<double>(panes) / seconds,
                      bytes / seconds / 1e6};
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<uint64_t>(entry.file_size(ec));
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using asap::bench::Banner;
  using asap::bench::Fmt;
  using asap::bench::FmtEng;
  using asap::bench::Row;
  using asap::bench::Rule;

  const double millions = argc > 1 ? std::atof(argv[1]) : 4.0;
  const size_t total_panes = static_cast<size_t>(millions * 1e6);
  const size_t per_series = std::max<size_t>(total_panes / kSeries, 1024);

  char tmpl[] = "/tmp/asap_bench_storage_XXXXXX";
  const char* root = mkdtemp(tmpl);
  ASAP_CHECK(root != nullptr);
  const std::string root_dir = root;

  Banner("Durable store: pane records/sec, " + Fmt(millions, 1) +
         "M panes across " + std::to_string(kSeries) +
         " series (" + root_dir + ")");

  const std::vector<std::vector<double>> means = MakePaneMeans(per_series);

  // --- WAL append by sync policy ------------------------------------------
  Row({"WAL append", "panes/s", "MB/s"}, 18);
  Rule(3, 18);
  double interval_rate = 0.0;
  for (const SyncPolicy sync :
       {SyncPolicy::kNone, SyncPolicy::kInterval, SyncPolicy::kEveryBatch}) {
    // kEveryBatch pays one fdatasync per AppendPanes call; a short run
    // resolves its rate without minutes of synchronous IO.
    const size_t scale = sync == SyncPolicy::kEveryBatch ? 32 : 1;
    std::vector<std::vector<double>> slice(kSeries);
    for (size_t s = 0; s < kSeries; ++s) {
      slice[s].assign(means[s].begin(),
                      means[s].begin() +
                          static_cast<ptrdiff_t>(per_series / scale));
    }
    const std::string dir =
        root_dir + "/wal_" + asap::storage::SyncPolicyName(sync);
    auto store = DurableStore::Open(dir, BenchStoreOptions(sync)).ValueOrDie();
    const AppendResult result = AppendAll(store.get(), slice);
    Row({asap::storage::SyncPolicyName(sync), FmtEng(result.panes_per_s),
         Fmt(result.mb_per_s, 1)},
        18);
    if (sync == SyncPolicy::kInterval) {
      interval_rate = result.panes_per_s;
    }
    if (sync != SyncPolicy::kInterval) {
      store.reset();
      std::filesystem::remove_all(dir);
    }
  }
  Rule(3, 18);

  // --- Recovery replay: reopen the kInterval store, WAL-only --------------
  const std::string recover_dir = root_dir + "/wal_interval";
  Banner("Recovery + compaction over the " + Fmt(millions, 1) +
         "M-pane kInterval store");
  Row({"Phase", "panes/s", "notes"}, 18);
  Rule(3, 18);

  double wal_replay_rate = 0.0;
  {
    asap::Stopwatch watch;
    auto store =
        DurableStore::Open(recover_dir, BenchStoreOptions(SyncPolicy::kNone))
            .ValueOrDie();
    const double seconds = watch.ElapsedSeconds();
    const asap::storage::RecoveryReport& report = store->recovery();
    wal_replay_rate = static_cast<double>(report.replayed_panes) / seconds;
    Row({"WAL replay", FmtEng(wal_replay_rate),
         FmtEng(static_cast<double>(report.replayed_panes)) + " panes, " +
             std::to_string(report.wal_frames) + " frames"},
        18);

    // --- Compaction: move the whole tail into columnar chunks ------------
    const uint64_t wal_bytes = DirBytes(recover_dir + "/wal");
    asap::Stopwatch compact_watch;
    store->CompactOnce(/*force=*/true).Abort();
    const double compact_seconds = compact_watch.ElapsedSeconds();
    const uint64_t chunk_bytes = DirBytes(recover_dir + "/chunks");
    const double compact_rate =
        static_cast<double>(report.replayed_panes) / compact_seconds;
    Row({"compaction", FmtEng(compact_rate),
         Fmt(static_cast<double>(wal_bytes) /
                 static_cast<double>(chunk_bytes > 0 ? chunk_bytes : 1),
             1) +
             "x smaller than WAL"},
        18);

    // --- Stitched reads: chunks decoded back into pane means -------------
    std::vector<double> out;
    asap::Stopwatch read_watch;
    uint64_t read_panes = 0;
    for (uint32_t sid = 0; sid < kSeries; ++sid) {
      const uint64_t n = store->PaneCount(sid);
      store->ReadPanes(sid, 0, n, &out).Abort();
      read_panes += n;
    }
    const double read_rate =
        static_cast<double>(read_panes) / read_watch.ElapsedSeconds();
    Row({"chunk read", FmtEng(read_rate),
         FmtEng(static_cast<double>(read_panes)) + " panes decoded"},
        18);
  }

  // --- Manifest recovery: reopen now that history lives in chunks ---------
  {
    asap::Stopwatch watch;
    auto store =
        DurableStore::Open(recover_dir, BenchStoreOptions(SyncPolicy::kNone))
            .ValueOrDie();
    const double seconds = watch.ElapsedSeconds();
    const asap::storage::RecoveryReport& report = store->recovery();
    Row({"chunk recovery", FmtEng(static_cast<double>(report.chunk_panes) /
                                  seconds),
         FmtEng(static_cast<double>(report.chunk_panes)) +
             " panes via manifest"},
        18);
  }
  Rule(3, 18);

  std::printf(
      "\nWAL append   : group-committed AppendPanes, %zu runs x %u panes\n"
      "               per call; MB/s counts frame headers and payload\n"
      "WAL replay   : DurableStore::Open over the un-compacted log —\n"
      "               the crash-restart path\n"
      "compaction   : CompactOnce(force) moving every tail pane into\n"
      "               Gorilla-compressed chunk blocks, then pruning WAL\n"
      "chunk read   : ReadPanes stitching chunk blocks + live tail\n"
      "chunk recovery: reopen once history is chunked — manifest load,\n"
      "               no per-pane replay\n",
      kRunsPerBatch, kPanesPerRun);

  std::error_code ec;
  std::filesystem::remove_all(root_dir, ec);

  int rc = 0;
  // The engine defaults to kInterval: appends must comfortably outrun
  // any fleet the wire tier can deliver (~1M rec/s), so the durable
  // tier is never the bottleneck. 2M panes/s is the floor.
  if (interval_rate < 2e6) {
    std::printf(
        "\nWARNING: kInterval WAL append below 2M panes/s (%.0f).\n",
        interval_rate);
    rc = 1;
  }
  if (wal_replay_rate < 1e6) {
    std::printf(
        "\nWARNING: WAL recovery replay below 1M panes/s (%.0f).\n",
        wal_replay_rate);
    rc = 1;
  }
  return rc;
}
