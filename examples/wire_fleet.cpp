// Wire-ingestion fleet demo: a collector process replays the taxi
// dataset (as K named series, "cab-00".."cab-NN") over the ASAP wire
// protocol into a server process running the sharded fleet engine.
// The server side answers fleet queries through FleetView: which cabs
// look roughest, and the fleet-wide smoothed level.
//
// Two-process operation:
//
//   terminal 1:  ./wire_fleet server --port 7777 --shards 4
//   terminal 2:  ./wire_fleet client --port 7777 --series 12 --encoding text
//
// (Swap --port for --uds /tmp/asap.sock on both sides for a
// Unix-domain socket.) Or run both halves in one process over an
// ephemeral loopback port:
//
//   ./wire_fleet demo        # "--demo" also accepted
//
// --data-dir PATH makes the server side durable: every completed pane
// lands in a WAL-backed DurableStore at PATH, a restart replays the
// store back through the engine before accepting new traffic, and
// FleetView serves history deeper than the in-memory snapshot ring.
// --crash-after-ingest 1 hard-exits (std::_Exit, no shutdown path)
// right after ingest — run again with the same --data-dir to watch
// recovery pick the fleet back up.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/datasets.h"
#include "net/net_source.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "storage/recovery.h"
#include "storage/store.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"

namespace {

using asap::net::WireEncoding;
using asap::stream::RecordBatch;

struct Args {
  std::string mode;
  uint16_t port = 0;
  std::string uds_path;
  size_t shards = 4;
  size_t loops = 1;
  size_t series = 12;
  WireEncoding encoding = WireEncoding::kBinary;
  /// > 0: dump the Prometheus exposition of the shared registry
  /// (wire + shard + query instruments) every this-many seconds while
  /// the server runs, plus a final dump after ingest completes.
  double stats_interval = 0.0;
  /// Non-empty: persist panes to a DurableStore rooted here and
  /// replay it into the engine on startup.
  std::string data_dir;
  /// Exit without any shutdown path right after ingest completes —
  /// the crash half of the durable restart demo.
  bool crash_after_ingest = false;
  /// Collector side: stamp every record with a per-series sample clock
  /// (otherwise every record goes out with ts = 0).
  bool timestamped = false;
  /// Server side: pane width in ticks (> 0 turns on timestamp-derived
  /// pane indexing; 0 keeps arrival-order panes).
  int64_t pane_ticks = 0;
  /// Server side: per-shard reordering horizon in ticks (0 = off).
  int64_t seq_horizon = 0;
  /// Collector side: shift this collector's clock back by N ticks —
  /// the skewed collector of the sequencer demo. In demo mode with
  /// --clients K, collector i lags by i * lag_ticks.
  int64_t lag_ticks = 0;
  /// Demo mode: how many concurrent collectors replay the fleet, the
  /// series dealt round-robin among them.
  size_t clients = 1;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  wire_fleet server [--port N | --uds PATH] [--shards T] [--loops L]\n"
      "                    [--stats-interval SECONDS] [--data-dir PATH]\n"
      "                    [--crash-after-ingest 0|1]\n"
      "  wire_fleet client [--port N | --uds PATH] [--series K]\n"
      "                    [--encoding text|binary] [--timestamped 0|1]\n"
      "                    [--lag-ticks N]\n"
      "  wire_fleet demo   [--shards T] [--loops L] [--series K]\n"
      "                    [--encoding ...] [--stats-interval SECONDS]\n"
      "                    [--data-dir PATH] [--crash-after-ingest 0|1]\n"
      "                    [--timestamped 0|1] [--pane-ticks N]\n"
      "                    [--seq-horizon N] [--lag-ticks N] [--clients K]\n"
      "server also takes --pane-ticks / --seq-horizon (timestamp-derived\n"
      "panes + per-shard reordering); client/demo --timestamped stamps\n"
      "records with a per-series sample clock instead of ts = 0.\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) {
    return false;
  }
  args->mode = argv[1];
  if (args->mode.rfind("--", 0) == 0) {
    args->mode = args->mode.substr(2);  // tolerate "--demo" etc.
  }
  if ((argc - 2) % 2 != 0) {
    return false;  // dangling flag with no value
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--port") {
      args->port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (flag == "--uds") {
      args->uds_path = value;
    } else if (flag == "--shards") {
      args->shards = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (flag == "--loops") {
      args->loops = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (flag == "--series") {
      args->series = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (flag == "--encoding") {
      if (value == "text") {
        args->encoding = WireEncoding::kText;
      } else if (value == "binary") {
        args->encoding = WireEncoding::kBinary;
      } else {
        return false;
      }
    } else if (flag == "--stats-interval") {
      args->stats_interval = std::atof(value.c_str());
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--crash-after-ingest") {
      args->crash_after_ingest = std::atoi(value.c_str()) != 0;
    } else if (flag == "--timestamped") {
      args->timestamped = std::atoi(value.c_str()) != 0;
    } else if (flag == "--pane-ticks") {
      args->pane_ticks = std::atoll(value.c_str());
    } else if (flag == "--seq-horizon") {
      args->seq_horizon = std::atoll(value.c_str());
    } else if (flag == "--lag-ticks") {
      args->lag_ticks = std::atoll(value.c_str());
    } else if (flag == "--clients") {
      args->clients = std::max<size_t>(
          1, static_cast<size_t>(std::atoi(value.c_str())));
    } else {
      return false;
    }
  }
  return args->mode == "server" || args->mode == "client" ||
         args->mode == "demo";
}

std::string CabName(size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "cab-%02zu", index);
  return name;
}

/// K taxi-like series: the same Thanksgiving-dip shape, distinct seeds
/// per series so each cab's noise differs.
std::vector<std::vector<double>> TaxiFleet(size_t series) {
  std::vector<std::vector<double>> payloads;
  payloads.reserve(series);
  for (size_t i = 0; i < series; ++i) {
    payloads.push_back(
        asap::datasets::MakeTaxi(/*seed=*/49 + i).series.values());
  }
  return payloads;
}

int RunClient(const Args& args, size_t client_index = 0,
              size_t client_count = 1) {
  // The collector's own name table: names travel on the wire and the
  // server interns them into the engine's catalog — no id coordination
  // between the two processes.
  asap::stream::SeriesCatalog catalog;
  const std::vector<std::vector<double>> fleet = TaxiFleet(args.series);
  std::vector<std::string> names;
  std::vector<std::vector<double>> payloads;
  for (size_t i = client_index; i < args.series; i += client_count) {
    names.push_back(CabName(i));
    payloads.push_back(fleet[i]);
  }
  if (names.empty()) {
    return 0;  // more collectors than series
  }
  // This collector's clock skew: collector 0 is on time, each later
  // one lags lag_ticks more — the out-of-order arrivals the server's
  // sequencer exists to absorb.
  const int64_t lag =
      args.lag_ticks * static_cast<int64_t>(client_index + (client_count == 1));
  // Round-robin scrape order over the fleet, like a collector cycle;
  // timestamped mode stamps a per-series sample clock (1 tick/point)
  // shifted back by this collector's lag.
  const RecordBatch records =
      args.timestamped
          ? asap::stream::InterleaveToRecordsTimed(&catalog, names, payloads,
                                                   /*epoch=*/-lag, /*tick=*/1)
          : asap::stream::InterleaveToRecords(&catalog, names, payloads);

  asap::net::WireClientOptions client_options;
  client_options.catalog = &catalog;
  client_options.encoding = args.encoding;
  asap::Result<asap::net::WireClient> client =
      args.uds_path.empty()
          ? asap::net::WireClient::ConnectTcp("127.0.0.1", args.port,
                                              client_options)
          : asap::net::WireClient::ConnectUds(args.uds_path, client_options);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  std::printf("Replaying taxi dataset as %zu series (%zu records, %s%s%s)...\n",
              names.size(), records.size(),
              asap::net::WireEncodingName(args.encoding),
              args.timestamped ? ", timestamped" : "",
              lag != 0 ? ", lagging" : "");
  client->Send(records).Abort();
  client->Flush().Abort();
  std::printf("Sent %llu records / %llu wire bytes.\n",
              static_cast<unsigned long long>(client->records_sent()),
              static_cast<unsigned long long>(client->bytes_sent()));
  return 0;
}

/// Dumps the shared registry in Prometheus exposition format, fenced
/// so the periodic blocks are easy to grep out of the demo transcript.
void DumpTelemetry(const asap::telemetry::MetricsRegistry* registry,
                   const char* tag) {
  std::printf("--- telemetry (%s) ---\n%s--- end telemetry ---\n", tag,
              asap::telemetry::RenderPrometheus(*registry).c_str());
  std::fflush(stdout);
}

int RunServer(const Args& args, asap::stream::ShardedEngine* engine,
              asap::net::WireServer server) {
  if (server.tcp_port() != 0) {
    std::printf("Listening on 127.0.0.1:%u", server.tcp_port());
  } else {
    std::printf("Listening on %s", server.uds_path().c_str());
  }
  std::printf(" (%zu shards, %zu event loop%s); waiting for a collector...\n",
              args.shards, args.loops, args.loops == 1 ? "" : "s");

  // The periodic stats printer: scrape-by-print. The same text a real
  // deployment would serve from a /metrics endpoint, on a timer.
  std::atomic<bool> stats_done{false};
  std::thread stats_printer;
  if (args.stats_interval > 0.0) {
    stats_printer = std::thread([&stats_done, engine, interval =
                                                         args.stats_interval] {
      const auto step = std::chrono::milliseconds(50);
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(interval));
      size_t tick = 0;
      while (!stats_done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() >= next) {
          char tag[32];
          std::snprintf(tag, sizeof(tag), "tick %zu", ++tick);
          DumpTelemetry(engine->metrics(), tag);
          next += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(interval));
        }
        std::this_thread::sleep_for(step);
      }
    });
  }

  asap::net::NetMultiSource source(&server);
  const asap::stream::FleetReport report = engine->RunToCompletion(&source);
  if (stats_printer.joinable()) {
    stats_done.store(true, std::memory_order_release);
    stats_printer.join();
  }

  const asap::net::WireServerStats stats = server.stats();
  std::printf(
      "\nIngested %llu records (%llu wire bytes) from %llu connections\n"
      "at %.2fM records/s into %zu series; %llu refreshes, %llu late,\n"
      "%llu name registrations, %llu malformed lines,\n"
      "%llu poisoned connections.\n\n",
      static_cast<unsigned long long>(report.points),
      static_cast<unsigned long long>(stats.bytes),
      static_cast<unsigned long long>(stats.accepted),
      report.points_per_second / 1e6, report.series,
      static_cast<unsigned long long>(report.refreshes),
      static_cast<unsigned long long>(report.late),
      static_cast<unsigned long long>(stats.name_registrations),
      static_cast<unsigned long long>(stats.malformed_lines),
      static_cast<unsigned long long>(stats.poisoned_connections));
  if (args.seq_horizon > 0) {
    std::printf(
        "Sequencer: horizon %lld ticks; %llu records arrived past the "
        "horizon and were dropped late.\n",
        static_cast<long long>(args.seq_horizon),
        static_cast<unsigned long long>(report.late));
  }

  if (args.crash_after_ingest) {
    // The crash half of the durable restart demo: every acked pane is
    // already written to the store (AppendPanes returns post-write),
    // so a hard exit that skips every destructor loses nothing a real
    // SIGKILL wouldn't. Restart with the same --data-dir to recover.
    std::printf("Hard exit after ingest (no shutdown path); restart with "
                "the same --data-dir to recover.\n");
    std::fflush(stdout);
    std::_Exit(0);
  }

  std::printf("Event-loop tier: %llu wakeups, %llu events (%.1f ev/wakeup), "
              "%llu batches\n",
              static_cast<unsigned long long>(stats.wakeups),
              static_cast<unsigned long long>(stats.events),
              stats.wakeups > 0 ? static_cast<double>(stats.events) /
                                      static_cast<double>(stats.wakeups)
                                : 0.0,
              static_cast<unsigned long long>(stats.batches));
  for (size_t i = 0; i < stats.per_loop.size(); ++i) {
    const asap::net::WireLoopStats& loop = stats.per_loop[i];
    std::printf("  loop %zu: %llu accepted, %llu handoffs, %llu batches "
                "(%.0f records avg)\n",
                i, static_cast<unsigned long long>(loop.accepted),
                static_cast<unsigned long long>(loop.handoffs),
                static_cast<unsigned long long>(loop.batches),
                loop.batches > 0 ? static_cast<double>(loop.batch_records) /
                                       static_cast<double>(loop.batches)
                                 : 0.0);
  }
  std::printf("\n");

  std::printf("Per-series final frames (smoothed taxi, chosen windows):\n");
  std::printf("%-10s%-10s%-12s%-10s%-8s\n", "series", "points", "refreshes",
              "window", "late");
  for (const asap::stream::SeriesReport& sr : report.per_series) {
    std::printf("%-10s%-10llu%-12llu%-10zu%-8llu\n", sr.name.c_str(),
                static_cast<unsigned long long>(sr.points),
                static_cast<unsigned long long>(sr.refreshes), sr.window,
                static_cast<unsigned long long>(sr.late));
  }

  // The query tier: cross-series questions over the published frames.
  // One Sample per dashboard tick: the fleet-wide rollups below all
  // describe the same instant, so they share one sample through the
  // pure *Of entry points instead of re-walking the shards per query.
  // (The selector-scoped slice further down is a different question —
  // a different subset — so it takes its own scoped sample.)
  const asap::stream::FleetView view(engine);
  const asap::stream::FleetSample sample =
      view.Sample(asap::stream::SeriesSelector::All());
  std::printf("\nRoughest smoothed views (FleetView::TopKByRoughnessOf):\n");
  for (const asap::stream::SeriesRank& rank :
       asap::stream::FleetView::TopKByRoughnessOf(sample, 3).ranks) {
    std::printf("  %-10s roughness %.4f (window %zu)\n", rank.name.c_str(),
                rank.roughness, rank.window);
  }
  const asap::stream::FleetAggregate mean =
      asap::stream::FleetView::AggregateOf(sample,
                                           asap::stream::AggKind::kMean);
  std::printf("Fleet-wide smoothed level: %.2f across %zu cabs", mean.value,
              mean.series);
  if (mean.skipped_unpublished > 0) {
    std::printf(" (%zu still warming up)", mean.skipped_unpublished);
  }
  std::printf(".\n");

  // Selector-scoped slice: the single-digit cabs, as a glob over the
  // interned names — no id bookkeeping anywhere.
  const asap::stream::SeriesSelector single_digit =
      asap::stream::SeriesSelector::Glob("cab-0?");
  const asap::stream::FleetAggregate slice =
      asap::stream::FleetView::AggregateOf(view.Sample(single_digit),
                                           asap::stream::AggKind::kMean);
  std::printf("Slice \"%s\": smoothed level %.2f across %zu cabs.\n",
              single_digit.pattern().c_str(), slice.value, slice.series);

  // Whole-frame rollups: the fleet's percentile envelope (is the whole
  // fleet moving, or a few outliers?) and the anomaly rollup through
  // the stream/alerts detector.
  const asap::stream::FleetPercentileBands bands =
      asap::stream::FleetView::BandsOf(sample);
  if (bands.positions > 0) {
    const size_t newest = bands.positions - 1;
    std::printf(
        "Fleet envelope over %zu pane positions (%zu cabs), newest pane:\n"
        "  p50 %.2f   p90 %.2f   p99 %.2f\n",
        bands.positions, bands.series, bands.p50[newest], bands.p90[newest],
        bands.p99[newest]);
  }
  const asap::stream::FleetAnomalyCounts anomalies =
      asap::stream::FleetView::AnomalyCountsOf(sample, {});
  std::printf(
      "Anomaly rollup: %zu alert spans across %zu of %zu scanned cabs.\n",
      anomalies.alerts, anomalies.series_alerting, anomalies.series);

  // History diffs over the snapshot ring: what changed since the
  // previous refresh, and which cab changed most.
  const asap::stream::HistoryDiff diff = view.DiffHistory(CabName(0), 1);
  if (diff.known) {
    std::printf(
        "cab-00 since previous frame: mean |delta| %.3f, max |delta| %.3f "
        "over %zu positions.\n",
        diff.mean_abs_delta, diff.max_abs_delta, diff.delta.size());
  }
  const asap::stream::ChangeRanking movers = view.TopKByChange(3, 1);
  std::printf("Biggest movers since previous frame:\n");
  for (const asap::stream::SeriesChange& change : movers.ranks) {
    std::printf("  %-10s mean |delta| %.3f (max %.3f)\n",
                change.name.c_str(), change.mean_abs_delta,
                change.max_abs_delta);
  }

  // The durable history question the in-memory ring cannot answer:
  // how deep does cab-00's frame history go when FleetView can
  // reconstruct past frames from the store's pane log?
  if (engine->storage() != nullptr) {
    const auto ring = view.History(CabName(0));
    const auto deep = view.History(CabName(0), 64);
    std::printf(
        "Durable history for cab-00: %zu frames on tap "
        "(snapshot ring holds %zu) from %s.\n",
        deep.size(), ring.size(), engine->storage()->dir().c_str());
  }

  // Final exposition dump: now the asap_query_seconds families carry
  // the latencies of every FleetView call made above.
  if (args.stats_interval > 0.0) {
    std::printf("\n");
    DumpTelemetry(engine->metrics(), "final");
  }
  return 0;
}

asap::net::WireServer MakeServer(const Args& args,
                                 asap::stream::ShardedEngine* engine) {
  asap::net::WireServerOptions server_options;
  if (!args.uds_path.empty()) {
    server_options.enable_tcp = false;
    server_options.uds_path = args.uds_path;
  } else {
    server_options.tcp_port = args.port;
  }
  server_options.num_event_loops = args.loops;
  // One registry for the whole pipeline: the server's asap_wire_*
  // instruments land next to the engine's asap_shard_* and the view's
  // asap_query_* families, so one dump covers ingest to query.
  server_options.metrics = engine->metrics();
  return asap::net::WireServer::Create(server_options, engine->catalog())
      .ValueOrDie();
}

asap::stream::ShardedEngine MakeEngine(const Args& args,
                                       asap::storage::DurableStore* store) {
  // The taxi series is 3600 half-hourly points; a 3000-point visible
  // window refreshed every 600 gives each series several refreshes as
  // its replay streams in.
  asap::StreamingOptions series_options;
  series_options.resolution = 800;
  series_options.visible_points = 3000;
  series_options.refresh_every_points = 600;
  // Keep a few published frames per series so the history-diff
  // queries (DiffHistory, TopKByChange) have ring entries to span.
  series_options.snapshot_ring_frames = 4;
  // Timestamp-derived panes: pane index = floor(ts / pane_ticks), so
  // skewed collectors land in the panes their clocks name, not the
  // panes their packets happened to arrive in.
  series_options.pane_width_ticks = args.pane_ticks;

  asap::stream::ShardedEngineOptions engine_options;
  engine_options.shards = args.shards;
  engine_options.storage = store;
  engine_options.sequencer_horizon_ticks = args.seq_horizon;
  if (store != nullptr) {
    // The store's asap_store_* instruments live in the global
    // registry; point the engine (and through it the wire server and
    // FleetView) at the same registry so one stats dump covers the
    // whole pipeline, durability included.
    engine_options.metrics = &asap::telemetry::MetricsRegistry::Global();
  }
  return asap::stream::ShardedEngine::Create(series_options, engine_options)
      .ValueOrDie();
}

/// Opens (or recovers) the durable store at --data-dir and prints
/// what recovery found. The store must outlive the engine whose shard
/// workers append into it, so callers construct it first.
std::unique_ptr<asap::storage::DurableStore> OpenStore(const Args& args) {
  asap::storage::StoreOptions store_options;
  store_options.metrics = &asap::telemetry::MetricsRegistry::Global();
  auto store =
      asap::storage::DurableStore::Open(args.data_dir, store_options)
          .ValueOrDie();
  const asap::storage::RecoveryReport& rec = store->recovery();
  std::printf(
      "Durable store at %s: %zu series recovered "
      "(%llu chunk panes, %llu WAL panes%s).\n",
      args.data_dir.c_str(), store->series_count(),
      static_cast<unsigned long long>(rec.chunk_panes),
      static_cast<unsigned long long>(rec.replayed_panes),
      rec.tail_truncated ? ", torn tail truncated" : "");
  return store;
}

void ReplayStore(const asap::storage::DurableStore& store,
                 asap::stream::ShardedEngine* engine) {
  const asap::storage::EngineReplayReport replayed =
      asap::storage::ReplayIntoEngine(store, engine,
                                      asap::storage::ReplayFidelity::kFaithful)
          .ValueOrDie();
  if (replayed.series_restored > 0) {
    std::printf(
        "Replayed %llu series / %llu panes into the fleet engine "
        "before opening for traffic.\n",
        static_cast<unsigned long long>(replayed.series_restored),
        static_cast<unsigned long long>(replayed.panes_restored));
  }
}

int RunDemo(const Args& args) {
  // Both halves in one process: the server side owns the main thread
  // (as in real deployments, the engine's producer thread is the
  // socket event loop); the collector replays from a second thread.
  std::unique_ptr<asap::storage::DurableStore> store;
  if (!args.data_dir.empty()) {
    store = OpenStore(args);
  }
  asap::stream::ShardedEngine engine = MakeEngine(args, store.get());
  if (store != nullptr) {
    ReplayStore(*store, &engine);
  }
  asap::net::WireServer server = MakeServer(args, &engine);
  Args client_args = args;
  client_args.port = server.tcp_port();
  std::vector<std::thread> collectors;
  collectors.reserve(args.clients);
  for (size_t c = 0; c < args.clients; ++c) {
    collectors.emplace_back([client_args, c, count = args.clients] {
      RunClient(client_args, c, count);
    });
  }
  const int rc = RunServer(args, &engine, std::move(server));
  for (std::thread& t : collectors) {
    t.join();
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  if (args.mode == "client") {
    if (args.port == 0 && args.uds_path.empty()) {
      std::fprintf(stderr, "client needs --port or --uds\n");
      return 2;
    }
    return RunClient(args);
  }
  if (args.mode == "server") {
    if (args.port == 0 && args.uds_path.empty()) {
      std::fprintf(stderr, "server needs --port or --uds\n");
      return 2;
    }
    std::unique_ptr<asap::storage::DurableStore> store;
    if (!args.data_dir.empty()) {
      store = OpenStore(args);
    }
    asap::stream::ShardedEngine engine = MakeEngine(args, store.get());
    if (store != nullptr) {
      ReplayStore(*store, &engine);
    }
    asap::net::WireServer server = MakeServer(args, &engine);
    return RunServer(args, &engine, std::move(server));
  }
  return RunDemo(args);
}
