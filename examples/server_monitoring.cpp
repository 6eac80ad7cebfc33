// The §2 "Application Monitoring" case study, fleet-scale: a cluster
// of named hosts ("web-00".."web-NN") streams per-5-minute CPU
// telemetry into the sharded fleet engine; every host's dashboard
// refreshes at a human timescale; a sub-threshold usage shift that raw
// plots bury becomes visible — and the fleet report says which hosts
// it hit, by name, with FleetView answering the cross-host questions.
//
//   $ ./server_monitoring [hosts] [shards] [--self] [--data-dir PATH]
//
// --data-dir makes the fleet durable: completed panes persist to a
// WAL-backed store at PATH, and a re-run replays the stored history
// into the engine before streaming — the monitoring deployment
// surviving a restart with its dashboards' history intact.
//
// --self appends the dogfood act: a SelfScrapeSource samples the fleet
// engine's own telemetry registry and streams the `asap.self.*` series
// through a second (smaller) ShardedEngine — the identical pipeline
// the CPU telemetry just took — then charts the engine's own query
// latency next to the fleet dashboards and prints the Prometheus
// exposition of the shared registry.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/streaming_asap.h"
#include "render/ascii_chart.h"
#include "stats/normalize.h"
#include "storage/recovery.h"
#include "storage/store.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "telemetry/self_scrape.h"
#include "ts/generators.h"

namespace {

constexpr size_t kDay = 288;  // 5-minute readings per day
constexpr size_t kDays = 10;

std::string HostName(size_t host) {
  char name[32];
  std::snprintf(name, sizeof(name), "web-%02zu/cpu", host);
  return name;
}

bool HasIncident(size_t host) { return host % 3 == 1; }

// Ten days of per-5-minute CPU utilization for one host: daily load
// cycle + heavy jitter; every third host also gets a sustained
// (sub-alarm) usage step on day 8 — the Figure 2 scenario.
std::vector<double> MakeCpuTelemetry(size_t host) {
  const size_t n = kDays * kDay;
  asap::Pcg32 rng(2024 + static_cast<uint64_t>(host));
  std::vector<double> cpu(n);
  const double peak_hour = 0.5 + 0.02 * static_cast<double>(host % 8);
  for (size_t i = 0; i < n; ++i) {
    const double tod = static_cast<double>(i % kDay) / kDay;
    double load =
        35.0 + 18.0 * std::exp(-std::pow((tod - peak_hour) / 0.22, 2.0));
    cpu[i] = load + rng.Gaussian(0.0, 7.0);
  }
  if (HasIncident(host)) {
    asap::gen::InjectLevelShift(&cpu, 8 * kDay, n, 14.0);
  }
  return cpu;
}

}  // namespace

int main(int argc, char** argv) {
  // At least 2 hosts so both a healthy host (web-00) and an incident
  // host (web-01) exist for the side-by-side dashboards below; bounded
  // above so negative/garbage arguments (strtoll of "-4") cannot ask
  // for 2^64 hosts or threads.
  bool self_mode = false;
  bool timed_mode = false;
  std::string data_dir;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self") == 0) {
      self_mode = true;
    } else if (std::strcmp(argv[i], "--timed") == 0) {
      timed_mode = true;
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const long long raw_hosts =
      positional.size() > 0 ? std::strtoll(positional[0], nullptr, 10) : 12;
  const long long raw_shards =
      positional.size() > 1 ? std::strtoll(positional[1], nullptr, 10) : 4;
  const size_t hosts =
      static_cast<size_t>(std::clamp<long long>(raw_hosts, 2, 4096));
  const size_t shards =
      static_cast<size_t>(std::clamp<long long>(raw_shards, 1, 64));

  std::printf(
      "Streaming %zu days of CPU telemetry for %zu hosts (%zu readings\n"
      "each, 5-minute interval) through the %zu-shard fleet engine...\n\n",
      kDays, hosts, kDays * kDay, shards);

  asap::StreamingOptions series_options;
  series_options.resolution = 400;            // a phone-sized plot per host
  series_options.visible_points = kDays * kDay;  // "the past ten days"
  series_options.refresh_every_points = kDay;    // re-render once per day
  if (timed_mode) {
    // --timed: every reading carries a sample-clock timestamp (1 tick
    // per 5-minute scrape) and panes derive from those timestamps
    // instead of arrival order — the wire-ingestion configuration,
    // demonstrated over an in-process source.
    asap::StreamingOptions probe = series_options;
    series_options.pane_width_ticks = static_cast<int64_t>(
        asap::StreamingAsap::Create(probe).ValueOrDie().pane_size());
    std::printf(
        "Timed mode: timestamp-derived panes, %lld ticks per pane.\n\n",
        static_cast<long long>(series_options.pane_width_ticks));
  }

  // The durable tier (--data-dir): completed panes stream into a
  // WAL-backed store as the shard workers drain, and a re-run replays
  // the store back through the engine so the dashboards resume with
  // history no in-memory ring could hold. The store outlives the
  // engine (workers append into it until shutdown).
  std::unique_ptr<asap::storage::DurableStore> store;
  if (!data_dir.empty()) {
    asap::storage::StoreOptions store_options;
    store_options.metrics = &asap::telemetry::MetricsRegistry::Global();
    store = asap::storage::DurableStore::Open(data_dir, store_options)
                .ValueOrDie();
    const asap::storage::RecoveryReport& rec = store->recovery();
    std::printf(
        "Durable store at %s: %zu series recovered "
        "(%llu chunk panes, %llu WAL panes%s).\n\n",
        data_dir.c_str(), store->series_count(),
        static_cast<unsigned long long>(rec.chunk_panes),
        static_cast<unsigned long long>(rec.replayed_panes),
        rec.tail_truncated ? ", torn tail truncated" : "");
  }

  asap::stream::ShardedEngineOptions engine_options;
  engine_options.shards = shards;
  engine_options.batch_size = 2048;
  engine_options.storage = store.get();
  if (timed_mode) {
    // Absorb cross-series skew from the interleaved scrape cycle (a
    // few batches' worth) before records reach the timed panes.
    engine_options.sequencer_horizon_ticks =
        4 * static_cast<int64_t>(engine_options.batch_size);
  }
  if (store != nullptr) {
    engine_options.metrics = &asap::telemetry::MetricsRegistry::Global();
  }
  asap::stream::ShardedEngine engine =
      asap::stream::ShardedEngine::Create(series_options, engine_options)
          .ValueOrDie();
  if (store != nullptr) {
    const asap::storage::EngineReplayReport replayed =
        asap::storage::ReplayIntoEngine(
            *store, &engine, asap::storage::ReplayFidelity::kFaithful)
            .ValueOrDie();
    if (replayed.series_restored > 0) {
      std::printf(
          "Replayed %llu series / %llu panes before streaming today's "
          "telemetry.\n\n",
          static_cast<unsigned long long>(replayed.series_restored),
          static_cast<unsigned long long>(replayed.panes_restored));
    }
  }

  // The fleet stream: one named series per host, interleaved the way
  // a scrape cycle visits the cluster. Names intern through the
  // engine's catalog — nobody mints a numeric id.
  asap::stream::InterleavingMultiSource source(engine.catalog());
  if (timed_mode) {
    source.StampTimestamps(/*epoch=*/0, /*tick=*/1);
  }
  for (size_t host = 0; host < hosts; ++host) {
    source.AddVector(HostName(host), MakeCpuTelemetry(host));
  }

  const asap::stream::FleetReport report = engine.RunToCompletion(&source);

  std::printf("Fleet report\n");
  std::printf("  throughput          : %.0f points/sec aggregate\n",
              report.points_per_second);
  std::printf("  series              : %zu hosts across %zu shards\n",
              report.series, report.shards.size());
  std::printf("  refreshes           : %llu fleet-wide\n",
              static_cast<unsigned long long>(report.refreshes));
  for (const asap::stream::ShardReport& shard : report.shards) {
    std::printf(
        "  shard %zu             : %zu series, %llu points, "
        "%llu refreshes, peak queue %zu\n",
        shard.shard, shard.series,
        static_cast<unsigned long long>(shard.points),
        static_cast<unsigned long long>(shard.refreshes),
        shard.peak_queue_depth);
  }

  // The query tier: every host's final frame is one lock-free snapshot
  // away, addressed by name.
  const asap::stream::FleetView view(&engine);
  std::string incident_host;
  std::string healthy_host;
  for (size_t host = 0; host < hosts; ++host) {
    (HasIncident(host) ? incident_host : healthy_host) = HostName(host);
  }

  const auto incident_frame = view.Frame(incident_host);
  const auto healthy_frame = view.Frame(healthy_host);
  std::printf(
      "\n  %s window  : %zu buckets (incident host)\n"
      "  %s window  : %zu buckets (healthy host)\n",
      incident_host.c_str(), incident_frame->window, healthy_host.c_str(),
      healthy_frame->window);

  // Cross-host questions, straight off the published frames: the
  // roughest dashboards fleet-wide and the fleet's smoothed CPU level.
  //
  // This dashboard "tick" asks four questions about the same instant,
  // so it takes ONE Sample(selector) and feeds it to the pure *Of
  // rollups — sampling per query would walk every shard's snapshots
  // four times and could even see different fleets between questions.
  const asap::stream::FleetSample sample =
      view.Sample(asap::stream::SeriesSelector::All());
  std::printf("\nRoughest smoothed dashboards (top 3 of %zu):\n",
              view.series_count());
  for (const asap::stream::SeriesRank& rank :
       asap::stream::FleetView::TopKByRoughnessOf(sample, 3).ranks) {
    std::printf("  %-12s roughness %.4f\n", rank.name.c_str(),
                rank.roughness);
  }
  const asap::stream::FleetAggregate mean_cpu =
      asap::stream::FleetView::AggregateOf(sample,
                                           asap::stream::AggKind::kMean);
  const asap::stream::FleetAggregate max_cpu =
      asap::stream::FleetView::AggregateOf(sample,
                                           asap::stream::AggKind::kMax);
  std::printf(
      "Fleet smoothed CPU now : mean %.1f%%, max %.1f%% over %zu hosts\n",
      mean_cpu.value, max_cpu.value, mean_cpu.series);

  // The whole-frame rollups: did the *fleet* move, or only a few
  // hosts? The p50 band is the cluster's typical shape; the p99 band
  // is whatever the incident hosts are doing.
  const asap::stream::FleetPercentileBands bands =
      asap::stream::FleetView::BandsOf(sample);
  if (bands.positions > 0) {
    const size_t newest = bands.positions - 1;
    std::printf(
        "Fleet envelope (newest): p50 %.1f%%  p90 %.1f%%  p99 %.1f%% "
        "(%zu pane positions)\n",
        bands.p50[newest], bands.p90[newest], bands.p99[newest],
        bands.positions);
  }
  const asap::stream::FleetAnomalyCounts anomalies =
      asap::stream::FleetView::AnomalyCountsOf(sample, {});
  std::printf(
      "Anomaly rollup         : %zu of %zu hosts alerting "
      "(%zu alert spans)\n\n",
      anomalies.series_alerting, anomalies.series, anomalies.alerts);

  // With the durable tier attached, dashboard history runs deeper
  // than the engine's in-memory snapshot ring: FleetView reconstructs
  // older frames from the store's pane log on demand.
  if (engine.storage() != nullptr) {
    const auto ring = view.History(incident_host);
    const auto deep = view.History(incident_host, 64);
    std::printf(
        "Durable history for %s: %zu frames on tap "
        "(snapshot ring holds %zu).\n\n",
        incident_host.c_str(), deep.size(), ring.size());
  }

  asap::render::AsciiChartOptions chart;
  chart.width = 76;
  chart.height = 11;
  std::printf("%s\n",
              asap::render::AsciiChartPair(
                  asap::stats::ZScore(healthy_frame->series),
                  "-- " + healthy_host + " (healthy): ASAP dashboard view --",
                  asap::stats::ZScore(incident_frame->series),
                  "-- " + incident_host +
                      " (incident): ASAP dashboard view --",
                  chart)
                  .c_str());
  std::printf(
      "The day-8 usage step on %s is sub-threshold against the raw\n"
      "jitter but unmistakable in its smoothed view — and the fleet\n"
      "engine smooths every host's dashboard in one pass, sharded\n"
      "across threads (cf. paper §2, Figure 2).\n",
      incident_host.c_str());

  if (!self_mode) {
    return 0;
  }

  // --- The dogfood act: the engine monitors itself -----------------------
  //
  // The fleet engine's registry already holds live asap_shard_* and
  // asap_query_* instruments from the run above. A SelfScrapeSource
  // samples that registry every tick and emits `asap.self.*` records;
  // a second, smaller ShardedEngine ingests them through the exact
  // pipeline the CPU telemetry took. Each tick also runs one
  // fleet-wide FleetView::Sample against the fleet engine (the
  // tick_hook), so the self-stream carries a *moving* signal: the
  // engine's own query latency under a steady dashboard load.
  constexpr size_t kSelfTicks = 240;
  std::printf(
      "\nDogfood: scraping the engine's own registry for %zu ticks and\n"
      "streaming asap.self.* through a second fleet engine...\n",
      kSelfTicks);

  asap::StreamingOptions self_series_options;
  self_series_options.resolution = 80;
  self_series_options.visible_points = kSelfTicks;
  self_series_options.refresh_every_points = kSelfTicks / 4;

  asap::stream::ShardedEngineOptions self_engine_options;
  self_engine_options.shards = 2;
  asap::stream::ShardedEngine self_engine =
      asap::stream::ShardedEngine::Create(self_series_options,
                                          self_engine_options)
          .ValueOrDie();

  asap::telemetry::SelfScrapeOptions scrape_options;
  scrape_options.tick_interval_ms = 0.0;  // free-run: demo, not deployment
  scrape_options.max_ticks = kSelfTicks;
  scrape_options.tick_hook = [&view] {
    view.Sample(asap::stream::SeriesSelector::All());
  };

  asap::telemetry::SelfScrapeSource self_source(
      self_engine.catalog(), engine.metrics(), scrape_options);
  const asap::stream::FleetReport self_report =
      self_engine.RunToCompletion(&self_source);
  std::printf(
      "  %zu ticks -> %llu self-telemetry points across %zu series\n"
      "  (%llu refreshes through the standard pane/smooth pipeline)\n",
      self_source.ticks(),
      static_cast<unsigned long long>(self_report.points),
      self_report.series,
      static_cast<unsigned long long>(self_report.refreshes));

  // Chart one self-series exactly the way the host dashboards were
  // charted: the engine's own Sample p99 latency, smoothed by ASAP.
  const std::string self_series_name = asap::telemetry::SelfSeriesName(
      {"asap_query_seconds", "", {{"kind", "sample"}}}, ".p99");
  const asap::stream::FleetView self_view(&self_engine);
  const auto self_frame = self_view.Frame(self_series_name);
  if (self_frame != nullptr && !self_frame->series.empty()) {
    asap::render::AsciiChartOptions self_chart;
    self_chart.width = 76;
    self_chart.height = 9;
    std::printf("\n-- %s (the engine watching itself) --\n%s\n",
                self_series_name.c_str(),
                asap::render::AsciiChart(
                    asap::stats::ZScore(self_frame->series), self_chart)
                    .c_str());
  }

  // And the scrape surface itself: the same registry, rendered the way
  // an HTTP /metrics endpoint would serve it.
  std::printf("Prometheus exposition of the fleet engine's registry:\n\n%s",
              asap::telemetry::RenderPrometheus(*engine.metrics()).c_str());
  return 0;
}
