// Loopback end-to-end tests for the wire-ingestion subsystem: a
// WireClient replaying named fleets into a WireServer must feed the
// sharded fleet engine frames bitwise identical to in-process
// ingestion (both encodings — including 0xA6 name registrations — over
// TCP and UDS), FleetView queries must rank identically in both
// paths, and per-connection malformed input must never take down the
// server or its other connections.

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/net_source.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace asap {
namespace net {
namespace {

using stream::Record;
using stream::RecordBatch;
using stream::SeriesCatalog;
using stream::SeriesSelector;

std::vector<double> FleetSeries(size_t index, size_t n) {
  Pcg32 rng(500 + index);
  const double period = 24.0 + 6.0 * static_cast<double>(index % 5);
  return gen::Add(gen::Sine(n, period, 1.0 + 0.1 * index),
                  gen::WhiteNoise(&rng, n, 0.4));
}

std::string HostName(size_t index) {
  return "host-" + std::to_string(index) + "/load";
}

StreamingOptions FleetOptions() {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  return options;
}

std::string TestUdsPath(const char* tag) {
  return "/tmp/asap_wire_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

// The acceptance criterion: WireClient -> WireServer -> ShardedEngine
// produces per-series final frames bitwise identical to in-process
// InterleavingMultiSource ingestion — for both encodings (the binary
// path exercising 0xA6 name-registration frames) — and
// FleetView::TopKByRoughnessOf returns the identical ranking over both
// engines.
TEST(WireServerTest, LoopbackParityWithInProcessIngestion) {
  const size_t kSeries = 6;
  const size_t kPointsPerSeries = 5000;
  const StreamingOptions options = FleetOptions();

  std::vector<std::string> names;
  std::vector<std::vector<double>> payloads;
  for (size_t i = 0; i < kSeries; ++i) {
    names.push_back(HostName(i));
    payloads.push_back(FleetSeries(i, kPointsPerSeries));
  }

  // In-process reference run.
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  stream::ShardedEngine reference =
      stream::ShardedEngine::Create(options, engine_options).ValueOrDie();
  stream::InterleavingMultiSource in_process(reference.catalog());
  for (size_t i = 0; i < kSeries; ++i) {
    in_process.AddVector(names[i], payloads[i]);
  }
  reference.RunToCompletion(&in_process);
  const stream::FleetView reference_view(&reference);
  const std::vector<stream::SeriesRank> reference_ranks =
      stream::FleetView::TopKByRoughnessOf(
          reference_view.Sample(SeriesSelector::All()), kSeries,
          reference_view.exec_policy())
          .ranks;
  ASSERT_EQ(reference_ranks.size(), kSeries);

  // The collector's own catalog: ids on the wire are sender-local.
  SeriesCatalog collector_catalog;
  const RecordBatch records =
      stream::InterleaveToRecords(&collector_catalog, names, payloads);

  for (WireEncoding encoding : {WireEncoding::kText, WireEncoding::kBinary}) {
    stream::ShardedEngine engine =
        stream::ShardedEngine::Create(options, engine_options).ValueOrDie();

    WireServerOptions server_options;
    WireServer server =
        WireServer::Create(server_options, engine.catalog()).ValueOrDie();
    const uint16_t port = server.tcp_port();
    ASSERT_GT(port, 0);

    std::thread client_thread([&collector_catalog, &records, port,
                               encoding] {
      WireClientOptions client_options;
      client_options.catalog = &collector_catalog;
      client_options.encoding = encoding;
      WireClient client =
          WireClient::ConnectTcp("127.0.0.1", port, client_options)
              .ValueOrDie();
      ASSERT_TRUE(client.Send(records).ok());
      ASSERT_TRUE(client.Flush().ok());
      EXPECT_EQ(client.records_sent(), records.size());
      client.Close();
    });

    NetMultiSource source(&server);
    const stream::FleetReport report = engine.RunToCompletion(&source);
    client_thread.join();

    EXPECT_EQ(report.points, records.size()) << WireEncodingName(encoding);
    EXPECT_EQ(report.series, kSeries);
    uint64_t consumed = 0;
    for (const stream::ShardReport& sr : report.shards) {
      consumed += sr.points;
    }
    EXPECT_EQ(consumed, report.points);  // lossless
    const WireServerStats stats = server.stats();
    EXPECT_EQ(stats.records, records.size());
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.malformed_lines, 0u);
    EXPECT_EQ(stats.malformed_frames, 0u);
    EXPECT_EQ(stats.unknown_series_records, 0u);
    if (encoding == WireEncoding::kBinary) {
      // One 0xA6 per series, announced before its first record.
      EXPECT_EQ(stats.name_registrations, kSeries);
    }

    const stream::FleetView view(&engine);
    for (size_t i = 0; i < kSeries; ++i) {
      const auto got = view.Frame(names[i]);
      const auto want = reference_view.Frame(names[i]);
      ASSERT_NE(got, nullptr) << names[i];
      ASSERT_NE(want, nullptr) << names[i];
      EXPECT_EQ(got->window, want->window)
          << WireEncodingName(encoding) << " " << names[i];
      EXPECT_EQ(got->refreshes, want->refreshes)
          << WireEncodingName(encoding) << " " << names[i];
      // Bitwise-identical smoothed values (vector operator== on
      // doubles is exact equality).
      EXPECT_EQ(got->series, want->series)
          << WireEncodingName(encoding) << " " << names[i];
    }

    // The per-series report carries names, sorted.
    ASSERT_EQ(report.per_series.size(), kSeries);
    for (size_t i = 1; i < report.per_series.size(); ++i) {
      EXPECT_LT(report.per_series[i - 1].name, report.per_series[i].name);
    }

    // Fleet queries agree exactly: identical frames -> identical
    // roughness bits -> identical rankings.
    const std::vector<stream::SeriesRank> ranks =
        stream::FleetView::TopKByRoughnessOf(
            view.Sample(SeriesSelector::All()), kSeries, view.exec_policy())
            .ranks;
    ASSERT_EQ(ranks.size(), reference_ranks.size());
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(ranks[i].name, reference_ranks[i].name)
          << WireEncodingName(encoding) << " rank " << i;
      EXPECT_EQ(ranks[i].roughness, reference_ranks[i].roughness)
          << WireEncodingName(encoding) << " rank " << i;
      EXPECT_EQ(ranks[i].window, reference_ranks[i].window);
    }
  }
}

TEST(WireServerTest, UnixDomainSocketCarriesTheSameProtocol) {
  const std::string uds_path = TestUdsPath("uds");
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(FleetOptions()).ValueOrDie();
  WireServerOptions server_options;
  server_options.enable_tcp = false;
  server_options.uds_path = uds_path;
  WireServer server =
      WireServer::Create(server_options, engine.catalog()).ValueOrDie();
  EXPECT_EQ(server.tcp_port(), 0);

  const std::vector<double> payload = FleetSeries(0, 3000);
  std::thread client_thread([&payload, &uds_path] {
    SeriesCatalog catalog;
    const stream::SeriesId id = catalog.Intern("uds-host/load");
    WireClientOptions client_options;
    client_options.catalog = &catalog;
    WireClient client =
        WireClient::ConnectUds(uds_path, client_options).ValueOrDie();
    RecordBatch records;
    for (double x : payload) {
      records.push_back(Record{id, x});
    }
    ASSERT_TRUE(client.Send(records).ok());
    ASSERT_TRUE(client.Flush().ok());
  });

  NetMultiSource source(&server);
  const stream::FleetReport report = engine.RunToCompletion(&source);
  client_thread.join();

  EXPECT_EQ(report.points, payload.size());
  const auto frame = stream::FleetView(&engine).Frame("uds-host/load");
  ASSERT_NE(frame, nullptr);

  // Parity against driving the one series directly.
  StreamingAsap direct = StreamingAsap::Create(FleetOptions()).ValueOrDie();
  direct.PushBatch(payload);
  EXPECT_EQ(frame->series, direct.frame().series);
  EXPECT_EQ(frame->refreshes, direct.frame().refreshes);
}

TEST(WireServerTest, ConcurrentClientsDemuxIntoDistinctSeries) {
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(FleetOptions(), engine_options)
          .ValueOrDie();
  WireServer server =
      WireServer::Create(WireServerOptions{}, engine.catalog()).ValueOrDie();
  const uint16_t port = server.tcp_port();
  const size_t kClients = 4;
  const size_t kPointsPerClient = 3000;

  // Every client holds its connection until all have connected: the
  // NetMultiSource drain check must never observe a no-connections gap
  // between one replay ending and the next beginning.
  std::atomic<size_t> connected{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, port, &connected] {
      SeriesCatalog catalog;
      const stream::SeriesId id = catalog.Intern(HostName(c));
      WireClientOptions client_options;
      client_options.catalog = &catalog;
      client_options.encoding =
          c % 2 == 0 ? WireEncoding::kBinary : WireEncoding::kText;
      WireClient client =
          WireClient::ConnectTcp("127.0.0.1", port, client_options)
              .ValueOrDie();
      connected.fetch_add(1);
      while (connected.load() < kClients) {
        std::this_thread::yield();
      }
      const std::vector<double> payload = FleetSeries(c, kPointsPerClient);
      RecordBatch records;
      for (double x : payload) {
        records.push_back(Record{id, x});
      }
      ASSERT_TRUE(client.Send(records).ok());
      ASSERT_TRUE(client.Flush().ok());
    });
  }

  NetMultiSource source(&server);
  const stream::FleetReport report = engine.RunToCompletion(&source);
  for (auto& t : clients) {
    t.join();
  }

  EXPECT_EQ(report.points, kClients * kPointsPerClient);
  EXPECT_EQ(report.series, kClients);
  // Each client's connection is its own ordered byte stream, so every
  // series still matches its sequential reference exactly.
  const stream::FleetView view(&engine);
  for (size_t c = 0; c < kClients; ++c) {
    StreamingAsap direct = StreamingAsap::Create(FleetOptions()).ValueOrDie();
    direct.PushBatch(FleetSeries(c, kPointsPerClient));
    const auto frame = view.Frame(HostName(c));
    ASSERT_NE(frame, nullptr) << HostName(c);
    EXPECT_EQ(frame->series, direct.frame().series) << HostName(c);
  }
}

TEST(WireServerTest, MalformedConnectionIsDroppedOthersSurvive) {
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(FleetOptions()).ValueOrDie();
  WireServer server =
      WireServer::Create(WireServerOptions{}, engine.catalog()).ValueOrDie();
  const uint16_t port = server.tcp_port();

  // Both clients connect before either starts its replay, so the drain
  // check never sees a no-connections gap.
  std::atomic<size_t> connected{0};
  std::thread bad_client([port, &connected] {
    SeriesCatalog catalog;
    const stream::SeriesId id = catalog.Intern("bad/metric");
    WireClientOptions client_options;
    client_options.catalog = &catalog;
    WireClient client =
        WireClient::ConnectTcp("127.0.0.1", port, client_options)
            .ValueOrDie();
    connected.fetch_add(1);
    while (connected.load() < 2) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(client.Send(RecordBatch{{id, 2.0}}).ok());
    ASSERT_TRUE(client.Flush().ok());
    // Corrupt binary header: magic with an absurd length.
    std::string garbage;
    garbage.push_back(static_cast<char>(0xA5));
    garbage.append("\xff\xff\xff\xff", 4);
    ASSERT_TRUE(client.SendRaw(garbage).ok());
    // These records ride a poisoned stream and must be ignored.
    client.Send(RecordBatch{{id, 99.0}});
    client.Flush();  // may fail if the server already closed us
  });

  std::thread good_client([port, &connected] {
    SeriesCatalog catalog;
    const stream::SeriesId id = catalog.Intern("good/metric");
    WireClientOptions client_options;
    client_options.catalog = &catalog;
    client_options.encoding = WireEncoding::kText;
    WireClient client =
        WireClient::ConnectTcp("127.0.0.1", port, client_options)
            .ValueOrDie();
    connected.fetch_add(1);
    while (connected.load() < 2) {
      std::this_thread::yield();
    }
    RecordBatch records;
    for (double x : FleetSeries(2, 3000)) {
      records.push_back(Record{id, x});
    }
    ASSERT_TRUE(client.Send(records).ok());
    ASSERT_TRUE(client.Flush().ok());
  });

  NetMultiSource source(&server);
  const stream::FleetReport report = engine.RunToCompletion(&source);
  bad_client.join();
  good_client.join();

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.poisoned_connections, 1u);
  EXPECT_GE(stats.malformed_frames, 1u);
  // The good client's series came through in full, plus the one
  // record the bad client sent before poisoning itself.
  EXPECT_EQ(report.points, 3000u + 1u);
  const auto frame = stream::FleetView(&engine).Frame("good/metric");
  ASSERT_NE(frame, nullptr);
  EXPECT_GT(frame->refreshes, 0u);
}

TEST(WireServerTest, StopUnblocksAnIdleNextBatch) {
  SeriesCatalog catalog;
  WireServer server =
      WireServer::Create(WireServerOptions{}, &catalog).ValueOrDie();
  NetMultiSourceOptions source_options;
  source_options.poll_timeout_ms = 5;
  source_options.exit_when_drained = false;  // long-lived server mode
  NetMultiSource source(&server, source_options);

  std::thread stopper([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    source.Stop();
  });
  RecordBatch out;
  // No client ever connects: only Stop() can end this call.
  EXPECT_EQ(source.NextBatch(128, &out), 0u);
  stopper.join();
  EXPECT_TRUE(source.stopped());
}

TEST(WireServerTest, IdleTimeoutBoundsAnUnattendedNextBatch) {
  // RunForBudget checks its budget only between NextBatch calls, so a
  // long-lived source must be able to bound its own idle wait.
  SeriesCatalog catalog;
  WireServer server =
      WireServer::Create(WireServerOptions{}, &catalog).ValueOrDie();
  NetMultiSourceOptions source_options;
  source_options.poll_timeout_ms = 5;
  source_options.exit_when_drained = false;
  source_options.idle_timeout_ms = 50;
  NetMultiSource source(&server, source_options);

  RecordBatch out;
  // No client ever connects; the idle timeout alone ends the call.
  EXPECT_EQ(source.NextBatch(128, &out), 0u);
  EXPECT_FALSE(source.stopped());
}

TEST(WireServerTest, CreateValidatesOptions) {
  SeriesCatalog catalog;
  WireServerOptions no_listeners;
  no_listeners.enable_tcp = false;
  EXPECT_FALSE(WireServer::Create(no_listeners, &catalog).ok());

  EXPECT_FALSE(WireServer::Create(WireServerOptions{}, nullptr).ok());

  WireServerOptions bad_path;
  bad_path.enable_tcp = false;
  bad_path.uds_path = std::string(200, 'x');  // over sun_path
  EXPECT_FALSE(WireServer::Create(bad_path, &catalog).ok());

  WireServerOptions bad_host;
  bad_host.tcp_host = "not-an-ip";
  EXPECT_FALSE(WireServer::Create(bad_host, &catalog).ok());

  WireServerOptions tiny_frame;
  tiny_frame.max_frame_bytes = 8;  // cannot hold one binary record
  EXPECT_FALSE(WireServer::Create(tiny_frame, &catalog).ok());
}

TEST(WireServerTest, ClientRejectsBadOptionsBeforeConnecting) {
  SeriesCatalog catalog;
  WireClientOptions bad;
  bad.catalog = &catalog;
  bad.frame_records = 0;
  EXPECT_FALSE(WireClient::ConnectTcp("127.0.0.1", 1, bad).ok());

  WireClientOptions no_catalog;  // catalog is required
  EXPECT_FALSE(WireClient::ConnectTcp("127.0.0.1", 1, no_catalog).ok());
}

// The drain-on-shutdown guarantee: every byte the server received
// before Stop() — including on connections still open — is decoded and
// deliverable through PollOnce after Stop() returns. The old poll()
// server could only offer "whatever the last turn happened to read".
TEST(WireServerTest, StopDrainsEverythingAlreadyReceived) {
  SeriesCatalog catalog;
  WireServerOptions server_options;
  server_options.num_event_loops = 2;
  WireServer server =
      WireServer::Create(server_options, &catalog).ValueOrDie();
  server.Start();
  const uint16_t port = server.tcp_port();

  const size_t kRecordsPerClient = 400;
  std::vector<Socket> open_clients;
  for (size_t c = 0; c < 3; ++c) {
    Socket sock = ConnectTcp("127.0.0.1", port).ValueOrDie();
    std::string payload;
    for (size_t i = 0; i < kRecordsPerClient; ++i) {
      AppendTextRecord(HostName(c), static_cast<double>(i), &payload);
    }
    ASSERT_TRUE(SendAll(sock.fd(), payload.data(), payload.size()).ok());
    // The connections stay OPEN across Stop(): the drain must not
    // depend on peers closing first.
    open_clients.push_back(std::move(sock));
  }
  // Loopback send() completing puts the bytes in the server's socket
  // buffers; a short grace covers scheduling of the accept itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.Stop();

  RecordBatch got;
  while (server.PollOnce(0, 4096, &got) > 0) {
  }
  EXPECT_EQ(got.size(), 3 * kRecordsPerClient);
  EXPECT_EQ(server.pending_records(), 0u);
  EXPECT_EQ(server.active_connections(), 0u);
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.records, 3 * kRecordsPerClient);
  EXPECT_EQ(stats.accepted, 3u);
}

// Connection churn: waves of short-lived connections across both
// encodings, including peers that vanish mid-binary-frame, against a
// two-loop server. Every well-formed record must land, every aborted
// frame must be counted, and the server must survive it all.
TEST(WireServerTest, ConnectionChurnAcrossEncodingsSurvives) {
  SeriesCatalog catalog;
  WireServerOptions server_options;
  server_options.num_event_loops = 2;
  WireServer server =
      WireServer::Create(server_options, &catalog).ValueOrDie();
  server.Start();
  const uint16_t port = server.tcp_port();

  const size_t kRounds = 25;
  const size_t kPerConn = 50;
  std::thread churn([port] {
    for (size_t round = 0; round < kRounds; ++round) {
      for (WireEncoding encoding :
           {WireEncoding::kText, WireEncoding::kBinary}) {
        SeriesCatalog sender;
        const stream::SeriesId id =
            sender.Intern(HostName(round % 5));
        WireClientOptions client_options;
        client_options.catalog = &sender;
        client_options.encoding = encoding;
        WireClient client =
            WireClient::ConnectTcp("127.0.0.1", port, client_options)
                .ValueOrDie();
        RecordBatch records;
        for (size_t i = 0; i < kPerConn; ++i) {
          records.push_back(Record{id, static_cast<double>(i)});
        }
        ASSERT_TRUE(client.Send(records).ok());
        ASSERT_TRUE(client.Flush().ok());
        client.Close();
      }
      // And one peer that dies mid-frame: a 0xA5 header promising 120
      // payload bytes, only half delivered before the close.
      Socket abrupt = ConnectTcp("127.0.0.1", port).ValueOrDie();
      std::string partial;
      partial.push_back(static_cast<char>(0xA5));
      const uint32_t len = 120;
      partial.append(reinterpret_cast<const char*>(&len), 4);
      partial.append(60, '\0');
      ASSERT_TRUE(SendAll(abrupt.fd(), partial.data(), partial.size()).ok());
      abrupt.Close();
    }
  });

  const size_t kExpected = kRounds * 2 * kPerConn;
  RecordBatch got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (got.size() < kExpected || server.active_connections() > 0) {
    server.PollOnce(10, 4096, &got);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stalled at " << got.size() << "/" << kExpected;
  }
  churn.join();
  server.Stop();
  while (server.PollOnce(0, 4096, &got) > 0) {
  }

  EXPECT_EQ(got.size(), kExpected);
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kRounds * 3);
  EXPECT_EQ(stats.records, kExpected);
  // Each mid-frame disconnect is one malformed frame, and none of
  // them poisoned a *parsing* stream (the abort is an EOF, not a
  // corrupt byte fed to the decoder).
  EXPECT_GE(stats.malformed_frames, kRounds);
  EXPECT_EQ(stats.active, 0u);
  // Per-loop adoption accounting covers every kept connection.
  uint64_t adopted = 0;
  for (const WireLoopStats& ls : stats.per_loop) {
    adopted += ls.accepted;
  }
  EXPECT_EQ(adopted, stats.accepted);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.wakeups, 0u);
}

// A storm of short-lived connections larger than the connection cap is
// served in full: max_connections bounds the connections open at once,
// and connections still waiting in the listen backlog are not open.
// The acceptor takes a bounded number per turn and drains them before
// taking more, so it never holds the whole backlog at once.
TEST(WireServerTest, BacklogLargerThanTheConnectionCapIsServedInFull) {
  SeriesCatalog catalog;
  WireServerOptions server_options;
  WireServer server =
      WireServer::Create(server_options, &catalog).ValueOrDie();
  const uint16_t port = server.tcp_port();

  // Every connection connects, sends and closes before the loops start,
  // so the whole storm sits in the listen backlog when the acceptor
  // first looks.
  const size_t kConns = 100;
  const size_t kPerConn = 20;
  ASSERT_GT(kConns, server_options.max_connections);
  ASSERT_LE(kConns, static_cast<size_t>(server_options.listen_backlog));
  for (size_t c = 0; c < kConns; ++c) {
    Socket sock = ConnectTcp("127.0.0.1", port).ValueOrDie();
    std::string payload;
    for (size_t i = 0; i < kPerConn; ++i) {
      AppendTextRecord(HostName(c % 5), static_cast<double>(i), &payload);
    }
    ASSERT_TRUE(SendAll(sock.fd(), payload.data(), payload.size()).ok());
  }
  server.Start();

  RecordBatch got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    server.PollOnce(10, 4096, &got);
    const WireServerStats stats = server.stats();
    if (stats.accepted + stats.rejected_connections == kConns &&
        stats.active == 0 && server.pending_records() == 0) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stalled at " << got.size() << " records";
  }
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_connections, 0u);
  EXPECT_EQ(stats.accepted, kConns);
  EXPECT_EQ(got.size(), kConns * kPerConn);
}

// Determinism parity across loop counts and transports: the same
// multi-client replay through 1, 2, and 4 loops, over TCP and UDS, must
// produce frames bitwise identical to each series' sequential
// reference. Loop 0 accepts on both transports and hands connections
// to the other loops; one connection = one loop = one decoder, and the
// output queue is FIFO, so loop count must never reorder a
// connection's records.
TEST(WireServerTest, MultiLoopDemuxParityMatchesSequentialReference) {
  const size_t kClients = 4;
  const size_t kPointsPerClient = 2000;

  enum class Transport { kTcp, kUds };
  for (Transport transport : {Transport::kTcp, Transport::kUds}) {
    for (size_t loops : {size_t{1}, size_t{2}, size_t{4}}) {
      stream::ShardedEngineOptions engine_options;
      engine_options.shards = 2;
      stream::ShardedEngine engine =
          stream::ShardedEngine::Create(FleetOptions(), engine_options)
              .ValueOrDie();

      WireServerOptions server_options;
      server_options.num_event_loops = loops;
      const std::string uds_path = TestUdsPath("demux");
      if (transport == Transport::kUds) {
        server_options.enable_tcp = false;
        server_options.uds_path = uds_path;
      }
      WireServer server =
          WireServer::Create(server_options, engine.catalog()).ValueOrDie();
      const uint16_t port = server.tcp_port();

      std::atomic<size_t> connected{0};
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([c, port, transport, &uds_path, &connected] {
          SeriesCatalog sender;
          const stream::SeriesId id = sender.Intern(HostName(c));
          WireClientOptions client_options;
          client_options.catalog = &sender;
          client_options.encoding =
              c % 2 == 0 ? WireEncoding::kBinary : WireEncoding::kText;
          Result<WireClient> connect =
              transport == Transport::kUds
                  ? WireClient::ConnectUds(uds_path, client_options)
                  : WireClient::ConnectTcp("127.0.0.1", port, client_options);
          WireClient client = std::move(connect).ValueOrDie();
          connected.fetch_add(1);
          while (connected.load() < kClients) {
            std::this_thread::yield();
          }
          RecordBatch records;
          for (double x : FleetSeries(c, kPointsPerClient)) {
            records.push_back(Record{id, x});
          }
          ASSERT_TRUE(client.Send(records).ok());
          ASSERT_TRUE(client.Flush().ok());
        });
      }

      NetMultiSource source(&server);
      const stream::FleetReport report = engine.RunToCompletion(&source);
      for (auto& t : clients) {
        t.join();
      }

      EXPECT_EQ(report.points, kClients * kPointsPerClient);
      EXPECT_EQ(report.series, kClients);
      const stream::FleetView view(&engine);
      for (size_t c = 0; c < kClients; ++c) {
        StreamingAsap direct =
            StreamingAsap::Create(FleetOptions()).ValueOrDie();
        direct.PushBatch(FleetSeries(c, kPointsPerClient));
        const auto frame = view.Frame(HostName(c));
        ASSERT_NE(frame, nullptr) << HostName(c);
        EXPECT_EQ(frame->series, direct.frame().series)
            << "transport=" << static_cast<int>(transport)
            << " loops=" << loops << " " << HostName(c);
      }

      const WireServerStats stats = server.stats();
      ASSERT_EQ(stats.per_loop.size(), loops);
      uint64_t handoffs = 0;
      for (const WireLoopStats& ls : stats.per_loop) {
        handoffs += ls.handoffs;
      }
      if (loops > 1) {
        // The single acceptor spreads connections by mailbox.
        EXPECT_GT(handoffs, 0u)
            << "transport=" << static_cast<int>(transport)
            << " loops=" << loops;
      }
    }
  }
}

TEST(WireServerTest, UdsRefusesToClobberANonSocketPath) {
  const std::string path = TestUdsPath("clobber");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("precious data\n", f);
  std::fclose(f);

  SeriesCatalog catalog;
  WireServerOptions server_options;
  server_options.enable_tcp = false;
  server_options.uds_path = path;
  EXPECT_FALSE(WireServer::Create(server_options, &catalog).ok());
  // The file survived.
  f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace net
}  // namespace asap
