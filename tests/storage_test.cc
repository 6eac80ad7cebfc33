// Tests for the durable storage tier: CRC32C, the pane-block codec,
// WAL framing and torn-tail scanning, the DurableStore facade
// (append / compact / read / reopen), kill -9 crash recovery with
// bitwise parity against an uninterrupted run, and the engine hookup
// (ShardedEngineOptions::storage + ReplayIntoEngine + FleetView deep
// history).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "storage/chunk_codec.h"
#include "storage/chunk_store.h"
#include "storage/crc32c.h"
#include "storage/posix_file.h"
#include "storage/recovery.h"
#include "storage/store.h"
#include "storage/wal.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "telemetry/exposition.h"
#include "ts/generators.h"

namespace asap {
namespace storage {
namespace {

/// A self-deleting temp directory for one test.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    char tmpl[] = "/tmp/asap_storage_XXXXXX";
    const char* made = mkdtemp(tmpl);
    ASAP_CHECK(made != nullptr);
    path_ = std::string(made) + "/" + tag;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(
        std::filesystem::path(path_).parent_path(), ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StoreOptions TestStoreOptions() {
  StoreOptions options;
  options.sync = SyncPolicy::kEveryBatch;
  options.background_maintenance = false;
  return options;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes (iSCSI test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // Masking must round-trip-ably differ from the raw CRC.
  EXPECT_NE(Crc32cMask(0xE3069283u), 0xE3069283u);
}

// Smooth-ish walk with occasional jumps, plus exact repeats (the XOR
// same-value path).
std::vector<double> WalkValues(uint64_t seed, size_t n) {
  Pcg32 rng(seed);
  std::vector<double> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(i % 7 == 0 && i > 0 ? values.back()
                                         : rng.Gaussian(100.0, 5.0));
  }
  return values;
}

TEST(ChunkCodecTest, RoundTripsValues) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{500}}) {
    const std::vector<double> values = WalkValues(42, n);
    std::string block;
    EncodePaneBlock(values.data(), n, &block);
    EXPECT_EQ(block.empty(), n == 0);
    std::vector<double> out = {-1.0};  // decoding appends
    ASSERT_TRUE(DecodePaneBlock(block.data(), block.size(), n, &out).ok())
        << n;
    ASSERT_EQ(out.size(), n + 1);
    EXPECT_TRUE(BitwiseEqual({out.begin() + 1, out.end()}, values)) << n;
  }
}

TEST(ChunkCodecTest, RoundTripsSpecialValues) {
  const std::vector<double> values = {
      0.0, -0.0, 1e308, -1e-308,
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 1.0};
  std::string block;
  EncodePaneBlock(values.data(), values.size(), &block);
  std::vector<double> out;
  ASSERT_TRUE(
      DecodePaneBlock(block.data(), block.size(), values.size(), &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, values));
}

TEST(ChunkCodecTest, RejectsShortLongAndGarbageBlocksWithoutCrashing) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  std::string block;
  EncodePaneBlock(values.data(), values.size(), &block);
  // Every strict prefix is short of the pane count.
  for (size_t cut = 0; cut < block.size(); ++cut) {
    std::vector<double> out;
    EXPECT_EQ(DecodePaneBlock(block.data(), cut, values.size(), &out).code(),
              StatusCode::kIOError)
        << "prefix of " << cut << " bytes decoded";
  }
  // A byte past the last value fails, and so does a count the block's
  // bits cannot hold (each mean takes at least one bit, and the last
  // byte's padding is at most 7).
  std::vector<double> out;
  const std::string longer = block + '\0';
  EXPECT_EQ(DecodePaneBlock(longer.data(), longer.size(), values.size(), &out)
                .code(),
            StatusCode::kIOError);
  EXPECT_EQ(DecodePaneBlock(block.data(), block.size(), values.size() + 8,
                            &out)
                .code(),
            StatusCode::kIOError);
  EXPECT_EQ(DecodePaneBlock(block.data(), block.size(), 1u << 30, &out).code(),
            StatusCode::kIOError);
  // Random garbage at random counts must fail or decode, never crash.
  Pcg32 rng(99);
  for (int round = 0; round < 50; ++round) {
    std::string garbage(8 + rng.NextBounded(64), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextU32());
    }
    out.clear();
    (void)DecodePaneBlock(garbage.data(), garbage.size(),
                          rng.NextBounded(600), &out);
  }
}

ManifestData ReadManifest(const std::string& chunk_dir) {
  std::string raw;
  ManifestData m;
  EXPECT_TRUE(ReadFile(chunk_dir + "/MANIFEST", &raw).ok());
  EXPECT_TRUE(ChunkStore::DecodeManifest(raw, &m).ok());
  return m;
}

bool SameEntry(const ChunkEntry& a, const ChunkEntry& b) {
  return a.first_pane == b.first_pane && a.pane_count == b.pane_count &&
         a.chunk_id == b.chunk_id && a.offset == b.offset &&
         a.block_len == b.block_len && a.block_crc == b.block_crc;
}

// Every sid's entry list (and one past the last sid) against the
// MANIFEST on disk: whole lists, every overlap query EntriesFor can
// get, PaneCountFor, and each block's means (`values` prefixes).
void ExpectEntryListsMatchManifest(const ChunkStore& chunks,
                                   const std::string& chunk_dir,
                                   const std::vector<uint64_t>& panes,
                                   const std::vector<double>& values) {
  const ManifestData m = ReadManifest(chunk_dir);
  ASSERT_EQ(chunks.name_count(), m.names.size());
  EXPECT_EQ(chunks.names(), m.names);
  EXPECT_EQ(chunks.wal_floor_seq(), m.wal_floor_seq);
  for (uint32_t sid = 0; sid <= panes.size(); ++sid) {
    const std::vector<ChunkEntry> none;
    const std::vector<ChunkEntry>& want =
        sid < m.entries.size() ? m.entries[sid] : none;
    const uint64_t stored = sid < panes.size() ? panes[sid] : 0;
    EXPECT_EQ(chunks.PaneCountFor(sid), stored) << "sid=" << sid;
    for (uint64_t first = 0; first <= stored + 1; ++first) {
      for (const uint64_t end : {first, first + 1, first + 3, stored + 2}) {
        std::vector<ChunkEntry> overlap;
        for (const ChunkEntry& e : want) {
          if (first < end && e.first_pane < end &&
              first < e.first_pane + e.pane_count) {
            overlap.push_back(e);
          }
        }
        const std::vector<ChunkEntry> got = chunks.EntriesFor(sid, first, end);
        ASSERT_EQ(got.size(), overlap.size())
            << "sid=" << sid << " [" << first << ", " << end << ")";
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(SameEntry(got[i], overlap[i])) << "sid=" << sid;
        }
      }
    }
    for (const ChunkEntry& e : want) {
      std::vector<double> got;
      ASSERT_TRUE(chunks.ReadSeriesBlock(e, &got).ok()) << "sid=" << sid;
      EXPECT_TRUE(BitwiseEqual(
          got, {values.begin(), values.begin() + e.pane_count}));
    }
  }
}

TEST(ChunkStoreTest, EntryListsMatchManifestAcrossCompactionsAndReopen) {
  TempDir dir("chunks");
  constexpr uint32_t kSeries = 5;
  const std::vector<std::string> all_names = {"a", "b", "c", "d", "e"};
  const std::vector<double> values = WalkValues(5, 16);
  std::vector<uint64_t> panes(kSeries, 0);
  {
    auto opened = ChunkStore::Open(dir.path(), ChunkStore::Options{});
    ASSERT_TRUE(opened.ok());
    ChunkStore& chunks = **opened;
    for (uint32_t round = 0; round < 24; ++round) {
      // Series 3 and 4 are named in round 5; series 1-3 skip the
      // rounds their period divides.
      std::vector<std::string> new_names;
      if (round == 0) {
        new_names.assign(all_names.begin(), all_names.begin() + 3);
      } else if (round == 5) {
        new_names.assign(all_names.begin() + 3, all_names.end());
      }
      const uint32_t named = round < 5 ? 3 : kSeries;
      std::vector<SeriesSlice> slices;
      for (uint32_t sid = 0; sid < named; ++sid) {
        if (sid >= 1 && sid <= 3 && round % (sid + 1) == 0) {
          continue;
        }
        SeriesSlice slice;
        slice.sid = sid;
        slice.values = values.data();
        slice.count = 1 + (round + sid) % 7;
        slice.first_pane = panes[sid];
        panes[sid] += slice.count;
        slices.push_back(slice);
      }
      ASSERT_TRUE(chunks.WriteChunk(slices, new_names, round + 1).ok());
      ExpectEntryListsMatchManifest(chunks, dir.path(), panes, values);
    }
  }

  // Refused slices publish nothing: an unnamed sid, a gap, an overlap,
  // a new series not starting at pane 0, and sids out of order or
  // repeated.
  {
    auto opened = ChunkStore::Open(dir.path(), ChunkStore::Options{});
    ASSERT_TRUE(opened.ok());
    std::string manifest_before;
    ASSERT_TRUE(ReadFile(dir.path() + "/MANIFEST", &manifest_before).ok());
    const auto slice = [&](uint32_t sid, uint64_t first) {
      SeriesSlice s;
      s.sid = sid;
      s.first_pane = first;
      s.values = values.data();
      s.count = 2;
      return s;
    };
    const std::vector<std::vector<SeriesSlice>> refused = {
        {slice(kSeries, 0)},
        {slice(1, panes[1] + 1)},
        {slice(1, panes[1] - 1)},
        {slice(0, panes[0]), slice(2, panes[2]), slice(1, panes[1])},
        {slice(2, panes[2]), slice(2, panes[2] + 2)},
    };
    for (const std::vector<SeriesSlice>& slices : refused) {
      EXPECT_EQ((*opened)->WriteChunk(slices, {}, 99).status().code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ((*opened)->WriteChunk({slice(kSeries, 2)}, {"f"}, 99)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    std::string manifest_after;
    ASSERT_TRUE(ReadFile(dir.path() + "/MANIFEST", &manifest_after).ok());
    EXPECT_EQ(manifest_after, manifest_before);
    ExpectEntryListsMatchManifest(**opened, dir.path(), panes, values);
  }

  // Reopening rebuilds the same lists from the MANIFEST alone.
  auto reopened = ChunkStore::Open(dir.path(), ChunkStore::Options{});
  ASSERT_TRUE(reopened.ok());
  ExpectEntryListsMatchManifest(**reopened, dir.path(), panes, values);
}

// The manifest as format version 1 wrote it (its entries carried
// their sid), for one series with one entry, checksummed.
std::string VersionOneManifest() {
  std::string m;
  PutU64(kManifestMagic, &m);
  PutU32(1, &m);  // version
  PutU32(1, &m);  // wal_floor_seq
  PutU32(2, &m);  // next_chunk_id
  PutU32(1, &m);  // name_count
  PutU16(1, &m);
  m.append("a");
  PutU32(1, &m);  // entry_count
  PutU32(1, &m);  // chunk_id
  PutU32(0, &m);  // sid
  PutU64(0, &m);  // first_pane
  PutU32(4, &m);  // pane_count
  PutU64(28, &m);  // offset
  PutU32(40, &m);  // block_len
  PutU32(0, &m);  // block_crc
  PutU32(Crc32cMask(Crc32c(m.data(), m.size())), &m);
  return m;
}

void WriteWholeFile(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << data;
  ASSERT_TRUE(f.good()) << path;
}

// The MANIFEST is the root of trust: any damage to it fails Open with
// IOError rather than opening a store that reads wrong panes.
TEST(ChunkStoreTest, CorruptManifestFailsOpen) {
  TempDir dir("manifest");
  const std::vector<double> values = WalkValues(6, 8);
  {
    auto opened = ChunkStore::Open(dir.path(), ChunkStore::Options{});
    ASSERT_TRUE(opened.ok());
    for (uint32_t round = 0; round < 3; ++round) {
      std::vector<SeriesSlice> slices;
      for (uint32_t sid = 0; sid < 3; ++sid) {
        slices.push_back({sid, 4ull * round, values.data(), 4});
      }
      const std::vector<std::string> new_names =
          round == 0 ? std::vector<std::string>{"a", "b", "c"}
                     : std::vector<std::string>{};
      ASSERT_TRUE((*opened)->WriteChunk(slices, new_names, round + 1).ok());
    }
  }
  const std::string path = dir.path() + "/MANIFEST";
  std::string good;
  ASSERT_TRUE(ReadFile(path, &good).ok());
  const auto open_code = [&](const std::string& manifest) {
    WriteWholeFile(path, manifest);
    return ChunkStore::Open(dir.path(), ChunkStore::Options{}).status().code();
  };
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_EQ(open_code(good.substr(0, cut)), StatusCode::kIOError)
        << "prefix of " << cut << " bytes";
  }
  for (size_t i = 0; i < good.size(); ++i) {
    std::string flipped = good;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    EXPECT_EQ(open_code(flipped), StatusCode::kIOError) << "byte " << i;
  }
  EXPECT_EQ(open_code(VersionOneManifest()), StatusCode::kIOError);

  // Well-checksummed manifests whose entries for series 1 leave a gap
  // or overlap, or do not start at pane 0, fail naming the series.
  ManifestData m;
  ASSERT_TRUE(ChunkStore::DecodeManifest(good, &m).ok());
  for (const bool gap : {true, false}) {
    for (const size_t entry : {0, 1, 2}) {
      ManifestData bad = m;
      uint64_t& first = bad.entries[1][entry].first_pane;
      first = gap ? first + 1 : first - 1;  // entry 0: not at pane 0
      WriteWholeFile(path, ChunkStore::EncodeManifest(bad));
      const Status st =
          ChunkStore::Open(dir.path(), ChunkStore::Options{}).status();
      EXPECT_EQ(st.code(), StatusCode::kIOError) << gap << " " << entry;
      EXPECT_NE(st.ToString().find("series 1"), std::string::npos)
          << st.ToString();
    }
  }

  // The intact manifest still opens, with every chunk file kept.
  EXPECT_EQ(open_code(good), StatusCode::kOk);
  auto reopened = ChunkStore::Open(dir.path(), ChunkStore::Options{});
  ASSERT_TRUE(reopened.ok());
  for (uint32_t sid = 0; sid < 3; ++sid) {
    EXPECT_EQ((*reopened)->PaneCountFor(sid), 12u);
    for (const ChunkEntry& e : (*reopened)->EntriesFor(sid, 0, 12)) {
      std::vector<double> got;
      EXPECT_TRUE((*reopened)->ReadSeriesBlock(e, &got).ok());
    }
  }
}

TEST(WalTest, AppendScanRoundTripAcrossSegmentRolls) {
  TempDir dir("wal");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  options.segment_bytes = 256;  // force frequent rolls
  std::vector<std::string> payloads;
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    Pcg32 rng(3);
    for (int i = 0; i < 50; ++i) {
      std::string p(1 + rng.NextBounded(80), '\0');
      for (char& c : p) {
        c = static_cast<char>(rng.NextU32());
      }
      payloads.push_back(p);
      ASSERT_TRUE((*wal)->Append(p.data(), p.size()).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
    EXPECT_GT((*wal)->SealedSeqs().size(), 0u);
  }
  std::vector<std::string> scanned;
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(dir.path(), 1,
                      [&](uint32_t, const char* p, size_t n) {
                        scanned.emplace_back(p, n);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(scanned, payloads);
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(stats.frames, payloads.size());
  EXPECT_GT(stats.segments, 1u);
}

TEST(WalTest, ScanStopsCleanlyAtTornTail) {
  TempDir dir("wal_torn");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    const std::string a(40, 'a'), b(40, 'b');
    ASSERT_TRUE((*wal)->Append(a.data(), a.size()).ok());
    ASSERT_TRUE((*wal)->Append(b.data(), b.size()).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Tear the second frame: cut the segment mid-payload.
  const std::string seg = Wal::SegmentPath(dir.path(), 1);
  uint64_t size = 0;
  ASSERT_TRUE(FileSize(seg, &size).ok());
  ASSERT_TRUE(TruncateFile(seg, size - 17).ok());

  size_t frames = 0;
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(dir.path(), 1,
                      [&](uint32_t, const char*, size_t) {
                        ++frames;
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(frames, 1u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_GT(stats.truncated_bytes, 0u);
}

TEST(WalTest, ShortWritesAreInvisibleToTheFrameStream) {
  // Cap every ::write at 5 bytes (the kernel is allowed to transfer
  // less than asked, and EINTR retries look the same): WriteFull must
  // loop until the frame is fully on disk, so a scan sees every frame
  // intact — short writes are a transport detail, never a tear.
  TempDir dir("wal_short");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  SetWriteFaultInjection(/*max_bytes_per_write=*/5,
                         /*fail_after_total_bytes=*/-1);
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  std::vector<std::string> payloads;
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    Pcg32 rng(11);
    for (int i = 0; i < 20; ++i) {
      std::string p(1 + rng.NextBounded(60), '\0');
      for (char& c : p) {
        c = static_cast<char>(rng.NextU32());
      }
      payloads.push_back(p);
      ASSERT_TRUE((*wal)->Append(p.data(), p.size()).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  SetWriteFaultInjection(0, -1);  // disarm
  std::vector<std::string> scanned;
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(dir.path(), 1,
                      [&](uint32_t, const char* p, size_t n) {
                        scanned.emplace_back(p, n);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(scanned, payloads);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST(WalTest, InjectedMidFrameFailurePinsTruncationAtLastValidFrame) {
  // Kill the write() stream partway through a frame — short writes
  // followed by a hard failure, the torn bytes left on disk exactly as
  // a crash would leave them. The WAL must poison itself (every later
  // Append fails), and recovery must replay precisely the frames whose
  // Append returned OK, truncating at the last valid frame boundary.
  TempDir dir("wal_fault");
  ASSERT_TRUE(MakeDirs(dir.path()).ok());
  WalOptions options;
  options.sync = SyncPolicy::kNone;
  const std::string good(40, 'g');
  const size_t kGoodFrames = 10;
  const size_t frame_bytes = kWalFrameHeaderBytes + good.size();
  {
    auto wal = Wal::Open(dir.path(), 1, options);
    ASSERT_TRUE(wal.ok());
    for (size_t i = 0; i < kGoodFrames; ++i) {
      ASSERT_TRUE((*wal)->Append(good.data(), good.size()).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());

    // Next flush transfers 7+7+6 = 20 bytes — mid-payload — then
    // fails; the 20 torn bytes stay in the segment file.
    SetWriteFaultInjection(/*max_bytes_per_write=*/7,
                           /*fail_after_total_bytes=*/20);
    const std::string torn(40, 't');
    const Status failed = (*wal)->Append(torn.data(), torn.size());
    EXPECT_FALSE(failed.ok());
    SetWriteFaultInjection(0, -1);  // disarm
    // Poisoned: the WAL never pretends a later append is durable when
    // an earlier one vanished into a torn tail.
    EXPECT_FALSE((*wal)->Append(good.data(), good.size()).ok());
    EXPECT_FALSE((*wal)->Sync().ok());
  }
  SetWriteFaultInjection(0, -1);  // belt and braces (dtor flushes too)

  size_t frames = 0;
  WalScanStats stats;
  ASSERT_TRUE(ScanWal(dir.path(), 1,
                      [&](uint32_t, const char* p, size_t n) {
                        ++frames;
                        EXPECT_EQ(std::string(p, n), good);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(frames, kGoodFrames);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.valid_end_offset,
            kWalSegmentHeaderBytes + kGoodFrames * frame_bytes);
  EXPECT_EQ(stats.truncated_bytes, 20u);
}

TEST(DurableStoreTest, RegistersAppendsReadsAndSurvivesReopen) {
  TempDir dir("store");
  std::vector<double> cpu = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> mem = {10.0, 20.0};
  {
    auto store = DurableStore::Open(dir.path(), TestStoreOptions());
    ASSERT_TRUE(store.ok());
    auto cpu_sid = (*store)->RegisterSeries("host-0/cpu");
    auto mem_sid = (*store)->RegisterSeries("host-0/mem");
    ASSERT_TRUE(cpu_sid.ok() && mem_sid.ok());
    // Re-registration returns the same sid.
    EXPECT_EQ((*store)->RegisterSeries("host-0/cpu").ValueOrDie(),
              cpu_sid.ValueOrDie());
    PaneRun runs[2] = {
        {cpu_sid.ValueOrDie(), cpu.data(), 4},
        {mem_sid.ValueOrDie(), mem.data(), 2},
    };
    ASSERT_TRUE((*store)->AppendPanes(runs, 2).ok());
    cpu.push_back(5.0);
    PaneRun more = {cpu_sid.ValueOrDie(), cpu.data() + 4, 1};
    ASSERT_TRUE((*store)->AppendPanes(&more, 1).ok());
    EXPECT_EQ((*store)->PaneCount(cpu_sid.ValueOrDie()), 5u);
  }
  // Reopen: everything must come back by name, from the WAL alone.
  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->series_count(), 2u);
  EXPECT_EQ((*store)->recovery().replayed_registrations, 2u);
  // Batches count per-series runs: the first append carried two runs,
  // the second one.
  EXPECT_EQ((*store)->recovery().replayed_pane_batches, 3u);
  EXPECT_FALSE((*store)->recovery().tail_truncated);
  const uint32_t cpu_sid = (*store)->FindSeries("host-0/cpu").ValueOrDie();
  const uint32_t mem_sid = (*store)->FindSeries("host-0/mem").ValueOrDie();
  EXPECT_EQ((*store)->NameOf(cpu_sid), "host-0/cpu");
  std::vector<double> out;
  ASSERT_TRUE((*store)->ReadPanes(cpu_sid, 0, 5, &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, cpu));
  ASSERT_TRUE((*store)->ReadPanes(mem_sid, 0, 2, &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, mem));
  // Sub-range read.
  ASSERT_TRUE((*store)->ReadPanes(cpu_sid, 2, 2, &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, {3.0, 4.0}));
  // Past-the-end read is OutOfRange, not a crash.
  EXPECT_EQ((*store)->ReadPanes(cpu_sid, 0, 6, &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*store)->FindSeries("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(DurableStoreTest, CompactionMovesTailIntoChunksAndPrunesWal) {
  TempDir dir("compact");
  Pcg32 rng(11);
  std::vector<double> means;
  for (int i = 0; i < 3000; ++i) {
    means.push_back(rng.Gaussian(50.0, 2.0));
  }
  StoreOptions options = TestStoreOptions();
  options.wal_segment_bytes = 4096;  // many sealed segments
  {
    auto store = DurableStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    const uint32_t sid = (*store)->RegisterSeries("s").ValueOrDie();
    for (size_t i = 0; i < means.size(); i += 100) {
      PaneRun run = {sid, means.data() + i, 100};
      ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
    }
    ASSERT_TRUE((*store)->CompactOnce(/*force=*/true).ok());
    // Reads stitch chunks + tail transparently.
    std::vector<double> out;
    ASSERT_TRUE((*store)->ReadPanes(sid, 0, means.size(), &out).ok());
    EXPECT_TRUE(BitwiseEqual(out, means));
    // Compaction must actually have dropped covered WAL segments.
    std::vector<std::string> names;
    ASSERT_TRUE(ListDir((*store)->dir() + "/wal", &names).ok());
    size_t wal_files = 0;
    for (const std::string& name : names) {
      wal_files += Wal::ParseSegmentFileName(name) != 0 ? 1 : 0;
    }
    EXPECT_LE(wal_files, 2u);
  }
  // Reopen after compaction: chunks + (short) WAL tail reassemble the
  // identical sequence.
  auto store = DurableStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  const uint32_t sid = (*store)->FindSeries("s").ValueOrDie();
  ASSERT_EQ((*store)->PaneCount(sid), means.size());
  EXPECT_GT((*store)->recovery().chunk_panes, 0u);
  std::vector<double> out;
  ASSERT_TRUE((*store)->ReadPanes(sid, 0, means.size(), &out).ok());
  EXPECT_TRUE(BitwiseEqual(out, means));
  // Appending continues exactly where the durable count left off.
  const double extra = 123.0;
  PaneRun run = {sid, &extra, 1};
  ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
  EXPECT_EQ((*store)->PaneCount(sid), means.size() + 1);
}

// The acceptance crash test: a child process ingests with
// kEveryBatch acks, then dies by SIGKILL with no shutdown path. The
// parent reopens the directory and must find every acked pane,
// bitwise identical to a run that was never interrupted.
TEST(DurableStoreTest, SigkillMidIngestRecoversAllAckedPanesBitwise) {
  TempDir crash_dir("crash");
  TempDir clean_dir("clean");
  constexpr size_t kBatches = 40;
  constexpr size_t kPerBatch = 25;

  const auto ingest = [&](const std::string& dir) {
    auto store = DurableStore::Open(dir, TestStoreOptions());
    ASAP_CHECK(store.ok());
    Pcg32 rng(2024);
    const uint32_t a = (*store)->RegisterSeries("crash/a").ValueOrDie();
    const uint32_t b = (*store)->RegisterSeries("crash/b").ValueOrDie();
    std::vector<double> batch(kPerBatch);
    for (size_t i = 0; i < kBatches; ++i) {
      for (double& v : batch) {
        v = rng.Gaussian();
      }
      PaneRun runs[2] = {{a, batch.data(), kPerBatch},
                         {b, batch.data(), kPerBatch / 5}};
      ASAP_CHECK((*store)->AppendPanes(runs, 2).ok());
    }
    return store;
  };

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: ingest, then die with no destructors, no flush, nothing.
    auto store = ingest(crash_dir.path());
    (void)store;
    raise(SIGKILL);
    _exit(127);  // unreachable
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The uninterrupted twin, closed cleanly.
  { auto store = ingest(clean_dir.path()); }

  auto crashed = DurableStore::Open(crash_dir.path(), TestStoreOptions());
  auto clean = DurableStore::Open(clean_dir.path(), TestStoreOptions());
  ASSERT_TRUE(crashed.ok());
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ((*crashed)->series_count(), (*clean)->series_count());
  for (uint32_t sid = 0; sid < (*clean)->series_count(); ++sid) {
    EXPECT_EQ((*crashed)->NameOf(sid), (*clean)->NameOf(sid));
    const uint64_t count = (*clean)->PaneCount(sid);
    // kEveryBatch acked every append before it returned, so the crash
    // may not have lost a single pane.
    ASSERT_EQ((*crashed)->PaneCount(sid), count);
    std::vector<double> got, want;
    ASSERT_TRUE((*crashed)->ReadPanes(sid, 0, count, &got).ok());
    ASSERT_TRUE((*clean)->ReadPanes(sid, 0, count, &want).ok());
    EXPECT_TRUE(BitwiseEqual(got, want)) << "sid " << sid;
  }
}

// Compaction racing appends: two threads append to their own series
// while a third compacts in a loop, each compaction rolling the WAL
// outside the store lock. Every acknowledged pane must come back
// after a reopen, bitwise and exactly once.
TEST(DurableStoreTest, CompactionRacingAppendsKeepsEveryAckedPane) {
  TempDir dir("race");
  StoreOptions options = TestStoreOptions();  // kEveryBatch
  options.wal_segment_bytes = 2048;
  constexpr size_t kBatches = 150;
  std::vector<std::vector<double>> acked(2);
  uint64_t compactions = 0;
  {
    auto store = DurableStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    const uint32_t sids[2] = {(*store)->RegisterSeries("race/a").ValueOrDie(),
                              (*store)->RegisterSeries("race/b").ValueOrDie()};
    std::atomic<int> appending{2};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        Pcg32 rng(300 + t);
        std::vector<double> batch;
        for (size_t b = 0; b < kBatches && !failed; ++b) {
          batch.resize(1 + rng.NextBounded(16));
          for (double& v : batch) {
            v = rng.Gaussian(10.0 * static_cast<double>(t), 1.0);
          }
          const PaneRun run = {sids[t], batch.data(),
                               static_cast<uint32_t>(batch.size())};
          if (!(*store)->AppendPanes(&run, 1).ok()) {
            failed = true;
            break;
          }
          acked[t].insert(acked[t].end(), batch.begin(), batch.end());
        }
        --appending;
      });
    }
    threads.emplace_back([&] {
      while (appending > 0 && !failed) {
        if (!(*store)->CompactOnce(/*force=*/true).ok()) {
          failed = true;
        }
        ++compactions;
      }
    });
    for (std::thread& thread : threads) {
      thread.join();
    }
    ASSERT_FALSE(failed);
  }
  EXPECT_GT(compactions, 1u);

  auto store = DurableStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->recovery().gap_pane_batches, 0u);
  EXPECT_EQ((*store)->recovery().orphan_pane_batches, 0u);
  EXPECT_GT((*store)->recovery().chunk_panes, 0u);
  for (size_t t = 0; t < 2; ++t) {
    const uint32_t sid =
        (*store)->FindSeries(t == 0 ? "race/a" : "race/b").ValueOrDie();
    ASSERT_EQ((*store)->PaneCount(sid), acked[t].size()) << "series " << t;
    std::vector<double> got;
    ASSERT_TRUE((*store)->ReadPanes(sid, 0, acked[t].size(), &got).ok());
    EXPECT_TRUE(BitwiseEqual(got, acked[t])) << "series " << t;
  }
}

StreamingOptions FleetSeriesOptions() {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;  // pane size 20
  options.snapshot_ring_frames = 2;
  return options;
}

std::vector<double> FleetSeries(size_t index, size_t n) {
  Pcg32 rng(500 + index);
  return gen::Add(gen::Sine(n, 24.0 + 8.0 * (index % 5), 1.0),
                  gen::WhiteNoise(&rng, n, 0.3));
}

// End-to-end: ingest a fleet with storage wired in, restart into a
// fresh engine via ReplayIntoEngine(kFaithful), and require bitwise
// frame parity — series, chosen window, refresh counters, the lot.
TEST(StorageEngineTest, FaithfulReplayReproducesFramesBitwise) {
  TempDir dir("engine");
  constexpr size_t kSeries = 6;
  constexpr size_t kPoints = 3000;  // 150 panes, multiple of pane size

  std::vector<std::shared_ptr<const StreamingAsap::Frame>> live_frames(
      kSeries);
  {
    auto store = DurableStore::Open(dir.path(), TestStoreOptions());
    ASSERT_TRUE(store.ok());
    stream::ShardedEngineOptions engine_options;
    engine_options.shards = 3;
    engine_options.storage = store->get();
    auto engine =
        stream::ShardedEngine::Create(FleetSeriesOptions(), engine_options);
    ASSERT_TRUE(engine.ok());
    stream::InterleavingMultiSource source(engine->catalog());
    for (size_t i = 0; i < kSeries; ++i) {
      source.AddVector("host-" + std::to_string(i) + "/cpu",
                       FleetSeries(i, kPoints));
    }
    const stream::FleetReport report = engine->RunToCompletion(&source);
    EXPECT_EQ(report.points, kSeries * kPoints);
    const stream::FleetView view(&*engine);
    for (size_t i = 0; i < kSeries; ++i) {
      live_frames[i] = view.Frame("host-" + std::to_string(i) + "/cpu");
      ASSERT_NE(live_frames[i], nullptr);
      ASSERT_GT(live_frames[i]->refreshes, 0u);
    }
  }

  // "Restart": reopen the store, replay into a brand-new engine.
  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->series_count(), kSeries);
  auto engine =
      stream::ShardedEngine::Create(FleetSeriesOptions(), {});
  ASSERT_TRUE(engine.ok());
  auto report =
      ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->series_restored, kSeries);
  EXPECT_EQ(report->series_skipped, 0u);
  const stream::FleetView view(&*engine);
  for (size_t i = 0; i < kSeries; ++i) {
    const auto frame = view.Frame("host-" + std::to_string(i) + "/cpu");
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->refreshes, live_frames[i]->refreshes);
    EXPECT_EQ(frame->window, live_frames[i]->window);
    EXPECT_TRUE(BitwiseEqual(frame->series, live_frames[i]->series))
        << "series " << i;
  }

  // Restore is boot-time only: a second replay into the same engine
  // finds every series holding points, skips each one, and leaves
  // every published frame in place.
  std::vector<std::shared_ptr<const StreamingAsap::Frame>> restored;
  for (size_t i = 0; i < kSeries; ++i) {
    restored.push_back(view.Frame("host-" + std::to_string(i) + "/cpu"));
  }
  auto again = ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->series_restored, 0u);
  EXPECT_EQ(again->panes_restored, 0u);
  EXPECT_EQ(again->series_skipped, kSeries);
  for (size_t i = 0; i < kSeries; ++i) {
    EXPECT_EQ(view.Frame("host-" + std::to_string(i) + "/cpu"), restored[i])
        << "series " << i;
  }
}

/// Blocks in its first NextBatch until Release(), then ends the stream:
/// holds a run in flight for as long as a test needs.
class BlockingSource : public stream::MultiSource {
 public:
  size_t NextBatch(size_t /*max_records*/,
                   stream::RecordBatch* /*out*/) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    return 0;
  }
  size_t TotalPoints() const override { return 0; }

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

// A replay while a run is in flight restores nothing, so it must fail
// with RestoreSeries' refusal instead of reporting every series as
// skipped; between runs the same replay restores them all.
TEST(StorageEngineTest, ReplayDuringARunFailsAndCreatesNoSeries) {
  TempDir dir("inflight");
  constexpr size_t kSeries = 4;
  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  for (size_t i = 0; i < kSeries; ++i) {
    const auto sid =
        (*store)->RegisterSeries("host-" + std::to_string(i) + "/cpu");
    ASSERT_TRUE(sid.ok());
    const std::vector<double> means = FleetSeries(i, 40);
    PaneRun run;
    run.sid = *sid;
    run.values = means.data();
    run.count = static_cast<uint32_t>(means.size());
    ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
  }
  auto engine = stream::ShardedEngine::Create(FleetSeriesOptions(), {});
  ASSERT_TRUE(engine.ok());

  BlockingSource blocking;
  stream::FleetReport during;
  std::thread run([&] { during = engine->RunToCompletion(&blocking); });
  blocking.WaitUntilEntered();
  const auto refused =
      ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful);
  blocking.Release();
  run.join();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInternal);
  EXPECT_NE(refused.status().message().find("run in flight"),
            std::string::npos)
      << refused.status().message();
  EXPECT_EQ(during.series, 0u);
  const stream::FleetView view(&*engine);
  for (size_t i = 0; i < kSeries; ++i) {
    const std::string name = "host-" + std::to_string(i) + "/cpu";
    EXPECT_FALSE(engine->catalog()->FindId(name).has_value()) << name;
    EXPECT_EQ(view.Frame(name), nullptr) << name;
  }

  const auto replayed =
      ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->series_restored, kSeries);
  EXPECT_EQ(replayed->series_skipped, 0u);
  for (size_t i = 0; i < kSeries; ++i) {
    EXPECT_NE(view.Frame("host-" + std::to_string(i) + "/cpu"), nullptr);
  }

  // Once the engine holds every series, replay skips each without
  // reading it, and a replay during a run is still refused.
  BlockingSource rerun_source;
  std::thread rerun([&] { engine->RunToCompletion(&rerun_source); });
  rerun_source.WaitUntilEntered();
  const auto held =
      ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful);
  rerun_source.Release();
  rerun.join();
  ASSERT_FALSE(held.ok());
  EXPECT_EQ(held.status().code(), StatusCode::kInternal);
}

// Deep history: with the ring at 2 frames, History(name, many) must
// reach back through the store — and a full-depth request replays
// from pane zero, so its frames match the live ones bitwise.
TEST(StorageEngineTest, FleetViewHistoryExtendsPastTheSnapshotRing) {
  TempDir dir("deep");
  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.storage = store->get();
  auto engine =
      stream::ShardedEngine::Create(FleetSeriesOptions(), engine_options);
  ASSERT_TRUE(engine.ok());
  stream::InterleavingMultiSource source(engine->catalog());
  source.AddVector("deep/series", FleetSeries(0, 3000));
  (void)engine->RunToCompletion(&source);

  stream::FleetView view(&*engine);
  const auto ring = view.History("deep/series");
  ASSERT_EQ(ring.size(), 2u) << "ring depth is snapshot_ring_frames";

  const auto deep = view.History("deep/series", 1000);
  EXPECT_GT(deep.size(), ring.size());
  ASSERT_FALSE(deep.empty());
  // A request deeper than the whole history replays from pane 0 with
  // the live cadence and seed lineage: the newest reconstructed frame
  // is the live frame, bitwise.
  const auto live = view.Frame("deep/series");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(deep.back()->refreshes, live->refreshes);
  EXPECT_EQ(deep.back()->window, live->window);
  EXPECT_TRUE(BitwiseEqual(deep.back()->series, live->series));
  // Frames are oldest-first and strictly ordered by refresh count.
  for (size_t i = 1; i < deep.size(); ++i) {
    EXPECT_LT(deep[i - 1]->refreshes, deep[i]->refreshes);
  }

  // DiffHistory deeper than the ring goes through the same path.
  const stream::HistoryDiff diff =
      view.DiffHistory("deep/series", deep.size() - 1);
  EXPECT_TRUE(diff.known);
  EXPECT_EQ(diff.frames_apart, deep.size() - 1);
  EXPECT_GT(diff.refreshes_apart, 1u);

  // Requests past what the store holds are bounded by it (a replay
  // refreshes at most once per stored pane), not sized from the
  // caller's number.
  for (const size_t huge :
       {size_t{1} << 40, std::numeric_limits<size_t>::max()}) {
    const auto bounded = view.History("deep/series", huge);
    ASSERT_EQ(bounded.size(), deep.size()) << huge;
    for (size_t i = 0; i < deep.size(); ++i) {
      EXPECT_EQ(bounded[i]->refreshes, deep[i]->refreshes);
      EXPECT_EQ(bounded[i]->window, deep[i]->window);
      EXPECT_TRUE(BitwiseEqual(bounded[i]->series, deep[i]->series));
    }
  }
  const stream::HistoryDiff far = view.DiffHistory(
      "deep/series", std::numeric_limits<size_t>::max() - 1);
  EXPECT_TRUE(far.known);
  EXPECT_EQ(far.frames_apart, deep.size() - 1);

  // Without a store, the same request clamps to the ring.
  auto bare = stream::ShardedEngine::Create(FleetSeriesOptions(), {});
  ASSERT_TRUE(bare.ok());
  stream::FleetView bare_view(&*bare);
  EXPECT_TRUE(bare_view.History("deep/series", 1000).empty());
}

// XORs one byte of a file in place (twice restores it).
void FlipByte(const std::string& path, uint64_t pos) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(pos));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(pos));
  f.put(static_cast<char>(c ^ 0x10));
  ASSERT_TRUE(f.good()) << path << " @" << pos;
}

// A damaged chunk block is an error on every read path, never wrong
// means: the entry's CRC covers each byte of the block.
TEST(DurableStoreTest, CorruptChunkBlockFailsReadsAndReplay) {
  TempDir dir("corrupt");
  const std::vector<double> means = WalkValues(8, 40);
  {
    auto store = DurableStore::Open(dir.path(), TestStoreOptions());
    ASSERT_TRUE(store.ok());
    const uint32_t sid = (*store)->RegisterSeries("corrupt/a").ValueOrDie();
    PaneRun run = {sid, means.data(), 30};
    ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
    ASSERT_TRUE((*store)->CompactOnce(/*force=*/true).ok());
    run = {sid, means.data() + 30, 10};  // stays in the tail
    ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
  }
  const ManifestData m = ReadManifest(dir.path() + "/chunks");
  ASSERT_EQ(m.entries.size(), 1u);
  ASSERT_EQ(m.entries[0].size(), 1u);
  const ChunkEntry block = m.entries[0][0];
  const std::string chunk_path =
      dir.path() + "/chunks/" + ChunkStore::ChunkFileName(block.chunk_id);

  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  std::vector<double> got;
  ASSERT_TRUE((*store)->ReadPanes(0, 0, means.size(), &got).ok());
  ASSERT_TRUE(BitwiseEqual(got, means));
  for (uint64_t i = 0; i < block.block_len; ++i) {
    FlipByte(chunk_path, block.offset + i);
    EXPECT_EQ((*store)->ReadPanes(0, 0, means.size(), &got).code(),
              StatusCode::kIOError)
        << "byte " << i;
    EXPECT_EQ((*store)->ReadPanes(0, 29, 2, &got).code(), StatusCode::kIOError)
        << "byte " << i;
    if (i == 0 || i == block.block_len / 2 || i + 1 == block.block_len) {
      auto engine = stream::ShardedEngine::Create(FleetSeriesOptions(), {});
      ASSERT_TRUE(engine.ok());
      EXPECT_EQ(ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful)
                    .status()
                    .code(),
                StatusCode::kIOError)
          << "byte " << i;
    }
    FlipByte(chunk_path, block.offset + i);
  }
  // The tail never touches the chunk, and the restored block reads.
  ASSERT_TRUE((*store)->ReadPanes(0, 30, 10, &got).ok());
  ASSERT_TRUE((*store)->ReadPanes(0, 0, means.size(), &got).ok());
  EXPECT_TRUE(BitwiseEqual(got, means));
}

// A replay into an engine that already holds the fleet reads none of
// its panes: with a chunk block damaged on disk, a fresh engine's
// replay meets the block CRC, while the holding engine's replay skips
// every series and keeps every published frame.
TEST(StorageEngineTest, ReplayIntoAHeldFleetReadsNoPanes) {
  TempDir dir("held");
  constexpr size_t kSeries = 6;
  constexpr size_t kPoints = 3000;
  auto store = DurableStore::Open(dir.path(), TestStoreOptions());
  ASSERT_TRUE(store.ok());
  {
    stream::ShardedEngineOptions engine_options;
    engine_options.shards = 3;
    engine_options.storage = store->get();
    auto live =
        stream::ShardedEngine::Create(FleetSeriesOptions(), engine_options);
    ASSERT_TRUE(live.ok());
    stream::InterleavingMultiSource source(live->catalog());
    for (size_t i = 0; i < kSeries; ++i) {
      source.AddVector("host-" + std::to_string(i) + "/cpu",
                       FleetSeries(i, kPoints));
    }
    EXPECT_EQ(live->RunToCompletion(&source).points, kSeries * kPoints);
  }
  ASSERT_TRUE((*store)->CompactOnce(/*force=*/true).ok());
  ASSERT_EQ((*store)->series_count(), kSeries);

  auto engine = stream::ShardedEngine::Create(FleetSeriesOptions(), {});
  ASSERT_TRUE(engine.ok());
  auto first = ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->series_restored, kSeries);
  const stream::FleetView view(&*engine);
  std::vector<std::shared_ptr<const StreamingAsap::Frame>> restored;
  for (size_t i = 0; i < kSeries; ++i) {
    restored.push_back(view.Frame("host-" + std::to_string(i) + "/cpu"));
    ASSERT_NE(restored.back(), nullptr);
  }

  const ManifestData m = ReadManifest(dir.path() + "/chunks");
  ASSERT_FALSE(m.entries.empty());
  ASSERT_FALSE(m.entries[0].empty());
  const ChunkEntry block = m.entries[0][0];
  FlipByte(dir.path() + "/chunks/" + ChunkStore::ChunkFileName(block.chunk_id),
           block.offset);
  auto fresh = stream::ShardedEngine::Create(FleetSeriesOptions(), {});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(ReplayIntoEngine(**store, &*fresh, ReplayFidelity::kFaithful)
                .status()
                .code(),
            StatusCode::kIOError);

  auto again = ReplayIntoEngine(**store, &*engine, ReplayFidelity::kFaithful);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->series_restored, 0u);
  EXPECT_EQ(again->panes_restored, 0u);
  EXPECT_EQ(again->series_skipped, (*store)->series_count());
  for (size_t i = 0; i < kSeries; ++i) {
    EXPECT_EQ(view.Frame("host-" + std::to_string(i) + "/cpu"), restored[i])
        << "series " << i;
  }
}

TEST(StorageEngineTest, StoreTelemetryFamiliesRegister) {
  TempDir dir("metrics");
  telemetry::MetricsRegistry registry;
  StoreOptions options = TestStoreOptions();
  options.metrics = &registry;
  auto store = DurableStore::Open(dir.path(), options);
  ASSERT_TRUE(store.ok());
  const uint32_t sid = (*store)->RegisterSeries("m").ValueOrDie();
  const double v = 1.5;
  PaneRun run = {sid, &v, 1};
  ASSERT_TRUE((*store)->AppendPanes(&run, 1).ok());
  ASSERT_TRUE((*store)->CompactOnce(/*force=*/true).ok());
  const std::string text = telemetry::RenderPrometheus(registry);
  for (const char* family :
       {"asap_store_wal_append_seconds", "asap_store_fsync_seconds",
        "asap_store_compaction_seconds", "asap_store_wal_bytes_total",
        "asap_store_panes_total", "asap_store_batches_total",
        "asap_store_chunks_written_total", "asap_store_series"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace storage
}  // namespace asap
