// Time-partitioned chunk storage behind a manifest, Akumuli-volume
// style. Compaction turns the in-memory pane tail into immutable
// chunk files; a single binary MANIFEST — republished with the
// write-temp / fsync / rename-swap idiom — is the sole authority over
// which chunks exist, which series they hold, and how much of the WAL
// they make redundant.
//
// Chunk file (`chunks/00000007.chunk`):
//   [u64 magic][u32 version][u32 chunk_id]
//   [u32 series_count]
//   repeated: [u32 sid][u32 block_len][u32 masked crc32c(block)][block]
// where `block` is a chunk_codec pane block. Files are immutable once
// the manifest that references them lands; readers never need a lock
// beyond snapshotting the entry list.
//
// MANIFEST:
//   [u64 magic][u32 version]
//   [u32 wal_floor_seq][u32 next_chunk_id]
//   [u32 name_count] repeated [u16 len][bytes]        (sid = position)
//   [u32 entry_count] repeated ChunkEntry
//   [u32 masked crc32c(everything above)]
//
// Crash safety: a chunk file is written and fsynced BEFORE the
// manifest referencing it; a crash in between leaves an orphan chunk
// file that Open() deletes. The rename-swap means a reader sees the
// old manifest or the new one, never a blend.

#ifndef ASAP_STORAGE_CHUNK_STORE_H_
#define ASAP_STORAGE_CHUNK_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace asap {
namespace telemetry {
class Counter;
}  // namespace telemetry

namespace storage {

inline constexpr uint64_t kChunkMagic = 0x314b'4843'5041'5341ull;  // "ASAPCHK1"
inline constexpr uint64_t kManifestMagic = 0x314e'414d'5041'5341ull;  // "ASAPMAN1"
inline constexpr uint32_t kChunkFormatVersion = 1;
inline constexpr size_t kChunkHeaderBytes = 16;

/// One series' block inside one chunk file, as indexed by the
/// manifest. `offset` addresses the block payload (past the per-block
/// header) so a reader can pread exactly [offset, offset+block_len).
struct ChunkEntry {
  uint32_t chunk_id = 0;
  uint32_t sid = 0;
  uint64_t first_pane = 0;
  uint32_t pane_count = 0;
  uint64_t offset = 0;
  uint32_t block_len = 0;
  uint32_t block_crc = 0;  // masked crc32c of the block payload
};

/// Decoded manifest state.
struct ManifestData {
  uint32_t wal_floor_seq = 1;  ///< WAL segments >= this still matter
  uint32_t next_chunk_id = 1;
  std::vector<std::string> names;  ///< sid -> series name, dense
  std::vector<ChunkEntry> entries;
};

/// One series' slice of a compaction: contiguous panes
/// [first_pane, first_pane + count) with their means.
struct SeriesSlice {
  uint32_t sid = 0;
  uint64_t first_pane = 0;
  const double* values = nullptr;
  size_t count = 0;
};

class ChunkStore {
 public:
  struct Options {
    telemetry::Counter* chunks_written_total = nullptr;
    telemetry::Counter* chunk_bytes_total = nullptr;
  };

  /// Opens (creating if needed) the chunk directory: loads the
  /// manifest if present, verifies its CRC, and deletes orphan chunk
  /// files a crash left unreferenced. A corrupt manifest fails Open —
  /// it is the root of trust, not a tail to truncate.
  static Result<std::unique_ptr<ChunkStore>> Open(std::string dir,
                                                  Options options);

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Writes one chunk file holding `slices` (skipping empty ones) and
  /// publishes a manifest carrying the new entries, the current name
  /// table, and `wal_floor_seq`. With no non-empty slices, publishes
  /// just the manifest (names / floor still advance). Returns the
  /// chunk id, or 0 if only the manifest was written.
  Result<uint32_t> WriteChunk(const std::vector<SeriesSlice>& slices,
                              const std::vector<std::string>& names,
                              uint32_t wal_floor_seq);

  /// Reads and decodes one series block. Entries come from
  /// `EntriesFor`; the underlying file is immutable, so no lock is
  /// held during IO.
  Status ReadSeriesBlock(const ChunkEntry& entry, std::vector<uint64_t>* indices,
                         std::vector<double>* values) const;

  /// Entries for `sid`, ascending by first_pane (manifest order among
  /// equal first_pane). Costs time in proportion to `sid`'s entries.
  std::vector<ChunkEntry> EntriesFor(uint32_t sid) const;

  /// Total panes stored in chunks for `sid`.
  uint64_t PaneCountFor(uint32_t sid) const;

  /// Snapshot of the current manifest.
  ManifestData Manifest() const;

  uint32_t wal_floor_seq() const;

  static std::string ChunkFileName(uint32_t chunk_id);
  static uint32_t ParseChunkFileName(const std::string& name);
  static std::string EncodeManifest(const ManifestData& m);
  static Status DecodeManifest(const std::string& data, ManifestData* out);

 private:
  ChunkStore(std::string dir, Options options);

  std::string ChunkPath(uint32_t chunk_id) const;
  std::string ManifestPath() const;

  /// Links manifest_.entries[from, end) into their series' chains.
  /// Caller holds mu_.
  void IndexEntriesFrom(size_t from);

  const std::string dir_;
  const Options options_;

  mutable std::mutex mu_;
  ManifestData manifest_;
  /// Per-series chains through manifest_.entries, so per-series
  /// lookups never walk the fleet-wide entry list: last_of_[sid] is
  /// the position of the series' last entry in manifest order and
  /// prev_of_[i] that of the entry before i in its series (kNoEntry
  /// ends a chain).
  static constexpr uint32_t kNoEntry = UINT32_MAX;
  std::vector<uint32_t> last_of_;
  std::vector<uint32_t> prev_of_;
};

}  // namespace storage
}  // namespace asap

#endif  // ASAP_STORAGE_CHUNK_STORE_H_
