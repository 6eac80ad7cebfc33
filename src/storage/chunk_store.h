// Time-partitioned chunk storage behind a manifest, Akumuli-volume
// style. Compaction turns the in-memory pane tail into immutable
// chunk files; a single binary MANIFEST — republished with the
// write-temp / fsync / rename-swap idiom — is the sole authority over
// which chunks exist, which panes of which series they hold, and how
// much of the WAL they make redundant.
//
// Chunk file (`chunks/00000007.chunk`): its blocks back to back, one
// per series, each a chunk_codec block of that series' pane means.
// The file records nothing else; readers pread exactly
// [offset, offset + block_len) of the manifest entry and check its CRC.
// Files are immutable once the manifest that references them lands.
//
// MANIFEST (format version 2):
//   [u64 magic][u32 version]
//   [u32 wal_floor_seq][u32 next_chunk_id]
//   [u32 series_count] repeated, in sid order:
//     [u16 name_len][name][u32 entry_count] repeated, ascending:
//       [u32 chunk_id][u64 first_pane][u32 pane_count]
//       [u64 offset][u32 block_len][u32 masked crc32c(block)]
//   [u32 masked crc32c(everything above)]
// A series' entries start at pane 0 and each begins where the one
// before it ended, so they are the only record of which panes a block
// holds.
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

inline constexpr uint64_t kManifestMagic = 0x314e'414d'5041'5341ull;  // "ASAPMAN1"
inline constexpr uint32_t kChunkFormatVersion = 2;

/// One block of one series: panes [first_pane, first_pane + pane_count)
/// at [offset, offset + block_len) of chunk file `chunk_id`.
struct ChunkEntry {
  uint64_t first_pane = 0;
  uint32_t pane_count = 0;
  uint32_t chunk_id = 0;
  uint64_t offset = 0;
  uint32_t block_len = 0;
  uint32_t block_crc = 0;  // masked crc32c of the block
};

/// Decoded manifest state.
struct ManifestData {
  uint32_t wal_floor_seq = 1;  ///< WAL segments >= this still matter
  uint32_t next_chunk_id = 1;
  std::vector<std::string> names;  ///< sid -> series name, dense
  /// sid -> its entries, contiguous from pane 0; as long as `names`.
  std::vector<std::vector<ChunkEntry>> entries;
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
  /// manifest if present, verifies its CRC and each series' entry
  /// list, and deletes orphan chunk files a crash left unreferenced.
  /// A corrupt manifest fails Open with IOError — it is the root of
  /// trust, not a tail to truncate.
  static Result<std::unique_ptr<ChunkStore>> Open(std::string dir,
                                                  Options options);

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Writes one chunk file holding `slices` (skipping empty ones) and
  /// publishes a manifest that appends their entries, appends
  /// `new_names` to the name table (the sids from name_count() on) and
  /// raises the WAL floor to `wal_floor_seq`. Non-empty slices name
  /// distinct sids in ascending order, and each continues its series'
  /// stored panes; otherwise InvalidArgument and nothing is written.
  /// With no non-empty slices, publishes just the manifest. Returns
  /// the chunk id, or 0 if only the manifest was written.
  ///
  /// Callers serialize WriteChunk (DurableStore::CompactOnce holds its
  /// compact_mu_). It is the entry lists' only writer, so it reads and
  /// encodes them without mu_ and takes mu_ only to change them.
  Result<uint32_t> WriteChunk(const std::vector<SeriesSlice>& slices,
                              const std::vector<std::string>& new_names,
                              uint32_t wal_floor_seq);

  /// Reads one block and appends its `entry.pane_count` means to
  /// `*values`. The file is immutable, so no lock is held during IO.
  Status ReadSeriesBlock(const ChunkEntry& entry,
                         std::vector<double>* values) const;

  /// `sid`'s entries that hold any of panes [first, end), ascending.
  /// A binary search finds the first, so a read costs time in what it
  /// returns, not in the series' history.
  std::vector<ChunkEntry> EntriesFor(uint32_t sid, uint64_t first,
                                     uint64_t end) const;

  /// Panes stored in chunks for `sid`.
  uint64_t PaneCountFor(uint32_t sid) const;

  /// Names in the published table; sid = position.
  std::vector<std::string> names() const;
  size_t name_count() const;
  uint32_t wal_floor_seq() const;

  static std::string ChunkFileName(uint32_t chunk_id);
  static uint32_t ParseChunkFileName(const std::string& name);
  static std::string EncodeManifest(const ManifestData& m);
  /// Decodes and validates a manifest: IOError for a bad checksum,
  /// magic or version, a truncation, or a series whose entries do not
  /// start at pane 0 or leave a gap or overlap.
  static Status DecodeManifest(const std::string& data, ManifestData* out);

 private:
  ChunkStore(std::string dir, Options options);

  std::string ChunkPath(uint32_t chunk_id) const;
  std::string ManifestPath() const;

  const std::string dir_;
  const Options options_;

  mutable std::mutex mu_;
  ManifestData manifest_;  ///< the published manifest (see WriteChunk)
};

}  // namespace storage
}  // namespace asap

#endif  // ASAP_STORAGE_CHUNK_STORE_H_
