#include "storage/chunk_store.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "common/bytes.h"
#include "common/macros.h"
#include "storage/chunk_codec.h"
#include "storage/crc32c.h"
#include "storage/posix_file.h"
#include "telemetry/metrics.h"

namespace asap {
namespace storage {

namespace {

/// Bounds-checked cursor over a decoded byte buffer.
struct Cursor {
  const char* p;
  const char* end;

  bool Need(size_t n) const { return static_cast<size_t>(end - p) >= n; }
  uint16_t U16() {
    const uint16_t v = GetU16(p);
    p += 2;
    return v;
  }
  uint32_t U32() {
    const uint32_t v = GetU32(p);
    p += 4;
    return v;
  }
  uint64_t U64() {
    const uint64_t v = GetU64(p);
    p += 8;
    return v;
  }
};

/// The pane after a series' last stored one.
uint64_t EndOf(const std::vector<ChunkEntry>& entries) {
  return entries.empty()
             ? 0
             : entries.back().first_pane + entries.back().pane_count;
}

}  // namespace

std::string ChunkStore::ChunkFileName(uint32_t chunk_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08u.chunk", chunk_id);
  return buf;
}

uint32_t ChunkStore::ParseChunkFileName(const std::string& name) {
  if (name.size() != 14 || name.compare(8, 6, ".chunk") != 0) {
    return 0;
  }
  uint32_t id = 0;
  for (int i = 0; i < 8; ++i) {
    const char c = name[static_cast<size_t>(i)];
    if (c < '0' || c > '9') {
      return 0;
    }
    id = id * 10 + static_cast<uint32_t>(c - '0');
  }
  return id;
}

std::string ChunkStore::EncodeManifest(const ManifestData& m) {
  ASAP_CHECK_EQ(m.entries.size(), m.names.size());
  std::string out;
  PutU64(kManifestMagic, &out);
  PutU32(kChunkFormatVersion, &out);
  PutU32(m.wal_floor_seq, &out);
  PutU32(m.next_chunk_id, &out);
  PutU32(static_cast<uint32_t>(m.names.size()), &out);
  for (size_t sid = 0; sid < m.names.size(); ++sid) {
    PutU16(static_cast<uint16_t>(m.names[sid].size()), &out);
    out.append(m.names[sid]);
    PutU32(static_cast<uint32_t>(m.entries[sid].size()), &out);
    for (const ChunkEntry& e : m.entries[sid]) {
      PutU32(e.chunk_id, &out);
      PutU64(e.first_pane, &out);
      PutU32(e.pane_count, &out);
      PutU64(e.offset, &out);
      PutU32(e.block_len, &out);
      PutU32(e.block_crc, &out);
    }
  }
  PutU32(Crc32cMask(Crc32c(out.data(), out.size())), &out);
  return out;
}

Status ChunkStore::DecodeManifest(const std::string& data, ManifestData* out) {
  *out = ManifestData{};
  if (data.size() < 24 + 4) {
    return Status::IOError("manifest: too short");
  }
  const uint32_t stored_crc = GetU32(data.data() + data.size() - 4);
  if (Crc32cMask(Crc32c(data.data(), data.size() - 4)) != stored_crc) {
    return Status::IOError("manifest: checksum mismatch");
  }
  Cursor c{data.data(), data.data() + data.size() - 4};
  if (c.U64() != kManifestMagic || c.U32() != kChunkFormatVersion) {
    return Status::IOError("manifest: bad magic or version");
  }
  out->wal_floor_seq = c.U32();
  out->next_chunk_id = c.U32();
  const uint32_t series = c.U32();
  // Each series takes at least 6 bytes, which bounds the reserve.
  if (!c.Need(static_cast<size_t>(series) * 6)) {
    return Status::IOError("manifest: truncated series table");
  }
  out->names.reserve(series);
  out->entries.reserve(series);
  constexpr size_t kEntryBytes = 4 + 8 + 4 + 8 + 4 + 4;
  for (uint32_t sid = 0; sid < series; ++sid) {
    if (!c.Need(2)) {
      return Status::IOError("manifest: truncated series table");
    }
    const uint16_t len = c.U16();
    if (!c.Need(len + size_t{4})) {
      return Status::IOError("manifest: truncated name");
    }
    out->names.emplace_back(c.p, len);
    c.p += len;
    const uint32_t count = c.U32();
    if (!c.Need(static_cast<size_t>(count) * kEntryBytes)) {
      return Status::IOError("manifest: truncated entries");
    }
    std::vector<ChunkEntry>& entries = out->entries.emplace_back();
    entries.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      ChunkEntry e;
      e.chunk_id = c.U32();
      e.first_pane = c.U64();
      e.pane_count = c.U32();
      e.offset = c.U64();
      e.block_len = c.U32();
      e.block_crc = c.U32();
      if (e.first_pane != EndOf(entries)) {
        return Status::IOError("manifest: series " + std::to_string(sid) +
                               " has an entry at pane " +
                               std::to_string(e.first_pane) +
                               ", not where its panes end (" +
                               std::to_string(EndOf(entries)) + ")");
      }
      entries.push_back(e);
    }
  }
  if (c.p != c.end) {
    return Status::IOError("manifest: trailing bytes");
  }
  return Status::OK();
}

ChunkStore::ChunkStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

std::string ChunkStore::ChunkPath(uint32_t chunk_id) const {
  return dir_ + "/" + ChunkFileName(chunk_id);
}

std::string ChunkStore::ManifestPath() const { return dir_ + "/MANIFEST"; }

Result<std::unique_ptr<ChunkStore>> ChunkStore::Open(std::string dir,
                                                     Options options) {
  ASAP_RETURN_NOT_OK(MakeDirs(dir));
  std::unique_ptr<ChunkStore> store(new ChunkStore(std::move(dir), options));
  if (PathExists(store->ManifestPath())) {
    std::string raw;
    ASAP_RETURN_NOT_OK(ReadFile(store->ManifestPath(), &raw));
    ASAP_RETURN_NOT_OK(DecodeManifest(raw, &store->manifest_));
  }
  // Sweep crash leftovers: chunk files the manifest does not
  // reference (written but never published) and stale rename temps.
  std::unordered_set<uint32_t> referenced;
  for (const std::vector<ChunkEntry>& entries : store->manifest_.entries) {
    for (const ChunkEntry& e : entries) {
      referenced.insert(e.chunk_id);
    }
  }
  std::vector<std::string> names;
  ASAP_RETURN_NOT_OK(ListDir(store->dir_, &names));
  for (const std::string& name : names) {
    const bool temp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    const uint32_t id = ParseChunkFileName(name);
    if (temp || (id != 0 && referenced.count(id) == 0)) {
      RemoveFile(store->dir_ + "/" + name);
    }
  }
  return store;
}

Result<uint32_t> ChunkStore::WriteChunk(
    const std::vector<SeriesSlice>& slices,
    const std::vector<std::string>& new_names, uint32_t wal_floor_seq) {
  // The only writer: manifest_ is read here without mu_.
  const size_t old_names = manifest_.names.size();
  const size_t named = old_names + new_names.size();
  const uint32_t chunk_id = manifest_.next_chunk_id;
  std::string file;
  std::vector<std::pair<uint32_t, ChunkEntry>> added;  // (sid, entry)
  for (const SeriesSlice& s : slices) {
    if (s.count == 0) {
      continue;
    }
    const uint64_t end =
        s.sid < old_names ? EndOf(manifest_.entries[s.sid]) : 0;
    if (s.sid >= named || (!added.empty() && s.sid <= added.back().first) ||
        s.first_pane != end) {
      return Status::InvalidArgument(
          "WriteChunk: the slice for sid " + std::to_string(s.sid) +
          " is unnamed, out of sid order, or does not begin at pane " +
          std::to_string(end) + " where its stored panes end");
    }
    ChunkEntry e;
    e.first_pane = s.first_pane;
    e.pane_count = static_cast<uint32_t>(s.count);
    e.chunk_id = chunk_id;
    e.offset = file.size();
    EncodePaneBlock(s.values, s.count, &file);
    e.block_len = static_cast<uint32_t>(file.size() - e.offset);
    e.block_crc = Crc32cMask(Crc32c(file.data() + e.offset, e.block_len));
    added.emplace_back(s.sid, e);
  }
  if (!added.empty()) {
    // The chunk must be durable before the manifest points at it.
    ASAP_RETURN_NOT_OK(AtomicWriteFile(ChunkPath(chunk_id), file));
    if (options_.chunks_written_total != nullptr) {
      options_.chunks_written_total->Increment();
    }
    if (options_.chunk_bytes_total != nullptr) {
      options_.chunk_bytes_total->Add(file.size());
    }
  }

  const uint32_t old_floor = manifest_.wal_floor_seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    manifest_.names.insert(manifest_.names.end(), new_names.begin(),
                           new_names.end());
    manifest_.entries.resize(named);
    for (const auto& [sid, e] : added) {
      manifest_.entries[sid].push_back(e);
    }
    manifest_.wal_floor_seq = std::max(old_floor, wal_floor_seq);
    manifest_.next_chunk_id = chunk_id + (added.empty() ? 0 : 1);
  }
  const Status published =
      AtomicWriteFile(ManifestPath(), EncodeManifest(manifest_));
  if (!published.ok()) {
    // Take the entries back, so a retry writes the same panes again.
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [sid, e] : added) {
      manifest_.entries[sid].pop_back();
    }
    manifest_.names.resize(old_names);
    manifest_.entries.resize(old_names);
    manifest_.wal_floor_seq = old_floor;
    manifest_.next_chunk_id = chunk_id;
    return published;
  }
  return added.empty() ? 0 : chunk_id;
}

Status ChunkStore::ReadSeriesBlock(const ChunkEntry& entry,
                                   std::vector<double>* values) const {
  FileHandle f;
  ASAP_RETURN_NOT_OK(OpenForRead(ChunkPath(entry.chunk_id), &f));
  std::string block(entry.block_len, '\0');
  ASAP_RETURN_NOT_OK(ReadExactAt(f.fd(), entry.offset, block.data(),
                                 block.size()));
  if (Crc32cMask(Crc32c(block.data(), block.size())) != entry.block_crc) {
    return Status::IOError("chunk " + ChunkFileName(entry.chunk_id) +
                           ": block checksum mismatch");
  }
  return DecodePaneBlock(block.data(), block.size(), entry.pane_count,
                         values);
}

std::vector<ChunkEntry> ChunkStore::EntriesFor(uint32_t sid, uint64_t first,
                                               uint64_t end) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sid >= manifest_.entries.size()) {
    return {};
  }
  const std::vector<ChunkEntry>& entries = manifest_.entries[sid];
  if (first >= std::min(end, EndOf(entries))) {
    return {};
  }
  // Contiguous from pane 0: the entry holding `first` is the one
  // before the first entry that starts past it.
  const auto lo =
      std::upper_bound(entries.begin(), entries.end(), first,
                       [](uint64_t pane, const ChunkEntry& e) {
                         return pane < e.first_pane;
                       }) -
      1;
  const auto hi = std::lower_bound(
      lo, entries.end(), end,
      [](const ChunkEntry& e, uint64_t pane) { return e.first_pane < pane; });
  return std::vector<ChunkEntry>(lo, hi);
}

uint64_t ChunkStore::PaneCountFor(uint32_t sid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sid < manifest_.entries.size() ? EndOf(manifest_.entries[sid]) : 0;
}

std::vector<std::string> ChunkStore::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.names;
}

size_t ChunkStore::name_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.names.size();
}

uint32_t ChunkStore::wal_floor_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.wal_floor_seq;
}

}  // namespace storage
}  // namespace asap
