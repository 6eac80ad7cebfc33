// The ASAP wire protocol: how collectors push *named* tagged records
// to a WireServer over a byte stream (TCP or Unix-domain socket).
// Series are identified by name end-to-end; the receiver interns each
// name through the fleet's SeriesCatalog, so collectors never mint or
// coordinate numeric ids.
//
// Three frame kinds share one stream, distinguished by the first byte
// (Akumuli's akumulid front-end plays the same trick with RESP type
// bytes). Every record carries its timestamp: a sender with no clock
// sends ts = 0.
//
//   Text (human-debuggable, graphite-style):
//       <series-name> <value> <timestamp>\n
//     - series-name: 1..256 bytes of printable ASCII excluding space
//       (see stream::IsValidSeriesName); value: a finite double,
//       emitted as the shortest round-trip decimal (std::to_chars) so
//       the receiver recovers the exact bits, independent of locale.
//     - timestamp: a decimal int64 in the sender's tick unit. A line
//       with a missing, unparsable or extra token is malformed.
//     - LF or CRLF terminated; empty lines are ignored; a malformed
//       line (bad grammar, invalid name, non-finite value) is counted
//       and skipped, the stream keeps going. Nothing is interned for
//       a line that fails validation.
//
//   Binary name registration (0xA6):
//       0xA6 | u32 payload_bytes (LE) | u32 wire_id (LE) | name bytes
//     - Declares a *sender-local* wire id for a series name. The
//       receiver maps it per-connection to a catalog id; wire ids
//       have no meaning beyond their own connection. Re-registering a
//       wire id remaps it (last registration wins).
//     - A registration whose name is invalid is counted
//       (malformed_registrations) and skipped — the length prefix is
//       intact, so the stream resyncs after the frame.
//
//   Binary record frames (0xA7):
//       0xA7 | u32 payload_bytes (LE) | payload
//     - payload is payload_bytes/20 records of
//       { u32 wire_id (LE), f64 value bits (LE), i64 ts (LE) }; ts is
//       carried through to Record::ts verbatim.
//     - Each wire_id must have been registered by a prior 0xA6 frame
//       on the same connection; records referencing an unregistered
//       id are counted (unknown_series_records) and skipped — never
//       guessed at or silently truncated into some other series.
//
//   Common binary rules:
//     - 0xA6/0xA7 can never begin a valid text line (they are outside
//       the name charset), so the frame kinds interleave freely on one
//       connection.
//     - A malformed header (zero or oversized payload length; a 0xA7
//       length that is not a multiple of the record size) poisons the
//       stream: there is no way to resync inside a corrupt binary
//       frame, so the connection should be dropped (and counted)
//       rather than mis-parsed.
//
// FrameDecoder is the incremental decoder behind every server
// connection: it tolerates frames split across arbitrary read
// boundaries, reports malformed input per-stream instead of dying,
// and reuses its carry-over buffer so steady-state decoding is
// allocation-stable. WireEncoder is the sending half: it resolves
// names through a catalog and auto-announces each series (0xA6)
// before its first binary record.

#ifndef ASAP_NET_PROTOCOL_H_
#define ASAP_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "stream/catalog.h"
#include "stream/record.h"

namespace asap {
namespace net {

// Binary record frames encode series ids as u32; if stream::SeriesId
// ever changes width or signedness, the wire format must be revved
// (new magic or a version frame), not silently reinterpreted.
static_assert(std::is_same<stream::SeriesId, uint32_t>::value,
              "binary wire frames encode series ids as u32; changing "
              "stream::SeriesId requires a wire protocol rev");

/// Which on-the-wire encoding a sender uses.
enum class WireEncoding { kText, kBinary };

const char* WireEncodingName(WireEncoding encoding);

/// First byte of every name-registration frame (outside the
/// series-name charset, so it never begins a valid text line).
constexpr unsigned char kNameMagic = 0xA6;
/// First byte of every binary record frame (likewise).
constexpr unsigned char kTimedMagic = 0xA7;
/// Magic byte plus the u32 payload length (both binary frame kinds).
constexpr size_t kBinaryHeaderBytes = 1 + 4;
/// u32 series id + f64 value bits + i64 timestamp.
constexpr size_t kTimedRecordBytes = sizeof(stream::SeriesId) + 8 + 8;
/// A name-registration payload: u32 wire id + 1..kMaxSeriesNameBytes
/// name bytes.
constexpr size_t kMinNamePayloadBytes = sizeof(stream::SeriesId) + 1;
constexpr size_t kMaxNamePayloadBytes =
    sizeof(stream::SeriesId) + stream::kMaxSeriesNameBytes;
/// Default bound on one frame (binary payload or text line).
constexpr size_t kDefaultMaxFrameBytes = 256 * 1024;
/// Most records one binary frame may carry under the default frame
/// bound; a frame over the receiver's bound reads as corrupt framing
/// and poisons the connection, so senders must stay below the
/// *receiver's* max_frame_bytes / kTimedRecordBytes.
constexpr size_t kDefaultMaxTimedFrameRecords =
    kDefaultMaxFrameBytes / kTimedRecordBytes;

/// Appends one record as a text line ("<name> <value> <ts>\n"):
/// shortest round-trip decimal value, bit-exact through the decoder,
/// locale-proof. `name` must satisfy stream::IsValidSeriesName.
void AppendTextRecord(std::string_view name, double value, int64_t ts,
                      std::string* out);

/// Appends one name-registration frame declaring `wire_id` -> `name`.
/// `name` must satisfy stream::IsValidSeriesName.
void AppendNameFrame(uint32_t wire_id, std::string_view name,
                     std::string* out);

/// Appends `n` records as one length-prefixed 0xA7 frame (wire id +
/// value + Record::ts per record), encoding each record's series_id
/// as its wire id verbatim — callers are responsible for having
/// registered those ids (WireEncoder does this automatically; tests
/// use the raw form for fault injection). n must satisfy
/// n * kTimedRecordBytes <= max payload (fits in u32); n == 0 appends
/// nothing (an empty frame would be corrupt framing).
void AppendTimedFrame(const stream::Record* records, size_t n,
                      std::string* out);

/// Stateful encoding front-end: resolves record ids to names through
/// `catalog` (text) or auto-announces each id with a 0xA6 frame
/// before its first binary record. One encoder per connection — the
/// announced-id set must match what the receiving decoder has seen.
class WireEncoder {
 public:
  /// `catalog` is borrowed (the sender's name table — ids in encoded
  /// records are *its* ids) and must outlive the encoder. Each
  /// record's Record::ts travels verbatim.
  WireEncoder(const stream::SeriesCatalog* catalog, WireEncoding encoding,
              size_t frame_records);

  /// Appends `n` records in the configured encoding, chunking binary
  /// payloads into frames of at most frame_records records and
  /// prefixing registrations for any ids not yet announced.
  void Encode(const stream::Record* records, size_t n, std::string* out);

  WireEncoding encoding() const { return encoding_; }

 private:
  const stream::SeriesCatalog* catalog_;
  WireEncoding encoding_;
  size_t frame_records_;
  /// announced_[id] == true once a 0xA6 frame for id has been
  /// emitted; grown on demand to the catalog's size.
  std::vector<bool> announced_;
};

/// Per-stream decode counters.
struct DecoderStats {
  /// Bytes fed in.
  uint64_t bytes = 0;
  /// Records decoded (text + binary).
  uint64_t records = 0;
  uint64_t text_records = 0;
  uint64_t binary_records = 0;
  /// Complete binary record frames decoded.
  uint64_t binary_frames = 0;
  /// Name registrations applied (0xA6 frames, including remaps).
  uint64_t name_registrations = 0;
  /// Text lines skipped as malformed (bad grammar, invalid name,
  /// non-finite value, or oversized); the stream continues past each.
  uint64_t malformed_lines = 0;
  /// Binary framing errors; each poisons the stream (see FrameDecoder).
  uint64_t malformed_frames = 0;
  /// 0xA6 frames with an intact length but an invalid payload (name
  /// too short/long or outside the charset); skipped, not poisoned.
  uint64_t malformed_registrations = 0;
  /// Binary records referencing a wire id with no registration on
  /// this stream; skipped, never silently mapped to another series.
  uint64_t unknown_series_records = 0;
};

/// Incremental decoder for one byte stream carrying the wire protocol.
/// Feed() accepts arbitrary read-sized slices; partial frames carry
/// over to the next call in an internal buffer that is reused, not
/// regrown, at steady state. Decoded records carry *catalog* ids:
/// names intern through the catalog the decoder was built against
/// (normally ShardedEngine::catalog()).
class FrameDecoder {
 public:
  explicit FrameDecoder(stream::SeriesCatalog* catalog,
                        size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Decodes as many complete frames from `data[0, n)` (plus any
  /// carried-over partial) as possible, appending records to *out.
  /// Returns false once the stream is poisoned by a malformed binary
  /// frame — no further input will decode and the caller should drop
  /// the connection.
  bool Feed(const char* data, size_t n, stream::RecordBatch* out);

  /// Call at orderly end-of-stream: a trailing text line without its
  /// newline is parsed (collectors that close after their last
  /// sample), and a trailing partial binary frame is counted as
  /// malformed.
  void FinishEof(stream::RecordBatch* out);

  /// Call when the stream dies abnormally (connection reset): any
  /// buffered partial frame is counted malformed and discarded, never
  /// parsed — a line truncated by a crash could parse as a valid but
  /// wrong record.
  void AbandonEof();

  /// True once a malformed binary frame has been seen.
  bool poisoned() const { return poisoned_; }

  /// Bytes carried over awaiting the rest of a partial frame.
  size_t buffered_bytes() const { return buffer_.size(); }

  const DecoderStats& stats() const { return stats_; }

 private:
  /// Decodes complete frames from data[0, size); returns the number of
  /// bytes consumed (the tail is a partial frame the caller carries).
  size_t DecodeSome(const char* data, size_t size, stream::RecordBatch* out);

  /// Parses one '\n'-free text line (CR already stripped).
  void DecodeLine(const char* line, size_t len, stream::RecordBatch* out);

  /// Applies one complete 0xA6 payload (wire id + name bytes).
  void ApplyNameFrame(const char* payload, size_t payload_bytes);

  stream::SeriesCatalog* catalog_;
  size_t max_frame_bytes_;
  /// This stream's sender-local wire id -> catalog id map (0xA6).
  std::unordered_map<uint32_t, stream::SeriesId> wire_ids_;
  /// Per-stream memo of text names already interned, keyed by the
  /// catalog's arena-stable views: steady-state text decode is one
  /// local hash probe per record instead of a shared-lock trip into
  /// the fleet-global catalog (the text twin of wire_ids_).
  std::unordered_map<std::string_view, stream::SeriesId> text_ids_;
  std::vector<char> buffer_;  // carried-over partial frame
  /// Leading bytes of a carried-over partial text line already known
  /// to contain no newline — the next search resumes past them, so a
  /// line trickling in over many reads costs O(length), not O(n^2).
  size_t line_scan_offset_ = 0;
  bool poisoned_ = false;
  /// Inside an oversized text line, discarding until its newline.
  bool discarding_line_ = false;
  DecoderStats stats_;
};

}  // namespace net
}  // namespace asap

#endif  // ASAP_NET_PROTOCOL_H_
