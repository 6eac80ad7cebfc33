// FrameDecoder edge cases for the *named* wire protocol: frames split
// across arbitrary read boundaries, garbage bytes mid-stream,
// oversized frames, CRLF line endings, interleaved encodings, 0xA6
// name-registration semantics (unknown ids, remaps, invalid names),
// the exact bytes the encoders write — and accounting for every
// malformed byte skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/protocol.h"
#include "stream/catalog.h"

namespace asap {
namespace net {
namespace {

using stream::Record;
using stream::RecordBatch;
using stream::SeriesCatalog;

/// Sender-side fixture: a catalog with a handful of names and records
/// whose values and timestamps stress round-trip exactness.
struct Sender {
  SeriesCatalog catalog;
  RecordBatch records;

  Sender() {
    const std::vector<std::string> names = {"web-00/cpu", "web-01/cpu",
                                            "db-00/io",   "cache-00/hits"};
    for (const std::string& name : names) {
      catalog.Intern(name);
    }
    records = RecordBatch{
        {0, 1.0, 0},  // a sender with no clock sends ts = 0
        {1, -0.25, -7},  // negative ticks are data
        {2, 3.141592653589793, 1000},
        {3, 1e-300, std::numeric_limits<int64_t>::max()},  // denormal-adjacent
        {3, -12345.678901234567,  // needs all 17 digits
         std::numeric_limits<int64_t>::min()},
        {1, 0.1, 5017},  // classic non-representable decimal
    };
  }

  std::string Encode(WireEncoding encoding, size_t frame_records = 512) {
    std::string wire;
    WireEncoder encoder(&catalog, encoding, frame_records);
    encoder.Encode(records.data(), records.size(), &wire);
    return wire;
  }
};

/// Bitwise record equality *by name*: sender and receiver catalogs
/// assign ids independently, so identity is the interned name plus
/// the exact value bits and the timestamp.
void ExpectBitwiseEqual(const SeriesCatalog& got_catalog,
                        const RecordBatch& got,
                        const SeriesCatalog& want_catalog,
                        const RecordBatch& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got_catalog.NameOf(got[i].series_id),
              want_catalog.NameOf(want[i].series_id))
        << "record " << i;
    uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &got[i].value, 8);
    std::memcpy(&want_bits, &want[i].value, 8);
    EXPECT_EQ(got_bits, want_bits) << "record " << i;
    EXPECT_EQ(got[i].ts, want[i].ts) << "record " << i;
  }
}

TEST(WireProtocolTest, TextRoundTripIsBitwiseExact) {
  Sender sender;
  const std::string wire = sender.Encode(WireEncoding::kText);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ExpectBitwiseEqual(sink, out, sender.catalog, sender.records);
  EXPECT_EQ(decoder.stats().text_records, sender.records.size());
  EXPECT_EQ(decoder.stats().malformed_lines, 0u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireProtocolTest, BinaryRoundTripIsBitwiseExact) {
  Sender sender;
  const std::string wire =
      sender.Encode(WireEncoding::kBinary, /*frame_records=*/2);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ExpectBitwiseEqual(sink, out, sender.catalog, sender.records);
  EXPECT_EQ(decoder.stats().binary_records, sender.records.size());
  EXPECT_EQ(decoder.stats().binary_frames, 3u);  // 6 records / 2 per frame
  // One 0xA6 per distinct series, each announced before first use.
  EXPECT_EQ(decoder.stats().name_registrations, 4u);
  EXPECT_EQ(decoder.stats().unknown_series_records, 0u);
}

// The satellite-task checklist: split-across-read boundaries,
// including mid-0xA6-frame splits.
TEST(WireProtocolTest, DecodesAcrossArbitraryReadBoundaries) {
  Sender sender;
  for (WireEncoding encoding : {WireEncoding::kText, WireEncoding::kBinary}) {
    const std::string wire = sender.Encode(encoding, /*frame_records=*/3);
    for (size_t chunk : {1u, 2u, 3u, 5u, 7u}) {
      SeriesCatalog sink;
      FrameDecoder decoder(&sink);
      RecordBatch out;
      for (size_t pos = 0; pos < wire.size(); pos += chunk) {
        EXPECT_TRUE(decoder.Feed(wire.data() + pos,
                                 std::min(chunk, wire.size() - pos), &out));
      }
      ExpectBitwiseEqual(sink, out, sender.catalog, sender.records);
      EXPECT_EQ(decoder.buffered_bytes(), 0u)
          << WireEncodingName(encoding) << " chunk=" << chunk;
    }
  }
}

TEST(WireProtocolTest, ToleratesCrlfAndEmptyLines) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire = "alpha 2.5 1\r\n\n\r\n  \nbeta 3.5 2\n";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "alpha");
  EXPECT_EQ(out[0].value, 2.5);
  EXPECT_EQ(sink.NameOf(out[1].series_id), "beta");
  EXPECT_EQ(out[1].value, 3.5);
  EXPECT_EQ(decoder.stats().malformed_lines, 0u);
}

TEST(WireProtocolTest, SkipsGarbageLinesAndKeepsGoing) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire =
      "good 2.5 1\n"
      "lonely\n"               // missing value
      "bad nonsense 1\n"       // unparseable value
      "bad 1.5 2 trailing\n"   // junk after the timestamp
      "ok-name\t \n"           // name but only trailing space
      "also-good 7.5 2\n";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "good");
  EXPECT_EQ(sink.NameOf(out[1].series_id), "also-good");
  EXPECT_EQ(decoder.stats().malformed_lines, 4u);
  EXPECT_FALSE(decoder.poisoned());
  // Malformed lines intern nothing: only the two good names exist.
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_FALSE(sink.FindId("bad").has_value());
}

TEST(WireProtocolTest, RejectsInvalidNamesAsMalformed) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  std::string wire;
  wire += std::string(300, 'n') + " 1.0 0\n";  // name over the length cap
  wire += "caf\xC3\xA9 1.0 0\n";               // non-ASCII byte in the name
  wire += "fine 1.0 0\n";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "fine");
  EXPECT_EQ(decoder.stats().malformed_lines, 2u);
  EXPECT_EQ(sink.size(), 1u);
}

TEST(WireProtocolTest, RejectsNonFiniteValuesAsMalformed) {
  // One NaN would poison a series' pane sums for a whole visible
  // window, so non-finite values are malformed, not data.
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire =
      "a nan 0\n"
      "b inf 0\n"
      "c -inf 0\n"
      "d 1e999 0\n"   // overflows to +inf
      "e 2.5 0\n";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "e");
  EXPECT_EQ(decoder.stats().malformed_lines, 4u);
}

TEST(WireProtocolTest, OversizedTextLineIsSkippedNotBuffered) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink, /*max_frame_bytes=*/64);
  RecordBatch out;
  std::string wire(1000, 'x');  // far over the frame bound, no newline
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);  // discarded, not carried
  // The stream recovers at the line's eventual newline.
  const std::string rest = "yyy\nnext 9.5 0\n";
  EXPECT_TRUE(decoder.Feed(rest.data(), rest.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "next");
  EXPECT_EQ(out[0].value, 9.5);
  EXPECT_EQ(decoder.stats().malformed_lines, 1u);
}

TEST(WireProtocolTest, OversizedBinaryFramePoisonsTheStream) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink, /*max_frame_bytes=*/120);
  std::string wire;
  const RecordBatch records(64, Record{1, 2.0});  // 1280-byte payload
  AppendTimedFrame(records.data(), records.size(), &wire);
  RecordBatch out;
  EXPECT_FALSE(decoder.Feed(wire.data(), wire.size(), &out));
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.stats().malformed_frames, 1u);
  EXPECT_TRUE(out.empty());
  // Poisoned streams stay dead — even for valid input.
  const std::string good = "fine 2.0 0\n";
  EXPECT_FALSE(decoder.Feed(good.data(), good.size(), &out));
  EXPECT_TRUE(out.empty());
}

TEST(WireProtocolTest, EncodingZeroRecordsAppendsNothing) {
  // An empty binary frame would read as corrupt framing (payload == 0
  // poisons the decoder), so encoding zero records must be a no-op.
  std::string wire;
  AppendTimedFrame(nullptr, 0, &wire);
  EXPECT_TRUE(wire.empty());
  SeriesCatalog catalog;
  WireEncoder encoder(&catalog, WireEncoding::kBinary, 512);
  encoder.Encode(nullptr, 0, &wire);
  EXPECT_TRUE(wire.empty());
}

TEST(WireProtocolTest, UnregisteredWireIdIsSkippedAndCounted) {
  // A 0xA7 record whose wire id has no 0xA6 registration on this
  // stream must never be guessed at (or silently truncated into some
  // other series) — it is dropped and counted.
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  AppendNameFrame(7, "known", &wire);
  const RecordBatch frame = {{7, 1.5}, {8, 99.0}, {7, 2.5}};
  AppendTimedFrame(frame.data(), frame.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "known");
  EXPECT_EQ(out[0].value, 1.5);
  EXPECT_EQ(out[1].value, 2.5);
  EXPECT_EQ(decoder.stats().unknown_series_records, 1u);
  EXPECT_EQ(decoder.stats().binary_records, 2u);
  EXPECT_FALSE(decoder.poisoned());  // framing was intact throughout
}

TEST(WireProtocolTest, WireIdsAreSenderLocal) {
  // Two streams may use the same wire id for different names; each
  // decoder's map is per-connection, so both resolve correctly.
  SeriesCatalog sink;  // one receiver catalog, two connections
  FrameDecoder decoder_a(&sink);
  FrameDecoder decoder_b(&sink);
  std::string wire_a, wire_b;
  AppendNameFrame(0, "from-a", &wire_a);
  AppendNameFrame(0, "from-b", &wire_b);
  const RecordBatch rec = {{0, 1.0}};
  AppendTimedFrame(rec.data(), rec.size(), &wire_a);
  AppendTimedFrame(rec.data(), rec.size(), &wire_b);
  RecordBatch out_a, out_b;
  EXPECT_TRUE(decoder_a.Feed(wire_a.data(), wire_a.size(), &out_a));
  EXPECT_TRUE(decoder_b.Feed(wire_b.data(), wire_b.size(), &out_b));
  ASSERT_EQ(out_a.size(), 1u);
  ASSERT_EQ(out_b.size(), 1u);
  EXPECT_EQ(sink.NameOf(out_a[0].series_id), "from-a");
  EXPECT_EQ(sink.NameOf(out_b[0].series_id), "from-b");
  EXPECT_NE(out_a[0].series_id, out_b[0].series_id);
}

TEST(WireProtocolTest, ReRegistrationRemapsAWireId) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  const RecordBatch rec = {{3, 1.0}};
  AppendNameFrame(3, "first", &wire);
  AppendTimedFrame(rec.data(), rec.size(), &wire);
  AppendNameFrame(3, "second", &wire);  // last registration wins
  AppendTimedFrame(rec.data(), rec.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "first");
  EXPECT_EQ(sink.NameOf(out[1].series_id), "second");
  EXPECT_EQ(decoder.stats().name_registrations, 2u);
}

TEST(WireProtocolTest, InvalidRegistrationIsSkippedNotPoisoned) {
  // A 0xA6 frame with a sane length but an invalid name payload has a
  // trustworthy resync point (the length), so the stream survives.
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  // Build by hand: payload = wire id only, no name bytes.
  wire.push_back(static_cast<char>(kNameMagic));
  const uint32_t payload_len = 4;
  wire.append(reinterpret_cast<const char*>(&payload_len), 4);
  const uint32_t wire_id = 9;
  wire.append(reinterpret_cast<const char*>(&wire_id), 4);
  // And one with a name containing a space (invalid charset).
  wire.push_back(static_cast<char>(kNameMagic));
  const uint32_t payload2 = 4 + 5;
  wire.append(reinterpret_cast<const char*>(&payload2), 4);
  wire.append(reinterpret_cast<const char*>(&wire_id), 4);
  wire.append("a b c", 5);
  // The stream keeps decoding afterwards.
  AppendNameFrame(1, "valid", &wire);
  const RecordBatch rec = {{1, 4.0}};
  AppendTimedFrame(rec.data(), rec.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "valid");
  EXPECT_EQ(decoder.stats().malformed_registrations, 2u);
  EXPECT_EQ(decoder.stats().name_registrations, 1u);
  EXPECT_FALSE(decoder.poisoned());
}

TEST(WireProtocolTest, TextAndBinaryInterleaveOnOneStream) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  AppendTextRecord("alpha", 1.5, 1, &wire);
  AppendNameFrame(0, "beta", &wire);
  const RecordBatch binary_records = {{0, 3.5, 2}, {0, 4.5, 3}};
  AppendTimedFrame(binary_records.data(), binary_records.size(), &wire);
  AppendTextRecord("beta", 2.5, 4, &wire);  // same series, text this time
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "alpha");
  EXPECT_EQ(sink.NameOf(out[1].series_id), "beta");
  EXPECT_EQ(out[1].value, 3.5);
  EXPECT_EQ(out[2].value, 4.5);
  // Text and 0xA6 registrations intern into the same catalog entry.
  EXPECT_EQ(out[3].series_id, out[1].series_id);
  EXPECT_EQ(decoder.stats().text_records, 2u);
  EXPECT_EQ(decoder.stats().binary_records, 2u);
  EXPECT_EQ(sink.size(), 2u);
}

// The bytes perfbench's load generator and every WireEncoder send,
// pinned literally: a change here is a wire protocol change.
TEST(WireProtocolTest, EncodersWriteExactBytes) {
  std::string text;
  AppendTextRecord("web-00/cpu", 2.5, 0, &text);
  AppendTextRecord("a", -0.1, -7, &text);
  AppendTextRecord("b", 1e-300, std::numeric_limits<int64_t>::min(), &text);
  EXPECT_EQ(text,
            "web-00/cpu 2.5 0\n"
            "a -0.1 -7\n"
            "b 1e-300 -9223372036854775808\n");

  std::string frame;
  const RecordBatch records = {{7, 1.5, 0}, {0x01020304u, -2.0, -1}};
  AppendTimedFrame(records.data(), records.size(), &frame);
  const std::string want_frame(
      "\xA7" "\x28\x00\x00\x00"                  // magic, payload 40
      "\x07\x00\x00\x00"                          // wire id 7
      "\x00\x00\x00\x00\x00\x00\xF8\x3F"          // 1.5
      "\x00\x00\x00\x00\x00\x00\x00\x00"          // ts 0
      "\x04\x03\x02\x01"                          // wire id 0x01020304
      "\x00\x00\x00\x00\x00\x00\x00\xC0"          // -2.0
      "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF",         // ts -1
      45);
  EXPECT_EQ(frame, want_frame);

  std::string name;
  AppendNameFrame(0x0102u, "cpu", &name);
  EXPECT_EQ(name, std::string("\xA6" "\x07\x00\x00\x00"  // magic, payload 7
                              "\x02\x01\x00\x00"          // wire id 0x0102
                              "cpu",
                              12));
}

// The clock-less forms an older sender wrote are not a grammar any
// more: a two-token line is one malformed line, and the bytes of a
// 0xA5 frame (12-byte records, no timestamp) read as text that is
// malformed up to each newline. A valid line after them decodes.
TEST(WireProtocolTest, RetiredClocklessFormsDecodeToNoRecord) {
  {
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    RecordBatch out;
    const std::string wire = "alpha 2.5\n";
    EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(decoder.stats().malformed_lines, 1u);
    EXPECT_EQ(sink.size(), 0u);  // interns nothing
  }
  // Wire id 1's payload holds no newline byte; wire id 10's first
  // byte is one, so its frame reads as two malformed lines.
  struct Case {
    uint32_t wire_id;
    uint64_t malformed;
  };
  for (const Case& c : {Case{1, 1}, Case{10, 2}}) {
    const uint32_t wire_id = c.wire_id;
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    RecordBatch out;
    std::string wire;
    wire.push_back(static_cast<char>(0xA5));
    const uint32_t payload = 12;
    wire.append(reinterpret_cast<const char*>(&payload), 4);
    wire.append(reinterpret_cast<const char*>(&wire_id), 4);
    const double value = 2.5;
    wire.append(reinterpret_cast<const char*>(&value), 8);
    ASSERT_EQ(wire.find('\n') != std::string::npos, wire_id == 10);
    wire += "\nok 1.5 7\n";
    EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out))
        << "wire id " << wire_id;
    ASSERT_EQ(out.size(), 1u) << "wire id " << wire_id;
    EXPECT_EQ(sink.NameOf(out[0].series_id), "ok");
    EXPECT_EQ(out[0].value, 1.5);
    EXPECT_EQ(out[0].ts, 7);
    EXPECT_EQ(decoder.stats().malformed_lines, c.malformed)
        << "wire id " << wire_id;
    EXPECT_EQ(decoder.stats().malformed_frames, 0u);
    EXPECT_EQ(decoder.stats().binary_frames, 0u);
    EXPECT_EQ(sink.size(), 1u);
  }
}

TEST(WireProtocolTest, BadTimestampTokensAreMalformed) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire =
      "a 1.0 notanumber\n"  // unparsable third token
      "a 1.0 12x\n"         // trailing junk inside the token
      "a 1.0 1 2\n"         // fourth token
      "a 1.0 3.5\n"         // fractional ticks are not int64
      "a 1.0 9\n";          // the only valid line
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 9);
  EXPECT_EQ(decoder.stats().malformed_lines, 4u);
}

TEST(WireProtocolTest, CorruptBinaryLengthPoisonsTheStream) {
  // 0xA7 payloads are nonzero multiples of the 20-byte record size.
  for (uint32_t bad_payload : {0u, 11u, 13u, 19u, 21u}) {
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    std::string wire;
    wire.push_back(static_cast<char>(kTimedMagic));
    wire.append(reinterpret_cast<const char*>(&bad_payload), 4);
    RecordBatch out;
    EXPECT_FALSE(decoder.Feed(wire.data(), wire.size(), &out))
        << "payload=" << bad_payload;
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(WireProtocolTest, EofFlushesTrailingUnterminatedLine) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire = "a 2.5 1\nb 3.5 2";  // collector closed mid-line
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(decoder.buffered_bytes(), 7u);  // "b 3.5 2"
  decoder.FinishEof(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[1].series_id), "b");
  EXPECT_EQ(out[1].value, 3.5);
  EXPECT_EQ(out[1].ts, 2);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireProtocolTest, AbnormalEofNeverParsesATruncatedLine) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  // A crash mid-line: "b 1.5 12" is the delivered prefix of
  // "b 1.5 123456".
  const std::string wire = "a 2.5 1\nb 1.5 12";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  decoder.AbandonEof();
  EXPECT_EQ(out.size(), 1u);  // the prefix did NOT become {b, 1.5, 12}
  EXPECT_EQ(decoder.stats().malformed_lines, 1u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireProtocolTest, EofCountsTruncatedBinaryFrameAsMalformed) {
  for (unsigned char magic : {kTimedMagic, kNameMagic}) {
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    std::string wire;
    if (magic == kTimedMagic) {
      AppendNameFrame(1, "cut", &wire);
      const RecordBatch records = {{1, 2.0}, {1, 4.0}};
      AppendTimedFrame(records.data(), records.size(), &wire);
    } else {
      AppendNameFrame(1, "cut-registration", &wire);
    }
    wire.resize(wire.size() - 5);  // cut the last frame short
    RecordBatch out;
    EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
    decoder.FinishEof(&out);
    EXPECT_EQ(decoder.stats().malformed_frames, 1u)
        << "magic=" << static_cast<int>(magic);
  }
}

TEST(WireProtocolTest, EofFlushEmitsAtMostOneUnitAtEveryPrefix) {
  // The EOF-flush invariant: whatever prefix of a valid stream a
  // connection dies after, FinishEof emits AT MOST ONE more record —
  // the single buffered trailing text line, when it happens to be
  // complete except for its newline. A buffered partial binary frame
  // never yields records (it is counted malformed instead): binary
  // records are only ever decoded from length-complete frames.
  std::string wire;
  AppendTextRecord("t/one", 1.5, 10, &wire);
  AppendNameFrame(2, "b/two", &wire);
  const RecordBatch first = {{2, 2.5, 0}, {2, 3.5, 0}};
  AppendTimedFrame(first.data(), first.size(), &wire);
  const RecordBatch second = {{2, 4.5, 20}, {2, 5.5, 21}};
  AppendTimedFrame(second.data(), second.size(), &wire);
  AppendTextRecord("t/one", 6.5, 0, &wire);
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    RecordBatch out;
    EXPECT_TRUE(decoder.Feed(wire.data(), cut, &out)) << "cut=" << cut;
    const size_t before = out.size();
    const uint64_t frames_before = decoder.stats().malformed_frames;
    decoder.FinishEof(&out);
    EXPECT_LE(out.size() - before, 1u) << "cut=" << cut;
    EXPECT_EQ(decoder.buffered_bytes(), 0u) << "cut=" << cut;
    // A truncated binary frame is accounted, never parsed.
    EXPECT_LE(decoder.stats().malformed_frames - frames_before, 1u);
  }
}

// --- Deterministic replay fuzz harness --------------------------------------
//
// A seed-driven generator interleaves valid text records, garbage
// lines, 0xA6 registrations, and 0xA7 record frames (with known and
// unknown wire ids), then replays the stream through the decoder at
// seed-driven split points. Every stream pins the accounting identity
//
//   records + malformed_lines + unknown_series_records == units
//
// where `units` counts every record-bearing unit the generator
// emitted. A second pass mutates random bytes and asserts the decoder
// never crashes, never interns an invalid name, and isolates poison:
// once a Feed returns false, nothing further ever decodes.
// The CI fuzz-smoke step replays this suite's fixed seed list.

struct FuzzScript {
  std::string wire;
  /// Record-bearing units: text lines (valid or malformed) + binary
  /// records (known or unknown wire id). Registrations and empty
  /// lines carry no record and are not units.
  uint64_t units = 0;
  uint64_t expected_records = 0;
  uint64_t expected_malformed_lines = 0;
  uint64_t expected_unknown = 0;
};

std::string RandomFuzzName(Pcg32* rng) {
  static const char kChars[] = "abcdefgh01234/._-";
  const size_t len = 1 + rng->NextBounded(10);
  std::string name;
  for (size_t i = 0; i < len; ++i) {
    name.push_back(kChars[rng->NextBounded(sizeof(kChars) - 1)]);
  }
  return name;
}

FuzzScript GenerateScript(uint64_t seed) {
  Pcg32 rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  FuzzScript script;
  bool registered[8] = {};
  bool any_registered = false;
  // Each template is exactly one malformed line to the decoder.
  const char* kGarbage[] = {
      "lonely\n",               // name without a value
      "bad nonsense 1\n",       // unparseable value
      "a 1.5 junk\n",           // unparseable timestamp
      "a 1.5\n",                // no timestamp
      "x inf 1\n",              // non-finite value
      "caf\xC3\xA9 1.0 1\n",    // invalid byte in the name
  };
  const size_t steps = 30 + rng.NextBounded(50);
  for (size_t step = 0; step < steps; ++step) {
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2: {  // valid text record
        AppendTextRecord(RandomFuzzName(&rng), rng.Gaussian(0.0, 1e3),
                         static_cast<int64_t>(rng.NextBounded(1u << 20)) - 1000,
                         &script.wire);
        script.units += 1;
        script.expected_records += 1;
        break;
      }
      case 3: {  // garbage line
        script.wire += kGarbage[rng.NextBounded(6)];
        script.units += 1;
        script.expected_malformed_lines += 1;
        break;
      }
      case 4: {  // empty / CRLF-only line: no unit
        script.wire += rng.NextBounded(2) == 0 ? "\n" : "\r\n";
        break;
      }
      case 5: {  // 0xA6 registration (possibly a remap)
        const uint32_t id = rng.NextBounded(8);
        AppendNameFrame(id, RandomFuzzName(&rng), &script.wire);
        registered[id] = true;
        any_registered = true;
        break;
      }
      default: {  // 0xA7 record frame, mixing known/unknown ids
        if (!any_registered) {
          AppendNameFrame(0, RandomFuzzName(&rng), &script.wire);
          registered[0] = true;
          any_registered = true;
        }
        RecordBatch frame;
        const size_t n = 1 + rng.NextBounded(6);
        for (size_t i = 0; i < n; ++i) {
          const int64_t ts =
              static_cast<int64_t>(rng.NextBounded(1u << 20)) - 1000;
          if (rng.NextBounded(4) == 0) {
            // A wire id no 0xA6 on this stream ever declared.
            frame.push_back(Record{100 + rng.NextBounded(8), 1.0, ts});
            script.expected_unknown += 1;
          } else {
            uint32_t id = rng.NextBounded(8);
            while (!registered[id]) {
              id = (id + 1) % 8;
            }
            frame.push_back(Record{id, rng.Gaussian(0.0, 1e3), ts});
            script.expected_records += 1;
          }
          script.units += 1;
        }
        AppendTimedFrame(frame.data(), frame.size(), &script.wire);
        break;
      }
    }
  }
  return script;
}

class WireFuzz : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range<uint64_t>(1, 25));

TEST_P(WireFuzz, ReplayAccountingIsExactAcrossRandomSplitPoints) {
  const FuzzScript script = GenerateScript(GetParam());
  Pcg32 rng(GetParam() * 977);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  size_t pos = 0;
  while (pos < script.wire.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng.NextBounded(64), script.wire.size() - pos);
    EXPECT_TRUE(decoder.Feed(script.wire.data() + pos, chunk, &out));
    pos += chunk;
  }
  decoder.FinishEof(&out);

  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.stats().bytes, script.wire.size());
  EXPECT_EQ(out.size(), script.expected_records);
  EXPECT_EQ(decoder.stats().records, script.expected_records);
  EXPECT_EQ(decoder.stats().malformed_lines,
            script.expected_malformed_lines);
  EXPECT_EQ(decoder.stats().unknown_series_records, script.expected_unknown);
  // The accounting identity: every record-bearing unit the generator
  // emitted is consumed, counted malformed, or counted unknown.
  EXPECT_EQ(decoder.stats().records + decoder.stats().malformed_lines +
                decoder.stats().unknown_series_records,
            script.units);
  // Nothing interned is ever invalid.
  for (const Record& r : out) {
    EXPECT_TRUE(stream::IsValidSeriesName(sink.NameOf(r.series_id)));
  }
}

TEST_P(WireFuzz, MutatedReplayNeverCrashesAndIsolatesPoison) {
  const FuzzScript script = GenerateScript(GetParam());
  for (uint64_t round = 0; round < 4; ++round) {
    Pcg32 rng(GetParam() * 31337 + round);
    std::string wire = script.wire;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      wire[rng.NextBounded(static_cast<uint32_t>(wire.size()))] =
          static_cast<char>(rng.NextBounded(256));
    }
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    RecordBatch out;
    bool poisoned = false;
    size_t pos = 0;
    while (pos < wire.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng.NextBounded(64), wire.size() - pos);
      const size_t before = out.size();
      const bool alive = decoder.Feed(wire.data() + pos, chunk, &out);
      if (poisoned) {
        // Poison isolation: once dead, always dead, and nothing more
        // ever decodes.
        EXPECT_FALSE(alive);
        EXPECT_EQ(out.size(), before);
      }
      if (!alive) {
        EXPECT_TRUE(decoder.poisoned());
        poisoned = true;
      }
      pos += chunk;
    }
    decoder.FinishEof(&out);
    EXPECT_EQ(poisoned, decoder.poisoned());
    // Even against a hostile stream: every decoded record was counted
    // and resolves to a validly interned name.
    EXPECT_EQ(out.size(), decoder.stats().records);
    for (const Record& r : out) {
      EXPECT_TRUE(stream::IsValidSeriesName(sink.NameOf(r.series_id)));
    }
    // A poisoned stream rejects even pristine input.
    if (poisoned) {
      const std::string good = "fine 2.0 0\n";
      const size_t before = out.size();
      EXPECT_FALSE(decoder.Feed(good.data(), good.size(), &out));
      EXPECT_EQ(out.size(), before);
    }
  }
}

TEST_P(WireFuzz, TruncatedReplayFlushesAtMostOneUnitAtEof) {
  // Chop a valid stream at a random byte and die there: FinishEof may
  // parse at most the one buffered trailing text line; a partial
  // binary frame becomes exactly one malformed_frames count, never
  // records. Truncating a valid stream can never poison it.
  const FuzzScript script = GenerateScript(GetParam());
  for (uint64_t round = 0; round < 4; ++round) {
    Pcg32 rng(GetParam() * 5551 + round * 97);
    const size_t cut =
        rng.NextBounded(static_cast<uint32_t>(script.wire.size() + 1));
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    RecordBatch out;
    size_t pos = 0;
    while (pos < cut) {
      const size_t chunk = std::min<size_t>(1 + rng.NextBounded(64), cut - pos);
      EXPECT_TRUE(decoder.Feed(script.wire.data() + pos, chunk, &out));
      pos += chunk;
    }
    const size_t before = out.size();
    const uint64_t frames_before = decoder.stats().malformed_frames;
    decoder.FinishEof(&out);
    EXPECT_LE(out.size() - before, 1u) << "cut=" << cut;
    EXPECT_LE(decoder.stats().malformed_frames - frames_before, 1u);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
    EXPECT_FALSE(decoder.poisoned());
    for (const Record& r : out) {
      EXPECT_TRUE(stream::IsValidSeriesName(sink.NameOf(r.series_id)));
    }
  }
}

TEST_P(WireFuzz, CarryBufferStaysWithinTheFrameBound) {
  // The carry buffer is the one decoder resource a client grows. Each
  // seed's script is followed by the largest 0xA7 frame the bound
  // admits and an oversized text line, fed at random split points —
  // short reads and reads several frames long — and cut at a random
  // byte in all but the first round.
  constexpr size_t kMaxFrameBytes = 4096;
  FuzzScript script = GenerateScript(GetParam());
  AppendNameFrame(0, "bound/largest", &script.wire);
  const RecordBatch largest(kMaxFrameBytes / kTimedRecordBytes,
                            Record{0, 1.0, 2});
  AppendTimedFrame(largest.data(), largest.size(), &script.wire);
  script.wire += std::string(2 * kMaxFrameBytes, 'x') + " 1 2\n";
  for (uint64_t round = 0; round < 4; ++round) {
    Pcg32 rng(GetParam() * 7919 + round);
    const size_t cut =
        round == 0 ? script.wire.size()
                   : rng.NextBounded(
                         static_cast<uint32_t>(script.wire.size() + 1));
    SeriesCatalog sink;
    FrameDecoder decoder(&sink, kMaxFrameBytes);
    RecordBatch out;
    size_t pos = 0;
    while (pos < cut) {
      const uint32_t span = rng.NextBounded(2) == 0 ? 64 : 3 * kMaxFrameBytes;
      const size_t chunk =
          std::min<size_t>(1 + rng.NextBounded(span), cut - pos);
      EXPECT_TRUE(decoder.Feed(script.wire.data() + pos, chunk, &out));
      pos += chunk;
      ASSERT_LE(decoder.buffered_bytes(), kBinaryHeaderBytes + kMaxFrameBytes)
          << "round " << round << " pos " << pos;
    }
    if (round == 0) {
      // Nothing in the stream exceeds the bound but the one line.
      EXPECT_EQ(out.size(), script.expected_records + largest.size());
      EXPECT_EQ(decoder.stats().malformed_lines,
                script.expected_malformed_lines + 1);
    }
    if (round % 2 == 0) {
      decoder.FinishEof(&out);
    } else {
      decoder.AbandonEof();
    }
    EXPECT_EQ(decoder.buffered_bytes(), 0u) << "round " << round;
    EXPECT_FALSE(decoder.poisoned()) << "round " << round;
  }
}

TEST(WireProtocolTest, StatsCountBytesAndRecords) {
  Sender sender;
  std::string wire = sender.Encode(WireEncoding::kText);
  wire += sender.Encode(WireEncoding::kBinary);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(decoder.stats().bytes, wire.size());
  EXPECT_EQ(decoder.stats().records, 2 * sender.records.size());
  EXPECT_EQ(out.size(), 2 * sender.records.size());
}

}  // namespace
}  // namespace net
}  // namespace asap
