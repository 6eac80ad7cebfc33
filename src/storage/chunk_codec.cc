#include "storage/chunk_codec.h"

#include <cstdint>
#include <cstring>

namespace asap {
namespace storage {

namespace {

// --------------------------------------------------------------------
// bit IO (MSB-first within each byte)

class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  void WriteBit(uint32_t bit) { WriteBits(bit & 1u, 1); }

  /// Writes the low `nbits` of `v`, most-significant first.
  void WriteBits(uint64_t v, unsigned nbits) {
    while (nbits > 0) {
      if (free_ == 0) {
        out_->push_back(static_cast<char>(cur_));
        cur_ = 0;
        free_ = 8;
      }
      const unsigned take = nbits < free_ ? nbits : free_;
      const uint64_t chunk = (v >> (nbits - take)) & ((1ull << take) - 1);
      cur_ |= static_cast<uint8_t>(chunk << (free_ - take));
      free_ -= take;
      nbits -= take;
    }
  }

  void Flush() {
    if (free_ < 8) {
      out_->push_back(static_cast<char>(cur_));
      cur_ = 0;
      free_ = 8;
    }
  }

 private:
  std::string* out_;
  uint8_t cur_ = 0;
  unsigned free_ = 8;
};

class BitReader {
 public:
  BitReader(const char* data, size_t len) : data_(data), len_(len) {}

  /// Reads `nbits` into *out (MSB-first). False past end of input.
  bool ReadBits(unsigned nbits, uint64_t* out) {
    uint64_t v = 0;
    while (nbits > 0) {
      if (avail_ == 0) {
        if (byte_ >= len_) {
          return false;
        }
        cur_ = static_cast<uint8_t>(data_[byte_++]);
        avail_ = 8;
      }
      const unsigned take = nbits < avail_ ? nbits : avail_;
      v = (v << take) |
          ((cur_ >> (avail_ - take)) & ((1u << take) - 1));
      avail_ -= take;
      nbits -= take;
    }
    *out = v;
    return true;
  }

  /// Bytes consumed so far, counting a partly read last byte.
  size_t bytes_read() const { return byte_; }

 private:
  const char* data_;
  size_t len_;
  size_t byte_ = 0;
  uint8_t cur_ = 0;
  unsigned avail_ = 0;
};

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double BitsToDouble(uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

}  // namespace

void EncodePaneBlock(const double* values, size_t n, std::string* out) {
  BitWriter bw(out);
  uint64_t prev = 0;
  unsigned prev_leading = 65;  // sentinel: no window established
  unsigned prev_meaningful = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = DoubleBits(values[i]);
    if (i == 0) {
      bw.WriteBits(bits, 64);
      prev = bits;
      continue;
    }
    const uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      bw.WriteBit(0);
      continue;
    }
    unsigned leading = static_cast<unsigned>(__builtin_clzll(x));
    const unsigned trailing = static_cast<unsigned>(__builtin_ctzll(x));
    if (leading > 31) {
      leading = 31;  // only 5 bits to store it
    }
    const unsigned meaningful = 64 - leading - trailing;
    bw.WriteBit(1);
    if (prev_leading <= 64 && leading >= prev_leading &&
        trailing >= 64 - prev_leading - prev_meaningful) {
      // Fits the previous window: reuse it.
      bw.WriteBit(0);
      bw.WriteBits(x >> (64 - prev_leading - prev_meaningful),
                   prev_meaningful);
    } else {
      bw.WriteBit(1);
      bw.WriteBits(leading, 5);
      bw.WriteBits(meaningful - 1, 6);  // 1..64 stored as 0..63
      bw.WriteBits(x >> trailing, meaningful);
      prev_leading = leading;
      prev_meaningful = meaningful;
    }
  }
  bw.Flush();
}

Status DecodePaneBlock(const char* data, size_t len, size_t n,
                       std::vector<double>* out) {
  // The first mean takes 64 bits and each later one at least 1, so a
  // block this short cannot hold `n`; checking first bounds the reserve.
  if (n > 0 && (len < 8 || (len - 8) * 8 < n - 1)) {
    return Status::IOError("pane block: shorter than its pane count");
  }
  out->reserve(out->size() + n);
  BitReader br(data, len);
  uint64_t prev = 0;
  unsigned prev_leading = 0;
  unsigned prev_meaningful = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0) {
      if (!br.ReadBits(64, &prev)) {
        return Status::IOError("pane block: truncated");
      }
      out->push_back(BitsToDouble(prev));
      continue;
    }
    uint64_t bit;
    if (!br.ReadBits(1, &bit)) {
      return Status::IOError("pane block: truncated");
    }
    if (bit == 0) {
      out->push_back(BitsToDouble(prev));
      continue;
    }
    if (!br.ReadBits(1, &bit)) {
      return Status::IOError("pane block: truncated");
    }
    if (bit == 1) {
      uint64_t leading, mlen;
      if (!br.ReadBits(5, &leading) || !br.ReadBits(6, &mlen)) {
        return Status::IOError("pane block: truncated");
      }
      prev_leading = static_cast<unsigned>(leading);
      prev_meaningful = static_cast<unsigned>(mlen) + 1;
      if (prev_leading + prev_meaningful > 64) {
        return Status::IOError("pane block: bad XOR window");
      }
    } else if (prev_meaningful == 0) {
      return Status::IOError("pane block: XOR window reused before set");
    }
    uint64_t m;
    if (!br.ReadBits(prev_meaningful, &m)) {
      return Status::IOError("pane block: truncated");
    }
    prev ^= m << (64 - prev_leading - prev_meaningful);
    out->push_back(BitsToDouble(prev));
  }
  if (br.bytes_read() != len) {
    return Status::IOError("pane block: bytes past the last value");
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace asap
