// Fixed-width little-endian integers for every on-disk and wire
// format: the WAL, the chunk manifest and the binary ingest protocol.
// Every supported target is little-endian, so encode and decode are
// plain memcpys (unaligned-safe, and a decoder's load compiles to one
// instruction); a big-endian port would byte-swap here and nowhere
// else.

#ifndef ASAP_COMMON_BYTES_H_
#define ASAP_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace asap {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "common/bytes.h stores integers in host order");

/// Appends `v` to `*out`, least significant byte first.
template <typename T>
inline void PutLe(T v, std::string* out) {
  char raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  out->append(raw, sizeof(T));
}

/// Reads what PutLe<T> wrote at `p`; `p` need not be aligned.
template <typename T>
inline T GetLe(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

inline void PutU16(uint16_t v, std::string* out) { PutLe(v, out); }
inline void PutU32(uint32_t v, std::string* out) { PutLe(v, out); }
inline void PutU64(uint64_t v, std::string* out) { PutLe(v, out); }
inline void PutI64(int64_t v, std::string* out) { PutLe(v, out); }

inline uint16_t GetU16(const char* p) { return GetLe<uint16_t>(p); }
inline uint32_t GetU32(const char* p) { return GetLe<uint32_t>(p); }
inline uint64_t GetU64(const char* p) { return GetLe<uint64_t>(p); }
inline int64_t GetI64(const char* p) { return GetLe<int64_t>(p); }

}  // namespace asap

#endif  // ASAP_COMMON_BYTES_H_
