// Codec for chunk blocks. A block holds one series' contiguous run of
// pane means and nothing else: which panes those are is recorded once,
// in the manifest entry's first_pane/pane_count, so the block carries
// no index, count or length.
//
// The means are Gorilla's value column (Pelkonen et al., VLDB 2015
// §4.1.2): the first double in 64 raw bits, then each one XORed
// against its predecessor: identical → '0'; inside the previous
// leading/trailing-zero window → '10' + the window's bits; else '11' +
// 5-bit leading-zero count + 6-bit length + the meaningful bits.
// Smooth series cluster, so most panes cost far less than 64 bits.
// Bits are written MSB-first and the last byte is zero-padded.
//
// Integrity is handled a layer up: the manifest entry holds the
// block's masked CRC32C.

#ifndef ASAP_STORAGE_CHUNK_CODEC_H_
#define ASAP_STORAGE_CHUNK_CODEC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace asap {
namespace storage {

/// Appends the block of `values[0, n)` to `*out`.
void EncodePaneBlock(const double* values, size_t n, std::string* out);

/// Decodes a block of exactly `n` means, appending them to `*out`.
/// IOError (never a crash) for a block that is short, malformed or
/// has bytes past its last value.
Status DecodePaneBlock(const char* data, size_t len, size_t n,
                       std::vector<double>* out);

}  // namespace storage
}  // namespace asap

#endif  // ASAP_STORAGE_CHUNK_CODEC_H_
