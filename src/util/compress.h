// Self-contained lossless compressors for the transparent compression
// service (thesis §8.1.6) and the data-type translation filters (§8.3.3).
//
// Two codecs are provided:
//  - RLE: trivial run-length coding; fast, effective on synthetic media.
//  - LZ: a greedy LZ77 with a 4 KiB window, byte-oriented token stream.
//
// Every blob starts with an 8-byte header: magic, codec id, the original
// length (u32) and a Fletcher-16 of the original bytes (u16), all
// big-endian, so a decompressor can validate input and size its output.
// Compress() falls back to a stored block unless the codec's body comes out
// shorter than the input, so a blob is never longer than the input + 8.
#ifndef COMMA_UTIL_COMPRESS_H_
#define COMMA_UTIL_COMPRESS_H_

#include <cstdint>
#include <optional>

#include "src/util/bytes.h"

namespace comma::util {

enum class Codec : uint8_t {
  kStored = 0,  // No compression; used as a fallback.
  kRle = 1,
  kLz = 2,
};

// Compresses `input` with the requested codec (falling back to kStored when
// that is smaller). Never fails.
Bytes Compress(const Bytes& input, Codec codec);

// Decompresses the blob at [data, data + len), as produced by Compress(),
// and appends the original bytes to `out`. Returns false on corrupt or
// truncated input and leaves `out`'s contents as they were. Bytes after the
// blob's last token are ignored.
bool DecompressAppend(const uint8_t* data, size_t len, Bytes* out);

// Decompresses a buffer produced by Compress(). Returns nullopt on corrupt
// or truncated input.
std::optional<Bytes> Decompress(const Bytes& input);

// Peeks at a compressed buffer's codec without decompressing.
std::optional<Codec> PeekCodec(const Bytes& input);

}  // namespace comma::util

#endif  // COMMA_UTIL_COMPRESS_H_
