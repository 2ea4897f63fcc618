// A test-only copy of the original byte-at-a-time codec and frame decoder
// (tests/util/reference_codec.cc): the oracle that the optimized
// src/util/compress.cc and filters::DecodeCompressedFrames must match byte
// for byte and verdict for verdict.
#ifndef COMMA_TESTS_UTIL_REFERENCE_CODEC_H_
#define COMMA_TESTS_UTIL_REFERENCE_CODEC_H_

#include <cstdint>
#include <optional>

#include "src/util/bytes.h"
#include "src/util/compress.h"

namespace comma::util::reference {

Bytes Compress(const Bytes& input, Codec codec);
std::optional<Bytes> Decompress(const Bytes& input);
std::optional<Codec> PeekCodec(const Bytes& input);
// The Fletcher-16 that Compress writes into bytes 6-7 of the header.
uint16_t Checksum(const Bytes& data);
std::optional<Bytes> DecodeCompressedFrames(const Bytes& payload, uint64_t* blobs_decoded);

}  // namespace comma::util::reference

#endif  // COMMA_TESTS_UTIL_REFERENCE_CODEC_H_
