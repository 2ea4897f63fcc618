// The codec as it was before its hot loops were rewritten, kept verbatim
// (per-byte Fletcher-16, per-call hash tables, byte-wise decoders) as the
// oracle for the differential tests. The codec is unchanged but for its
// namespace; DecodeCompressedFrames is the original from
// src/filters/transform_filters.cc without its util:: qualifiers, and
// Checksum exposes the original Fletcher-16.
#include "tests/util/reference_codec.h"

#include <algorithm>
#include <array>

namespace comma::util::reference {
namespace {

constexpr uint8_t kMagic = 0xC3;  // 'C' for Comma, high bit set.
constexpr size_t kHeaderSize = 8;  // magic, codec, u32 original length, u16 checksum.
constexpr size_t kLzWindow = 4096;
constexpr size_t kLzMinMatch = 4;
constexpr size_t kLzMaxMatch = 255;

// Fletcher-16 over the *original* data: detects payload corruption that the
// token structure alone would let through.
uint16_t Fletcher16(const Bytes& data) {
  uint32_t a = 0;
  uint32_t b = 0;
  for (uint8_t byte : data) {
    a = (a + byte) % 255;
    b = (b + a) % 255;
  }
  return static_cast<uint16_t>(b << 8 | a);
}

void WriteHeader(Bytes* out, Codec codec, uint32_t original_len, uint16_t checksum) {
  ByteWriter w(out);
  w.WriteU8(kMagic);
  w.WriteU8(static_cast<uint8_t>(codec));
  w.WriteU32(original_len);
  w.WriteU16(checksum);
}

Bytes RleCompress(const Bytes& input) {
  // Token stream: (count, byte) pairs, count in [1, 255].
  Bytes out;
  size_t i = 0;
  while (i < input.size()) {
    size_t run = 1;
    while (i + run < input.size() && input[i + run] == input[i] && run < 255) {
      ++run;
    }
    out.push_back(static_cast<uint8_t>(run));
    out.push_back(input[i]);
    i += run;
  }
  return out;
}

std::optional<Bytes> RleDecompress(ByteReader& r, uint32_t original_len) {
  Bytes out;
  out.reserve(original_len);
  while (out.size() < original_len) {
    uint8_t count = r.ReadU8();
    uint8_t value = r.ReadU8();
    if (r.failed() || count == 0) {
      return std::nullopt;
    }
    out.insert(out.end(), count, value);
  }
  if (out.size() != original_len) {
    return std::nullopt;
  }
  return out;
}

// LZ token stream: a control byte selects literal vs match.
//   0x00 len            : literal run of `len` bytes follows (len in [1,255])
//   0x01 len off_hi off_lo : match of `len` bytes at distance `off`
Bytes LzCompress(const Bytes& input) {
  Bytes out;
  // Hash chain over 4-byte prefixes.
  constexpr size_t kHashSize = 1 << 13;
  std::array<int64_t, kHashSize> head;
  head.fill(-1);
  std::vector<int64_t> prev(input.size(), -1);

  auto hash4 = [&](size_t pos) {
    uint32_t v = 0;
    for (size_t k = 0; k < 4; ++k) {
      v = v * 131 + input[pos + k];
    }
    return v & (kHashSize - 1);
  };

  Bytes literals;
  auto flush_literals = [&]() {
    size_t i = 0;
    while (i < literals.size()) {
      size_t n = std::min<size_t>(literals.size() - i, 255);
      out.push_back(0x00);
      out.push_back(static_cast<uint8_t>(n));
      out.insert(out.end(), literals.begin() + static_cast<long>(i),
                 literals.begin() + static_cast<long>(i + n));
      i += n;
    }
    literals.clear();
  };

  size_t pos = 0;
  while (pos < input.size()) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (pos + kLzMinMatch <= input.size()) {
      const uint32_t h = hash4(pos);
      int64_t cand = head[h];
      int tries = 16;
      while (cand >= 0 && tries-- > 0 && pos - static_cast<size_t>(cand) <= kLzWindow) {
        const size_t c = static_cast<size_t>(cand);
        size_t len = 0;
        const size_t limit = std::min(input.size() - pos, kLzMaxMatch);
        while (len < limit && input[c + len] == input[pos + len]) {
          ++len;
        }
        if (len > best_len) {
          best_len = len;
          best_off = pos - c;
        }
        cand = prev[c];
      }
      prev[pos] = head[h];
      head[h] = static_cast<int64_t>(pos);
    }
    if (best_len >= kLzMinMatch) {
      flush_literals();
      out.push_back(0x01);
      out.push_back(static_cast<uint8_t>(best_len));
      out.push_back(static_cast<uint8_t>(best_off >> 8));
      out.push_back(static_cast<uint8_t>(best_off));
      // Insert hash entries for skipped positions so later matches can refer
      // into this region.
      for (size_t k = 1; k < best_len && pos + k + kLzMinMatch <= input.size(); ++k) {
        const uint32_t h = hash4(pos + k);
        prev[pos + k] = head[h];
        head[h] = static_cast<int64_t>(pos + k);
      }
      pos += best_len;
    } else {
      literals.push_back(input[pos]);
      ++pos;
    }
  }
  flush_literals();
  return out;
}

std::optional<Bytes> LzDecompress(ByteReader& r, uint32_t original_len) {
  Bytes out;
  out.reserve(original_len);
  while (out.size() < original_len) {
    uint8_t tag = r.ReadU8();
    if (r.failed()) {
      return std::nullopt;
    }
    if (tag == 0x00) {
      uint8_t len = r.ReadU8();
      Bytes lit = r.ReadBytes(len);
      if (r.failed() || len == 0) {
        return std::nullopt;
      }
      out.insert(out.end(), lit.begin(), lit.end());
    } else if (tag == 0x01) {
      uint8_t len = r.ReadU8();
      uint16_t off = r.ReadU16();
      if (r.failed() || len == 0 || off == 0 || off > out.size()) {
        return std::nullopt;
      }
      // Overlapping copies are legal (RLE-style matches); copy byte-wise.
      size_t src = out.size() - off;
      for (size_t k = 0; k < len; ++k) {
        out.push_back(out[src + k]);
      }
    } else {
      return std::nullopt;
    }
  }
  if (out.size() != original_len) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

Bytes Compress(const Bytes& input, Codec codec) {
  Bytes body;
  switch (codec) {
    case Codec::kRle:
      body = RleCompress(input);
      break;
    case Codec::kLz:
      body = LzCompress(input);
      break;
    case Codec::kStored:
      body = input;
      break;
  }
  if (codec != Codec::kStored && body.size() >= input.size()) {
    codec = Codec::kStored;
    body = input;
  }
  Bytes out;
  out.reserve(kHeaderSize + body.size());
  WriteHeader(&out, codec, static_cast<uint32_t>(input.size()), Fletcher16(input));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<Bytes> Decompress(const Bytes& input) {
  ByteReader r(input);
  if (r.ReadU8() != kMagic) {
    return std::nullopt;
  }
  const uint8_t codec = r.ReadU8();
  const uint32_t original_len = r.ReadU32();
  const uint16_t checksum = r.ReadU16();
  if (r.failed()) {
    return std::nullopt;
  }
  std::optional<Bytes> out;
  switch (static_cast<Codec>(codec)) {
    case Codec::kStored: {
      Bytes body = r.ReadBytes(original_len);
      if (r.failed()) {
        return std::nullopt;
      }
      out = std::move(body);
      break;
    }
    case Codec::kRle:
      out = RleDecompress(r, original_len);
      break;
    case Codec::kLz:
      out = LzDecompress(r, original_len);
      break;
    default:
      return std::nullopt;
  }
  if (!out.has_value() || Fletcher16(*out) != checksum) {
    return std::nullopt;
  }
  return out;
}

std::optional<Codec> PeekCodec(const Bytes& input) {
  if (input.size() < kHeaderSize || input[0] != kMagic || input[1] > 2) {
    return std::nullopt;
  }
  return static_cast<Codec>(input[1]);
}


uint16_t Checksum(const Bytes& data) { return Fletcher16(data); }

std::optional<Bytes> DecodeCompressedFrames(const Bytes& payload, uint64_t* blobs_decoded) {
  ByteReader r(payload);
  Bytes out;
  while (r.remaining() > 0) {
    const uint16_t len = r.ReadU16();
    Bytes blob = r.ReadBytes(len);
    if (r.failed()) {
      return std::nullopt;
    }
    auto plain = Decompress(blob);
    if (!plain.has_value()) {
      return std::nullopt;
    }
    if (blobs_decoded != nullptr) {
      ++*blobs_decoded;
    }
    out.insert(out.end(), plain->begin(), plain->end());
  }
  return out;
}

}  // namespace comma::util::reference
