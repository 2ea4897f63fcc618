#include "src/util/compress.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <memory>

namespace comma::util {
namespace {

constexpr uint8_t kMagic = 0xC3;  // 'C' for Comma, high bit set.
constexpr size_t kHeaderSize = 8;  // magic, codec, u32 original length, u16 checksum.
constexpr size_t kLzWindow = 4096;
constexpr size_t kLzMinMatch = 4;
constexpr size_t kLzMaxMatch = 255;
constexpr size_t kLzHashSize = 1 << 13;
constexpr size_t kLzMaxTries = 16;
// The hash chain is a ring indexed by position: a chain is only followed
// while its candidates lie within kLzWindow of the cursor, and no newer
// position can have reused such a slot before the cursor passes it.
constexpr size_t kLzChainSize = 1 << 13;
static_assert(kLzChainSize > kLzWindow, "a chain slot must outlive the window");

// Most output bytes one token byte can decode to, rounded up: a 4-byte LZ
// match yields up to 255 bytes and a 2-byte RLE pair up to 255. A blob
// claiming more than this for its token bytes is truncated or forged, and
// is rejected before anything is allocated for it.
constexpr uint64_t kLzMaxExpansion = 64;
constexpr uint64_t kRleMaxExpansion = 128;

// Longest block whose sums cannot overflow 32 bits when a and b start below
// 255: after byte k of the block a <= 254 + 255k, so b <= 254 + 254k +
// 255k(k+1)/2, which stays below 2^32 up to k = 5802.
constexpr size_t kFletcherBlock = 5802;

// Fletcher-16 over the *original* data: detects payload corruption that the
// token structure alone would let through. Sums a block at a time and
// reduces once per block, which gives the same value as reducing per byte.
uint16_t Fletcher16(const uint8_t* data, size_t len) {
  uint32_t a = 0;
  uint32_t b = 0;
  while (len > 0) {
    const size_t block = std::min(len, kFletcherBlock);
    size_t i = 0;
    // Four bytes at a time: b gains 4a plus the bytes weighted 4, 3, 2, 1,
    // exactly what four single-byte steps would add.
    for (; i + 4 <= block; i += 4) {
      b += 4 * a + 4 * data[i] + 3 * data[i + 1] + 2 * data[i + 2] + data[i + 3];
      a += data[i] + data[i + 1] + data[i + 2] + data[i + 3];
    }
    for (; i < block; ++i) {
      a += data[i];
      b += a;
    }
    a %= 255;
    b %= 255;
    data += block;
    len -= block;
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

// The encoders append their tokens to `out` and give up (returning false)
// as soon as `out` would reach `out_limit` bytes: from there on the body
// can only grow, so the stored fallback wins.

// Token stream: (count, byte) pairs, count in [1, 255].
bool RleCompress(const uint8_t* in, size_t n, size_t out_limit, Bytes* out) {
  size_t i = 0;
  while (i < n) {
    size_t run = 1;
    while (i + run < n && in[i + run] == in[i] && run < 255) {
      ++run;
    }
    if (out->size() + 2 >= out_limit) {
      return false;
    }
    out->push_back(static_cast<uint8_t>(run));
    out->push_back(in[i]);
    i += run;
  }
  return true;
}

// Hash heads and chain links of the LZ encoder, kept between calls so a call
// neither allocates nor clears them. Entries hold `base + position`; each
// call takes a fresh base above every entry an earlier call wrote, so those
// entries read as empty (below the current base).
struct LzScratch {
  std::array<uint32_t, kLzHashSize> head{};
  std::array<uint32_t, kLzChainSize> prev{};
  uint32_t base = 1;
};

// Per thread, because the parallel simulator's workers compress
// concurrently; allocated on first use, so threads that never compress
// carry no 64 KiB of thread-local storage.
LzScratch& ThreadLzScratch() {
  thread_local std::unique_ptr<LzScratch> scratch;
  if (scratch == nullptr) {
    scratch = std::make_unique<LzScratch>();
  }
  return *scratch;
}

// Index of the first byte at which two 8-byte words loaded in host order
// differ; `diff` is their XOR and non-zero.
size_t FirstDifferingByte(uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<size_t>(std::countl_zero(diff)) / 8;
  }
}

// Length of the common prefix of `a` and `b`, at most `limit` bytes.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const uint64_t diff = LoadHost64(a + len) ^ LoadHost64(b + len);
    if (diff != 0) {
      return len + FirstDifferingByte(diff);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// LZ token stream: a control byte selects literal vs match.
//   0x00 len            : literal run of `len` bytes follows (len in [1,255])
//   0x01 len off_hi off_lo : match of `len` bytes at distance `off`
// Greedy: at each position the longest match among the 16 newest
// candidates with the same 4-byte hash wins, the nearest on a tie.
bool LzCompress(const uint8_t* in, size_t n, size_t out_limit, Bytes* out) {
  if (n >= std::numeric_limits<uint32_t>::max()) {
    return false;  // Past the header's u32 length field.
  }
  LzScratch& s = ThreadLzScratch();
  if (n > std::numeric_limits<uint32_t>::max() - s.base) {
    s.head.fill(0);
    s.base = 1;
  }
  const uint32_t base = s.base;
  s.base += static_cast<uint32_t>(n);

  // ((b0 * 131 + b1) * 131 + b2) * 131 + b3 over the 4 bytes at `pos`,
  // mod 2^32, multiplied out so the products do not wait on each other.
  auto hash4 = [in](size_t pos) {
    const uint32_t v = in[pos] * uint32_t{131 * 131 * 131} + in[pos + 1] * uint32_t{131 * 131} +
                       in[pos + 2] * uint32_t{131} + in[pos + 3];
    return v & (kLzHashSize - 1);
  };
  auto insert = [&s, base](size_t pos, uint32_t h) {
    s.prev[pos & (kLzChainSize - 1)] = s.head[h];
    s.head[h] = base + static_cast<uint32_t>(pos);
  };

  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    while (literal_start < end) {
      const size_t len = std::min<size_t>(end - literal_start, 255);
      if (out->size() + 2 + len >= out_limit) {
        return false;
      }
      out->push_back(0x00);
      out->push_back(static_cast<uint8_t>(len));
      out->insert(out->end(), in + literal_start, in + literal_start + len);
      literal_start += len;
    }
    return true;
  };

  size_t pos = 0;
  while (pos < n) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (pos + kLzMinMatch <= n) {
      const uint32_t h = hash4(pos);
      const size_t limit = std::min(n - pos, kLzMaxMatch);
      uint32_t cand = s.head[h];
      for (size_t tries = 0;
           tries < kLzMaxTries && cand >= base && pos - (cand - base) <= kLzWindow; ++tries) {
        const size_t c = cand - base;
        const size_t len = MatchLength(in + c, in + pos, limit);
        if (len > best_len) {
          best_len = len;
          best_off = pos - c;
          if (len == limit) {
            break;  // Only a strictly longer match could replace it.
          }
        }
        cand = s.prev[c & (kLzChainSize - 1)];
      }
      insert(pos, h);
    }
    if (best_len >= kLzMinMatch) {
      if (!flush_literals(pos) || out->size() + 4 >= out_limit) {
        return false;
      }
      out->push_back(0x01);
      out->push_back(static_cast<uint8_t>(best_len));
      out->push_back(static_cast<uint8_t>(best_off >> 8));
      out->push_back(static_cast<uint8_t>(best_off));
      // Insert hash entries for skipped positions so later matches can refer
      // into this region.
      for (size_t k = 1; k < best_len && pos + k + kLzMinMatch <= n; ++k) {
        insert(pos + k, hash4(pos + k));
      }
      pos += best_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  return flush_literals(n);
}

// The decoders fill exactly `dst[0, original_len)` from the tokens in
// [p, end), and fail on a malformed token or on tokens that run out or
// overshoot. Bytes after the last needed token are ignored.

bool RleDecompress(const uint8_t* p, const uint8_t* end, uint8_t* dst, size_t original_len) {
  uint8_t* const stop = dst + original_len;
  while (dst < stop) {
    if (end - p < 2) {
      return false;
    }
    const size_t count = p[0];
    const uint8_t value = p[1];
    p += 2;
    if (count == 0 || count > static_cast<size_t>(stop - dst)) {
      return false;
    }
    dst = std::fill_n(dst, count, value);
  }
  return true;
}

bool LzDecompress(const uint8_t* p, const uint8_t* end, uint8_t* dst, size_t original_len) {
  uint8_t* const begin = dst;
  uint8_t* const stop = dst + original_len;
  while (dst < stop) {
    if (p == end) {
      return false;
    }
    const uint8_t tag = *p++;
    if (tag == 0x00) {
      if (p == end) {
        return false;
      }
      const size_t len = *p++;
      if (len == 0 || len > static_cast<size_t>(end - p) ||
          len > static_cast<size_t>(stop - dst)) {
        return false;
      }
      dst = std::copy_n(p, len, dst);
      p += len;
    } else if (tag == 0x01) {
      if (end - p < 3) {
        return false;
      }
      const size_t len = p[0];
      const size_t off = static_cast<size_t>(p[1]) << 8 | p[2];
      p += 3;
      if (len == 0 || off == 0 || off > static_cast<size_t>(dst - begin) ||
          len > static_cast<size_t>(stop - dst)) {
        return false;
      }
      // An overlapping match repeats its last `off` bytes. [src, dst) is
      // always a whole number of periods, so it can be copied forward in
      // pieces that never overlap their source, doubling each time.
      const uint8_t* src = dst - off;
      for (size_t left = len; left > 0;) {
        const size_t piece = std::min(left, static_cast<size_t>(dst - src));
        dst = std::copy_n(src, piece, dst);
        left -= piece;
      }
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

Bytes Compress(const uint8_t* data, size_t n, Codec codec) {
  Bytes out;
  out.reserve(kHeaderSize + n);
  WriteHeader(&out, codec, static_cast<uint32_t>(n), Fletcher16(data, n));
  // The compressed body must come out shorter than the input.
  const size_t out_limit = kHeaderSize + n;
  bool compressed = false;
  switch (codec) {
    case Codec::kRle:
      compressed = RleCompress(data, n, out_limit, &out);
      break;
    case Codec::kLz:
      compressed = LzCompress(data, n, out_limit, &out);
      break;
    case Codec::kStored:
      break;
  }
  if (!compressed || out.size() >= out_limit) {
    out.resize(kHeaderSize);
    out[1] = static_cast<uint8_t>(Codec::kStored);
    out.insert(out.end(), data, data + n);
  }
  return out;
}

Bytes Compress(const Bytes& input, Codec codec) {
  return Compress(input.data(), input.size(), codec);
}

bool DecompressAppend(const uint8_t* data, size_t len, Bytes* out) {
  if (len < kHeaderSize || data[0] != kMagic) {
    return false;
  }
  ByteReader header(data + 1, kHeaderSize - 1);
  const uint8_t codec = header.ReadU8();
  const uint32_t original_len = header.ReadU32();
  const uint16_t checksum = header.ReadU16();
  const uint8_t* tokens = data + kHeaderSize;
  const uint8_t* end = data + len;
  const uint64_t token_bytes = len - kHeaderSize;
  uint64_t max_len = 0;
  switch (static_cast<Codec>(codec)) {
    case Codec::kStored:
      max_len = token_bytes;
      break;
    case Codec::kRle:
      max_len = token_bytes * kRleMaxExpansion;
      break;
    case Codec::kLz:
      max_len = token_bytes * kLzMaxExpansion;
      break;
    default:
      return false;
  }
  if (original_len > max_len) {
    return false;
  }
  const size_t old_size = out->size();
  out->resize(old_size + original_len);
  uint8_t* dst = out->data() + old_size;
  bool ok = true;
  switch (static_cast<Codec>(codec)) {
    case Codec::kStored:
      std::copy_n(tokens, original_len, dst);
      break;
    case Codec::kRle:
      ok = RleDecompress(tokens, end, dst, original_len);
      break;
    case Codec::kLz:
      ok = LzDecompress(tokens, end, dst, original_len);
      break;
  }
  if (!ok || Fletcher16(dst, original_len) != checksum) {
    out->resize(old_size);
    return false;
  }
  return true;
}

std::optional<Bytes> Decompress(const Bytes& input) {
  Bytes out;
  if (!DecompressAppend(input.data(), input.size(), &out)) {
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

}  // namespace comma::util
