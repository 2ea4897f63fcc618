// Differential and mutation tests: src/util/compress.cc and
// filters::DecodeCompressedFrames against the original byte-at-a-time
// implementation kept in tests/util/reference_codec.cc. Both must produce
// the same bytes from Compress, and the same verdict and bytes from every
// decoder on every input, valid or not.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/filters/transform_filters.h"
#include "src/sim/random.h"
#include "src/util/compress.h"
#include "tests/util/codec_corpus.h"
#include "tests/util/reference_codec.h"

namespace comma::util {
namespace {

constexpr Codec kCodecs[] = {Codec::kStored, Codec::kRle, Codec::kLz};
constexpr size_t kMutations = 100'000;

TEST(CodecDifferentialTest, CompressMatchesReferenceOnCorpus) {
  for (size_t k = 0; k < kCodecCorpusSize; ++k) {
    // Take the corpus from both ends in turn, so long and short inputs
    // interleave and each call runs on the scratch the previous one left.
    const size_t i = k % 2 == 0 ? k / 2 : kCodecCorpusSize - 1 - k / 2;
    const Bytes input = CodecCorpusInput(i);
    for (Codec codec : kCodecs) {
      ASSERT_EQ(Compress(input, codec), reference::Compress(input, codec))
          << "input " << i << " codec " << static_cast<int>(codec);
    }
  }
}

// Decodes a blob's tokens without checking its checksum, as the format
// defines them. Used only to give a mutated blob the checksum of what it
// now decodes to, so that mutations reach the decoders' accept path instead
// of all dying at the checksum.
std::optional<Bytes> DecodeIgnoringChecksum(const Bytes& blob) {
  if (blob.size() < 8) {
    return std::nullopt;
  }
  const size_t original_len = static_cast<size_t>(blob[2]) << 24 | blob[3] << 16 | blob[4] << 8 |
                              blob[5];
  Bytes out;
  size_t p = 8;
  while (out.size() < original_len) {
    if (blob[1] == 0) {
      if (blob.size() - p < original_len) {
        return std::nullopt;
      }
      out.assign(blob.begin() + static_cast<long>(p),
                 blob.begin() + static_cast<long>(p + original_len));
    } else if (blob[1] == 1 && p + 2 <= blob.size() && blob[p] != 0) {
      out.insert(out.end(), blob[p], blob[p + 1]);
      p += 2;
    } else if (blob[1] == 2 && p + 2 <= blob.size() && blob[p] == 0 && blob[p + 1] != 0 &&
               p + 2 + blob[p + 1] <= blob.size()) {
      out.insert(out.end(), blob.begin() + static_cast<long>(p + 2),
                 blob.begin() + static_cast<long>(p + 2 + blob[p + 1]));
      p += 2 + blob[p + 1];
    } else if (blob[1] == 2 && p + 4 <= blob.size() && blob[p] == 1 && blob[p + 1] != 0) {
      const size_t off = static_cast<size_t>(blob[p + 2]) << 8 | blob[p + 3];
      if (off == 0 || off > out.size()) {
        return std::nullopt;
      }
      for (size_t k = 0; k < blob[p + 1]; ++k) {
        out.push_back(out[out.size() - off]);
      }
      p += 4;
    } else {
      return std::nullopt;
    }
  }
  if (out.size() != original_len) {
    return std::nullopt;
  }
  return out;
}

// True when a blob claims more original bytes than its body can decode to:
// no token byte of any codec yields more than 255 bytes, so every decoder
// must reject it. The reference decoder would first reserve the whole claim
// (up to 4 GiB, about a second per call under ASan), so for these blobs the
// expected verdict comes from the format instead of from running it.
bool ClaimIsForged(const Bytes& blob) {
  if (blob.size() < 8) {
    return false;
  }
  const uint64_t claim = static_cast<uint64_t>(blob[2]) << 24 | blob[3] << 16 | blob[4] << 8 |
                         blob[5];
  return claim > 255 * (blob.size() - 8);
}

// True when the frame walk of `stream` reaches a blob with a forged claim,
// which makes the whole stream undecodable.
bool HasForgedFrame(const Bytes& stream) {
  for (size_t p = 0; stream.size() - p >= 2;) {
    const size_t len = static_cast<size_t>(stream[p]) << 8 | stream[p + 1];
    p += 2;
    if (stream.size() - p < len) {
      return false;
    }
    if (ClaimIsForged(Bytes(stream.begin() + static_cast<long>(p),
                            stream.begin() + static_cast<long>(p + len)))) {
      return true;
    }
    p += len;
  }
  return false;
}

// Start offsets of the tokens of a blob's body (as far as they parse).
std::vector<size_t> TokenOffsets(const Bytes& blob) {
  std::vector<size_t> offsets;
  if (blob.size() < 8) {
    return offsets;
  }
  for (size_t p = 8; p + 1 < blob.size();) {
    offsets.push_back(p);
    if (blob[1] == 2 && blob[p] == 0) {
      p += 2 + blob[p + 1];
    } else {
      p += blob[1] == 2 ? 4 : 2;
    }
  }
  return offsets;
}

// Valid blobs of corpus-shaped inputs up to 1200 bytes, every codec.
const std::vector<Bytes>& BlobPool() {
  static const std::vector<Bytes> pool = [] {
    sim::Random rng(7);
    std::vector<Bytes> blobs;
    for (size_t i = 0; i < 600; ++i) {
      Bytes input = CodecCorpusInput(i);
      input.resize(std::min<size_t>(input.size(), rng.NextBelow(1200)));
      blobs.push_back(reference::Compress(input, kCodecs[i % 3]));
    }
    return blobs;
  }();
  return pool;
}

Bytes ValidBlob(sim::Random& rng) { return BlobPool()[rng.NextBelow(BlobPool().size())]; }

void SetU16(Bytes* b, size_t at, uint16_t v) {
  (*b)[at] = static_cast<uint8_t>(v >> 8);
  (*b)[at + 1] = static_cast<uint8_t>(v);
}

// Applies one seeded structural mutation to `b`: the edits a corrupting
// link or a forger would make, aimed at every field the decoders check.
void Mutate(Bytes* b, sim::Random& rng) {
  const auto at = [&](size_t from) { return from + rng.NextBelow(b->size() - from); };
  const std::vector<size_t> tokens = TokenOffsets(*b);
  switch (rng.NextBelow(11)) {
    case 0:  // Bit flip.
      if (!b->empty()) {
        (*b)[at(0)] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
      }
      break;
    case 1:  // Truncation.
      b->resize(rng.NextBelow(b->size() + 1));
      break;
    case 2:  // Original length: off by a little, zero, huge or random.
      if (b->size() >= 8) {
        const uint32_t len = static_cast<uint32_t>(DecodeIgnoringChecksum(*b).value_or(Bytes{}).size());
        const uint32_t picks[] = {len + 1, len - 1, len + 255, 0, 0xffffffffu,
                                  static_cast<uint32_t>(rng.NextU64())};
        const uint32_t v = picks[rng.NextBelow(std::size(picks))];
        SetU16(b, 2, static_cast<uint16_t>(v >> 16));
        SetU16(b, 4, static_cast<uint16_t>(v));
      }
      break;
    case 3:  // Codec id.
      if (b->size() >= 2) {
        (*b)[1] = static_cast<uint8_t>(rng.NextBelow(2) == 0 ? rng.NextBelow(4) : rng.NextU64());
      }
      break;
    case 4:  // Token tag.
      if (!tokens.empty()) {
        (*b)[tokens[rng.NextBelow(tokens.size())]] = static_cast<uint8_t>(rng.NextBelow(3));
      }
      break;
    case 5:  // Zero-length literal, match or run.
      if (!tokens.empty()) {
        const size_t t = tokens[rng.NextBelow(tokens.size())];
        (*b)[(*b)[1] == 2 ? t + 1 : t] = 0;
      }
      break;
    case 6:  // Match offset: zero, past the output so far, or random.
      if (!tokens.empty() && (*b)[1] == 2) {
        const size_t t = tokens[rng.NextBelow(tokens.size())];
        if ((*b)[t] == 1 && t + 4 <= b->size()) {
          const uint16_t picks[] = {0, static_cast<uint16_t>(t), 0xffff,
                                    static_cast<uint16_t>(rng.NextBelow(4097))};
          SetU16(b, t + 2, picks[rng.NextBelow(std::size(picks))]);
        }
      }
      break;
    case 7:  // Token length byte.
      if (!tokens.empty()) {
        const size_t t = tokens[rng.NextBelow(tokens.size())];
        (*b)[(*b)[1] == 2 ? t + 1 : t] = static_cast<uint8_t>(rng.NextU64());
      }
      break;
    case 8:  // Trailing bytes.
      for (uint64_t k = 1 + rng.NextBelow(16); k > 0; --k) {
        b->push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      break;
    case 9:  // Drop a token.
      if (!tokens.empty()) {
        const size_t k = rng.NextBelow(tokens.size());
        const size_t end = k + 1 < tokens.size() ? tokens[k + 1] : b->size();
        b->erase(b->begin() + static_cast<long>(tokens[k]), b->begin() + static_cast<long>(end));
      }
      break;
    default:  // Repeat a token.
      if (!tokens.empty()) {
        const size_t k = rng.NextBelow(tokens.size());
        const size_t end = k + 1 < tokens.size() ? tokens[k + 1] : b->size();
        const Bytes token(b->begin() + static_cast<long>(tokens[k]),
                          b->begin() + static_cast<long>(end));
        b->insert(b->begin() + static_cast<long>(tokens[k]), token.begin(), token.end());
      }
      break;
  }
}

// One to three mutations; then, half the time, the checksum of whatever the
// mutated tokens decode to.
Bytes MutatedBlob(sim::Random& rng) {
  Bytes b = ValidBlob(rng);
  for (uint64_t k = 1 + rng.NextBelow(3); k > 0; --k) {
    Mutate(&b, rng);
  }
  if (rng.NextBelow(2) == 0) {
    if (auto plain = DecodeIgnoringChecksum(b)) {
      SetU16(&b, 6, reference::Checksum(*plain));
    }
  }
  return b;
}

TEST(CodecDifferentialTest, DecompressMatchesReferenceOnMutations) {
  sim::Random rng(20261020);
  size_t accepted = 0;
  for (size_t i = 0; i < kMutations; ++i) {
    const Bytes blob = MutatedBlob(rng);
    const std::optional<Bytes> want =
        ClaimIsForged(blob) ? std::nullopt : reference::Decompress(blob);
    const std::optional<Bytes> got = Decompress(blob);
    ASSERT_EQ(got.has_value(), want.has_value()) << "mutation " << i << ": " << HexDump(blob);
    // The appending form leaves a rejected blob's output untouched.
    Bytes appended = {0xab, 0xcd};
    ASSERT_EQ(DecompressAppend(blob.data(), blob.size(), &appended), want.has_value());
    if (!want.has_value()) {
      ASSERT_EQ(appended, (Bytes{0xab, 0xcd})) << "mutation " << i;
      continue;
    }
    ++accepted;
    ASSERT_EQ(*got, *want) << "mutation " << i << ": " << HexDump(blob);
    ASSERT_EQ(Bytes(appended.begin() + 2, appended.end()), *want) << "mutation " << i;
    // decode -> encode -> decode is a fixed point.
    const Codec codec = *PeekCodec(blob);
    const Bytes again = Compress(*got, codec);
    ASSERT_EQ(again, reference::Compress(*want, codec)) << "mutation " << i;
    ASSERT_EQ(Decompress(again), got) << "mutation " << i;
  }
  // The checksum fix-up sends a good share of mutations down the accept path.
  EXPECT_GT(accepted, kMutations / 10);
}

TEST(CodecDifferentialTest, DecodeCompressedFramesMatchesReferenceOnMutations) {
  sim::Random rng(20261021);
  size_t accepted = 0;
  for (size_t i = 0; i < kMutations; ++i) {
    // A tcompress/htype payload: 1-4 length-prefixed blobs, one of them
    // possibly mutated, then (sometimes) a damaged frame structure.
    Bytes stream;
    for (uint64_t k = 1 + rng.NextBelow(4); k > 0; --k) {
      const Bytes blob = rng.NextBelow(4) == 0 ? MutatedBlob(rng) : ValidBlob(rng);
      const Bytes framed = filters::FrameCompressedBlob(blob);
      stream.insert(stream.end(), framed.begin(), framed.end());
    }
    switch (rng.NextBelow(8)) {
      case 0:
        stream[rng.NextBelow(stream.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
        break;
      case 1:
        stream.resize(rng.NextBelow(stream.size() + 1));
        break;
      case 2: {  // The first frame's length prefix.
        const uint16_t len = static_cast<uint16_t>(stream[0] << 8 | stream[1]);
        const uint16_t picks[] = {static_cast<uint16_t>(len + 1), static_cast<uint16_t>(len - 1),
                                  0, 0xffff, static_cast<uint16_t>(rng.NextU64())};
        SetU16(&stream, 0, picks[rng.NextBelow(std::size(picks))]);
        break;
      }
      case 3:  // A zero-length frame.
        stream.insert(stream.end(), {0x00, 0x00});
        break;
      case 4:  // A lone trailing byte.
        stream.push_back(static_cast<uint8_t>(rng.NextU64()));
        break;
      default:
        break;
    }
    uint64_t want_blobs = 0;
    uint64_t got_blobs = 0;
    if (HasForgedFrame(stream)) {
      ASSERT_FALSE(filters::DecodeCompressedFrames(stream, &got_blobs).has_value())
          << "stream " << i << ": " << HexDump(stream);
      continue;
    }
    const std::optional<Bytes> want = reference::DecodeCompressedFrames(stream, &want_blobs);
    const std::optional<Bytes> got = filters::DecodeCompressedFrames(stream, &got_blobs);
    ASSERT_EQ(got, want) << "stream " << i << ": " << HexDump(stream);
    ASSERT_EQ(got_blobs, want_blobs) << "stream " << i;
    accepted += want.has_value() ? 1 : 0;
  }
  EXPECT_GT(accepted, kMutations / 10);
}

}  // namespace
}  // namespace comma::util
