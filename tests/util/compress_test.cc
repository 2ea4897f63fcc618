#include "src/util/compress.h"

#include <gtest/gtest.h>

#include "src/sim/random.h"
#include "tests/util/codec_corpus.h"

namespace comma::util {
namespace {

Bytes MakeRepetitive(size_t n) {
  Bytes out;
  const char* phrase = "the quick brown fox jumps over the lazy dog. ";
  while (out.size() < n) {
    out.insert(out.end(), phrase, phrase + strlen(phrase));
  }
  out.resize(n);
  return out;
}

Bytes MakeRandom(size_t n, uint64_t seed) {
  sim::Random rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return out;
}

class CompressRoundTripTest : public ::testing::TestWithParam<Codec> {};

TEST_P(CompressRoundTripTest, EmptyInput) {
  Bytes c = Compress({}, GetParam());
  auto d = Decompress(c);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->empty());
}

TEST_P(CompressRoundTripTest, RepetitiveText) {
  Bytes input = MakeRepetitive(5000);
  Bytes c = Compress(input, GetParam());
  auto d = Decompress(c);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, input);
}

TEST_P(CompressRoundTripTest, RandomData) {
  Bytes input = MakeRandom(4096, 99);
  Bytes c = Compress(input, GetParam());
  auto d = Decompress(c);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, input);
  // Random data is incompressible: the stored fallback bounds expansion.
  EXPECT_LE(c.size(), input.size() + 8);
}

TEST_P(CompressRoundTripTest, AllSameByte) {
  Bytes input(10000, 0x42);
  Bytes c = Compress(input, GetParam());
  auto d = Decompress(c);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, input);
  if (GetParam() != Codec::kStored) {
    EXPECT_LT(c.size(), input.size() / 10);
  }
}

TEST_P(CompressRoundTripTest, SingleByte) {
  Bytes input = {0x7f};
  auto d = Decompress(Compress(input, GetParam()));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, input);
}

TEST_P(CompressRoundTripTest, VariousSizesRoundTrip) {
  for (size_t n : {1u, 2u, 3u, 15u, 255u, 256u, 1000u, 4095u, 4096u, 4097u, 20000u}) {
    Bytes input = MakeRepetitive(n);
    auto d = Decompress(Compress(input, GetParam()));
    ASSERT_TRUE(d.has_value()) << "size " << n;
    EXPECT_EQ(*d, input) << "size " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CompressRoundTripTest,
                         ::testing::Values(Codec::kStored, Codec::kRle, Codec::kLz));

TEST(CompressTest, LzBeatsRleOnText) {
  Bytes input = MakeRepetitive(8000);
  EXPECT_LT(Compress(input, Codec::kLz).size(), Compress(input, Codec::kRle).size());
  EXPECT_LT(Compress(input, Codec::kLz).size(), input.size() / 2);
}

TEST(CompressTest, RleWinsOnRuns) {
  Bytes input(4000, 0xaa);
  EXPECT_LT(Compress(input, Codec::kRle).size(), 100u);
}

TEST(CompressTest, DecompressRejectsGarbage) {
  EXPECT_FALSE(Decompress({}).has_value());
  EXPECT_FALSE(Decompress({0x00, 0x01, 0x02}).has_value());
  EXPECT_FALSE(Decompress(MakeRandom(100, 5)).has_value() &&
               MakeRandom(100, 5)[0] != 0xC3);  // Overwhelmingly rejected.
}

TEST(CompressTest, DecompressRejectsTruncated) {
  Bytes c = Compress(MakeRepetitive(1000), Codec::kLz);
  c.resize(c.size() / 2);
  EXPECT_FALSE(Decompress(c).has_value());
}

TEST(CompressTest, DecompressRejectsBadCodecId) {
  Bytes c = Compress(MakeRepetitive(100), Codec::kLz);
  c[1] = 0x77;
  EXPECT_FALSE(Decompress(c).has_value());
}

TEST(CompressTest, PeekCodecReportsActualCodec) {
  Bytes text = MakeRepetitive(1000);
  EXPECT_EQ(PeekCodec(Compress(text, Codec::kLz)), Codec::kLz);
  // Random data falls back to stored.
  Bytes rnd = MakeRandom(1000, 3);
  EXPECT_EQ(PeekCodec(Compress(rnd, Codec::kLz)), Codec::kStored);
  EXPECT_FALSE(PeekCodec({0x01}).has_value());
}

TEST(CompressTest, OverlappingLzMatchesDecodeCorrectly) {
  // "abcabcabc..." produces matches whose source overlaps the output cursor.
  Bytes input;
  for (int i = 0; i < 3000; ++i) {
    input.push_back(static_cast<uint8_t>('a' + i % 3));
  }
  auto d = Decompress(Compress(input, Codec::kLz));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, input);
}

// A blob's claimed length is checked against what its tokens can expand to
// before anything is allocated for it: 3 token bytes cannot make 4 GiB.
TEST(CompressTest, ForgedLengthIsRejectedBeforeAllocating) {
  for (uint8_t codec : {0, 1, 2}) {
    const Bytes forged = {0xC3, codec, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x01, 'x'};
    Bytes out;
    EXPECT_FALSE(DecompressAppend(forged.data(), forged.size(), &out));
    EXPECT_TRUE(out.empty());
    EXPECT_LT(out.capacity(), 4096u) << "codec " << int{codec};
    EXPECT_FALSE(Decompress(forged).has_value());
  }
}

// FNV-1a 64 over `b`, its length first, so a moved boundary between two
// outputs changes the hash too.
uint64_t FnvAppend(uint64_t h, const Bytes& b) {
  const auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (int shift = 24; shift >= 0; shift -= 8) {
    mix(static_cast<uint8_t>(b.size() >> shift));
  }
  for (uint8_t byte : b) {
    mix(byte);
  }
  return h;
}

// The wire format, byte for byte: round-trip tests alone would pass an
// encoder that picks different (valid) matches, yet every such change moves
// the htype/tcompress bytes on the wire and the perfbench witnesses with
// them. The hashes were taken from the original per-byte encoder.
TEST(CompressTest, EncodedBytesArePinned) {
  const Codec codecs[] = {Codec::kStored, Codec::kRle, Codec::kLz};
  constexpr uint64_t kPinned[] = {0x8d739abcd8fdd0c2ULL, 0x4861bce4bc7ae95cULL,
                                 0xa38a0c1f7411eeffULL};
  uint64_t hashes[] = {0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL};
  for (size_t i = 0; i < kCodecCorpusSize; ++i) {
    const Bytes input = CodecCorpusInput(i);
    for (size_t c = 0; c < std::size(codecs); ++c) {
      hashes[c] = FnvAppend(hashes[c], Compress(input, codecs[c]));
    }
  }
  for (size_t c = 0; c < std::size(codecs); ++c) {
    EXPECT_EQ(hashes[c], kPinned[c]) << "codec " << c << " hash 0x" << std::hex << hashes[c];
  }
}

// Bytes 6-7 of every header carry the Fletcher-16 of the original data.
uint16_t HeaderChecksum(const Bytes& input) {
  const Bytes c = Compress(input, Codec::kStored);
  return static_cast<uint16_t>(c[6] << 8 | c[7]);
}

uint16_t PerByteFletcher16(const Bytes& data) {
  uint32_t a = 0;
  uint32_t b = 0;
  for (uint8_t byte : data) {
    a = (a + byte) % 255;
    b = (b + a) % 255;
  }
  return static_cast<uint16_t>(b << 8 | a);
}

TEST(CompressTest, Fletcher16KnownAnswers) {
  EXPECT_EQ(HeaderChecksum(ToBytes("abcde")), 0xC8F0);
  EXPECT_EQ(HeaderChecksum(ToBytes("abcdef")), 0x2057);
  EXPECT_EQ(HeaderChecksum(ToBytes("abcdefgh")), 0x0627);
}

// The sums must not overflow however long the input and however large its
// bytes: all-0xFE and all-0xFF are the worst cases for the accumulators.
TEST(CompressTest, Fletcher16MatchesPerByteReference) {
  for (size_t n : {5801u, 5802u, 5803u, 5804u, 11603u, 11604u, 11605u, 40000u, 65535u, 70000u}) {
    for (const Bytes& input : {Bytes(n, 0xfe), Bytes(n, 0xff), MakeRandom(n, n)}) {
      EXPECT_EQ(HeaderChecksum(input), PerByteFletcher16(input)) << "size " << n;
    }
  }
}

}  // namespace
}  // namespace comma::util
