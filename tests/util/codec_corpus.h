// Seeded inputs for the codec's pinned-output and differential tests.
//
// Input `i` is a pure function of `i`: four shapes (random bytes, text
// phrases at random offsets, byte runs, period-3 patterns) over lengths
// from 0 to 70 000, with the lengths that sit on the encoder's and the
// checksum's boundaries (the 4 KiB window, Fletcher-16's 5 802-byte block,
// the u16 frame length) visited for every shape first.
#ifndef COMMA_TESTS_UTIL_CODEC_CORPUS_H_
#define COMMA_TESTS_UTIL_CODEC_CORPUS_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "src/sim/random.h"
#include "src/util/bytes.h"

namespace comma::util {

inline constexpr size_t kCodecCorpusSize = 2400;

inline constexpr size_t kCodecEdgeLengths[] = {0,    1,    2,    3,    4,    5,     8,
                                               255,  256,  4095, 4096, 4097, 5801,  5802,
                                               5803, 5804, 11605, 65535, 70000};

inline constexpr size_t kCodecShapes = 4;

inline size_t CodecCorpusLength(size_t index, sim::Random& rng) {
  if (index < std::size(kCodecEdgeLengths) * kCodecShapes) {
    return kCodecEdgeLengths[index / kCodecShapes];
  }
  const uint64_t bucket = rng.NextBelow(20);
  if (bucket < 12) {
    return rng.NextBelow(2048);
  }
  return rng.NextBelow(bucket < 19 ? 16384 : 70001);
}

inline Bytes CodecCorpusInput(size_t index) {
  static constexpr std::string_view kPhrase =
      "Wireless networks are characterized by the generally low quality of service that they "
      "provide. In the face of user mobility between heterogeneous networks, distributed "
      "applications designed for wired networks have difficulty operating. ";
  sim::Random rng(sim::DeriveStreamSeed(0xC0DEC, index));
  const size_t n = CodecCorpusLength(index, rng);
  Bytes out;
  out.reserve(n + kPhrase.size());
  switch (index % kCodecShapes) {
    case 0:  // Incompressible: the stored fallback.
      while (out.size() < n) {
        out.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      break;
    case 1:  // Phrases cut at random offsets, with a stray byte now and then.
      while (out.size() < n) {
        const size_t at = rng.NextBelow(kPhrase.size());
        const size_t len = 1 + rng.NextBelow(std::min<uint64_t>(kPhrase.size() - at, 200));
        out.insert(out.end(), AsBytePtr(kPhrase.data() + at), AsBytePtr(kPhrase.data() + at + len));
        if (rng.NextBelow(8) == 0) {
          out.push_back(static_cast<uint8_t>(rng.NextU64()));
        }
      }
      break;
    case 2:  // Runs, long and short, of edge and random values.
      while (out.size() < n) {
        const uint64_t pick = rng.NextBelow(4);
        const uint8_t value = pick == 0 ? 0x00 : pick == 1 ? 0xff : static_cast<uint8_t>(rng.NextU64());
        const size_t len = 1 + rng.NextBelow(rng.NextBelow(2) == 0 ? 8 : 600);
        out.insert(out.end(), len, value);
      }
      break;
    default: {  // Period 3 (overlapping matches), switching pattern now and then.
      uint8_t pattern[3] = {};
      size_t left = 0;
      while (out.size() < n) {
        if (left == 0) {
          for (uint8_t& b : pattern) {
            b = static_cast<uint8_t>(rng.NextU64());
          }
          left = 1 + rng.NextBelow(3000);
        }
        out.push_back(pattern[out.size() % 3]);
        --left;
      }
      break;
    }
  }
  out.resize(n);
  return out;
}

}  // namespace comma::util

#endif  // COMMA_TESTS_UTIL_CODEC_CORPUS_H_
