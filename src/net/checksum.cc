#include "src/net/checksum.h"

#include <bit>

#include "src/util/bytes.h"

namespace comma::net {

void ChecksumAccumulator::Add(const uint8_t* data, size_t len) {
  // RFC 1071 §2(B): the one's-complement sum does not depend on byte order,
  // so sum host-order 32-bit words, fold to 16 bits, and swap once.
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    sum += util::LoadHost32(data + i);
  }
  if (i < len) {
    // The last 1-3 bytes, zero-padded as the odd-length rule requires.
    uint8_t tail[4] = {0, 0, 0, 0};
    for (size_t j = 0; i + j < len; ++j) {
      tail[j] = data[i + j];
    }
    sum += util::LoadHost32(tail);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  if constexpr (std::endian::native == std::endian::little) {
    sum = (sum >> 8) | ((sum & 0xff) << 8);
  }
  sum_ += sum;
}

void ChecksumAccumulator::AddU16(uint16_t v) { sum_ += v; }

void ChecksumAccumulator::AddU32(uint32_t v) {
  AddU16(static_cast<uint16_t>(v >> 16));
  AddU16(static_cast<uint16_t>(v));
}

uint16_t ChecksumAccumulator::Finish() const {
  uint64_t s = sum_;
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  return static_cast<uint16_t>(~s);
}

uint16_t InternetChecksum(const uint8_t* data, size_t len) {
  ChecksumAccumulator acc;
  acc.Add(data, len);
  return acc.Finish();
}

}  // namespace comma::net
