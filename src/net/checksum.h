// The Internet checksum (RFC 1071), used by the IP, TCP, and UDP headers.
//
// Packet checksums are summed in place: header fields go in through
// AddU16/AddU32 in wire order and the payload through Add on its own
// buffer, so no wire image is built just to be checksummed.
#ifndef COMMA_NET_CHECKSUM_H_
#define COMMA_NET_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace comma::net {

// Accumulates 16-bit one's-complement sums over possibly discontiguous
// regions (header fields, pseudo-header, payload).
class ChecksumAccumulator {
 public:
  // Adds a byte region, read as big-endian 16-bit words from any alignment.
  // The region must start at an even offset of the summed stream. An
  // odd-length region is padded with a zero byte, so callers must add
  // odd-length regions last or pad explicitly.
  void Add(const uint8_t* data, size_t len);
  // Adds one header field, as if its big-endian wire bytes were passed to Add.
  void AddU16(uint16_t v);
  void AddU32(uint32_t v);

  // Finalizes to the one's-complement checksum field value.
  uint16_t Finish() const;

 private:
  uint64_t sum_ = 0;
};

// One-shot checksum of a contiguous buffer.
uint16_t InternetChecksum(const uint8_t* data, size_t len);

}  // namespace comma::net

#endif  // COMMA_NET_CHECKSUM_H_
