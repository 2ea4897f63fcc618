// Byte-buffer reader/writer with network (big-endian) byte order.
//
// Used by the packet serializers and the EEM wire protocol. Reads are
// checked: running past the end puts the reader into a sticky failed state
// instead of invoking undefined behaviour.
#ifndef COMMA_UTIL_BYTES_H_
#define COMMA_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace comma::util {

using Bytes = std::vector<uint8_t>;

// --- Text <-> wire-byte bridging ---
// The only sanctioned reinterpret_casts in the tree: every other site goes
// through these so clang-tidy can flag strays.
inline const uint8_t* AsBytePtr(const char* p) {
  return reinterpret_cast<const uint8_t*>(p);  // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
}
inline const char* AsCharPtr(const uint8_t* p) {
  return reinterpret_cast<const char*>(p);  // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)
}
inline Bytes ToBytes(std::string_view s) {
  if (s.empty()) {
    return {};
  }
  return {AsBytePtr(s.data()), AsBytePtr(s.data()) + s.size()};
}
inline std::string ToString(const Bytes& b) {
  if (b.empty()) {
    return {};
  }
  return {AsCharPtr(b.data()), b.size()};
}
// Appends the payload bytes of `b` to a text accumulator (stream reassembly).
inline void AppendTo(std::string* out, const Bytes& b) {
  if (!b.empty()) {
    out->append(AsCharPtr(b.data()), b.size());
  }
}

// Loads four bytes at `p` (any alignment) as a host-order word. Only for
// byte-order-independent arithmetic such as the Internet checksum's
// word-at-a-time sum; wire fields go through ByteReader.
inline uint32_t LoadHost32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
// Eight-byte form, for word-at-a-time equality scans such as the LZ
// encoder's match extension.
inline uint64_t LoadHost64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

class ByteWriter {
 public:
  explicit ByteWriter(Bytes* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->push_back(v); }
  void WriteU16(uint16_t v) {
    out_->push_back(static_cast<uint8_t>(v >> 8));
    out_->push_back(static_cast<uint8_t>(v));
  }
  void WriteU32(uint32_t v) {
    WriteU16(static_cast<uint16_t>(v >> 16));
    WriteU16(static_cast<uint16_t>(v));
  }
  void WriteU64(uint64_t v) {
    WriteU32(static_cast<uint32_t>(v >> 32));
    WriteU32(static_cast<uint32_t>(v));
  }
  void WriteBytes(const uint8_t* data, size_t len) { out_->insert(out_->end(), data, data + len); }
  void WriteBytes(const Bytes& data) { WriteBytes(data.data(), data.size()); }
  // Length-prefixed (u16) string; strings longer than 64 KiB are truncated.
  void WriteString(const std::string& s);

  size_t size() const { return out_->size(); }

 private:
  Bytes* out_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const Bytes& data) : ByteReader(data.data(), data.size()) {}

  uint8_t ReadU8();
  uint16_t ReadU16();
  uint32_t ReadU32();
  uint64_t ReadU64();
  Bytes ReadBytes(size_t len);
  std::string ReadString();

  // True once any read has run past the end of the buffer.
  bool failed() const { return failed_; }
  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }

 private:
  bool Need(size_t n);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// Renders up to `max` bytes as hex for diagnostics.
std::string HexDump(const Bytes& data, size_t max = 64);

}  // namespace comma::util

#endif  // COMMA_UTIL_BYTES_H_
