// Packets: IPv4 with TCP, UDP, or an encapsulated inner packet (IP-in-IP,
// RFC 2003, as used by Mobile IP tunnels).
//
// Packets carry structured headers for convenient filter access, but
// Serialize() produces real wire bytes and the checksum fields hold real
// Internet checksums over those bytes. The checksums are summed in place,
// from the header fields in wire order and the payload buffer, without
// building the wire image; tests/net/packet_test.cc holds them equal to the
// sums over Serialize()'s bytes. The thesis's `tcp` filter exists to
// recompute checksums after other filters mutate a packet; that contract is
// honoured here: mutating a header or payload leaves checksums stale until
// UpdateChecksums() runs.
#ifndef COMMA_NET_PACKET_H_
#define COMMA_NET_PACKET_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/net/address.h"
#include "src/util/bytes.h"

namespace comma::net {

enum class IpProtocol : uint8_t {
  kIcmp = 1,
  kIpInIp = 4,  // Encapsulated IPv4 (Mobile IP tunnels).
  kTcp = 6,
  kUdp = 17,
  kArq = 200,   // Link-layer ARQ framing (AIRMAIL baseline); carries an
                // encapsulated packet plus an ARQ header in the payload.
};

inline constexpr size_t kIpv4HeaderSize = 20;
inline constexpr size_t kTcpHeaderSize = 20;
inline constexpr size_t kUdpHeaderSize = 8;

struct Ipv4Header {
  uint8_t tos = 0;
  uint16_t id = 0;
  uint8_t ttl = 64;
  uint8_t protocol = 0;
  uint16_t checksum = 0;
  Ipv4Address src;
  Ipv4Address dst;
};

// TCP flag bits (RFC 793 order within the flags octet).
inline constexpr uint8_t kTcpFin = 0x01;
inline constexpr uint8_t kTcpSyn = 0x02;
inline constexpr uint8_t kTcpRst = 0x04;
inline constexpr uint8_t kTcpPsh = 0x08;
inline constexpr uint8_t kTcpAck = 0x10;
inline constexpr uint8_t kTcpUrg = 0x20;

struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t flags = 0;
  uint16_t window = 0;
  uint16_t checksum = 0;
  uint16_t urgent = 0;
};

struct UdpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t checksum = 0;
};

class Packet;
using PacketPtr = std::unique_ptr<Packet>;

class Packet {
 public:
  Packet();
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  // --- Constructors for the three packet shapes ---
  static PacketPtr MakeTcp(Ipv4Address src, Ipv4Address dst, const TcpHeader& tcp,
                           util::Bytes payload);
  static PacketPtr MakeUdp(Ipv4Address src, Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                           util::Bytes payload);
  static PacketPtr MakeRaw(Ipv4Address src, Ipv4Address dst, IpProtocol protocol,
                           util::Bytes payload);
  // Wraps `inner` in an outer IP header (protocol 4 by default; kArq framing
  // passes its own protocol). Takes ownership.
  static PacketPtr Encapsulate(PacketPtr inner, Ipv4Address tunnel_src, Ipv4Address tunnel_dst,
                               IpProtocol protocol = IpProtocol::kIpInIp);

  // --- Header access ---
  Ipv4Header& ip() { return ip_; }
  const Ipv4Header& ip() const { return ip_; }

  bool has_tcp() const { return ip_.protocol == static_cast<uint8_t>(IpProtocol::kTcp); }
  TcpHeader& tcp() { return tcp_; }
  const TcpHeader& tcp() const { return tcp_; }

  bool has_udp() const { return ip_.protocol == static_cast<uint8_t>(IpProtocol::kUdp); }
  UdpHeader& udp() { return udp_; }
  const UdpHeader& udp() const { return udp_; }

  bool has_inner() const { return inner_ != nullptr; }
  Packet* inner() { return inner_.get(); }
  const Packet* inner() const { return inner_.get(); }
  // Removes and returns the encapsulated packet (tunnel exit).
  PacketPtr Decapsulate();

  util::Bytes& payload() { return payload_; }
  const util::Bytes& payload() const { return payload_; }
  void set_payload(util::Bytes payload) { payload_ = std::move(payload); }

  // --- Wire representation ---
  // Total on-the-wire size including all headers and any inner packet.
  size_t SizeBytes() const;
  // Serializes to wire bytes using the checksum values currently stored.
  util::Bytes Serialize() const;
  // Recomputes IP and transport checksums (recursively for inner packets).
  void UpdateChecksums();
  // Recomputes only the IP header checksum — what a router does when it
  // rewrites the TTL. Transport checksums stay end-to-end.
  void UpdateIpChecksum();
  // True when all stored checksums match the current contents.
  bool VerifyChecksums() const;

  PacketPtr Clone() const;

  // Id assigned at construction (sim::NextUid: the creating region's
  // counter, so the same at every worker count), preserved by Clone(). Unique
  // among the packets of one simulation run; TTSF keys pending transforms
  // by it.
  uint64_t uid() const { return uid_; }

  // One-line human-readable description, e.g.
  // "tcp 10.0.0.1:80 -> 11.11.10.10:1169 seq=100 ack=5 len=512 [ACK]".
  std::string Describe() const;

 private:
  uint16_t TransportChecksum() const;

  uint64_t uid_;
  Ipv4Header ip_;
  TcpHeader tcp_;
  UdpHeader udp_;
  util::Bytes payload_;
  PacketPtr inner_;
};

// Sequence space consumed by a TCP segment: payload length plus one for each
// of SYN and FIN.
uint32_t TcpSegmentLength(const Packet& p);

// Serializes just the TCP header into `w` (checksum field as stored).
void SerializeTcpHeader(const TcpHeader& h, size_t segment_len, util::ByteWriter& w);

// Renders TCP flags as "[SYN,ACK]".
std::string TcpFlagsToString(uint8_t flags);

}  // namespace comma::net

#endif  // COMMA_NET_PACKET_H_
