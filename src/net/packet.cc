#include "src/net/packet.h"

#include "src/net/checksum.h"
#include "src/sim/simulator.h"
#include "src/util/strings.h"

namespace comma::net {

Packet::Packet() : uid_(sim::NextUid()) {}

PacketPtr Packet::MakeTcp(Ipv4Address src, Ipv4Address dst, const TcpHeader& tcp,
                          util::Bytes payload) {
  auto p = std::make_unique<Packet>();
  p->ip_.protocol = static_cast<uint8_t>(IpProtocol::kTcp);
  p->ip_.src = src;
  p->ip_.dst = dst;
  p->tcp_ = tcp;
  p->payload_ = std::move(payload);
  p->UpdateChecksums();
  return p;
}

PacketPtr Packet::MakeUdp(Ipv4Address src, Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                          util::Bytes payload) {
  auto p = std::make_unique<Packet>();
  p->ip_.protocol = static_cast<uint8_t>(IpProtocol::kUdp);
  p->ip_.src = src;
  p->ip_.dst = dst;
  p->udp_.src_port = src_port;
  p->udp_.dst_port = dst_port;
  p->payload_ = std::move(payload);
  p->UpdateChecksums();
  return p;
}

PacketPtr Packet::MakeRaw(Ipv4Address src, Ipv4Address dst, IpProtocol protocol,
                          util::Bytes payload) {
  auto p = std::make_unique<Packet>();
  p->ip_.protocol = static_cast<uint8_t>(protocol);
  p->ip_.src = src;
  p->ip_.dst = dst;
  p->payload_ = std::move(payload);
  p->UpdateChecksums();
  return p;
}

PacketPtr Packet::Encapsulate(PacketPtr inner, Ipv4Address tunnel_src, Ipv4Address tunnel_dst,
                              IpProtocol protocol) {
  auto p = std::make_unique<Packet>();
  p->ip_.protocol = static_cast<uint8_t>(protocol);
  p->ip_.src = tunnel_src;
  p->ip_.dst = tunnel_dst;
  p->inner_ = std::move(inner);
  p->UpdateChecksums();
  return p;
}

PacketPtr Packet::Decapsulate() { return std::move(inner_); }

size_t Packet::SizeBytes() const {
  size_t size = kIpv4HeaderSize;
  if (has_tcp()) {
    size += kTcpHeaderSize;
  } else if (has_udp()) {
    size += kUdpHeaderSize;
  }
  size += payload_.size();
  if (inner_) {
    size += inner_->SizeBytes();
  }
  return size;
}

void SerializeTcpHeader(const TcpHeader& h, size_t /*segment_len*/, util::ByteWriter& w) {
  w.WriteU16(h.src_port);
  w.WriteU16(h.dst_port);
  w.WriteU32(h.seq);
  w.WriteU32(h.ack);
  w.WriteU8(5 << 4);  // Data offset 5 words, no options.
  w.WriteU8(h.flags);
  w.WriteU16(h.window);
  w.WriteU16(h.checksum);
  w.WriteU16(h.urgent);
}

namespace {

void SerializeUdpHeader(const UdpHeader& h, size_t datagram_len, util::ByteWriter& w) {
  w.WriteU16(h.src_port);
  w.WriteU16(h.dst_port);
  w.WriteU16(static_cast<uint16_t>(datagram_len));
  w.WriteU16(h.checksum);
}

void SerializeIpHeader(const Ipv4Header& h, size_t total_len, util::ByteWriter& w) {
  w.WriteU8(4 << 4 | 5);  // Version 4, IHL 5.
  w.WriteU8(h.tos);
  w.WriteU16(static_cast<uint16_t>(total_len));
  w.WriteU16(h.id);
  w.WriteU16(0x4000);  // Flags: DF set, no fragmentation modelled.
  w.WriteU8(h.ttl);
  w.WriteU8(h.protocol);
  w.WriteU16(h.checksum);
  w.WriteU32(h.src.value());
  w.WriteU32(h.dst.value());
}

// Sums the header words SerializeIpHeader writes, checksum field as zero.
uint16_t IpHeaderChecksum(const Ipv4Header& h, size_t total_len) {
  ChecksumAccumulator acc;
  acc.AddU16(static_cast<uint16_t>((4 << 4 | 5) << 8 | h.tos));
  acc.AddU16(static_cast<uint16_t>(total_len));
  acc.AddU16(h.id);
  acc.AddU16(0x4000);
  acc.AddU16(static_cast<uint16_t>(h.ttl << 8 | h.protocol));
  acc.AddU32(h.src.value());
  acc.AddU32(h.dst.value());
  return acc.Finish();
}

}  // namespace

util::Bytes Packet::Serialize() const {
  util::Bytes out;
  util::ByteWriter w(&out);
  SerializeIpHeader(ip_, SizeBytes(), w);
  if (has_tcp()) {
    SerializeTcpHeader(tcp_, payload_.size(), w);
  } else if (has_udp()) {
    SerializeUdpHeader(udp_, kUdpHeaderSize + payload_.size(), w);
  }
  if (inner_) {
    util::Bytes inner_bytes = inner_->Serialize();
    w.WriteBytes(inner_bytes);
  }
  w.WriteBytes(payload_);
  return out;
}

uint16_t Packet::TransportChecksum() const {
  // TCP/UDP pseudo-header (src, dst, zero, protocol, transport length), the
  // header words SerializeTcpHeader/SerializeUdpHeader write with the
  // checksum field as zero, then the payload where it lies.
  ChecksumAccumulator acc;
  acc.AddU32(ip_.src.value());
  acc.AddU32(ip_.dst.value());
  acc.AddU16(ip_.protocol);
  if (has_tcp()) {
    acc.AddU16(static_cast<uint16_t>(kTcpHeaderSize + payload_.size()));
    acc.AddU16(tcp_.src_port);
    acc.AddU16(tcp_.dst_port);
    acc.AddU32(tcp_.seq);
    acc.AddU32(tcp_.ack);
    acc.AddU16(static_cast<uint16_t>(5 << 12 | tcp_.flags));  // Data offset 5 words.
    acc.AddU16(tcp_.window);
    acc.AddU16(tcp_.urgent);
  } else {
    const auto datagram_len = static_cast<uint16_t>(kUdpHeaderSize + payload_.size());
    acc.AddU16(datagram_len);
    acc.AddU16(udp_.src_port);
    acc.AddU16(udp_.dst_port);
    acc.AddU16(datagram_len);
  }
  acc.Add(payload_.data(), payload_.size());
  return acc.Finish();
}

void Packet::UpdateIpChecksum() { ip_.checksum = IpHeaderChecksum(ip_, SizeBytes()); }

void Packet::UpdateChecksums() {
  if (inner_) {
    inner_->UpdateChecksums();
  }
  if (has_tcp()) {
    tcp_.checksum = TransportChecksum();
  } else if (has_udp()) {
    udp_.checksum = TransportChecksum();
  }
  ip_.checksum = IpHeaderChecksum(ip_, SizeBytes());
}

bool Packet::VerifyChecksums() const {
  if (ip_.checksum != IpHeaderChecksum(ip_, SizeBytes())) {
    return false;
  }
  if (has_tcp() && tcp_.checksum != TransportChecksum()) {
    return false;
  }
  if (has_udp() && udp_.checksum != TransportChecksum()) {
    return false;
  }
  if (inner_ && !inner_->VerifyChecksums()) {
    return false;
  }
  return true;
}

PacketPtr Packet::Clone() const {
  auto p = std::make_unique<Packet>();
  p->uid_ = uid_;
  p->ip_ = ip_;
  p->tcp_ = tcp_;
  p->udp_ = udp_;
  p->payload_ = payload_;
  if (inner_) {
    p->inner_ = inner_->Clone();
  }
  return p;
}

std::string TcpFlagsToString(uint8_t flags) {
  std::vector<std::string> names;
  if (flags & kTcpSyn) {
    names.push_back("SYN");
  }
  if (flags & kTcpFin) {
    names.push_back("FIN");
  }
  if (flags & kTcpRst) {
    names.push_back("RST");
  }
  if (flags & kTcpPsh) {
    names.push_back("PSH");
  }
  if (flags & kTcpAck) {
    names.push_back("ACK");
  }
  if (flags & kTcpUrg) {
    names.push_back("URG");
  }
  return "[" + util::Join(names, ",") + "]";
}

std::string Packet::Describe() const {
  if (has_tcp()) {
    return util::Format("tcp %s:%u -> %s:%u seq=%u ack=%u len=%zu win=%u %s",
                        ip_.src.ToString().c_str(), tcp_.src_port, ip_.dst.ToString().c_str(),
                        tcp_.dst_port, tcp_.seq, tcp_.ack, payload_.size(), tcp_.window,
                        TcpFlagsToString(tcp_.flags).c_str());
  }
  if (has_udp()) {
    return util::Format("udp %s:%u -> %s:%u len=%zu", ip_.src.ToString().c_str(), udp_.src_port,
                        ip_.dst.ToString().c_str(), udp_.dst_port, payload_.size());
  }
  if (inner_) {
    return util::Format("ipip %s -> %s (%s)", ip_.src.ToString().c_str(),
                        ip_.dst.ToString().c_str(), inner_->Describe().c_str());
  }
  return util::Format("ip proto=%u %s -> %s len=%zu", ip_.protocol, ip_.src.ToString().c_str(),
                      ip_.dst.ToString().c_str(), payload_.size());
}

uint32_t TcpSegmentLength(const Packet& p) {
  uint32_t len = static_cast<uint32_t>(p.payload().size());
  if (p.tcp().flags & kTcpSyn) {
    ++len;
  }
  if (p.tcp().flags & kTcpFin) {
    ++len;
  }
  return len;
}

}  // namespace comma::net
