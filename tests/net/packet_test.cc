#include "src/net/packet.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/net/checksum.h"
#include "src/sim/random.h"

namespace comma::net {
namespace {

const Ipv4Address kSrc(10, 0, 0, 99);
const Ipv4Address kDst(11, 11, 10, 10);

PacketPtr MakeDataSegment(size_t payload_len = 100) {
  TcpHeader h;
  h.src_port = 7;
  h.dst_port = 1169;
  h.seq = 1000;
  h.ack = 500;
  h.flags = kTcpAck | kTcpPsh;
  h.window = 8192;
  return Packet::MakeTcp(kSrc, kDst, h, util::Bytes(payload_len, 0x5a));
}

TEST(PacketTest, TcpSizeIncludesAllHeaders) {
  auto p = MakeDataSegment(100);
  EXPECT_EQ(p->SizeBytes(), kIpv4HeaderSize + kTcpHeaderSize + 100);
  EXPECT_EQ(p->Serialize().size(), p->SizeBytes());
}

TEST(PacketTest, UdpSizeIncludesAllHeaders) {
  auto p = Packet::MakeUdp(kSrc, kDst, 53, 1234, util::Bytes(64, 0));
  EXPECT_EQ(p->SizeBytes(), kIpv4HeaderSize + kUdpHeaderSize + 64);
  EXPECT_TRUE(p->has_udp());
  EXPECT_FALSE(p->has_tcp());
}

TEST(PacketTest, FreshPacketsVerify) {
  EXPECT_TRUE(MakeDataSegment()->VerifyChecksums());
  EXPECT_TRUE(Packet::MakeUdp(kSrc, kDst, 1, 2, {1, 2, 3})->VerifyChecksums());
}

TEST(PacketTest, PayloadMutationInvalidatesTcpChecksum) {
  auto p = MakeDataSegment();
  p->payload()[0] ^= 0xff;
  EXPECT_FALSE(p->VerifyChecksums());
  p->UpdateChecksums();
  EXPECT_TRUE(p->VerifyChecksums());
}

TEST(PacketTest, HeaderMutationInvalidatesChecksums) {
  auto p = MakeDataSegment();
  p->tcp().window = 0;  // The wsize filter does exactly this (§8.2.2).
  EXPECT_FALSE(p->VerifyChecksums());
  p->UpdateChecksums();
  EXPECT_TRUE(p->VerifyChecksums());
}

TEST(PacketTest, TtlMutationInvalidatesIpChecksumOnly) {
  auto p = MakeDataSegment();
  --p->ip().ttl;
  EXPECT_FALSE(p->VerifyChecksums());
  p->UpdateChecksums();
  EXPECT_TRUE(p->VerifyChecksums());
}

TEST(PacketTest, SerializeHasCorrectIpFields) {
  auto p = MakeDataSegment(10);
  util::Bytes wire = p->Serialize();
  EXPECT_EQ(wire[0], 0x45);  // Version 4, IHL 5.
  EXPECT_EQ(wire[9], 6);     // Protocol TCP.
  // Total length big-endian at offset 2.
  EXPECT_EQ(static_cast<size_t>(wire[2]) << 8 | wire[3], p->SizeBytes());
  // Source address at offset 12.
  EXPECT_EQ(wire[12], 10);
  EXPECT_EQ(wire[15], 99);
}

TEST(PacketTest, SerializedTcpHeaderLayout) {
  auto p = MakeDataSegment(0);
  util::Bytes wire = p->Serialize();
  const size_t t = kIpv4HeaderSize;
  EXPECT_EQ(static_cast<uint16_t>(wire[t] << 8 | wire[t + 1]), 7);        // src port
  EXPECT_EQ(static_cast<uint16_t>(wire[t + 2] << 8 | wire[t + 3]), 1169);  // dst port
  const uint32_t seq = static_cast<uint32_t>(wire[t + 4]) << 24 |
                       static_cast<uint32_t>(wire[t + 5]) << 16 |
                       static_cast<uint32_t>(wire[t + 6]) << 8 | wire[t + 7];
  EXPECT_EQ(seq, 1000u);
  EXPECT_EQ(wire[t + 13], kTcpAck | kTcpPsh);
}

TEST(PacketTest, CloneIsDeepAndPreservesUid) {
  auto p = MakeDataSegment();
  auto c = p->Clone();
  EXPECT_EQ(c->uid(), p->uid());
  c->payload()[0] = 0;
  EXPECT_NE(c->payload()[0], p->payload()[0]);
  EXPECT_EQ(c->tcp().seq, p->tcp().seq);
}

TEST(PacketTest, DistinctPacketsGetDistinctUids) {
  auto a = MakeDataSegment();
  auto b = MakeDataSegment();
  EXPECT_NE(a->uid(), b->uid());
}

TEST(PacketTest, EncapsulationWrapsAndUnwraps) {
  auto inner = MakeDataSegment(50);
  const uint64_t inner_uid = inner->uid();
  const size_t inner_size = inner->SizeBytes();
  auto outer = Packet::Encapsulate(std::move(inner), Ipv4Address(1, 1, 1, 1),
                                   Ipv4Address(2, 2, 2, 2));
  EXPECT_TRUE(outer->has_inner());
  EXPECT_EQ(outer->ip().protocol, static_cast<uint8_t>(IpProtocol::kIpInIp));
  EXPECT_EQ(outer->SizeBytes(), kIpv4HeaderSize + inner_size);
  EXPECT_TRUE(outer->VerifyChecksums());

  auto unwrapped = outer->Decapsulate();
  ASSERT_TRUE(unwrapped != nullptr);
  EXPECT_EQ(unwrapped->uid(), inner_uid);
  EXPECT_FALSE(outer->has_inner());
  EXPECT_TRUE(unwrapped->VerifyChecksums());
}

TEST(PacketTest, SegmentLengthCountsSynAndFin) {
  auto p = MakeDataSegment(10);
  EXPECT_EQ(TcpSegmentLength(*p), 10u);
  p->tcp().flags |= kTcpSyn;
  EXPECT_EQ(TcpSegmentLength(*p), 11u);
  p->tcp().flags |= kTcpFin;
  EXPECT_EQ(TcpSegmentLength(*p), 12u);
}

TEST(PacketTest, DescribeMentionsEndpoints) {
  auto p = MakeDataSegment();
  std::string d = p->Describe();
  EXPECT_NE(d.find("10.0.0.99:7"), std::string::npos);
  EXPECT_NE(d.find("11.11.10.10:1169"), std::string::npos);
  EXPECT_NE(d.find("ACK"), std::string::npos);
}

TEST(PacketTest, FlagsToString) {
  EXPECT_EQ(TcpFlagsToString(kTcpSyn | kTcpAck), "[SYN,ACK]");
  EXPECT_EQ(TcpFlagsToString(0), "[]");
  EXPECT_EQ(TcpFlagsToString(kTcpRst), "[RST]");
}

TEST(PacketTest, ChecksumsDifferAcrossContent) {
  auto a = MakeDataSegment(100);
  auto b = MakeDataSegment(100);
  b->payload()[50] = 0x00;
  b->UpdateChecksums();
  EXPECT_NE(a->tcp().checksum, b->tcp().checksum);
}

// --- Checksum equivalence ---
//
// Checksums are summed in place from header fields and payload. The
// reference below is the wire image: Serialize() the packet, zero the
// checksum field, and run InternetChecksum over it (with the pseudo-header
// in front for TCP/UDP). Random packets pin the field order of the in-place
// sum to the serializer's.

// One's-complement checksum summed a byte pair at a time, the odd byte
// zero-padded: RFC 1071 written out with no word loads.
uint16_t BytePairChecksum(const uint8_t* data, size_t len) {
  uint64_t sum = 0;
  for (size_t i = 0; i < len; i += 2) {
    sum += static_cast<uint64_t>(data[i]) << 8 | (i + 1 < len ? data[i + 1] : 0u);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

// InternetChecksum over wire[begin, end) with the checksum field at
// `field` zeroed, after `prefix`.
uint16_t WireChecksum(util::Bytes prefix, const util::Bytes& wire, size_t begin, size_t end,
                      size_t field) {
  util::Bytes buf = std::move(prefix);
  const size_t at = buf.size() + field - begin;
  buf.insert(buf.end(), wire.begin() + static_cast<std::ptrdiff_t>(begin),
             wire.begin() + static_cast<std::ptrdiff_t>(end));
  buf[at] = 0;
  buf[at + 1] = 0;
  return InternetChecksum(buf.data(), buf.size());
}

// Checks every stored checksum of `p` (and of its inner packets) against the
// serialized reference.
void ExpectChecksumsMatchWire(const Packet& p) {
  const util::Bytes wire = p.Serialize();
  ASSERT_EQ(wire.size(), p.SizeBytes());
  EXPECT_EQ(p.ip().checksum, WireChecksum({}, wire, 0, kIpv4HeaderSize, 10));
  if (p.has_tcp() || p.has_udp()) {
    const size_t seg_len = wire.size() - kIpv4HeaderSize;
    util::Bytes pseudo;
    util::ByteWriter w(&pseudo);
    w.WriteU32(p.ip().src.value());
    w.WriteU32(p.ip().dst.value());
    w.WriteU8(0);
    w.WriteU8(p.ip().protocol);
    w.WriteU16(static_cast<uint16_t>(seg_len));
    const size_t field = kIpv4HeaderSize + (p.has_tcp() ? 16 : 6);
    const uint16_t stored = p.has_tcp() ? p.tcp().checksum : p.udp().checksum;
    EXPECT_EQ(stored, WireChecksum(pseudo, wire, kIpv4HeaderSize, wire.size(), field));
    EXPECT_EQ(stored, static_cast<uint16_t>(wire[field] << 8 | wire[field + 1]));
  }
  if (p.has_inner()) {
    ExpectChecksumsMatchWire(*p.inner());
  }
}

Ipv4Address RandomAddress(sim::Random& rng) {
  return Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
}

util::Bytes RandomPayload(sim::Random& rng) {
  util::Bytes b(rng.NextBelow(1501));
  for (auto& byte : b) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  return b;
}

// Randomizes the IP fields the constructors leave at their defaults.
void RandomizeIp(sim::Random& rng, Packet& p) {
  p.ip().tos = static_cast<uint8_t>(rng.NextU64());
  p.ip().id = static_cast<uint16_t>(rng.NextU64());
  p.ip().ttl = static_cast<uint8_t>(rng.NextU64());
  p.UpdateChecksums();
}

// A random packet of one of four shapes: TCP, UDP, raw, or IP-in-IP around
// a TCP or UDP packet.
PacketPtr RandomPacket(sim::Random& rng) {
  PacketPtr p;
  switch (rng.NextBelow(4)) {
    case 0: {
      TcpHeader h;
      h.src_port = static_cast<uint16_t>(rng.NextU64());
      h.dst_port = static_cast<uint16_t>(rng.NextU64());
      h.seq = static_cast<uint32_t>(rng.NextU64());
      h.ack = static_cast<uint32_t>(rng.NextU64());
      h.flags = static_cast<uint8_t>(rng.NextU64() & 0x3f);
      h.window = static_cast<uint16_t>(rng.NextU64());
      h.urgent = static_cast<uint16_t>(rng.NextU64());
      p = Packet::MakeTcp(RandomAddress(rng), RandomAddress(rng), h, RandomPayload(rng));
      break;
    }
    case 1:
      p = Packet::MakeUdp(RandomAddress(rng), RandomAddress(rng),
                          static_cast<uint16_t>(rng.NextU64()),
                          static_cast<uint16_t>(rng.NextU64()), RandomPayload(rng));
      break;
    case 2:
      p = Packet::MakeRaw(RandomAddress(rng), RandomAddress(rng), IpProtocol::kIcmp,
                          RandomPayload(rng));
      break;
    default: {
      PacketPtr inner = rng.NextBelow(2) == 0
                            ? Packet::MakeUdp(RandomAddress(rng), RandomAddress(rng), 53,
                                              static_cast<uint16_t>(rng.NextU64()),
                                              RandomPayload(rng))
                            : Packet::MakeTcp(RandomAddress(rng), RandomAddress(rng),
                                              TcpHeader{}, RandomPayload(rng));
      RandomizeIp(rng, *inner);
      p = Packet::Encapsulate(std::move(inner), RandomAddress(rng), RandomAddress(rng));
      break;
    }
  }
  RandomizeIp(rng, *p);
  return p;
}

// Flips one random bit of a 16- or 32-bit field. A one-bit change moves
// the one's-complement sum by a power of two, which the checksum always
// catches (unlike, say, 0x0000 -> 0xffff).
template <typename T>
void FlipBit(sim::Random& rng, T& field) {
  field = static_cast<T>(field ^ (T{1} << rng.NextBelow(sizeof(T) * 8)));
}

// The header fields a filter or router may rewrite, each as a one-bit flip.
std::vector<std::function<void(sim::Random&, Packet&)>> HeaderMutations(const Packet& p) {
  std::vector<std::function<void(sim::Random&, Packet&)>> m = {
      [](sim::Random& r, Packet& q) { FlipBit(r, q.ip().tos); },
      [](sim::Random& r, Packet& q) { FlipBit(r, q.ip().id); },
      [](sim::Random& r, Packet& q) { FlipBit(r, q.ip().ttl); },
      [](sim::Random& r, Packet& q) {
        uint32_t v = q.ip().src.value();
        FlipBit(r, v);
        q.ip().src = Ipv4Address(v);
      },
      [](sim::Random& r, Packet& q) {
        uint32_t v = q.ip().dst.value();
        FlipBit(r, v);
        q.ip().dst = Ipv4Address(v);
      },
  };
  if (p.has_tcp()) {
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.tcp().src_port); });
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.tcp().dst_port); });
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.tcp().seq); });
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.tcp().ack); });
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.tcp().flags); });
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.tcp().window); });
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.tcp().urgent); });
  }
  if (p.has_udp()) {
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.udp().src_port); });
    m.push_back([](sim::Random& r, Packet& q) { FlipBit(r, q.udp().dst_port); });
  }
  return m;
}

TEST(PacketChecksumTest, StoredChecksumsMatchTheSerializedWireImage) {
  sim::Random rng(20261019);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE(i);
    PacketPtr p = RandomPacket(rng);
    ExpectChecksumsMatchWire(*p);
    EXPECT_TRUE(p->VerifyChecksums());
  }
  // The payload-length edges, each pinned rather than left to the draw.
  for (size_t len : {0u, 1u, 2u, 3u, 5u, 1459u, 1460u, 1499u, 1500u}) {
    SCOPED_TRACE(len);
    ExpectChecksumsMatchWire(*MakeDataSegment(len));
    ExpectChecksumsMatchWire(*Packet::MakeUdp(kSrc, kDst, 53, 1234, util::Bytes(len, 0xa5)));
  }
}

TEST(PacketChecksumTest, VerifyFailsAfterAnyPayloadByteFlip) {
  sim::Random rng(7);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE(i);
    PacketPtr p = RandomPacket(rng);
    // The IP checksum covers only the header, so a raw packet's payload is
    // unprotected; TCP and UDP payloads (tunnelled or not) are covered.
    Packet* carrier = p->has_inner() ? p->inner() : p.get();
    if (carrier->payload().empty() || !(carrier->has_tcp() || carrier->has_udp())) {
      continue;
    }
    const size_t at = rng.NextBelow(carrier->payload().size());
    carrier->payload()[at] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    EXPECT_FALSE(p->VerifyChecksums())
        << "flipped byte " << at << " of " << carrier->payload().size();
  }
}

TEST(PacketChecksumTest, VerifyFailsAfterAnyHeaderFieldChange) {
  sim::Random rng(11);
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE(i);
    PacketPtr p = RandomPacket(rng);
    const auto mutations = HeaderMutations(*p);
    for (size_t m = 0; m < mutations.size(); ++m) {
      PacketPtr q = p->Clone();
      mutations[m](rng, *q);
      EXPECT_FALSE(q->VerifyChecksums()) << "mutation " << m;
      q->UpdateChecksums();
      EXPECT_TRUE(q->VerifyChecksums()) << "mutation " << m;
      ExpectChecksumsMatchWire(*q);
    }
  }
}

TEST(PacketChecksumTest, AccumulatorMatchesBytePairSumFromAnyAlignment) {
  sim::Random rng(3);
  std::vector<uint8_t> buf(80);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (size_t start : {0u, 1u, 2u, 3u}) {
    for (size_t len = 0; len + start <= buf.size(); ++len) {
      ChecksumAccumulator acc;
      acc.Add(buf.data() + start, len);
      EXPECT_EQ(acc.Finish(), BytePairChecksum(buf.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
  // Regions after header fields keep the running sum, as packet checksums use them.
  for (size_t len = 0; len < 8; ++len) {
    ChecksumAccumulator acc;
    acc.AddU16(0xfffe);
    acc.AddU32(0x80000001);
    acc.Add(buf.data() + 1, len);
    std::vector<uint8_t> ref = {0xff, 0xfe, 0x80, 0x00, 0x00, 0x01};
    ref.insert(ref.end(), buf.begin() + 1, buf.begin() + 1 + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(acc.Finish(), BytePairChecksum(ref.data(), ref.size())) << "len " << len;
  }
}

}  // namespace
}  // namespace comma::net
