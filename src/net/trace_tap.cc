#include "src/net/trace_tap.h"

#include "src/obs/counter.h"
#include "src/util/strings.h"

namespace comma::net {

std::string CaptureRecord::Summary() const {
  std::string line;
  if (!raw_summary.empty()) {
    line = raw_summary;
  } else if (protocol == static_cast<uint8_t>(IpProtocol::kTcp)) {
    line = util::Format("tcp %s:%u -> %s:%u seq=%u ack=%u len=%zu win=%u %s",
                        src.ToString().c_str(), src_port, dst.ToString().c_str(), dst_port, seq,
                        ack, payload_bytes, window, TcpFlagsToString(tcp_flags).c_str());
  } else {
    line = util::Format("udp %s:%u -> %s:%u len=%zu", src.ToString().c_str(), src_port,
                        dst.ToString().c_str(), dst_port, payload_bytes);
  }
  return util::Format("%s %s %s", sim::FormatTime(when).c_str(), outbound ? "out" : "in ",
                      line.c_str());
}

TraceTap::TraceTap(Node* node, Filter filter) : node_(node), filter_(std::move(filter)) {
  node_->AddTap(this);
}

TraceTap::~TraceTap() { node_->RemoveTap(this); }

TapVerdict TraceTap::OnPacket(PacketPtr& packet, const TapContext& ctx) {
  if (filter_ && !filter_(*packet)) {
    return TapVerdict::kPass;
  }
  CaptureRecord rec;
  rec.when = node_->simulator()->Now();
  rec.outbound = ctx.outbound;
  rec.src = packet->ip().src;
  rec.dst = packet->ip().dst;
  rec.protocol = packet->ip().protocol;
  if (packet->has_tcp()) {
    rec.src_port = packet->tcp().src_port;
    rec.dst_port = packet->tcp().dst_port;
    rec.seq = packet->tcp().seq;
    rec.ack = packet->tcp().ack;
    rec.tcp_flags = packet->tcp().flags;
    rec.window = packet->tcp().window;
  } else if (packet->has_udp()) {
    rec.src_port = packet->udp().src_port;
    rec.dst_port = packet->udp().dst_port;
  } else {
    // Only tunnels and raw IP pay for eager formatting; tcp/udp lines are
    // rebuilt on demand from the parsed fields.
    rec.raw_summary = packet->Describe();
  }
  rec.payload_bytes = packet->payload().size();
  if (captured_packets_ != nullptr) {
    captured_packets_->Inc();
    captured_bytes_->Inc(rec.payload_bytes);
  }
  records_.push_back(std::move(rec));
  return TapVerdict::kPass;
}

size_t TraceTap::CountIf(const std::function<bool(const CaptureRecord&)>& pred) const {
  size_t count = 0;
  for (const CaptureRecord& rec : records_) {
    if (pred(rec)) {
      ++count;
    }
  }
  return count;
}

std::string TraceTap::Dump() const {
  std::string out;
  for (const CaptureRecord& rec : records_) {
    out += rec.Summary() + "\n";
  }
  return out;
}

TraceTap::Filter TcpPort(uint16_t port) {
  return [port](const Packet& p) {
    return p.has_tcp() && (p.tcp().src_port == port || p.tcp().dst_port == port);
  };
}

TraceTap::Filter BetweenHosts(Ipv4Address a, Ipv4Address b) {
  return [a, b](const Packet& p) {
    return (p.ip().src == a && p.ip().dst == b) || (p.ip().src == b && p.ip().dst == a);
  };
}

}  // namespace comma::net
