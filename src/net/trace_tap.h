// A tcpdump-style capture tap: attach to any node, record (and optionally
// print) one summary line per packet. Used for debugging filter pipelines
// and by tests that assert on observed traffic.
#ifndef COMMA_NET_TRACE_TAP_H_
#define COMMA_NET_TRACE_TAP_H_

#include <functional>
#include <string>
#include <vector>

#include "src/net/node.h"

namespace comma::obs {
class Counter;
}

namespace comma::net {

struct CaptureRecord {
  sim::TimePoint when = 0;
  bool outbound = false;
  // Parsed summary fields for programmatic matching.
  Ipv4Address src;
  Ipv4Address dst;
  uint8_t protocol = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t tcp_flags = 0;
  uint16_t window = 0;
  size_t payload_bytes = 0;
  // Eagerly-captured line for packets the parsed fields cannot reproduce
  // (ipip tunnels, raw IP); empty for tcp/udp, whose line Summary() renders
  // on demand — capture stays cheap on the per-packet path.
  std::string raw_summary;

  // "0.123456s out tcp 10.0.0.99:80 -> ... [ACK]", built from the fields.
  std::string Summary() const;
};

class TraceTap : public PacketTap {
 public:
  using Filter = std::function<bool(const Packet&)>;

  // Captures packets passing `node` (all of them unless `filter` is set).
  explicit TraceTap(Node* node, Filter filter = nullptr);
  ~TraceTap() override;
  TraceTap(const TraceTap&) = delete;
  TraceTap& operator=(const TraceTap&) = delete;

  TapVerdict OnPacket(PacketPtr& packet, const TapContext& ctx) override;

  const std::vector<CaptureRecord>& records() const { return records_; }
  void Clear() { records_.clear(); }
  size_t Count() const { return records_.size(); }

  // Number of captured packets satisfying `pred`.
  size_t CountIf(const std::function<bool(const CaptureRecord&)>& pred) const;

  // Renders the whole capture, one line per packet.
  std::string Dump() const;

  // Optional registry handles ("trace.captured_packets" / ".captured_bytes",
  // docs/observability.md). Raw counter pointers, not a registry: the net
  // layer sits below comma_obs in the layer DAG, and src/obs/counter.h is
  // the one obs header net may include. Pass null to unbind.
  void BindMetrics(obs::Counter* packets, obs::Counter* bytes) {
    captured_packets_ = packets;
    captured_bytes_ = bytes;
  }

 private:
  Node* node_;
  Filter filter_;
  std::vector<CaptureRecord> records_;
  obs::Counter* captured_packets_ = nullptr;
  obs::Counter* captured_bytes_ = nullptr;
};

// Convenience filters.
TraceTap::Filter TcpPort(uint16_t port);
TraceTap::Filter BetweenHosts(Ipv4Address a, Ipv4Address b);

}  // namespace comma::net

#endif  // COMMA_NET_TRACE_TAP_H_
