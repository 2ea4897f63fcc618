// The Mobile IP Foreign Agent (thesis §2.1).
//
// Runs on a foreign-network router with one mobile-facing (wireless)
// interface. Answers router solicitations with advertisements, relays
// registration requests to the home agent, decapsulates tunneled packets
// for visiting mobiles, and — when the forwarding policy is enabled —
// re-tunnels packets that arrive for a mobile that has since moved to a new
// care-of address (§2.1's forwarding option for hand-off packet loss).
#ifndef COMMA_MOBILEIP_FOREIGN_AGENT_H_
#define COMMA_MOBILEIP_FOREIGN_AGENT_H_

#include <map>

#include "src/core/host.h"
#include "src/mobileip/messages.h"

namespace comma::mobileip {

enum class HandoffPolicy {
  kDrop,     // Packets for departed mobiles are discarded.
  kForward,  // Re-tunneled to the mobile's new care-of address.
};

struct ForeignAgentStats {
  uint64_t advertisements_sent = 0;
  uint64_t registrations_relayed = 0;
  uint64_t packets_decapsulated = 0;
  uint64_t packets_forwarded = 0;  // Re-tunneled after hand-off.
  uint64_t packets_dropped = 0;    // Departed/unreachable mobile, kDrop policy.
  uint64_t packets_buffered = 0;   // Held while awaiting a binding update.
};

class ForeignAgent {
 public:
  // `wireless_iface` is the router interface facing visiting mobiles.
  ForeignAgent(core::Host* router, uint32_t wireless_iface,
               HandoffPolicy policy = HandoffPolicy::kDrop);

  net::Ipv4Address care_of_address() const { return router_->PrimaryAddress(); }
  bool IsVisiting(net::Ipv4Address home_address) const {
    return visitors_.count(home_address) != 0;
  }
  const ForeignAgentStats& stats() const { return stats_; }

 private:
  struct PendingRegistration {
    udp::UdpEndpoint mobile;
  };

  void OnDatagram(const util::Bytes& data, const udp::UdpEndpoint& from);
  void OnTunneledPacket(net::PacketPtr packet);

  core::Host* router_;
  uint32_t wireless_iface_;
  HandoffPolicy policy_;
  std::unique_ptr<udp::UdpSocket> socket_;
  uint32_t advertisement_seq_ = 0;
  std::map<net::Ipv4Address, PendingRegistration> pending_;  // By home address.
  std::map<net::Ipv4Address, udp::UdpEndpoint> visitors_;    // Registered here.
  std::map<net::Ipv4Address, net::Ipv4Address> departed_;    // Home -> new COA.
  // kForward policy: packets for a visitor whose wireless link is down are
  // held here until a binding update reveals the new care-of address.
  std::map<net::Ipv4Address, std::vector<net::PacketPtr>> held_;
  ForeignAgentStats stats_;
};

}  // namespace comma::mobileip

#endif  // COMMA_MOBILEIP_FOREIGN_AGENT_H_
