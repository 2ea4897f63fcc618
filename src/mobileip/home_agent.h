// The Mobile IP Home Agent (thesis §2.1).
//
// Runs on the home-network router. Intercepts packets addressed to
// registered mobiles (a packet tap on the router), encapsulates them with
// IP-in-IP, and tunnels them to the mobile's current care-of address —
// producing the triangular routing of Fig. 2.1. Handles registration
// requests relayed by foreign agents, and notifies the previous FA with a
// binding update so it can forward (or drop) in-flight packets after a
// hand-off (§2.1's two policies).
#ifndef COMMA_MOBILEIP_HOME_AGENT_H_
#define COMMA_MOBILEIP_HOME_AGENT_H_

#include <map>

#include "src/core/host.h"
#include "src/mobileip/messages.h"

namespace comma::mobileip {

struct HomeAgentStats {
  uint64_t packets_tunneled = 0;
  uint64_t packets_delivered_home = 0;  // Mobile at home: normal routing.
  uint64_t registrations_accepted = 0;
  uint64_t deregistrations = 0;
  uint64_t binding_updates_sent = 0;
};

class HomeAgent : public net::PacketTap {
 public:
  explicit HomeAgent(core::Host* router);
  ~HomeAgent() override;

  // Declares `home_address` as a mobile this HA is responsible for.
  void AddMobile(net::Ipv4Address home_address);

  bool IsRegisteredAway(net::Ipv4Address home_address) const;

  const HomeAgentStats& stats() const { return stats_; }

  // PacketTap: intercept-and-tunnel.
  net::TapVerdict OnPacket(net::PacketPtr& packet, const net::TapContext& ctx) override;

 private:
  struct Binding {
    net::Ipv4Address care_of;  // Unspecified = at home.
    sim::TimePoint expires = 0;
  };

  void OnDatagram(const util::Bytes& data, const udp::UdpEndpoint& from);
  void HandleRegistration(const RegistrationRequest& request, const udp::UdpEndpoint& from);

  core::Host* router_;
  std::unique_ptr<udp::UdpSocket> socket_;
  std::map<net::Ipv4Address, Binding> bindings_;
  HomeAgentStats stats_;
};

}  // namespace comma::mobileip

#endif  // COMMA_MOBILEIP_HOME_AGENT_H_
