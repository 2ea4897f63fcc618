#include "src/mobileip/home_agent.h"

namespace comma::mobileip {

HomeAgent::HomeAgent(core::Host* router) : router_(router) {
  socket_ = router_->udp().Bind(kRegistrationPort);
  socket_->set_on_receive([this](const util::Bytes& data, const udp::UdpEndpoint& from) {
    OnDatagram(data, from);
  });
  router_->AddTap(this);
}

HomeAgent::~HomeAgent() { router_->RemoveTap(this); }

void HomeAgent::AddMobile(net::Ipv4Address home_address) {
  bindings_.emplace(home_address, Binding{});
}

bool HomeAgent::IsRegisteredAway(net::Ipv4Address home_address) const {
  auto it = bindings_.find(home_address);
  if (it == bindings_.end() || it->second.care_of.IsUnspecified()) {
    return false;
  }
  return it->second.expires == 0 || router_->simulator()->Now() < it->second.expires;
}

net::TapVerdict HomeAgent::OnPacket(net::PacketPtr& packet, const net::TapContext& ctx) {
  if (ctx.outbound) {
    return net::TapVerdict::kPass;  // Never re-intercept our own tunnels.
  }
  const net::Ipv4Address dst = packet->ip().dst;
  auto it = bindings_.find(dst);
  if (it == bindings_.end()) {
    return net::TapVerdict::kPass;  // Not one of our mobiles.
  }
  if (it->second.care_of.IsUnspecified()) {
    ++stats_.packets_delivered_home;
    return net::TapVerdict::kPass;  // Mobile is home: normal routing.
  }
  // Encapsulate and tunnel to the care-of address (§2.1: "packets are
  // encapsulated using IP tunneling and sent to the currently-registered
  // location of the mobile").
  ++stats_.packets_tunneled;
  net::PacketPtr inner = std::move(packet);
  net::PacketPtr outer = net::Packet::Encapsulate(std::move(inner), router_->PrimaryAddress(),
                                                  it->second.care_of);
  router_->InjectPacket(std::move(outer));
  return net::TapVerdict::kConsume;
}

void HomeAgent::OnDatagram(const util::Bytes& data, const udp::UdpEndpoint& from) {
  auto type = PeekType(data);
  if (type != MessageType::kRegistrationRequest) {
    return;
  }
  auto request = DecodeRegistrationRequest(data);
  if (request.has_value()) {
    HandleRegistration(*request, from);
  }
}

void HomeAgent::HandleRegistration(const RegistrationRequest& request,
                                   const udp::UdpEndpoint& from) {
  RegistrationReply reply;
  reply.home_address = request.home_address;
  reply.id = request.id;
  reply.lifetime_seconds = request.lifetime_seconds;

  auto it = bindings_.find(request.home_address);
  if (it == bindings_.end()) {
    reply.code = ReplyCode::kDeniedUnknownHome;
    socket_->SendTo(from.addr, from.port, Encode(reply));
    return;
  }

  const net::Ipv4Address previous_coa = it->second.care_of;
  if (request.lifetime_seconds == 0) {
    // Deregistration: the mobile is home again.
    it->second.care_of = net::Ipv4Address();
    it->second.expires = 0;
    ++stats_.deregistrations;
  } else {
    it->second.care_of = request.care_of_address;
    it->second.expires = router_->simulator()->Now() +
                         static_cast<sim::Duration>(request.lifetime_seconds) * sim::kSecond;
    ++stats_.registrations_accepted;
  }
  reply.code = ReplyCode::kAccepted;
  socket_->SendTo(from.addr, from.port, Encode(reply));

  // Tell the previous FA where the mobile went, so packets in flight to the
  // old care-of address can be forwarded rather than lost (§2.1).
  if (!previous_coa.IsUnspecified() && previous_coa != request.care_of_address) {
    BindingUpdate update;
    update.home_address = request.home_address;
    update.new_care_of = request.lifetime_seconds == 0 ? net::Ipv4Address()
                                                       : request.care_of_address;
    ++stats_.binding_updates_sent;
    socket_->SendTo(previous_coa, kRegistrationPort, Encode(update));
  }
}

}  // namespace comma::mobileip
