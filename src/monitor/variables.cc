#include "src/monitor/variables.h"

#include <vector>

#include "src/core/host.h"
#include "src/core/ping.h"
#include "src/util/strings.h"

namespace comma::monitor {

namespace {

int64_t AsLong(uint64_t v) { return static_cast<int64_t>(v); }

// Reads a constant LONG; serves the rows of either table.
template <int64_t N, typename Arg>
Value Long(Arg& /*unused*/) {
  return Value(int64_t{N});
}

// A row of Table 6.1's host-wide groups: these answer at any index.
struct HostVariable {
  const char* name;
  Value (*read)(core::Host& host);
};

const HostVariable kHostVariables[] = {
    // --- System group ---
    {"sysDescr", [](core::Host& h) { return Value("Comma EEM host " + h.name()); }},
    {"sysObjectID", [](core::Host&) { return Value(std::string("1.3.6.1.4.1.0")); }},
    // SNMP TimeTicks: hundredths of a second.
    {"sysUpTime",
     [](core::Host& h) {
       return Value(AsLong(static_cast<uint64_t>(h.simulator()->Now() / 10000)));
     }},
    {"sysContact", [](core::Host&) { return Value(std::string("shoshin@uwaterloo.ca")); }},
    {"sysName", [](core::Host& h) { return Value(h.name()); }},
    {"sysLocation", [](core::Host&) { return Value(std::string("simulated")); }},
    {"sysServices", Long<72>},  // Internet + end-to-end.

    // --- IP group ---
    {"ipInReceives", [](core::Host& h) { return Value(AsLong(h.stats().ip_in_receives)); }},
    {"ipInHdrErrors", [](core::Host& h) { return Value(AsLong(h.stats().ip_in_hdr_errors)); }},
    {"ipInAddrErrors", Long<0>},
    {"ipForwDatagrams", [](core::Host& h) { return Value(AsLong(h.stats().ip_forw_datagrams)); }},
    {"ipInUnknownProtos", Long<0>},
    {"ipInDiscards", [](core::Host& h) { return Value(AsLong(h.stats().ip_in_discards)); }},
    {"ipInDelivers", [](core::Host& h) { return Value(AsLong(h.stats().ip_in_delivers)); }},
    {"ipOutRequests", [](core::Host& h) { return Value(AsLong(h.stats().ip_out_requests)); }},
    {"ipOutDiscards", Long<0>},
    {"ipOutNoRoutes", [](core::Host& h) { return Value(AsLong(h.stats().ip_out_no_routes)); }},
    {"ipRoutingDiscard", Long<0>},

    // --- UDP group ---
    {"udpInDatagrams", [](core::Host& h) { return Value(AsLong(h.udp().in_datagrams())); }},
    {"udpNoPorts", [](core::Host& h) { return Value(AsLong(h.udp().no_ports())); }},
    {"udpInErrors", Long<0>},

    // --- TCP group ---
    {"tcpRtoAlgorithm", Long<4>},  // Van Jacobson.
    {"tcpRtoMin", Long<500>},
    {"tcpRtoMax", Long<64000>},
    {"tcpMaxConn", Long<-1>},
    {"tcpCurrEstab", [](core::Host& h) { return Value(AsLong(h.tcp().ActiveConnections())); }},
    // Aggregate TCP counters are not tracked stack-wide; report zero rather
    // than guessing (per-connection stats are exposed via the API instead).
    {"tcpActiveOpens", Long<0>},
    {"tcpPassiveOpens", Long<0>},
    {"tcpAttemptFails", Long<0>},
    {"tcpEstabResets", Long<0>},
    {"tcpInSegs", Long<0>},
    {"tcpOutSegs", Long<0>},
    {"tcpRetransSegs", Long<0>},

    // --- Interface group, host-wide part ---
    {"ifNumbers", [](core::Host& h) { return Value(AsLong(h.InterfaceCount())); }},
};

// The interface an interface-group read is about.
struct Interface {
  const net::Node* host;
  uint32_t index;  // 1-based, as SNMP numbers interfaces.
  const net::InterfaceStats& stats;
  const net::Link* link;  // nullptr when the interface is unattached.
};

// Inbound packets the link lost on their way to this interface. The loss
// model counts a lost packet on the side that sent it: the far side.
Value InErrors(const Interface& in) {
  if (in.link == nullptr) {
    return Value(int64_t{0});
  }
  const bool near_is_0 =
      in.link->attached_node(0) == in.host && in.link->attached_iface(0) == in.index - 1;
  return Value(AsLong(in.link->stats(near_is_0 ? 1 : 0).drops_error));
}

// A row of Table 6.1's interface group. Get answers only for an index
// naming one of the host's interfaces.
struct InterfaceVariable {
  const char* name;
  Value (*read)(const Interface& in);
};

const InterfaceVariable kInterfaceVariables[] = {
    {"ifIndex", [](const Interface& in) { return Value(AsLong(in.index)); }},
    {"ifDescr",
     [](const Interface& in) {
       return Value(in.link != nullptr ? in.link->name() : std::string("unattached"));
     }},
    {"ifType", Long<6>},  // ethernetCsmacd.
    {"ifMtu", Long<1500>},
    {"ifSpeed",
     [](const Interface& in) {
       return Value(AsLong(in.link != nullptr ? in.link->config().bandwidth_bps : 0));
     }},
    {"ifInOctets", [](const Interface& in) { return Value(AsLong(in.stats.in_bytes)); }},
    {"ifInUcastPkts", [](const Interface& in) { return Value(AsLong(in.stats.in_packets)); }},
    {"ifInNUcastPkts", Long<0>},
    {"ifInDiscards", InErrors},
    {"ifInErrors", InErrors},
    {"ifInUnknownProtos", Long<0>},
    {"ifOutOctets", [](const Interface& in) { return Value(AsLong(in.stats.out_bytes)); }},
    {"ifOutUcastPkts", [](const Interface& in) { return Value(AsLong(in.stats.out_packets)); }},
    {"ifOutNUcastPkts", Long<0>},
    {"ifOutDiscards",
     [](const Interface& in) {
       if (in.link == nullptr) {
         return Value(int64_t{0});
       }
       return Value(AsLong(in.link->stats(0).drops_queue + in.link->stats(1).drops_queue));
     }},
    {"ifOutErrors", Long<0>},
    {"ifOutQLen",
     [](const Interface& in) {
       if (in.link == nullptr) {
         return Value(int64_t{0});
       }
       return Value(AsLong(in.link->QueueDepth(0) + in.link->QueueDepth(1)));
     }},
    // 1 = up, 2 = down (RFC 1213).
    {"ifOperStatus",
     [](const Interface& in) {
       return Value(int64_t{in.link != nullptr && in.link->IsUp() ? 1 : 2});
     }},
};

}  // namespace

SnmpProvider::SnmpProvider(core::Host* host) : host_(host) {}

std::optional<Value> SnmpProvider::Get(const std::string& name, uint32_t index) {
  for (const HostVariable& v : kHostVariables) {
    if (name == v.name) {
      return v.read(*host_);
    }
  }
  for (const InterfaceVariable& v : kInterfaceVariables) {
    if (name == v.name) {
      if (index == 0 || index > host_->InterfaceCount()) {
        return std::nullopt;
      }
      return v.read(
          {host_, index, host_->interface_stats(index - 1), host_->InterfaceLink(index - 1)});
    }
  }
  return std::nullopt;
}

// --- HostProvider ---

HostProvider::HostProvider(core::Host* host) : host_(host) {
  pinger_ = std::make_unique<core::Pinger>(host_, &host_->icmp_responder());
}

void HostProvider::Poll(sim::TimePoint now) {
  uint64_t in_pkts = 0;
  uint64_t out_pkts = 0;
  for (uint32_t i = 0; i < host_->InterfaceCount(); ++i) {
    in_pkts += host_->interface_stats(i).in_packets;
    out_pkts += host_->interface_stats(i).out_packets;
  }
  const uint64_t ip_in = host_->stats().ip_in_receives;
  // Keep a live latency sample flowing to the interface-0 neighbour.
  if (host_->InterfaceCount() > 0) {
    net::Link* link = host_->InterfaceLink(0);
    if (link != nullptr && link->IsUp()) {
      const int local_side = link->attached_node(0) == host_ ? 0 : 1;
      net::Node* peer = link->attached_node(1 - local_side);
      if (peer != nullptr) {
        pinger_->Ping(peer->InterfaceAddress(link->attached_iface(1 - local_side)), nullptr);
      }
    }
  }
  if (last_poll_ != 0 && now > last_poll_) {
    const double dt = sim::DurationToSeconds(now - last_poll_);
    // Exponentially weighted averages, like the shipping monitors of the era.
    const double alpha = 0.3;
    eth_in_avg_ += alpha * (static_cast<double>(in_pkts - last_in_pkts_) / dt - eth_in_avg_);
    eth_out_avg_ += alpha * (static_cast<double>(out_pkts - last_out_pkts_) / dt - eth_out_avg_);
    avg_in_ip_ += alpha * (static_cast<double>(ip_in - last_ip_in_) / dt - avg_in_ip_);
    // Synthetic CPU load loosely coupled to packet rate.
    cpu_load_ = 0.9 * cpu_load_ + 0.1 * std::min(1.0, eth_in_avg_ / 2000.0 + 0.05);
  }
  last_poll_ = now;
  last_in_pkts_ = in_pkts;
  last_out_pkts_ = out_pkts;
  last_ip_in_ = ip_in;
}

std::optional<Value> HostProvider::Get(const std::string& name, uint32_t /*index*/) {
  if (name == "netLatency") {
    // Measured ping RTT to the interface-0 neighbour (milliseconds). Before
    // the first reply lands, estimate from the link parameters.
    if (pinger_->replies_received() > 0) {
      return Value(sim::DurationToSeconds(pinger_->last_rtt()) * 1000.0);
    }
    net::Link* link = host_->InterfaceCount() > 0 ? host_->InterfaceLink(0) : nullptr;
    if (link == nullptr) {
      return Value(0.0);
    }
    const double rtt = 2.0 * (sim::DurationToSeconds(link->config().propagation_delay) +
                              sim::DurationToSeconds(link->TransmitTime(64)));
    return Value(rtt * 1000.0);  // Milliseconds.
  }
  if (name == "avgInIPPkts") {
    return Value(avg_in_ip_);
  }
  if (name == "cpuLoadAvg") {
    return Value(cpu_load_);
  }
  if (name == "ethErrsAvg") {
    return Value(0.0);
  }
  if (name == "ethInAvg") {
    return Value(eth_in_avg_);
  }
  if (name == "ethOutAvg") {
    return Value(eth_out_avg_);
  }
  if (name == "deviceList") {
    std::vector<std::string> devices;
    for (uint32_t i = 0; i < host_->InterfaceCount(); ++i) {
      net::Link* link = host_->InterfaceLink(i);
      devices.push_back(util::Format("if%u:%s", i, link ? link->name().c_str() : "down"));
    }
    return Value(util::Join(devices, ","));
  }
  if (name == "bytes_rx" || name == "bytes_tx") {
    uint64_t total = 0;
    for (uint32_t i = 0; i < host_->InterfaceCount(); ++i) {
      total += name == "bytes_rx" ? host_->interface_stats(i).in_bytes
                                  : host_->interface_stats(i).out_bytes;
    }
    return Value(AsLong(total));
  }
  return std::nullopt;
}

}  // namespace comma::monitor
