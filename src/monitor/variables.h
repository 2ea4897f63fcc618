// EEM metric providers (thesis §6.2: "modularized query mechanism").
//
// The server consults an ordered list of providers; the first that knows a
// variable answers. SnmpProvider implements the Table 6.1 variable set from
// node/link/stack counters; HostProvider implements the Table 6.2 extras.
// Application designers extend the EEM by adding providers.
#ifndef COMMA_MONITOR_VARIABLES_H_
#define COMMA_MONITOR_VARIABLES_H_

#include <memory>
#include <string>

#include "src/monitor/value.h"
#include "src/sim/time.h"

namespace comma::core {
class Host;
class Pinger;
}

namespace comma::monitor {

class MetricProvider {
 public:
  virtual ~MetricProvider() = default;
  // Returns the value of (name, index), or nullopt if unknown here.
  virtual std::optional<Value> Get(const std::string& name, uint32_t index) = 0;
};

// Table 6.1: the SNMP variable set (system, ip, tcp, udp, interface groups),
// backed by the simulated host's real counters. Interface-group variables
// take the interface index (1-based, as SNMP does).
class SnmpProvider : public MetricProvider {
 public:
  explicit SnmpProvider(core::Host* host);
  std::optional<Value> Get(const std::string& name, uint32_t index) override;

 private:
  core::Host* host_;
};

// Table 6.2: netLatency, cpuLoadAvg, eth*Avg rates, deviceList, bytes_rx/tx.
// Rates are computed from counter deltas sampled by Poll() (the server calls
// it on its check interval).
class HostProvider : public MetricProvider {
 public:
  explicit HostProvider(core::Host* host);
  std::optional<Value> Get(const std::string& name, uint32_t index) override;

  // Samples counters; call periodically to keep rates fresh. Also issues a
  // ping to the interface-0 neighbour so netLatency is a *measured* RTT
  // (Table 6.2: "measure of the network latency from ping RTTs to the
  // default router").
  void Poll(sim::TimePoint now);

 private:
  core::Host* host_;
  std::unique_ptr<core::Pinger> pinger_;
  sim::TimePoint last_poll_ = 0;
  uint64_t last_in_pkts_ = 0;
  uint64_t last_out_pkts_ = 0;
  uint64_t last_ip_in_ = 0;
  double eth_in_avg_ = 0;
  double eth_out_avg_ = 0;
  double avg_in_ip_ = 0;
  double cpu_load_ = 0.05;
};

}  // namespace comma::monitor

#endif  // COMMA_MONITOR_VARIABLES_H_
