// The EEM's metric providers (thesis §6.2): every Table 6.1 and Table 6.2
// value a host serves over a lossy two-way run, pinned as one hash.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/bulk.h"
#include "src/core/scenario.h"
#include "src/monitor/variables.h"
#include "src/sim/witness.h"
#include "src/util/strings.h"

namespace comma::monitor {
namespace {

// Table 6.1 (SNMP), Table 6.2 (host extras), then names neither serves.
const char* const kVariableNames[] = {
    "sysDescr", "sysObjectID", "sysUpTime", "sysContact", "sysName", "sysLocation",
    "sysServices", "ipInReceives", "ipInHdrErrors", "ipInAddrErrors", "ipForwDatagrams",
    "ipInUnknownProtos", "ipInDiscards", "ipInDelivers", "ipOutRequests", "ipOutDiscards",
    "ipOutNoRoutes", "ipRoutingDiscard", "udpInDatagrams", "udpNoPorts", "udpInErrors",
    "tcpRtoAlgorithm", "tcpRtoMin", "tcpRtoMax", "tcpMaxConn", "tcpActiveOpens",
    "tcpPassiveOpens", "tcpAttemptFails", "tcpEstabResets", "tcpCurrEstab", "tcpInSegs",
    "tcpOutSegs", "tcpRetransSegs", "ifNumbers", "ifIndex", "ifDescr", "ifType", "ifMtu",
    "ifSpeed", "ifInOctets", "ifInUcastPkts", "ifInNUcastPkts", "ifInDiscards", "ifInErrors",
    "ifInUnknownProtos", "ifOutOctets", "ifOutUcastPkts", "ifOutNUcastPkts", "ifOutDiscards",
    "ifOutErrors", "ifOutQLen", "ifOperStatus",
    "netLatency", "avgInIPPkts", "cpuLoadAvg", "ethErrsAvg", "ethInAvg", "ethOutAvg",
    "deviceList", "bytes_rx", "bytes_tx",
    "nosuch", "if", "ifFoo",
};

// The value with its alternative, so a LONG turning into a DOUBLE shows.
std::string Render(const std::optional<Value>& v) {
  if (!v.has_value()) {
    return "(none)";
  }
  switch (TypeOf(*v)) {
    case ValueType::kLong:
      return util::Format("long %lld", static_cast<long long>(std::get<int64_t>(*v)));
    case ValueType::kDouble:
      return util::Format("double %.17g", std::get<double>(*v));
    case ValueType::kString:
      return "string \"" + std::get<std::string>(*v) + "\"";
  }
  return "?";
}

struct HostProviders {
  core::Host* host;
  std::unique_ptr<SnmpProvider> snmp;
  std::unique_ptr<HostProvider> extras;
};

// One line per (host, name, index) read: SNMP first, then the extras, as
// EemServer consults them.
void ReadAll(std::vector<HostProviders>& hosts, std::string* out) {
  for (HostProviders& h : hosts) {
    for (const char* name : kVariableNames) {
      for (uint32_t index = 0; index <= h.host->InterfaceCount() + 1; ++index) {
        std::optional<Value> v = h.snmp->Get(name, index);
        if (!v.has_value()) {
          v = h.extras->Get(name, index);
        }
        *out += util::Format("%s %s[%u] = %s\n", h.host->name().c_str(), name, index,
                             Render(v).c_str());
      }
    }
  }
}

TEST(EemVariablesTest, EemVariablesArePinned) {
  core::ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.wireless.loss_probability = 0.03;
  core::WirelessScenario s(cfg);
  std::vector<HostProviders> hosts;
  for (core::Host* host : {&s.wired_host(), &s.gateway(), &s.mobile_host()}) {
    hosts.push_back(
        {host, std::make_unique<SnmpProvider>(host), std::make_unique<HostProvider>(host)});
  }
  // Poll the extras on EemServer's default check interval.
  std::function<void()> poll = [&] {
    for (HostProviders& h : hosts) {
      h.extras->Poll(s.sim().Now());
    }
    s.sim().Schedule(200 * sim::kMillisecond, poll);
  };
  s.sim().Schedule(0, poll);

  apps::BulkSink down_sink(&s.mobile_host(), 5001);
  apps::BulkSink up_sink(&s.wired_host(), 5002);
  apps::BulkSender down(&s.wired_host(), s.mobile_addr(), 5001, apps::PatternPayload(300'000));
  apps::BulkSender up(&s.mobile_host(), s.wired_addr(), 5002, apps::PatternPayload(120'000));

  std::string text;
  for (const sim::Duration at :
       {500 * sim::kMillisecond, 1500 * sim::kMillisecond, 3 * sim::kSecond, 10 * sim::kSecond}) {
    s.sim().RunUntil(at);
    text += util::Format("-- t=%lld us\n", static_cast<long long>(s.sim().Now()));
    ReadAll(hosts, &text);
  }
  ASSERT_TRUE(down.finished());
  ASSERT_TRUE(up.finished());
  ASSERT_EQ(down_sink.bytes_received(), 300'000u);
  ASSERT_EQ(up_sink.bytes_received(), 120'000u);

  constexpr uint64_t kPinned = 0x2112456056dd22a8ULL;
  const uint64_t hash = sim::WitnessHash(text);
  EXPECT_EQ(hash, kPinned) << "hash 0x" << std::hex << hash << "\n" << text;
}

// RFC 1213's ifInErrors counts inbound packets lost in error. The loss
// model charges a lost packet to the side that sent it, so each end of the
// wireless link must report the other side's drops, not its own.
TEST(EemVariablesTest, IfInErrorsCountsTheFarSidesLosses) {
  core::ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.wireless.loss_probability = 0.05;
  core::WirelessScenario s(cfg);
  apps::BulkSink down_sink(&s.mobile_host(), 5001);
  apps::BulkSink up_sink(&s.wired_host(), 5002);
  apps::BulkSender down(&s.wired_host(), s.mobile_addr(), 5001, apps::PatternPayload(300'000));
  apps::BulkSender up(&s.mobile_host(), s.wired_addr(), 5002, apps::PatternPayload(100'000));
  s.sim().RunFor(30 * sim::kSecond);
  ASSERT_TRUE(down.finished());
  ASSERT_TRUE(up.finished());

  const net::Link& link = s.wireless_link();
  const int gateway_side = link.attached_node(0) == &s.gateway() ? 0 : 1;
  const int64_t lost_by_gateway = static_cast<int64_t>(link.stats(gateway_side).drops_error);
  const int64_t lost_by_mobile = static_cast<int64_t>(link.stats(1 - gateway_side).drops_error);
  ASSERT_GT(lost_by_gateway, 0);
  ASSERT_GT(lost_by_mobile, 0);
  ASSERT_NE(lost_by_gateway, lost_by_mobile);

  SnmpProvider gateway(&s.gateway());
  SnmpProvider mobile(&s.mobile_host());
  for (const char* name : {"ifInErrors", "ifInDiscards"}) {
    EXPECT_EQ(gateway.Get(name, 2), Value(lost_by_mobile)) << name;
    EXPECT_EQ(mobile.Get(name, 1), Value(lost_by_gateway)) << name;
    // The wired link loses nothing.
    EXPECT_EQ(gateway.Get(name, 1), Value(int64_t{0})) << name;
  }
}

}  // namespace
}  // namespace comma::monitor
