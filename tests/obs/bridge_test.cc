// The EemMetricsBridge and the closed control loop it enables
// (docs/observability.md): proxy metrics surface as EEM variables, Kati
// registers a threshold watch, and the notification callback drives an SP
// command — transparent service management reacting to transparent
// measurements, with no application involvement.
#include "src/obs/eem_bridge.h"

#include <gtest/gtest.h>

#include "src/apps/bulk.h"
#include "src/core/comma_system.h"
#include "src/util/strings.h"

namespace comma {
namespace {

TEST(ObsBridgeTest, ExportsCountersGaugesAndHistogramFields) {
  obs::MetricRegistry reg;
  reg.GetCounter("sp.packets")->Inc(7);
  reg.GetGauge("sp.streams")->Set(2.5);
  obs::HistogramMetric* h = reg.GetHistogram("sp.queue_us", 0.0, 100.0, 10);
  h->Observe(4.0);
  obs::EemMetricsBridge bridge(&reg);

  auto counter = bridge.Get("sp.packets", 0);
  ASSERT_TRUE(counter.has_value());
  ASSERT_TRUE(std::holds_alternative<int64_t>(*counter));
  EXPECT_EQ(std::get<int64_t>(*counter), 7);

  auto gauge = bridge.Get("sp.streams", 0);
  ASSERT_TRUE(gauge.has_value());
  ASSERT_TRUE(std::holds_alternative<double>(*gauge));
  EXPECT_EQ(std::get<double>(*gauge), 2.5);

  auto p99 = bridge.Get("sp.queue_us.p99", 0);
  ASSERT_TRUE(p99.has_value());
  ASSERT_TRUE(std::holds_alternative<double>(*p99));
  EXPECT_EQ(std::get<double>(*p99), 4.0);

  EXPECT_FALSE(bridge.Get("no.such.metric", 0).has_value());
}

TEST(ObsBridgeTest, PatternRestrictsExportedNames) {
  obs::MetricRegistry reg;
  reg.GetCounter("sp.packets")->Inc();
  reg.GetCounter("tcp.retransmits")->Inc();
  reg.GetHistogram("sp.queue_us", 0.0, 100.0, 10)->Observe(1.0);
  obs::EemMetricsBridge bridge(&reg, "sp.*");

  EXPECT_TRUE(bridge.Get("sp.packets", 0).has_value());
  EXPECT_FALSE(bridge.Get("tcp.retransmits", 0).has_value());
  // Histogram sub-fields pass the check via their parent's name.
  EXPECT_TRUE(bridge.Get("sp.queue_us.mean", 0).has_value());
}

TEST(ObsBridgeTest, SystemEemServerServesProxyMetrics) {
  // CommaSystem installs the bridge automatically: every proxy metric is an
  // EEM variable on the gateway, including pull-model tcp.* sources.
  core::CommaSystem system;
  auto inspected = system.eem_server()->ReadVariable("sp.packets_inspected", 0);
  ASSERT_TRUE(inspected.has_value());
  EXPECT_TRUE(std::holds_alternative<int64_t>(*inspected));
  auto streams = system.eem_server()->ReadVariable("sp.streams", 0);
  ASSERT_TRUE(streams.has_value());
  EXPECT_TRUE(std::holds_alternative<double>(*streams));
  auto tcp_sent = system.eem_server()->ReadVariable("tcp.segments_sent", 0);
  ASSERT_TRUE(tcp_sent.has_value());
  // The EEM's native host variables are still served alongside the bridge.
  EXPECT_TRUE(system.eem_server()->ReadVariable("sysUpTime", 0).has_value());
}

TEST(ObsBridgeTest, BridgeSurvivesEemRestart) {
  core::CommaSystem system;
  system.StopEemServer();
  system.RestartEemServer();
  EXPECT_TRUE(system.eem_server()->ReadVariable("sp.packets_inspected", 0).has_value());
}

// The headline e2e (ISSUE 4 acceptance): tdrop thins a stream, the bridged
// ttsf.bytes_dropped counter crosses Kati's watch threshold, the interrupt
// notification fires Kati's hook, and the hook loads tcompress onto the
// stream through the normal SP command path.
TEST(ObsControlLoopTest, ThresholdWatchNotifiesKatiWhichLoadsFilter) {
  core::CommaSystemConfig cfg;
  cfg.scenario.wireless.loss_probability = 0.0;
  cfg.eem.check_interval = 200 * sim::kMillisecond;
  cfg.eem.update_interval = sim::kSecond;
  core::CommaSystem system(cfg);

  std::string error;
  proxy::StreamKey wildcard{net::Ipv4Address(), 0, system.scenario().mobile_addr(), 80};
  ASSERT_TRUE(system.sp().AddService("launcher", wildcard, {"tcp", "ttsf", "tdrop:50:9"}, &error))
      << error;

  std::string output;
  auto shell = system.MakeKati([&output](const std::string& text) { output += text; });
  shell->Execute("watch ttsf.bytes_dropped gt 5000");
  EXPECT_NE(output.find("watching ttsf.bytes_dropped"), std::string::npos);
  EXPECT_NE(output.find("(interrupt)"), std::string::npos);

  // The reaction: on the first notification, compress the offending stream.
  proxy::StreamKey data_key;
  bool reacted = false;
  shell->set_on_notify([&](const monitor::VariableId& id, const monitor::Value&) {
    if (reacted || id.name != "ttsf.bytes_dropped") {
      return;
    }
    for (const auto& [key, info] : system.sp().streams()) {
      if (key.dst_port == 80 && !key.IsWildcard()) {
        data_key = key;
        reacted = true;
        shell->Execute(util::Format("add tcompress %s %u %s %u lz", key.src.ToString().c_str(),
                                    key.src_port, key.dst.ToString().c_str(), key.dst_port));
        return;
      }
    }
  });

  apps::BulkSink sink(&system.scenario().mobile_host(), 80);
  apps::BulkSender sender(&system.scenario().wired_host(), system.scenario().mobile_addr(), 80,
                          apps::PatternPayload(200000));
  system.sim().RunFor(60 * sim::kSecond);

  // The loop closed: metric crossed, notify printed, hook ran, filter on.
  EXPECT_GT(system.sp().metrics().Read("ttsf.bytes_dropped").value_or(0.0), 5000.0);
  EXPECT_GT(shell->notifies_printed(), 0u);
  EXPECT_NE(output.find("notify: ttsf.bytes_dropped"), std::string::npos);
  ASSERT_TRUE(reacted);
  EXPECT_NE(system.sp().FindFilterOnKey(data_key, "tcompress"), nullptr)
      << "tcompress not attached to " << data_key.ToString();
  // And the new filter's own telemetry appeared in the registry.
  EXPECT_TRUE(system.sp().metrics().Read("sp.filter.tcompress.out_packets").has_value());
}

}  // namespace
}  // namespace comma
