// Differential determinism suite for the region-sharded simulator
// (ROADMAP "parallel simulator"; docs/parallel-sim.md): the exact runs the
// serial fault suite and chaos soak pin down are re-run partitioned, at 1,
// 2, 4, and 8 workers, and every witness — applied-fault logs, delivered
// bytes, link counters, metric snapshots, completion times — must be
// byte-identical to the serial reference. Suites are named Parallel* so CI
// can select them under TSan (ctest -R '^Par').
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/core/chaos.h"
#include "src/core/comma_system.h"
#include "src/core/multi_gateway.h"
#include "src/sim/witness.h"
#include "src/util/strings.h"
#include "tests/sim/determinism_harness.h"

namespace comma {
namespace {

// --- The fault-suite run, partitioned -------------------------------------
// Mirrors tests/faults/determinism_test.cc FaultedRun: lossy wireless link,
// launcher+ttsf in the path, a scripted flap and EEM outage, one bulk
// transfer — but with the scenario split into wired/wireless regions and
// the full witness rendered as a string.
std::string PartitionedFaultedRun(uint64_t seed, int workers) {
  core::CommaSystemConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.wireless.loss_probability = 0.02;
  cfg.scenario.partition_regions = true;
  cfg.scenario.sim.num_workers = workers;
  cfg.eem.check_interval = 200 * sim::kMillisecond;
  cfg.eem.update_interval = 500 * sim::kMillisecond;
  core::CommaSystem system(cfg);
  sim::Simulator& sim = system.sim();

  std::string error;
  proxy::StreamKey wildcard{net::Ipv4Address(), 0, system.scenario().mobile_addr(), 80};
  EXPECT_TRUE(system.sp().AddService("launcher", wildcard, {"tcp", "ttsf", "tdrop:0:5"}, &error))
      << error;

  std::unique_ptr<monitor::EemClient> client;
  util::Bytes received;
  bool completed = false;
  {
    sim::ScopedRegion in_wireless(&sim, system.scenario().wireless_region());
    client = std::make_unique<monitor::EemClient>(&system.scenario().mobile_host());
    monitor::VariableId var;
    var.name = "sysUpTime";
    var.server = system.scenario().gateway_wireless_addr();
    client->Register(var, monitor::Attr::Always());

    system.scenario().mobile_host().tcp().Listen(80, [&](tcp::TcpConnection* conn) {
      conn->set_on_data([&](const util::Bytes& data) {
        received.insert(received.end(), data.begin(), data.end());
      });
      conn->set_on_remote_close([conn] { conn->Close(); });
      conn->set_on_closed([&] { completed = true; });
    });
  }

  system.ScheduleLinkFlap(system.scenario().wireless_link(), 2 * sim::kSecond, 3 * sim::kSecond,
                          "wireless");
  system.ScheduleEemOutage(4 * sim::kSecond, 6 * sim::kSecond);
  system.ArmFaults();

  util::Bytes payload(120'000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + (i >> 7));
  }
  tcp::TcpConnection* sender;
  {
    sim::ScopedRegion in_wired(&sim, system.scenario().wired_region());
    sender = system.scenario().wired_host().tcp().Connect(system.scenario().mobile_addr(), 80);
  }
  auto remaining = std::make_shared<util::Bytes>(payload);
  auto pump = [sender, remaining] {
    while (!remaining->empty()) {
      const size_t n = sender->Send(remaining->data(), remaining->size());
      if (n == 0) {
        return;
      }
      remaining->erase(remaining->begin(), remaining->begin() + static_cast<long>(n));
    }
    sender->Close();
  };
  sender->set_on_connected(pump);
  sender->set_on_writable(pump);

  sim.RunFor(300 * sim::kSecond);
  EXPECT_TRUE(completed) << "seed " << seed << " workers " << workers;

  std::string witness = system.fault_plan().AppliedLog();
  witness += util::Format("received bytes=%zu hash=%016llx\n", received.size(),
                          static_cast<unsigned long long>(sim::WitnessHash(
                              std::string(received.begin(), received.end()))));
  for (int side = 0; side < 2; ++side) {
    const net::LinkSideStats& s = system.scenario().wireless_link().stats(side);
    witness += util::Format("wireless[%d] rx=%llu drops=%llu\n", side,
                            static_cast<unsigned long long>(s.rx_packets),
                            static_cast<unsigned long long>(s.drops_error + s.drops_down));
  }
  witness += testing::FilterWallClockMetrics(system.sp().metrics().RenderText("tcp"));
  witness += testing::FilterWallClockMetrics(system.sp().metrics().RenderText("sim"));
  witness += util::Format("events=%llu epochs=%llu\n",
                          static_cast<unsigned long long>(sim.EventsRun()),
                          static_cast<unsigned long long>(sim.epochs()));
  return witness;
}

TEST(ParallelFaultSuiteTest, FaultedRunWitnessIsWorkerCountInvariant) {
  for (const uint64_t seed : {7u, 11u}) {
    testing::ExpectDeterministicAcrossWorkerCounts(
        "faulted-run seed " + std::to_string(seed),
        [seed](int workers) { return PartitionedFaultedRun(seed, workers); });
  }
}

TEST(ParallelFaultSuiteTest, PartitionedRunActuallyShards) {
  core::ScenarioConfig cfg;
  cfg.partition_regions = true;
  core::WirelessScenario scenario(cfg);
  EXPECT_EQ(scenario.sim().RegionCount(), 3u);
  EXPECT_NE(scenario.wired_region(), scenario.wireless_region());
  EXPECT_TRUE(scenario.wired_link().cross_region());
  EXPECT_FALSE(scenario.wireless_link().cross_region());
}

// --- The chaos soak, partitioned ------------------------------------------
std::string PartitionedChaosRun(uint64_t seed, int workers) {
  core::ChaosOptions options;
  options.seed = seed;
  options.partition_regions = true;
  options.num_workers = workers;
  const core::ChaosResult r = core::RunChaosScenario(options);
  std::string witness = r.fault_log + testing::FilterWallClockMetrics(r.metrics);
  witness += util::Format("crash_at=%lld takeover_at=%lld finished_at=%lld\n",
                          static_cast<long long>(r.crash_at),
                          static_cast<long long>(r.takeover_at),
                          static_cast<long long>(r.finished_at));
  for (const core::ChaosStreamOutcome& s : r.streams) {
    witness += util::Format("port=%u bytes=%llu complete=%d last_byte_at=%lld\n", s.port,
                            static_cast<unsigned long long>(s.bytes), s.complete ? 1 : 0,
                            static_cast<long long>(s.last_byte_at));
  }
  return witness;
}

TEST(ParallelChaosTest, ChaosWitnessIsWorkerCountInvariant) {
  for (const uint64_t seed : {1u, 7u, 42u}) {
    testing::ExpectDeterministicAcrossWorkerCounts(
        "chaos seed " + std::to_string(seed),
        [seed](int workers) { return PartitionedChaosRun(seed, workers); });
  }
}

TEST(ParallelChaosTest, PartitionedChaosStillRecovers) {
  core::ChaosOptions options;
  options.seed = 7;
  options.partition_regions = true;
  options.num_workers = 4;
  const core::ChaosResult r = core::RunChaosScenario(options);
  EXPECT_GT(r.crash_at, 0u);
  EXPECT_GT(r.takeover_at, r.crash_at);
  EXPECT_TRUE(r.all_completed) << r.metrics;
}

// --- The multi-gateway scenario -------------------------------------------
std::string MultiGatewayRun(uint64_t seed, int workers, bool with_flaps) {
  core::MultiGatewayConfig cfg;
  cfg.seed = seed;
  cfg.sim.num_workers = workers;
  cfg.with_flaps = with_flaps;
  core::MultiGatewayScenario scenario(cfg);
  scenario.StartTraffic();
  scenario.sim().RunFor(120 * sim::kSecond);
  EXPECT_TRUE(scenario.AllCompleted()) << "seed " << seed << " workers " << workers << "\n"
                                       << scenario.StreamWitness();
  return scenario.Witness();
}

TEST(ParallelMultiGatewayTest, WitnessIsWorkerCountInvariant) {
  testing::ExpectDeterministicAcrossWorkerCounts(
      "multi-gateway seed 42", [](int workers) { return MultiGatewayRun(42, workers, true); });
}

TEST(ParallelMultiGatewayTest, CleanRunWitnessIsWorkerCountInvariant) {
  testing::ExpectDeterministicAcrossWorkerCounts(
      "multi-gateway seed 3 (no faults)",
      [](int workers) { return MultiGatewayRun(3, workers, false); });
}

// Hashes, in arrival order, the uid of every packet one node's taps see.
// One tap per node: nodes in different regions run on different workers.
class UidHashTap : public net::PacketTap {
 public:
  net::TapVerdict OnPacket(net::PacketPtr& packet, const net::TapContext& /*ctx*/) override {
    hash_ = (hash_ ^ packet->uid()) * 0x100000001b3ULL;  // FNV-1a over uids.
    ++packets_;
    regions_.insert(packet->uid() >> 48);
    return net::TapVerdict::kPass;
  }
  uint64_t hash() const { return hash_; }
  uint64_t packets() const { return packets_; }
  // The regions whose shards drew the uids seen.
  const std::set<uint64_t>& regions() const { return regions_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
  uint64_t packets_ = 0;
  std::set<uint64_t> regions_;
};

// The multi-gateway run with a uid-hashing tap on the backbone router and
// on every gateway; the witness is one line per tap.
std::string MultiGatewayUidRun(uint64_t seed, int workers) {
  core::MultiGatewayConfig cfg;
  cfg.seed = seed;
  cfg.sim.num_workers = workers;
  cfg.with_flaps = true;
  std::vector<UidHashTap> taps(static_cast<size_t>(1 + cfg.clusters));
  core::MultiGatewayScenario scenario(cfg);
  scenario.backbone_router().AddTap(&taps[0]);
  for (int k = 0; k < cfg.clusters; ++k) {
    scenario.gateway(k).AddTap(&taps[static_cast<size_t>(k) + 1]);
  }
  scenario.StartTraffic();
  scenario.sim().RunFor(120 * sim::kSecond);
  EXPECT_TRUE(scenario.AllCompleted()) << "seed " << seed << " workers " << workers;
  // Cross-cluster traffic crosses the backbone, so its tap sees uids drawn
  // in more than one cluster region.
  EXPECT_GE(taps[0].regions().size(), 2u) << "workers " << workers;
  std::string witness;
  for (size_t i = 0; i < taps.size(); ++i) {
    witness += util::Format("tap %zu packets=%llu uid_hash=%016llx\n", i,
                            static_cast<unsigned long long>(taps[i].packets()),
                            static_cast<unsigned long long>(taps[i].hash()));
  }
  return witness;
}

TEST(ParallelMultiGatewayTest, PacketUidsAreWorkerCountInvariant) {
  testing::ExpectDeterministicAcrossWorkerCounts(
      "multi-gateway uids seed 42", [](int workers) { return MultiGatewayUidRun(42, workers); });
}

TEST(ParallelMultiGatewayTest, DifferentSeedsDiverge) {
  const std::string a = MultiGatewayRun(42, 4, true);
  const std::string b = MultiGatewayRun(43, 4, true);
  EXPECT_NE(a, b) << "different seeds produced identical witnesses";
}

TEST(ParallelMultiGatewayTest, ParallelRunExercisesTheEpochLoop) {
  core::MultiGatewayConfig cfg;
  cfg.sim.num_workers = 4;
  core::MultiGatewayScenario scenario(cfg);
  scenario.StartTraffic();
  scenario.sim().RunFor(120 * sim::kSecond);
  EXPECT_EQ(scenario.sim().RegionCount(), 5u);  // Backbone + 4 clusters.
  EXPECT_GT(scenario.sim().epochs(), 0u);
  EXPECT_GT(scenario.sim().cross_region_events(), 0u);
}

}  // namespace
}  // namespace comma
