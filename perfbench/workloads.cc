// The three session workloads. Each session builds a fresh system from its
// seed, runs its traffic to completion through the public APIs, verifies the
// outputs and renders a witness: app outputs plus link and end-host TCP
// counters, without event counts or wall-clock values.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "perfbench/bench.h"
#include "src/apps/bulk.h"
#include "src/apps/dns.h"
#include "src/apps/http.h"
#include "src/core/comma_system.h"
#include "src/core/multi_gateway.h"
#include "src/filters/http_filters.h"
#include "src/sim/random.h"
#include "src/sim/witness.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

using namespace comma;
using ULL = unsigned long long;

// The benchmark's own draws from a session seed (loss class, DNS names): a
// stream apart from the ones the scenario derives from the same seed.
sim::Random SessionDraws(uint64_t seed) {
  constexpr uint64_t kBenchStream = 0xbe4c;
  return sim::Random(sim::DeriveStreamSeed(seed, kBenchStream));
}

// --- Timing taps (traced sessions only) --------------------------------------

// Takes the gateway proxy's place on its node and forwards every packet to
// ServiceProxy::OnPacket inside an sp.on_packet span.
class ProxyTimingTap final : public net::PacketTap {
 public:
  ProxyTimingTap(proxy::ServiceProxy* sp, Tracer* tracer) : sp_(sp), tracer_(tracer) {
    sp_->node()->RemoveTap(sp_);
    sp_->node()->AddTap(this);
  }
  ~ProxyTimingTap() override { sp_->node()->RemoveTap(this); }
  ProxyTimingTap(const ProxyTimingTap&) = delete;
  ProxyTimingTap& operator=(const ProxyTimingTap&) = delete;

  net::TapVerdict OnPacket(net::PacketPtr& packet, const net::TapContext& ctx) override {
    Span span(tracer_, SpanKind::kSpOnPacket);
    return sp_->OnPacket(packet, ctx);
  }

 private:
  proxy::ServiceProxy* sp_;
  Tracer* tracer_;
};

// Times tcp.rx on an end host: takes each arriving TCP segment addressed to
// the host and re-enters it with ReinjectPacket, so the span covers node
// demux, TCP input and whatever TCP sends synchronously in reply. The guard
// lets the re-entered packet pass.
class RxTimingTap final : public net::PacketTap {
 public:
  RxTimingTap(net::Node* node, Tracer* tracer) : node_(node), tracer_(tracer) {
    node_->AddTap(this);
  }
  ~RxTimingTap() override { node_->RemoveTap(this); }
  RxTimingTap(const RxTimingTap&) = delete;
  RxTimingTap& operator=(const RxTimingTap&) = delete;

  net::TapVerdict OnPacket(net::PacketPtr& packet, const net::TapContext& ctx) override {
    if (reentered_ || ctx.outbound || !packet->has_tcp() ||
        !node_->IsLocalAddress(packet->ip().dst)) {
      return net::TapVerdict::kPass;
    }
    Span span(tracer_, SpanKind::kTcpRx);
    reentered_ = true;
    node_->ReinjectPacket(std::move(packet));
    reentered_ = false;
    return net::TapVerdict::kConsume;
  }

 private:
  net::Node* node_;
  Tracer* tracer_;
  bool reentered_ = false;
};

// The timing taps of a single-gateway system.
struct SystemTaps {
  SystemTaps(core::CommaSystem& comma, Tracer* tracer)
      : proxy(&comma.sp(), tracer),
        wired(&comma.scenario().wired_host(), tracer),
        mobile(&comma.scenario().mobile_host(), tracer) {}
  ProxyTimingTap proxy;
  RxTimingTap wired;
  RxTimingTap mobile;
};

// --- Shared session steps ----------------------------------------------------

// Runs `sim` in `slice` steps until `done()` or until `limit` simulated
// time. This loop is the session's timed region.
template <typename Done>
void DriveTraffic(sim::Simulator& sim, sim::Duration slice, sim::TimePoint limit, Done done,
                  Tracer* tracer, SessionResult& r) {
  const uint64_t allocs = AllocCount();
  const uint64_t alloc_bytes = AllocBytes();
  SetAllocCounting(tracer != nullptr);
  const Clock::time_point start = Clock::now();
  while (!done() && sim.Now() < limit) {
    Span span(tracer, SpanKind::kRunFor);
    sim.RunFor(slice);
  }
  r.traffic_s = SecondsSince(start);
  SetAllocCounting(false);
  r.counters["net.allocs"] = static_cast<double>(AllocCount() - allocs);
  r.counters["net.alloc_bytes"] = static_cast<double>(AllocBytes() - alloc_bytes);
  if (!done()) {
    r.Fail(util::Format("timeout at simulated t=%.1fs", sim::DurationToSeconds(sim.Now())));
  }
}

void AddSimCounters(const sim::Simulator& sim, SessionResult& r) {
  r.counters["sim.events"] = static_cast<double>(sim.EventsRun());
  r.counters["sim.epochs"] = static_cast<double>(sim.epochs());
  r.counters["sim.cross_region_events"] = static_cast<double>(sim.cross_region_events());
  r.counters["sim.critical_path_events"] = static_cast<double>(sim.critical_path_events());
  r.counters["sim.barrier_wait_us"] = static_cast<double>(sim.barrier_wait_us());
  r.counters["sim.workers"] = std::max(1, sim.options().num_workers);
}

// One line per link side, in MultiGatewayScenario::LinkStatsWitness format.
std::string LinkWitness(const net::Link& link) {
  std::string out;
  for (int side = 0; side < 2; ++side) {
    const net::LinkSideStats& s = link.stats(side);
    out += util::Format("%s[%d] tx=%llu/%llu rx=%llu/%llu drops=%llu/%llu/%llu corrupt=%llu\n",
                        link.name().c_str(), side, static_cast<ULL>(s.tx_packets),
                        static_cast<ULL>(s.tx_bytes), static_cast<ULL>(s.rx_packets),
                        static_cast<ULL>(s.rx_bytes), static_cast<ULL>(s.drops_queue),
                        static_cast<ULL>(s.drops_error), static_cast<ULL>(s.drops_down),
                        static_cast<ULL>(s.corrupted));
  }
  return out;
}

// Sums the link counters out of LinkWitness-format lines.
void CountLinks(const std::string& lines, SessionResult& r) {
  std::istringstream in(lines);
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find(" tx=");
    ULL tx = 0, queue = 0, error = 0, down = 0;
    if (at != std::string::npos &&
        std::sscanf(line.c_str() + at, " tx=%llu/%*[0-9] rx=%*[0-9]/%*[0-9] drops=%llu/%llu/%llu", &tx,
                    &queue, &error, &down) == 4) {
      r.counters["net.link_tx_packets"] += static_cast<double>(tx);
      r.counters["net.link_drops_queue"] += static_cast<double>(queue);
      r.counters["net.link_drops_error"] += static_cast<double>(error);
      r.counters["net.link_drops_down"] += static_cast<double>(down);
    }
  }
}

// End-host TCP counters: into the witness, and the tcp.* layer counts.
void AddTcp(core::Host& host, SessionResult& r) {
  const tcp::TcpStats t = host.tcp().Totals();
  const uint64_t checksum_failures = host.tcp().checksum_failures();
  r.witness += util::Format(
      "%s tcp sent=%llu retx=%llu rcvd=%llu segs=%llu/%llu rto=%llu fastrx=%llu dupacks=%llu/%llu "
      "ooo=%llu csum_fail=%llu\n",
      host.name().c_str(), static_cast<ULL>(t.bytes_sent), static_cast<ULL>(t.bytes_retransmitted),
      static_cast<ULL>(t.bytes_received), static_cast<ULL>(t.segments_sent),
      static_cast<ULL>(t.segments_received), static_cast<ULL>(t.retransmit_timeouts),
      static_cast<ULL>(t.fast_retransmits), static_cast<ULL>(t.dupacks_received),
      static_cast<ULL>(t.dupacks_sent), static_cast<ULL>(t.out_of_order_segments),
      static_cast<ULL>(checksum_failures));
  r.counters["tcp.bytes_retransmitted"] += static_cast<double>(t.bytes_retransmitted);
  r.counters["tcp.retransmit_timeouts"] += static_cast<double>(t.retransmit_timeouts);
  r.counters["tcp.checksum_failures"] += static_cast<double>(checksum_failures);
  if (checksum_failures != 0) {
    r.Fail(host.name() + " saw TCP checksum failures");
  }
}

// Link, end-host TCP and simulator counters of a single-gateway system.
void AddSystem(core::CommaSystem& comma, SessionResult& r) {
  std::string links = LinkWitness(comma.scenario().wired_link());
  links += LinkWitness(comma.scenario().wireless_link());
  CountLinks(links, r);
  r.witness += links;
  AddTcp(comma.scenario().wired_host(), r);
  AddTcp(comma.scenario().mobile_host(), r);
  AddSimCounters(comma.sim(), r);
}

// The proxy, filter, reassembly and compression counts, read from the
// gateway proxy's metric registry. http.fail_open goes into the witness
// but does not fail the session here: a teardown RST can latch it after
// every response was delivered and verified (README.md, "Known problems
// found by the benchmark"). HttpFleet fails the session for a filter that
// failed open while its client still had responses outstanding.
void AddProxy(const proxy::ServiceProxy& sp, SessionResult& r) {
  const obs::MetricRegistry& reg = sp.metrics();
  for (const char* family : {"sp", "ttsf", "http", "dns"}) {
    for (const obs::MetricSample& m : reg.Snapshot(family)) {
      r.counters[m.name] = m.value;
    }
  }
  r.witness += util::Format("http.fail_open=%llu\n",
                            static_cast<ULL>(reg.Read("http.fail_open").value_or(0)));
  // Attachments scanned over all queue resolutions.
  r.counters["sp.queue_resolve_work"] = reg.Read("sp.queue_resolve_work.count").value_or(0) *
                                        reg.Read("sp.queue_resolve_work.mean").value_or(0);
  if (sp.stats().filters_quarantined != 0) {
    r.Fail("a filter was quarantined");
  }
}

core::CommaSystemConfig SingleGatewayConfig(uint64_t seed, double loss) {
  core::CommaSystemConfig config;
  config.scenario.seed = seed;
  config.scenario.wireless.loss_probability = loss;
  config.start_command_server = false;
  config.start_eem = false;
  return config;
}

// --- bulk_snoop --------------------------------------------------------------

constexpr size_t kBulkBytes = 1'000'000;

const util::Bytes& BulkPayload() {
  static const util::Bytes payload = apps::PatternPayload(kBulkBytes);
  return payload;
}

SessionResult BulkSnoopSession(uint64_t seed, Tracer* tracer) {
  // Wireless loss of the session. 2% is listed twice so that the median
  // session falls inside one loss class; with four equal classes it would
  // sit on the boundary between the 1% and 2% sessions and jump between
  // them from run to run.
  static constexpr double kLoss[] = {0.0, 0.01, 0.02, 0.02, 0.05};
  const double loss = kLoss[SessionDraws(seed).NextBelow(std::size(kLoss))];
  SessionResult r;
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<core::CommaSystem> comma;
  std::optional<SystemTaps> taps;
  std::unique_ptr<apps::BulkSink> sink;
  std::unique_ptr<apps::BulkSender> sender;
  {
    Span span(tracer, SpanKind::kSetup);
    comma = std::make_unique<core::CommaSystem>(SingleGatewayConfig(seed, loss));
    std::string error;
    const proxy::StreamKey to_mobile{net::Ipv4Address(), 0, comma->scenario().mobile_addr(), 0};
    if (!comma->sp().AddService("launcher", to_mobile, {"tcp", "snoop"}, &error)) {
      r.Fail("launcher: " + error);
      return r;
    }
    if (tracer != nullptr) {
      taps.emplace(*comma, tracer);
    }
    sink = std::make_unique<apps::BulkSink>(&comma->scenario().mobile_host(), 80);
    sender = std::make_unique<apps::BulkSender>(&comma->scenario().wired_host(),
                                                comma->scenario().mobile_addr(), 80, BulkPayload());
  }
  r.setup_s = SecondsSince(setup_start);

  DriveTraffic(
      comma->sim(), 100 * sim::kMillisecond, 600 * sim::kSecond,
      [&] { return sender->finished() && sink->bytes_received() == kBulkBytes; }, tracer, r);

  if (sink->received() != BulkPayload()) {
    r.Fail(util::Format("sink holds %zu bytes that differ from the payload",
                        sink->bytes_received()));
  }
  r.witness = util::Format("bulk loss=%.2f received=%zu payload_match=%d started=%lld finished=%lld\n",
                           loss, sink->bytes_received(), sink->received() == BulkPayload() ? 1 : 0,
                           static_cast<long long>(sender->started_at()),
                           static_cast<long long>(sender->finished_at()));
  AddSystem(*comma, r);
  AddProxy(comma->sp(), r);
  r.delivered_bytes = r.ok ? kBulkBytes : 0;
  return r;
}

// --- web_adapt ---------------------------------------------------------------

constexpr size_t kHttpSlots = 3;     // Concurrent clients.
constexpr size_t kHttpClients = 12;  // Connections per session.
constexpr size_t kDnsQueries = 48;
constexpr uint64_t kDnsNames = 8;
constexpr sim::Duration kDnsSpacing = 100 * sim::kMillisecond;
constexpr sim::Duration kDnsRetry = 500 * sim::kMillisecond;

// bench_http's mixed set, pipelined 4 deep: compressible text, layered media
// and images. bench_http's trailing POST is left out: at 2% loss its response
// never arrives in about 2% of sessions (README.md, "Known problems found by the benchmark").
std::vector<apps::HttpRequestSpec> HttpRequests() {
  std::vector<apps::HttpRequestSpec> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back({"GET", util::Format("/text/%d", 16000 + i * 512), {}});
  }
  reqs.push_back({"GET", "/media/3/30/600", {}});
  reqs.push_back({"GET", "/media/3/30/600", {}});
  reqs.push_back({"GET", "/image/12000", {}});
  reqs.push_back({"GET", "/image/12000", {}});
  return reqs;
}

// Useful bytes one client must report under htype:0: decoded text, the base
// media layer and raw images.
uint64_t ExpectedUsefulBytes() {
  uint64_t total = 0;
  for (int i = 0; i < 4; ++i) {
    total += static_cast<uint64_t>(16000 + i * 512);
  }
  total += 2 * apps::MediaUsefulBytes(apps::MediaBody(3, 30, 600), 0);
  total += 2 * 12000;
  return total;
}

// Keeps kHttpSlots clients fetching at once, each on its own connection; a
// finished client's slot opens a fresh connection until kHttpClients ran.
class HttpFleet {
 public:
  HttpFleet(core::WirelessScenario* scenario, proxy::ServiceProxy* sp)
      : scenario_(scenario), sp_(sp) {
    for (size_t i = 0; i < kHttpSlots; ++i) {
      StartClient();
    }
  }
  HttpFleet(const HttpFleet&) = delete;
  HttpFleet& operator=(const HttpFleet&) = delete;

  bool done() const {
    return clients_.size() == kHttpClients &&
           std::all_of(clients_.begin(), clients_.end(),
                       [](const auto& c) { return c->finished(); });
  }
  const std::vector<std::unique_ptr<apps::HttpClient>>& clients() const { return clients_; }
  // Clients whose stream had no hrewrite or htype, or whose hrewrite or
  // htype had failed open, by the time their last response arrived.
  int unfiltered() const { return unfiltered_; }

 private:
  void StartClient() {
    clients_.push_back(std::make_unique<apps::HttpClient>(
        &scenario_->mobile_host(), scenario_->wired_addr(), 80, HttpRequests()));
    apps::HttpClient* client = clients_.back().get();
    const proxy::StreamKey key{scenario_->mobile_addr(), client->connection()->local_port(),
                               scenario_->wired_addr(), 80};
    client->set_on_finished([this, key] {
      if (!Filtering(key, "hrewrite") || !Filtering(key, "htype")) {
        ++unfiltered_;
      }
      if (clients_.size() < kHttpClients) {
        // Out of the finishing client's TCP callback before connecting anew.
        scenario_->sim().Schedule(0, [this] { StartClient(); });
      }
    });
  }

  bool Filtering(const proxy::StreamKey& key, const char* filter) const {
    const auto* f = dynamic_cast<filters::HttpStreamFilterBase*>(sp_->FindFilterOnKey(key, filter));
    return f != nullptr && !f->fail_open();
  }

  core::WirelessScenario* scenario_;
  proxy::ServiceProxy* sp_;
  std::vector<std::unique_ptr<apps::HttpClient>> clients_;
  int unfiltered_ = 0;
};

util::Bytes ExpectedRdata(const std::string& name) {
  const uint32_t addr = apps::DnsAddressFor(name).value();
  return {static_cast<uint8_t>(addr >> 24), static_cast<uint8_t>(addr >> 16),
          static_cast<uint8_t>(addr >> 8), static_cast<uint8_t>(addr)};
}

// Sends the session's DNS queries one kDnsSpacing apart and re-asks any
// query still unanswered after kDnsRetry (UDP has no retransmission of its
// own, and the wireless hop loses packets).
class DnsProbe {
 public:
  DnsProbe(sim::Simulator* sim, apps::DnsClient* client, std::vector<std::string> names)
      : sim_(sim), client_(client), names_(std::move(names)), attempts_(names_.size(), 0),
        answered_(names_.size(), false), remaining_(names_.size()) {
    for (size_t i = 0; i < names_.size(); ++i) {
      sim_->Schedule(static_cast<sim::Duration>(i) * kDnsSpacing, [this, i] { Ask(i); });
    }
  }
  DnsProbe(const DnsProbe&) = delete;
  DnsProbe& operator=(const DnsProbe&) = delete;

  bool done() const { return remaining_ == 0; }
  bool all_correct() const { return wrong_ == 0; }
  std::string Witness() const {
    std::string out = "dns";
    for (size_t i = 0; i < names_.size(); ++i) {
      out += util::Format(" %s/%d", names_[i].c_str(), attempts_[i]);
    }
    return out + util::Format(" wrong=%d\n", wrong_);
  }

 private:
  void Ask(size_t i) {
    if (answered_[i]) {
      return;
    }
    ++attempts_[i];
    client_->Resolve(names_[i], [this, i](const reassembly::DnsMessage& m) { OnAnswer(i, m); });
    sim_->Schedule(kDnsRetry, [this, i] { Ask(i); });
  }

  void OnAnswer(size_t i, const reassembly::DnsMessage& m) {
    if (answered_[i]) {
      return;
    }
    answered_[i] = true;
    --remaining_;
    if (m.answers.size() != 1 || m.answers[0].rdata != ExpectedRdata(names_[i])) {
      ++wrong_;
    }
  }

  sim::Simulator* sim_;
  apps::DnsClient* client_;
  std::vector<std::string> names_;
  std::vector<int> attempts_;
  std::vector<bool> answered_;
  size_t remaining_;
  int wrong_ = 0;
};

SessionResult WebAdaptSession(uint64_t seed, Tracer* tracer) {
  static const uint64_t expected_useful = ExpectedUsefulBytes();
  SessionResult r;
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<core::CommaSystem> comma;
  std::optional<SystemTaps> taps;
  std::unique_ptr<apps::HttpServer> server;
  std::unique_ptr<apps::DnsServer> resolver;
  std::unique_ptr<HttpFleet> fleet;
  std::unique_ptr<apps::DnsClient> dns;
  std::unique_ptr<DnsProbe> probe;
  {
    Span span(tracer, SpanKind::kSetup);
    comma = std::make_unique<core::CommaSystem>(SingleGatewayConfig(seed, 0.02));
    core::WirelessScenario& s = comma->scenario();
    std::string error;
    const proxy::StreamKey to_origin{net::Ipv4Address(), 0, s.wired_addr(), 80};
    const proxy::StreamKey to_resolver{s.mobile_addr(), 0, s.wired_addr(),
                                       apps::DnsServer::kDnsPort};
    if (!comma->sp().AddService("launcher", to_origin, {"tcp", "ttsf", "hrewrite", "htype:0"},
                                &error) ||
        !comma->sp().AddService("dnscache", to_resolver, {}, &error)) {
      r.Fail("services: " + error);
      return r;
    }
    if (tracer != nullptr) {
      taps.emplace(*comma, tracer);
    }
    server = std::make_unique<apps::HttpServer>(&s.wired_host(), 80);
    resolver = std::make_unique<apps::DnsServer>(&s.wired_host());
    fleet = std::make_unique<HttpFleet>(&s, &comma->sp());
    dns = std::make_unique<apps::DnsClient>(&s.mobile_host(), s.wired_addr());
    sim::Random draws = SessionDraws(seed);
    std::vector<std::string> names;
    for (size_t i = 0; i < kDnsQueries; ++i) {
      names.push_back(util::Format("n%llu.example", static_cast<ULL>(draws.NextBelow(kDnsNames))));
    }
    probe = std::make_unique<DnsProbe>(&comma->sim(), dns.get(), std::move(names));
  }
  r.setup_s = SecondsSince(setup_start);

  DriveTraffic(
      comma->sim(), 100 * sim::kMillisecond, 300 * sim::kSecond,
      [&] { return probe->done() && fleet->done(); }, tracer, r);

  const size_t requests = HttpRequests().size();
  if (fleet->clients().size() != kHttpClients) {
    r.Fail(util::Format("%zu of %zu HTTP clients started", fleet->clients().size(),
                        kHttpClients));
  }
  for (const auto& c : fleet->clients()) {
    r.witness += util::Format("http responses=%zu useful=%llu body=%llu failed=%d finished=%lld\n",
                              c->responses_received(), static_cast<ULL>(c->useful_bytes()),
                              static_cast<ULL>(c->body_bytes()), c->failed() ? 1 : 0,
                              static_cast<long long>(c->finished_at()));
    if (c->failed() || c->responses_received() != requests) {
      r.Fail(util::Format("HTTP client got %zu of %zu responses%s", c->responses_received(),
                          requests, c->failed() ? " and failed to parse" : ""));
    } else if (c->useful_bytes() != expected_useful) {
      r.Fail(util::Format("HTTP useful bytes %llu, expected %llu",
                          static_cast<ULL>(c->useful_bytes()), static_cast<ULL>(expected_useful)));
    }
    r.delivered_bytes += c->useful_bytes();
  }
  r.witness += util::Format("server served=%llu parse_failures=%llu\n",
                            static_cast<ULL>(server->requests_served()),
                            static_cast<ULL>(server->parse_failures()));
  r.witness += probe->Witness();
  if (!probe->done()) {
    r.Fail("DNS queries left unanswered");
  }
  if (!probe->all_correct()) {
    r.Fail("a DNS answer differs from DnsAddressFor(name)");
  }
  if (fleet->unfiltered() != 0) {
    r.Fail(util::Format("%d HTTP streams lacked hrewrite/htype or failed open before their "
                        "last response", fleet->unfiltered()));
  }
  AddSystem(*comma, r);
  AddProxy(comma->sp(), r);
  if (!r.ok) {
    r.delivered_bytes = 0;
  }
  return r;
}

// --- multigw_pdes ------------------------------------------------------------

constexpr size_t kLocalBytes = 10'000'000;
constexpr size_t kCrossBytes = 2'500'000;

int SimWorkers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

uint64_t PayloadHash(size_t bytes) {
  const util::Bytes payload = apps::PatternPayload(bytes);
  return sim::WitnessHash(std::string(payload.begin(), payload.end()));
}

// Checks every StreamWitness line against the generated payloads.
void VerifyStreams(const std::string& lines, int clusters, SessionResult& r) {
  static const uint64_t local_hash = PayloadHash(kLocalBytes);
  static const uint64_t cross_hash = PayloadHash(kCrossBytes);
  int streams = 0;
  std::istringstream in(lines);
  std::string line;
  while (std::getline(in, line)) {
    int cluster = 0, port = 0;
    ULL bytes = 0, hash = 0;
    if (std::sscanf(line.c_str(), "cluster=%d port=%d bytes=%llu hash=%llx", &cluster, &port,
                    &bytes, &hash) != 4) {
      continue;
    }
    ++streams;
    const bool local = port == 80;
    if (bytes != (local ? kLocalBytes : kCrossBytes) || hash != (local ? local_hash : cross_hash)) {
      r.Fail(util::Format("cluster %d port %d received the wrong bytes", cluster, port));
    }
  }
  if (streams != 2 * clusters) {
    r.Fail(util::Format("%d of %d streams reported", streams, 2 * clusters));
  }
}

// bench_parallel's dense 4-cluster variant with flaps and the tcp filter on
// every gateway, with transfers scaled to 10 MB local + 2.5 MB cross.
SessionResult MultiGatewaySession(uint64_t seed, Tracer* tracer) {
  SessionResult r;
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<core::MultiGatewayScenario> scenario;
  {
    Span span(tracer, SpanKind::kSetup);
    core::MultiGatewayConfig config;
    config.clusters = 4;
    config.seed = seed;
    config.sim.num_workers = SimWorkers();
    config.with_flaps = true;
    config.wireless.bandwidth_bps = 100'000'000;
    config.wireless.loss_probability = 0.005;
    config.wired.bandwidth_bps = 100'000'000;
    config.backbone.bandwidth_bps = 1'000'000'000;
    config.backbone.propagation_delay = 20 * sim::kMillisecond;
    config.local_bytes = kLocalBytes;
    config.cross_bytes = kCrossBytes;
    scenario = std::make_unique<core::MultiGatewayScenario>(config);
    scenario->StartTraffic();
  }
  r.setup_s = SecondsSince(setup_start);

  DriveTraffic(
      scenario->sim(), sim::kSecond, 300 * sim::kSecond,
      [&] { return scenario->AllCompleted(); }, tracer, r);

  const std::string streams = scenario->StreamWitness();
  VerifyStreams(streams, scenario->clusters(), r);
  const std::string links = scenario->LinkStatsWitness();
  CountLinks(links, r);
  r.witness = "=== faults ===\n" + scenario->FaultLog() + "=== streams ===\n" + streams +
              "=== links ===\n" + links;
  for (int k = 0; k < scenario->clusters(); ++k) {
    AddTcp(scenario->wired_host(k), r);
    AddTcp(scenario->mobile_host(k), r);
  }
  AddSimCounters(scenario->sim(), r);
  r.delivered_bytes = r.ok ? static_cast<uint64_t>(scenario->clusters()) * (kLocalBytes + kCrossBytes) : 0;
  return r;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // About 3500 and 800 sessions per 30 s run: blocks of ~120 and ~28.
      {"bulk_snoop", BulkSnoopSession, 0x80a8537c879d6878ULL, 95, 30},
      {"web_adapt", WebAdaptSession, 0x3abdbe1cadb1b9bdULL, 95, 30},
      // About 60 sessions per 30 s run: too few to split into blocks.
      {"multigw_pdes", MultiGatewaySession, 0xaaa6c1965a95fde3ULL, 75, 1},
  };
  return workloads;
}

}  // namespace perfbench
