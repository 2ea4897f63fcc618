// Per-layer microbenches on pre-built packets: nothing but the named call is
// inside the timed region (packet construction, payload copies and frees of
// the batch happen outside it).
#include <algorithm>
#include <stdexcept>

#include "perfbench/bench.h"
#include "src/core/scenario.h"
#include "src/filters/standard_set.h"
#include "src/net/checksum.h"
#include "src/proxy/service_proxy.h"
#include "src/util/stats.h"
#include "src/util/strings.h"

namespace perfbench {

namespace {

using namespace comma;

constexpr size_t kBatch = 256;
constexpr int kBatches = 41;
constexpr int kRounds = 8;  // Calls per batch slot; a timed batch is kBatch * kRounds calls.

util::Bytes Payload(size_t size) {
  util::Bytes payload(size);
  for (size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return payload;
}

net::TcpHeader SegmentHeader() {
  net::TcpHeader h;
  h.src_port = 7;
  h.dst_port = 1169;
  h.seq = 1000;
  h.flags = net::kTcpAck;
  h.window = 8192;
  return h;
}

const net::Ipv4Address kSrc(10, 0, 0, 1);
const net::Ipv4Address kDst(11, 11, 10, 10);

net::PacketPtr MakeSegment(size_t size) {
  net::PacketPtr p = net::Packet::MakeTcp(kSrc, kDst, SegmentHeader(), Payload(size));
  p->UpdateChecksums();
  return p;
}

// Median over kBatches of the time per call. `prepare` runs untimed before
// each batch; `call(i)` is timed for every slot i of the batch.
template <typename Prepare, typename Call>
double MedianNs(Prepare prepare, Call call, int rounds = kRounds) {
  util::Percentiles per_call;
  for (int b = 0; b <= kBatches; ++b) {
    prepare();
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      for (size_t i = 0; i < kBatch; ++i) {
        call(i);
      }
    }
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    if (b > 0) {  // Batch 0 warms caches.
      per_call.Add(ns / static_cast<double>(kBatch * static_cast<size_t>(rounds)));
    }
  }
  return per_call.Median();
}

// The proxy's per-packet cost on a pre-built 1000-byte segment with the
// first `filters` of {tcp, meter, wsize clamp, rdrop 0} on its stream.
double FilterQueueNs(int filters) {
  core::ScenarioConfig cfg;
  cfg.wireless.loss_probability = 0.0;
  core::WirelessScenario scenario(cfg);
  proxy::ServiceProxy sp(&scenario.gateway(), filters::StandardRegistry());
  const proxy::StreamKey key{scenario.wired_addr(), 7, scenario.mobile_addr(), 1169};
  const std::pair<const char*, std::vector<std::string>> services[] = {
      {"tcp", {}}, {"meter", {}}, {"wsize", {"clamp", "8192"}}, {"rdrop", {"0"}}};
  for (int i = 0; i < filters; ++i) {
    std::string error;
    if (!sp.AddService(services[i].first, key, services[i].second, &error)) {
      throw std::runtime_error(std::string("filter_queue: ") + error);
    }
  }
  net::PacketPtr packet = net::Packet::MakeTcp(scenario.wired_addr(), scenario.mobile_addr(),
                                               SegmentHeader(), Payload(1000));
  packet->UpdateChecksums();
  const net::TapContext ctx{&scenario.gateway(), 0};
  const double ns = MedianNs([] {}, [&](size_t) { DoNotOptimize(sp.OnPacket(packet, ctx)); });
  if (packet == nullptr) {
    throw std::runtime_error("filter_queue: the proxy consumed the benchmark packet");
  }
  return ns;
}

}  // namespace

std::map<std::string, double> RunMicrobenches() {
  std::map<std::string, double> out;
  for (const size_t size : {size_t{64}, size_t{1000}, size_t{1460}}) {
    net::PacketPtr p = MakeSegment(size);
    out[util::Format("net.update_checksums_ns.%zu", size)] = MedianNs([] {}, [&](size_t) {
      p->tcp().window ^= 1;  // Dirty the header.
      p->UpdateChecksums();
      DoNotOptimize(p->tcp().checksum);
    });
    out[util::Format("net.verify_checksums_ns.%zu", size)] =
        MedianNs([] {}, [&](size_t) { DoNotOptimize(p->VerifyChecksums()); });
    std::vector<util::Bytes> wires(kBatch);
    out[util::Format("net.serialize_ns.%zu", size)] = MedianNs(
        [&] { std::fill(wires.begin(), wires.end(), util::Bytes()); },
        [&](size_t i) { wires[i] = p->Serialize(); }, 1);
    std::vector<net::PacketPtr> packets(kBatch);
    const auto clear = [&] { std::fill(packets.begin(), packets.end(), nullptr); };
    out[util::Format("net.clone_ns.%zu", size)] =
        MedianNs(clear, [&](size_t i) { packets[i] = p->Clone(); }, 1);
    const util::Bytes payload = Payload(size);
    std::vector<util::Bytes> payloads(kBatch);
    out[util::Format("net.make_tcp_ns.%zu", size)] = MedianNs(
        [&] {
          clear();
          std::fill(payloads.begin(), payloads.end(), payload);
        },
        [&](size_t i) {
          packets[i] = net::Packet::MakeTcp(kSrc, kDst, SegmentHeader(), std::move(payloads[i]));
        },
        1);
  }
  const util::Bytes data = Payload(1500);
  out["net.internet_checksum_ns.1500"] = MedianNs(
      [] {}, [&](size_t) { DoNotOptimize(net::InternetChecksum(data.data(), data.size())); });
  for (const int filters : {0, 1, 2, 4}) {
    out[util::Format("sp.filter_queue_ns.%d", filters)] = FilterQueueNs(filters);
  }
  return out;
}

}  // namespace perfbench
