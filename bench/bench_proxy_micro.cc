// E11 (thesis §5.1.3): the run-time environment question — what does the
// native (binary) filter environment cost per packet? Google-benchmark
// microbenchmarks of the proxy's hot paths: packet construction, checksum
// work, metric primitives, compression, and the raw simulator event loop.
// The filter-queue cost itself is perfbench's sp.filter_queue_ns.{0,1,2,4},
// timed on a pre-built packet so construction does not count.
#include <benchmark/benchmark.h>

#include <cstring>

#include "src/net/checksum.h"
#include "src/net/packet.h"
#include "src/obs/metric_registry.h"
#include "src/sim/simulator.h"
#include "src/util/compress.h"

namespace {

using namespace comma;

net::PacketPtr MakeSegment(size_t payload_len) {
  net::TcpHeader h;
  h.src_port = 7;
  h.dst_port = 1169;
  h.seq = 1000;
  h.flags = net::kTcpAck;
  h.window = 8192;
  return net::Packet::MakeTcp(net::Ipv4Address(10, 0, 0, 99), net::Ipv4Address(11, 11, 10, 10),
                              h, util::Bytes(payload_len, 0x55));
}

void BM_PacketConstructTcp(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeSegment(static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_PacketConstructTcp)->Arg(0)->Arg(1000);

void BM_InternetChecksum(benchmark::State& state) {
  util::Bytes data(static_cast<size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::InternetChecksum(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500)->Arg(65536);

void BM_UpdateChecksums(benchmark::State& state) {
  auto p = MakeSegment(1000);
  for (auto _ : state) {
    p->tcp().window ^= 1;  // Dirty it.
    p->UpdateChecksums();
    benchmark::DoNotOptimize(p->tcp().checksum);
  }
}
BENCHMARK(BM_UpdateChecksums);

// The observability substrate's hot-path primitives (docs/observability.md).
// perfbench's sp.filter_queue_ns.{0,1,2,4} (the per-packet filter-queue cost,
// E11) already includes the per-filter telemetry cost — the registry is
// always on — these isolate the primitives themselves so a regression is
// attributable.
void BM_MetricCounterInc(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("bench.counter");
  for (auto _ : state) {
    c->Inc();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MetricCounterInc);

void BM_MetricHistogramObserve(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::HistogramMetric* h = reg.GetHistogram("bench.hist", 0.0, 1000.0, 50);
  double x = 0.0;
  for (auto _ : state) {
    h->Observe(x);
    x += 1.0;
    if (x >= 1000.0) {
      x = 0.0;
    }
  }
}
BENCHMARK(BM_MetricHistogramObserve);

// Snapshot of a realistically-sized registry (what `stats` and the EEM
// bridge pay) — off the packet path, but bounds the publication cost.
void BM_MetricSnapshot(benchmark::State& state) {
  obs::MetricRegistry reg;
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("bench.family" + std::to_string(i % 10) + ".counter" + std::to_string(i))
        ->Inc(static_cast<uint64_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.Snapshot());
  }
}
BENCHMARK(BM_MetricSnapshot);

void BM_CompressLz(benchmark::State& state) {
  util::Bytes text;
  const char* phrase = "transparent communication management in wireless networks ";
  while (text.size() < 1000) {
    text.insert(text.end(), phrase, phrase + strlen(phrase));
  }
  text.resize(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Compress(text, util::Codec::kLz));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_CompressLz);

void BM_DecompressLz(benchmark::State& state) {
  util::Bytes text(1000);
  for (size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<uint8_t>("abcdabcdefef"[i % 12]);
  }
  util::Bytes compressed = util::Compress(text, util::Codec::kLz);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Decompress(compressed));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_DecompressLz);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventLoop);

}  // namespace

BENCHMARK_MAIN();
