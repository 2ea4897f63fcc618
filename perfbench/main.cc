// The Comma benchmark's main program.
//
//   perfbench --workload <bulk_snoop|web_adapt|multigw_pdes> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//             [--expect-witness <hex>]
//
// Runs sessions of one workload back to back (a closed loop) for --seconds
// of wall time, after one pinned session whose witness hash must match the
// value fixed in workloads.cc. Prints a table, then one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 if any session failed or a witness did not match.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "perfbench/bench.h"
#include "src/sim/random.h"
#include "src/sim/witness.h"
#include "src/util/stats.h"

namespace perfbench {
namespace {

using comma::util::Percentiles;

struct Options {
  std::string workload;
  uint64_t seed = kPinnedSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool expect_given = false;
  uint64_t expect_witness = 0;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt->trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      opt->trace_out = value;
    } else if (arg == "--expect-witness") {
      opt->expect_given = true;
      opt->expect_witness = std::strtoull(value, &end, 16);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds >= 0;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

// Verified sessions of one kind (untraced or traced) of a run.
struct Tally {
  uint64_t sessions = 0;
  uint64_t bytes = 0;
  double traffic_s = 0;
  // Per session, in session order.
  std::vector<uint64_t> session_bytes;
  std::vector<double> session_ms;
  std::vector<double> session_setup_s;
  std::map<std::string, double> counters;

  void Add(const SessionResult& r) {
    ++sessions;
    bytes += r.delivered_bytes;
    traffic_s += r.traffic_s;
    session_bytes.push_back(r.delivered_bytes);
    session_ms.push_back(r.traffic_s * 1000);
    session_setup_s.push_back(r.setup_s);
    for (const auto& [name, value] : r.counters) {
      counters[name] += value;
    }
  }
  double Count(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// The workload's tail percentile (nearest rank) when at least ten sessions
// lie beyond it; otherwise the highest percentile that has ten beyond it
// (the 11th slowest session), or the slowest session when there are fewer
// than 11.
struct Tail {
  double ms = 0;
  double percentile = 100;
  size_t beyond = 0;
};

Tail SessionTail(std::vector<double> ms, double percentile) {
  Tail tail;
  if (ms.empty()) {
    return tail;
  }
  std::sort(ms.begin(), ms.end());
  const size_t n = ms.size();
  const size_t rank = static_cast<size_t>(std::ceil(percentile / 100.0 * static_cast<double>(n)));
  size_t index = std::clamp<size_t>(rank, 1, n) - 1;
  if (n - 1 - index < 10) {
    index = n > 10 ? n - 11 : n - 1;
  }
  tail.ms = ms[index];
  tail.beyond = n - 1 - index;
  tail.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// The sessions of a run's quiet stretch: the run cut into `blocks`
// consecutive blocks of sessions, and the fastest tenth of the blocks (at
// least one) by median session time. The shared host's speed swings by up
// to 1.6x over stretches of seconds to minutes; the quiet stretch measures
// the program at the host's usual best speed instead of the share of slow
// stretches a run happened to catch. One block is the whole run.
struct Stretch {
  Percentiles session_ms;
  Percentiles setup_s;
  double bytes = 0;
  double traffic_s = 0;
  size_t sessions = 0;
};

Stretch QuietStretch(const Tally& plain, size_t blocks) {
  const size_t n = plain.session_ms.size();
  blocks = std::clamp<size_t>(blocks, 1, std::max<size_t>(n, 1));
  std::vector<std::pair<double, size_t>> ranked;  // (median ms, block)
  for (size_t b = 0; b < blocks; ++b) {
    Percentiles ms;
    for (size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      ms.Add(plain.session_ms[i]);
    }
    ranked.emplace_back(ms.Median(), b);
  }
  std::sort(ranked.begin(), ranked.end());
  Stretch quiet;
  for (size_t k = 0; k < std::max<size_t>(1, blocks / 10); ++k) {
    const size_t b = ranked[k].second;
    for (size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      quiet.session_ms.Add(plain.session_ms[i]);
      quiet.setup_s.Add(plain.session_setup_s[i]);
      quiet.bytes += static_cast<double>(plain.session_bytes[i]);
      quiet.traffic_s += plain.session_ms[i] / 1000;
      ++quiet.sessions;
    }
  }
  return quiet;
}

std::vector<Metric> EndToEndMetrics(const Stretch& quiet, const Tail& tail) {
  return {
      {"delivered_MBps", "MB/s", Ratio(quiet.bytes / 1e6, quiet.traffic_s)},
      {"session_ms_p50", "ms", quiet.session_ms.Median()},
      {"session_ms_tail", "ms", tail.ms},
      {"setup_s", "s", quiet.setup_s.Median()},
      {"peak_rss_MB", "MB", PeakRssMb()},
  };
}

// Per-layer metrics of a traced run. `plain` holds the untraced twin of
// every traced session (same seeds, same events), so wall-clock rates come
// from it and span shares from `traced`.
std::vector<Metric> LayerMetrics(const Tally& plain, const Tally& traced, const Tracer& tracer,
                                 const std::map<std::string, double>& micro) {
  const double n = std::max<double>(1, static_cast<double>(traced.sessions));
  const auto c = [&traced](const std::string& name) { return traced.Count(name); };
  const double events = c("sim.events");
  const double kb = static_cast<double>(traced.bytes) / 1000.0;
  const double packets = c("net.link_tx_packets");
  const Tracer::Aggregate& run_for = tracer.aggregate(SpanKind::kRunFor);
  const Tracer::Aggregate& sp = tracer.aggregate(SpanKind::kSpOnPacket);
  const Tracer::Aggregate& rx = tracer.aggregate(SpanKind::kTcpRx);
  const double run_for_ns = static_cast<double>(run_for.total_ns);
  const double critical = c("sim.critical_path_events");

  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, const char* unit, double value) {
    m.push_back({name, unit, value});
  };
  const auto per_session = [&](const std::string& name, const char* unit) {
    add(name, unit, c(name) / n);
  };

  add("sim.events_per_s", "1/s", Ratio(events, plain.traffic_s));
  add("sim.self_ns_per_event", "ns", Ratio(static_cast<double>(run_for.self_ns), events));
  add("sim.self_share", "ratio", Ratio(static_cast<double>(run_for.self_ns), run_for_ns));
  add("sim.events_per_KB", "count/KB", Ratio(events, kb));
  add("sim.barrier_wait_share", "ratio",
      Ratio(plain.Count("sim.barrier_wait_us"), plain.traffic_s * 1e6 * c("sim.workers") / n));
  add("sim.available_parallelism", "ratio", critical > 0 ? events / critical : 1.0);
  per_session("sim.epochs", "count");
  per_session("sim.cross_region_events", "count");

  for (const auto& [name, ns] : micro) {
    if (name.rfind("net.", 0) == 0) {
      add(name, "ns", ns);
    }
  }
  add("net.allocs_per_packet", "count", Ratio(c("net.allocs"), packets));
  add("net.alloc_bytes_per_packet", "B", Ratio(c("net.alloc_bytes"), packets));
  add("net.packets_per_KB", "count/KB", Ratio(packets, kb));
  per_session("net.link_drops_queue", "count");
  per_session("net.link_drops_error", "count");
  per_session("net.link_drops_down", "count");

  add("tcp.rx_ns.p50", "ns", rx.durations_ns.Percentile(50));
  add("tcp.rx_ns.p99", "ns", rx.durations_ns.Percentile(99));
  add("tcp.rx_share", "ratio", Ratio(static_cast<double>(rx.total_ns), run_for_ns));
  per_session("tcp.bytes_retransmitted", "B");
  per_session("tcp.retransmit_timeouts", "count");
  per_session("tcp.checksum_failures", "count");

  add("sp.on_packet_ns.p50", "ns", sp.durations_ns.Percentile(50));
  add("sp.on_packet_ns.p99", "ns", sp.durations_ns.Percentile(99));
  add("sp.share", "ratio", Ratio(static_cast<double>(sp.total_ns), run_for_ns));
  for (const auto& [name, ns] : micro) {
    if (name.rfind("sp.", 0) == 0) {
      add(name, "ns", ns);
    }
  }
  for (const char* name : {"sp.packets_inspected", "sp.packets_modified", "sp.packets_injected",
                           "sp.streams_seen", "sp.queue_resolve_work"}) {
    per_session(name, "count");
  }
  for (const char* filter : {"tcp", "snoop", "ttsf", "hrewrite", "htype", "dnscache"}) {
    const std::string prefix = std::string("sp.filter.") + filter + ".";
    per_session(prefix + "in_packets", "count");
    per_session(prefix + "out_bytes", "B");
    per_session(prefix + "bytes_shrunk", "B");
    per_session(prefix + "bytes_grown", "B");
    per_session(prefix + "packets_dropped", "count");
  }
  per_session("ttsf.segments_transformed", "count");
  per_session("ttsf.acks_remapped", "count");
  per_session("http.bytes_in", "B");
  per_session("http.bytes_out", "B");
  per_session("http.fail_open", "count");
  // htype rewrites through TTSF, so its edits show in the HTTP filters'
  // reassembled bytes, not in sp.filter.htype.bytes_shrunk.
  add("htype.shrink_ratio", "ratio",
      Ratio(c("http.bytes_in") - c("http.bytes_out"), c("http.bytes_in")));
  add("dns.hit_ratio", "ratio", Ratio(c("dns.cache_hits"), c("dns.queries_seen")));

  add("trace.overhead_ratio", "ratio", Ratio(traced.traffic_s, plain.traffic_s));
  return m;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Options& opt) {
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (opt.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto check = [&](const SessionResult& r, const char* what, uint64_t seed) {
    ++attempted;
    if (!r.ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s session (seed %llu) failed: %s\n", what,
                   static_cast<unsigned long long>(seed), r.failure.c_str());
    }
    return r.ok;
  };

  // The pinned session: its witness must match the pinned hash. In a traced
  // run it is traced, so the traced system must reproduce the untraced bytes.
  const uint64_t pinned_seed = comma::sim::DeriveStreamSeed(kPinnedSeed, 0);
  Tracer pinned_tracer;
  const SessionResult pinned = workload->run(pinned_seed, opt.trace ? &pinned_tracer : nullptr);
  const uint64_t pinned_hash = comma::sim::WitnessHash(pinned.witness);
  const uint64_t expected = opt.expect_given ? opt.expect_witness : workload->pinned_witness;
  if (check(pinned, "pinned", pinned_seed) && pinned_hash != expected) {
    ++failed;
    std::fprintf(stderr, "perfbench: pinned witness %016llx, expected %016llx\n",
                 static_cast<unsigned long long>(pinned_hash),
                 static_cast<unsigned long long>(expected));
  }

  std::map<std::string, double> micro;
  if (opt.trace) {
    try {
      micro = RunMicrobenches();
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "perfbench: microbench failed: %s\n", e.what());
    }
  }

  Tally plain;
  Tally traced;
  Tracer tracer;
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i == 0 || SecondsSince(start) < opt.seconds; ++i) {
    const uint64_t seed = comma::sim::DeriveStreamSeed(opt.seed, i);
    if (!opt.trace) {
      const SessionResult r = workload->run(seed, nullptr);
      if (check(r, "", seed)) {
        plain.Add(r);
      }
      continue;
    }
    // Traced: every session runs twice, untraced and traced (alternating
    // which goes first); the two witnesses must be byte-identical.
    SessionResult u;
    SessionResult t;
    const auto run_traced = [&] {
      tracer.set_session(i);
      Span span(&tracer, SpanKind::kSession);
      t = workload->run(seed, &tracer);
    };
    if (i % 2 == 0) {
      u = workload->run(seed, nullptr);
      run_traced();
    } else {
      run_traced();
      u = workload->run(seed, nullptr);
    }
    const bool u_ok = check(u, "untraced", seed);
    const bool t_ok = check(t, "traced", seed);
    const bool ok = u_ok && t_ok;
    if (ok && u.witness != t.witness) {
      ++failed;
      std::fprintf(stderr, "perfbench: traced witness differs from untraced (seed %llu)\n",
                   static_cast<unsigned long long>(seed));
    } else if (ok) {
      plain.Add(u);
      traced.Add(t);
    }
  }
  const double elapsed = SecondsSince(start);

  std::printf("# perfbench %s seed=%llu trace=%d: %llu sessions in %.1f s, %llu failed\n",
              workload->name, static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              static_cast<unsigned long long>(attempted), elapsed,
              static_cast<unsigned long long>(failed));
  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = LayerMetrics(plain, traced, tracer, micro);
    if (!opt.trace_out.empty()) {
      if (tracer.WriteChromeTrace(opt.trace_out)) {
        std::printf("# spans: %s\n", opt.trace_out.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
      }
    }
  } else {
    const Tail tail = SessionTail(plain.session_ms, workload->tail_percentile);
    const Stretch quiet = QuietStretch(plain, workload->quiet_blocks);
    metrics = EndToEndMetrics(quiet, tail);
    std::printf("#   quiet stretch: %zu of %zu sessions\n", quiet.sessions,
                plain.session_ms.size());
    std::printf("#   session_ms_tail is p%.2f: %zu of %zu sessions beyond it\n", tail.percentile,
                tail.beyond, plain.session_ms.size());
    std::printf("#   %-34s %14.6g %s (%llu of %llu sessions)\n", "fail_ratio",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  }
  for (const Metric& metric : metrics) {
    std::printf("#   %-34s %14.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>] [--expect-witness <hex>]\n");
    return 2;
  }
  return perfbench::Run(opt);
}
