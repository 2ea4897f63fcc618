// The Comma benchmark: shared declarations for the session workloads, the
// in-memory span tracer, the counting allocator and the microbenches.
// README.md in this directory describes the workloads and metrics.
#ifndef COMMA_PERFBENCH_BENCH_H_
#define COMMA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps `value` alive through the optimizer without storing it anywhere.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// --- Tracing -----------------------------------------------------------------

enum class SpanKind : uint8_t { kSession, kSetup, kRunFor, kSpOnPacket, kTcpRx, kCount };
const char* SpanName(SpanKind kind);

// Spans recorded by the benchmark around its own calls into the system. Kept
// in memory (the first kMaxStoredSpans in full, every span in the per-kind
// aggregates) and written out once the run ends. Single-threaded: only the
// thread driving the simulator records spans.
class Tracer {
 public:
  static constexpr size_t kMaxStoredSpans = 50'000;
  static constexpr size_t kDurationReservoir = size_t{1} << 20;

  struct Aggregate {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;  // Duration minus the time covered by child spans.
    comma::util::Percentiles durations_ns{kDurationReservoir};
  };

  void set_session(uint64_t id) { session_ = id; }
  void Begin(SpanKind kind);
  void End();  // Closes the innermost open span.

  const Aggregate& aggregate(SpanKind kind) const {
    return aggregates_[static_cast<size_t>(kind)];
  }
  // Chrome trace-event JSON of the stored spans; false if `path` is unwritable.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    int64_t start_ns;
    uint64_t child_ns;
    int32_t stored;  // Index in stored_, or -1.
  };
  struct Stored {
    SpanKind kind;
    int32_t parent;
    uint64_t session;
    int64_t start_ns;
    int64_t end_ns;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_ = Clock::now();
  uint64_t session_ = 0;
  std::vector<Open> open_;
  std::vector<Stored> stored_;
  Aggregate aggregates_[static_cast<size_t>(SpanKind::kCount)];
};

// Opens a span for the enclosing scope; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(kind);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// Heap allocations made while counting is on (the global operator new of
// this binary counts them; traced runs switch it on around traffic only).
void SetAllocCounting(bool on);
uint64_t AllocCount();
uint64_t AllocBytes();

// --- Sessions ----------------------------------------------------------------

// One session: a fresh system built from `seed`, its traffic run to
// completion, and its outputs verified.
struct SessionResult {
  bool ok = true;
  std::string failure;           // Why !ok; every reason, "; "-separated.
  uint64_t delivered_bytes = 0;  // Verified application bytes.
  double setup_s = 0;            // Building the system, services and apps.
  double traffic_s = 0;          // Traffic start to all flows done.
  std::string witness;           // Deterministic outputs; see README.md.
  std::map<std::string, double> counters;  // Per-layer counts of this session.

  void Fail(const std::string& why) {
    failure += (ok ? "" : "; ") + why;
    ok = false;
  }
};

struct Workload {
  const char* name;
  SessionResult (*run)(uint64_t seed, Tracer* tracer);
  uint64_t pinned_witness;  // Witness hash of the pinned session (kPinnedSeed).
  // session_ms_tail's percentile, fixed per workload; a run of
  // BENCHMARK.json's length has well over ten sessions beyond it.
  double tail_percentile;
  // session_ms_p50, delivered_MBps and setup_s come from the fastest tenth
  // of this many consecutive blocks of a run's sessions (1: the whole run);
  // see QuietStretch in main.cc.
  size_t quiet_blocks;
};

const std::vector<Workload>& Workloads();

// Session i of a run with workload seed s has seed sim::DeriveStreamSeed(s, i).
// The witness of every workload is pinned for session 0 of this seed.
inline constexpr uint64_t kPinnedSeed = 1;

// --- Microbenches ------------------------------------------------------------

// net.* and sp.filter_queue_ns.* on pre-built packets: median ns per call.
std::map<std::string, double> RunMicrobenches();

}  // namespace perfbench

#endif  // COMMA_PERFBENCH_BENCH_H_
