// The benchmark's span tracer and counting allocator.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "perfbench/bench.h"

namespace perfbench {

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void SetAllocCounting(bool on) { g_count_allocs.store(on, std::memory_order_relaxed); }
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
uint64_t AllocBytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSession:
      return "session";
    case SpanKind::kSetup:
      return "setup";
    case SpanKind::kRunFor:
      return "sim.run_for";
    case SpanKind::kSpOnPacket:
      return "sp.on_packet";
    case SpanKind::kTcpRx:
      return "tcp.rx";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

void Tracer::Begin(SpanKind kind) {
  const int64_t now = NowNs();
  int32_t stored = -1;
  if (stored_.size() < kMaxStoredSpans) {
    stored = static_cast<int32_t>(stored_.size());
    const int32_t parent = open_.empty() ? -1 : open_.back().stored;
    stored_.push_back({kind, parent, session_, now, now});
  }
  open_.push_back({kind, now, 0, stored});
}

void Tracer::End() {
  const int64_t now = NowNs();
  const Open span = open_.back();
  open_.pop_back();
  const uint64_t duration = static_cast<uint64_t>(now - span.start_ns);
  if (!open_.empty()) {
    open_.back().child_ns += duration;
  }
  if (span.stored >= 0) {
    stored_[static_cast<size_t>(span.stored)].end_ns = now;
  }
  Aggregate& agg = aggregates_[static_cast<size_t>(span.kind)];
  ++agg.count;
  agg.total_ns += duration;
  agg.self_ns += duration - std::min(duration, span.child_ns);
  agg.durations_ns.Add(static_cast<double>(duration));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < stored_.size(); ++i) {
    const Stored& s = stored_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"session\":%llu}}\n",
                 i == 0 ? "" : ",", SpanName(s.kind), static_cast<unsigned long long>(s.session),
                 static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i, s.parent,
                 static_cast<unsigned long long>(s.session));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// Replacing the global allocation functions makes every heap allocation of
// the process visible to the counter; the array and nothrow forms of the
// standard library forward to these.
void* operator new(size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](size_t size) { return perfbench::CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
