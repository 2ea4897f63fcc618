// Lightweight component-scoped tracing for the simulator.
//
// Components log through a Tracer bound to the Simulator clock. Sinks are
// pluggable; the default sink discards everything so that benches pay no
// formatting cost unless tracing is enabled.
#ifndef COMMA_SIM_TRACE_H_
#define COMMA_SIM_TRACE_H_

#include <cstdarg>
#include <functional>
#include <string>

#include "src/sim/time.h"

namespace comma::sim {

class Simulator;

enum class TraceLevel {
  kError = 0,
  kWarn = 1,
  kInfo = 2,
  kDebug = 3,
};

const char* TraceLevelName(TraceLevel level);

// A trace record delivered to a sink.
struct TraceRecord {
  TimePoint when = 0;
  TraceLevel level = TraceLevel::kInfo;
  std::string component;
  std::string message;
};

class Tracer {
 public:
  using Sink = std::function<void(const TraceRecord&)>;

  explicit Tracer(const Simulator* sim) : sim_(sim) {}

  // Installs a sink; pass nullptr to disable. Returns the previous sink.
  Sink SetSink(Sink sink);

  void SetLevel(TraceLevel level) { level_ = level; }
  TraceLevel level() const { return level_; }
  bool Enabled(TraceLevel level) const { return sink_ && level <= level_; }

  void Log(TraceLevel level, const std::string& component, const std::string& message);

  // printf-style convenience.
  void Logf(TraceLevel level, const std::string& component, const char* fmt, ...)
      __attribute__((format(printf, 4, 5)));

 private:
  const Simulator* sim_;
  Sink sink_;
  TraceLevel level_ = TraceLevel::kInfo;
};

}  // namespace comma::sim

#endif  // COMMA_SIM_TRACE_H_
