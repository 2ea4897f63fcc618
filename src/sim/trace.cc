#include "src/sim/trace.h"

#include <cstdio>
#include <vector>

#include "src/sim/simulator.h"

namespace comma::sim {

const char* TraceLevelName(TraceLevel level) {
  switch (level) {
    case TraceLevel::kError:
      return "error";
    case TraceLevel::kWarn:
      return "warn";
    case TraceLevel::kInfo:
      return "info";
    case TraceLevel::kDebug:
      return "debug";
  }
  return "?";
}

Tracer::Sink Tracer::SetSink(Sink sink) {
  Sink prev = std::move(sink_);
  sink_ = std::move(sink);
  return prev;
}

void Tracer::Log(TraceLevel level, const std::string& component, const std::string& message) {
  if (!Enabled(level)) {
    return;
  }
  TraceRecord rec;
  rec.when = sim_ ? sim_->Now() : 0;
  rec.level = level;
  rec.component = component;
  rec.message = message;
  sink_(rec);
}

void Tracer::Logf(TraceLevel level, const std::string& component, const char* fmt, ...) {
  if (!Enabled(level)) {
    return;
  }
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string msg;
  if (needed > 0) {
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    msg.assign(buf.data(), static_cast<size_t>(needed));
  }
  va_end(args_copy);
  Log(level, component, msg);
}

}  // namespace comma::sim
