#include "src/obs/eem_bridge.h"

namespace comma::obs {

EemMetricsBridge::EemMetricsBridge(const MetricRegistry* registry, std::string pattern)
    : registry_(registry), pattern_(std::move(pattern)) {}

std::optional<monitor::Value> EemMetricsBridge::Get(const std::string& name, uint32_t /*index*/) {
  // Sub-fields of an exported histogram pass the pattern check through their
  // parent name, so "ttsf.*" also exports "ttsf.queue_us.p99".
  std::string base = name;
  if (!MetricRegistry::Matches(pattern_, base)) {
    const size_t dot = base.rfind('.');
    if (dot == std::string::npos ||
        !MetricRegistry::Matches(pattern_, base.substr(0, dot))) {
      return std::nullopt;
    }
  }
  auto kind = registry_->KindOf(name);
  if (!kind.has_value()) {
    return std::nullopt;
  }
  auto value = registry_->Read(name);
  if (!value.has_value()) {
    return std::nullopt;
  }
  switch (*kind) {
    case MetricKind::kCounter:
    case MetricKind::kHistogram:  // Bare histogram name reads as its count.
      return monitor::Value(static_cast<int64_t>(*value));
    case MetricKind::kGauge:
      return monitor::Value(*value);
  }
  return std::nullopt;
}

}  // namespace comma::obs
