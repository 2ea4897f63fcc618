// EemMetricsBridge — closes the thesis's transparent-control loop.
//
// The EEM's "modularized query mechanism" (§6.2) lets application designers
// extend the variable set with new providers. The bridge is exactly such a
// provider: it answers EEM variable reads straight out of a MetricRegistry,
// so every proxy metric ("ttsf.bytes_dropped", "sp.packets_inspected", ...)
// becomes a first-class EEM variable that Kati can register (id, attr)
// watches on. The EEM server's own check/update timers then publish the
// bridged values periodically — threshold crossings fire interrupt-mode
// notifications, and Kati's callback can load or remove Service-Proxy
// filters in response, all without application cooperation.
//
// Variable names are the metric names verbatim; the index is ignored (proxy
// metrics are host-scoped). Histograms additionally answer their dotted
// sub-fields (".count", ".mean", ".min", ".max", ".p50", ".p90", ".p95",
// ".p99"). Counters surface as LONG, gauges and histogram fields as DOUBLE.
#ifndef COMMA_OBS_EEM_BRIDGE_H_
#define COMMA_OBS_EEM_BRIDGE_H_

#include <string>

#include "src/monitor/variables.h"
#include "src/obs/metric_registry.h"

namespace comma::obs {

class EemMetricsBridge : public monitor::MetricProvider {
 public:
  // Exports the metrics of `registry` whose names match `pattern`
  // (MetricRegistry::Matches semantics; empty = everything). The registry
  // must outlive the bridge.
  explicit EemMetricsBridge(const MetricRegistry* registry, std::string pattern = "");

  std::optional<monitor::Value> Get(const std::string& name, uint32_t index) override;

 private:
  const MetricRegistry* registry_;
  std::string pattern_;
};

}  // namespace comma::obs

#endif  // COMMA_OBS_EEM_BRIDGE_H_
