#include "src/sim/cross_region_channel.h"

#include <utility>

namespace comma::sim {

void CrossRegionChannel::Push(TimePoint when, std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(channel_mu_);
  arrivals_.push_back({when, std::move(fn)});
}

std::vector<CrossRegionChannel::Arrival> CrossRegionChannel::DrainAll() {
  std::lock_guard<std::mutex> lock(channel_mu_);
  std::vector<Arrival> out;
  out.swap(arrivals_);
  return out;
}

void CrossRegionChannel::Clear() {
  std::lock_guard<std::mutex> lock(channel_mu_);
  arrivals_.clear();
}

}  // namespace comma::sim
