// Timestamped event channel between two regions (one per directed edge).
//
// During an epoch, the single worker executing the source region appends
// arrivals here; at the epoch barrier the (exclusive) completion step drains
// every channel into its destination shard in a fixed (dst, src) order.
// Because exactly one region writes each channel and writes within a region
// are sequential, the drain order — and therefore every seq the destination
// shard assigns — is identical for any worker count.
//
// The mutex only arbitrates "source worker appends" vs "barrier drains";
// it never orders events (channel_mu_, DESIGN.md §7 lock hierarchy).
#ifndef COMMA_SIM_CROSS_REGION_CHANNEL_H_
#define COMMA_SIM_CROSS_REGION_CHANNEL_H_

#include <functional>
#include <mutex>
#include <vector>

#include "src/sim/time.h"
#include "src/util/thread_annotations.h"

namespace comma::sim {

class CrossRegionChannel {
 public:
  struct Arrival {
    TimePoint when = 0;
    std::function<void()> fn;
  };

  CrossRegionChannel() = default;
  CrossRegionChannel(const CrossRegionChannel&) = delete;
  CrossRegionChannel& operator=(const CrossRegionChannel&) = delete;

  // Appends an arrival (source-region execution order is preserved).
  void Push(TimePoint when, std::function<void()> fn) COMMA_EXCLUDES(channel_mu_);

  // Removes and returns every queued arrival, in push order.
  std::vector<Arrival> DrainAll() COMMA_EXCLUDES(channel_mu_);

  void Clear() COMMA_EXCLUDES(channel_mu_);

 private:
  std::mutex channel_mu_;
  std::vector<Arrival> arrivals_ COMMA_GUARDED_BY(channel_mu_);
};

}  // namespace comma::sim

#endif  // COMMA_SIM_CROSS_REGION_CHANNEL_H_
