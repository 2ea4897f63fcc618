// Per-region event queue for the partitioned simulator.
//
// An EventShard is the classic (time, seq) priority queue, owned by exactly
// one region. During an epoch a shard is touched only by the worker thread
// the region is assigned to, so nothing here is locked; the epoch barrier
// (simulator.cc) is the only synchronization point. Determinism contract:
// events are totally ordered by (when, region-id, per-shard seq), and seq
// values depend only on the region's own execution order plus the fixed
// channel-drain order — never on worker count or thread interleaving.
#ifndef COMMA_SIM_EVENT_SHARD_H_
#define COMMA_SIM_EVENT_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/sim/region.h"
#include "src/sim/time.h"

namespace comma::sim {

// Sentinel for "shard has no runnable event".
inline constexpr TimePoint kNoEvent = INT64_MAX;

class EventShard {
 public:
  struct Event {
    TimePoint when = 0;
    uint64_t seq = 0;        // Tie-breaker: earlier-scheduled events run first.
    uint64_t timer_id = 0;   // Non-zero for cancellable timers.
    std::function<void()> fn;
  };

  explicit EventShard(RegionId region) : region_(region) {}
  EventShard(const EventShard&) = delete;
  EventShard& operator=(const EventShard&) = delete;

  RegionId region() const { return region_; }

  // The shard-local clock. Within an epoch shards drift apart; the
  // simulator re-synchronizes them at the end of every Run call.
  TimePoint now() const { return now_; }
  void set_now(TimePoint t) { now_ = t; }

  // Enqueues an event at max(when, now()) with the next shard-local seq.
  void Push(TimePoint when, uint64_t timer_id, std::function<void()> fn);

  // Earliest queued time, or kNoEvent when (effectively) empty. Tombstoned
  // timers at the front are popped eagerly so the epoch horizon is never
  // held back by a cancelled timer.
  TimePoint FrontTime();

  // Pops and returns the earliest event with when < horizon, advancing the
  // shard clock to it; nullptr when none qualifies. Cancelled timers are
  // skipped (tombstones). The caller runs ev->fn.
  std::unique_ptr<Event> PopBefore(TimePoint horizon);

  // --- Timer bookkeeping (counters are the low 32 bits of a TimerId) ---
  uint32_t NextTimerCounter() { return next_timer_counter_++; }
  void AddPendingTimer(uint32_t counter) { pending_timers_.push_back(counter); }
  bool ErasePendingTimer(uint32_t counter);
  bool IsTimerPending(uint32_t counter) const;

  // Shard-local counter behind the uids NextUid() issues in this region.
  uint64_t NextUidCounter() { return next_uid_counter_++; }

  size_t QueueSize() const { return queue_.size(); }
  uint64_t events_run() const { return events_run_; }

  // Reset() support: drops all queued events and pending timers and rewinds
  // the clock and counters to a fresh simulation.
  void Clear();

 private:
  struct EventLater {
    bool operator()(const std::unique_ptr<Event>& a, const std::unique_ptr<Event>& b) const {
      if (a->when != b->when) {
        return a->when > b->when;
      }
      return a->seq > b->seq;
    }
  };

  const RegionId region_;
  TimePoint now_ = 0;
  uint64_t next_seq_ = 0;
  uint32_t next_timer_counter_ = 1;
  uint64_t next_uid_counter_ = 1;
  uint64_t events_run_ = 0;
  std::priority_queue<std::unique_ptr<Event>, std::vector<std::unique_ptr<Event>>, EventLater>
      queue_;
  // Pending (not cancelled, not fired) timer counters. Small; linear scan.
  std::vector<uint32_t> pending_timers_;
};

}  // namespace comma::sim

#endif  // COMMA_SIM_EVENT_SHARD_H_
