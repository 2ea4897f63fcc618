#include "src/sim/event_shard.h"

#include <algorithm>

namespace comma::sim {

void EventShard::Push(TimePoint when, uint64_t timer_id, std::function<void()> fn) {
  auto ev = std::make_unique<Event>();
  ev->when = std::max(when, now_);
  ev->seq = next_seq_++;
  ev->timer_id = timer_id;
  ev->fn = std::move(fn);
  queue_.push(std::move(ev));
}

bool EventShard::ErasePendingTimer(uint32_t counter) {
  auto it = std::find(pending_timers_.begin(), pending_timers_.end(), counter);
  if (it == pending_timers_.end()) {
    return false;
  }
  pending_timers_.erase(it);
  return true;
}

bool EventShard::IsTimerPending(uint32_t counter) const {
  return std::find(pending_timers_.begin(), pending_timers_.end(), counter) !=
         pending_timers_.end();
}

TimePoint EventShard::FrontTime() {
  while (!queue_.empty()) {
    const Event& top = *queue_.top();
    if (top.timer_id == 0 || IsTimerPending(static_cast<uint32_t>(top.timer_id))) {
      return top.when;
    }
    queue_.pop();  // Cancelled timer tombstone: discard without running.
  }
  return kNoEvent;
}

std::unique_ptr<EventShard::Event> EventShard::PopBefore(TimePoint horizon) {
  while (!queue_.empty() && queue_.top()->when < horizon) {
    // priority_queue has no non-const top-extraction; the const_cast is the
    // standard idiom for moving out of a unique_ptr-valued queue.
    auto ev = std::move(const_cast<std::unique_ptr<Event>&>(queue_.top()));
    queue_.pop();
    if (ev->timer_id != 0 && !ErasePendingTimer(static_cast<uint32_t>(ev->timer_id))) {
      continue;  // Cancelled timer: tombstone, skip without running.
    }
    now_ = ev->when;
    ++events_run_;
    return ev;
  }
  return nullptr;
}

void EventShard::Clear() {
  while (!queue_.empty()) {
    queue_.pop();
  }
  pending_timers_.clear();
  now_ = 0;
  next_seq_ = 0;
  next_timer_counter_ = 1;
  next_uid_counter_ = 1;
  events_run_ = 0;
}

}  // namespace comma::sim
