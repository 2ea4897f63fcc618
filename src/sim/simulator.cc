#include "src/sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <thread>

#include "src/util/check.h"

namespace comma::sim {

namespace {

// The shard a worker (or the serial loop) is currently executing events
// for. Thread-local so region-internal Schedule()/Now() calls from inside
// an event resolve to the executing region without any locking.
struct ExecContext {
  Simulator* sim = nullptr;
  EventShard* shard = nullptr;
};
thread_local ExecContext tl_exec;

// NextUid()'s counter for the kSetupUidRegion space: ids drawn outside any
// event on this thread.
thread_local uint64_t tl_setup_uid_counter = 1;

constexpr TimePoint SaturatingAdd(TimePoint a, Duration b) {
  return a > kNoEvent - b ? kNoEvent : a + b;
}

}  // namespace

std::string FormatTime(TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%06llds", static_cast<long long>(t / kSecond),
                static_cast<long long>(t % kSecond));
  return buf;
}

uint64_t NextUid() {
  if (tl_exec.shard != nullptr) {
    return uint64_t{tl_exec.shard->region()} << 48 | tl_exec.shard->NextUidCounter();
  }
  return uint64_t{kSetupUidRegion} << 48 | tl_setup_uid_counter++;
}

Simulator::Simulator(const SimulatorOptions& options) : options_(options) {
  AddShard("main");
  tl_setup_uid_counter = 1;
}

void Simulator::AddShard(const std::string& name) {
  const RegionId id = static_cast<RegionId>(shards_.size());
  shards_.push_back(std::make_unique<EventShard>(id));
  regions_.push_back({id, name});
}

RegionId Simulator::AddRegion(const std::string& name) {
  COMMA_CHECK(!running_) << "AddRegion during Run";
  COMMA_CHECK(shards_.size() < 0xffff) << "too many regions";
  AddShard(name);
  shards_.back()->set_now(now_);
  return static_cast<RegionId>(shards_.size() - 1);
}

void Simulator::RegisterCrossRegionEdge(RegionId a, RegionId b, Duration latency) {
  COMMA_CHECK(a != b) << "cross-region edge must span two regions";
  COMMA_CHECK(a < shards_.size() && b < shards_.size()) << "unknown region";
  COMMA_CHECK(latency > 0) << "lookahead must be positive (got " << latency << ")";
  const auto update = [&](EdgeKey key) {
    auto it = edge_lookahead_.find(key);
    if (it == edge_lookahead_.end()) {
      edge_lookahead_[key] = latency;
      channels_[key] = std::make_unique<CrossRegionChannel>();
    } else {
      it->second = std::min(it->second, latency);
    }
  };
  update({b, a});
  update({a, b});
  min_lookahead_ = std::min(min_lookahead_, latency);
}

Duration Simulator::EdgeLookahead(RegionId from, RegionId to) const {
  const auto it = edge_lookahead_.find({to, from});
  return it == edge_lookahead_.end() ? kNoEvent : it->second;
}

const EventShard* Simulator::ExecutingShardHere() const {
  return tl_exec.sim == this ? tl_exec.shard : nullptr;
}

EventShard& Simulator::SchedulingShard() {
  if (tl_exec.sim == this) {
    return *tl_exec.shard;
  }
  return *shards_[ambient_region_];
}

RegionId Simulator::CurrentRegion() const {
  const EventShard* exec = ExecutingShardHere();
  return exec != nullptr ? exec->region() : ambient_region_;
}

TimePoint Simulator::Now() const {
  const EventShard* exec = ExecutingShardHere();
  return exec != nullptr ? exec->now() : now_;
}

void Simulator::Schedule(Duration delay, std::function<void()> fn) {
  EventShard& shard = SchedulingShard();
  shard.Push(shard.now() + std::max<Duration>(delay, 0), kInvalidTimerId, std::move(fn));
}

void Simulator::ScheduleAt(TimePoint when, std::function<void()> fn) {
  SchedulingShard().Push(when, kInvalidTimerId, std::move(fn));
}

void Simulator::ScheduleInRegion(RegionId region, Duration delay, std::function<void()> fn) {
  COMMA_CHECK(region < shards_.size()) << "unknown region " << region;
  delay = std::max<Duration>(delay, 0);
  const EventShard* exec = ExecutingShardHere();
  if (exec != nullptr && exec->region() != region) {
    // Cross-region send: route through the edge's channel so the arrival
    // becomes visible at the next barrier. The lookahead check is what
    // keeps the epoch horizon conservative.
    const Duration lookahead = EdgeLookahead(exec->region(), region);
    COMMA_CHECK(lookahead != kNoEvent)
        << "cross-region send " << exec->region() << "->" << region << " on unregistered edge";
    COMMA_CHECK(delay >= lookahead)
        << "cross-region delay " << delay << " below edge lookahead " << lookahead;
    channels_.find({region, exec->region()})->second->Push(exec->now() + delay, std::move(fn));
    return;
  }
  EventShard& dst = *shards_[region];
  const TimePoint base = exec != nullptr ? exec->now() : now_;
  dst.Push(base + delay, kInvalidTimerId, std::move(fn));
}

TimerId Simulator::ScheduleTimer(Duration delay, std::function<void()> fn) {
  EventShard& shard = SchedulingShard();
  const uint32_t counter = shard.NextTimerCounter();
  shard.AddPendingTimer(counter);
  const TimerId id = (static_cast<TimerId>(generation_) << 48) |
                     (static_cast<TimerId>(shard.region()) << 32) | counter;
  shard.Push(shard.now() + std::max<Duration>(delay, 0), id, std::move(fn));
  return id;
}

bool Simulator::Cancel(TimerId id) {
  if (id == kInvalidTimerId) {
    return false;
  }
  const uint16_t generation = static_cast<uint16_t>(id >> 48);
  const RegionId region = static_cast<RegionId>((id >> 32) & 0xffff);
  const uint32_t counter = static_cast<uint32_t>(id);
  if (generation != generation_) {
    return false;  // Stale id from before a Reset(): checked no-op.
  }
  COMMA_CHECK(region < shards_.size()) << "Cancel on timer id with unknown region " << region;
  const EventShard* exec = ExecutingShardHere();
  COMMA_DCHECK(!running_ || (exec != nullptr && exec->region() == region))
      << "cross-region timer cancel while running";
  return shards_[region]->ErasePendingTimer(counter);
}

bool Simulator::IsPending(TimerId id) const {
  if (id == kInvalidTimerId) {
    return false;
  }
  const uint16_t generation = static_cast<uint16_t>(id >> 48);
  const RegionId region = static_cast<RegionId>((id >> 32) & 0xffff);
  if (generation != generation_ || region >= shards_.size()) {
    return false;
  }
  return shards_[region]->IsTimerPending(static_cast<uint32_t>(id));
}

uint64_t Simulator::DrainShard(EventShard& shard, TimePoint horizon) {
  const ExecContext saved = tl_exec;
  tl_exec = {this, &shard};
  uint64_t executed = 0;
  while (auto ev = shard.PopBefore(horizon)) {
    ev->fn();
    ++executed;
  }
  tl_exec = saved;
  return executed;
}

void Simulator::DrainChannels() {
  for (auto& [key, channel] : channels_) {
    auto arrivals = channel->DrainAll();
    if (arrivals.empty()) {
      continue;
    }
    EventShard& dst = *shards_[key.dst];
    for (auto& arrival : arrivals) {
      // Lookahead guarantee: nothing produced during an epoch may land
      // before the horizon that epoch already executed up to.
      COMMA_DCHECK(arrival.when >= epoch_horizon_)
          << "cross-region arrival at " << arrival.when << " violates epoch horizon "
          << epoch_horizon_;
      dst.Push(arrival.when, kInvalidTimerId, std::move(arrival.fn));
      ++cross_region_events_;
    }
  }
}

bool Simulator::AdvanceEpoch(TimePoint clip) {
  DrainChannels();
  TimePoint t_min = kNoEvent;
  for (auto& shard : shards_) {
    t_min = std::min(t_min, shard->FrontTime());
  }
  if (t_min == kNoEvent || t_min >= clip) {
    return false;
  }
  TimePoint horizon = clip;
  if (min_lookahead_ != kNoEvent) {
    horizon = std::min(SaturatingAdd(t_min, min_lookahead_), clip);
  }
  epoch_horizon_ = horizon;
  ++epochs_;
  return true;
}

uint64_t Simulator::EpochLoopParallel(TimePoint clip, int workers) {
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> waited_us{0};
  bool done = false;  // Written only by the barrier completion step.
  // Per-shard events_run() at the start of the current epoch, so the
  // completion step can compute each epoch's critical path (the busiest
  // shard) exactly as the serial loop does.
  std::vector<uint64_t> epoch_start(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    epoch_start[i] = shards_[i]->events_run();
  }
  // The completion step runs exclusively between epochs (after every worker
  // arrives, before any is released), so it may touch shards and channels
  // without locks. It must not throw: a fired contract check here is fatal.
  auto completion = [this, clip, &done, &epoch_start]() noexcept {
    uint64_t epoch_max = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const uint64_t run = shards_[i]->events_run();
      epoch_max = std::max(epoch_max, run - epoch_start[i]);
      epoch_start[i] = run;
    }
    critical_path_events_ += epoch_max;
    if (!AdvanceEpoch(clip)) {
      done = true;
    }
  };
  std::barrier barrier(workers, completion);
  auto worker_loop = [&](int worker) {
    uint64_t local = 0;
    for (;;) {
      // Static region->worker assignment keeps a shard on one thread for
      // the whole run (no migration, no work stealing — determinism first).
      for (size_t i = static_cast<size_t>(worker); i < shards_.size();
           i += static_cast<size_t>(workers)) {
        local += DrainShard(*shards_[i], epoch_horizon_);
      }
      const auto wait_start = std::chrono::steady_clock::now();
      barrier.arrive_and_wait();
      waited_us += static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                             std::chrono::steady_clock::now() - wait_start)
                                             .count());
      if (done) {
        break;
      }
    }
    executed += local;
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (auto& t : threads) {
    t.join();
  }
  barrier_wait_us_ += waited_us.load();
  return executed.load();
}

uint64_t Simulator::EpochLoop(TimePoint clip) {
  COMMA_CHECK(!running_) << "re-entrant Simulator::Run";
  running_ = true;
  epoch_horizon_ = 0;
  const int workers =
      std::min<int>(std::max(options_.num_workers, 1), static_cast<int>(shards_.size()));
  uint64_t executed = 0;
  if (workers <= 1) {
    // The serial loop is the same epoch machine run on one thread, draining
    // shards in region order — which is exactly why its witnesses match the
    // parallel loop's bit for bit.
    while (AdvanceEpoch(clip)) {
      uint64_t epoch_max = 0;
      for (auto& shard : shards_) {
        const uint64_t n = DrainShard(*shard, epoch_horizon_);
        executed += n;
        epoch_max = std::max(epoch_max, n);
      }
      critical_path_events_ += epoch_max;
    }
  } else {
    if (AdvanceEpoch(clip)) {
      executed = EpochLoopParallel(clip, workers);
    }
  }
  // Epochs leave region clocks slightly apart; re-synchronize so Now() is
  // global again and relative scheduling between runs stays consistent.
  TimePoint final_now = now_;
  for (auto& shard : shards_) {
    final_now = std::max(final_now, shard->now());
  }
  now_ = final_now;
  for (auto& shard : shards_) {
    shard->set_now(final_now);
  }
  running_ = false;
  return executed;
}

bool Simulator::Step() {
  COMMA_CHECK(shards_.size() == 1) << "Step is single-region only; use Run/RunUntil";
  EventShard& shard = *shards_[0];
  const ExecContext saved = tl_exec;
  tl_exec = {this, &shard};
  auto ev = shard.PopBefore(kNoEvent);
  if (ev != nullptr) {
    ev->fn();
  }
  tl_exec = saved;
  now_ = std::max(now_, shard.now());
  shard.set_now(now_);
  return ev != nullptr;
}

uint64_t Simulator::Run(uint64_t limit) {
  if (limit != UINT64_MAX) {
    COMMA_CHECK(shards_.size() == 1) << "finite Run limit is single-region only";
    uint64_t n = 0;
    while (n < limit && Step()) {
      ++n;
    }
    return n;
  }
  return EpochLoop(kNoEvent);
}

uint64_t Simulator::RunUntil(TimePoint until) {
  const TimePoint clip = SaturatingAdd(until, 1);  // Events at `until` run.
  const uint64_t executed = EpochLoop(clip);
  if (until > now_) {
    now_ = until;
    for (auto& shard : shards_) {
      shard->set_now(until);
    }
  }
  return executed;
}

void Simulator::Reset() {
  COMMA_CHECK(!running_) << "Reset during Run";
  COMMA_CHECK(generation_ < 0xffff) << "Reset generation space exhausted";
  for (auto& shard : shards_) {
    shard->Clear();
  }
  for (auto& [key, channel] : channels_) {
    channel->Clear();
  }
  now_ = 0;
  epoch_horizon_ = 0;
  epochs_ = 0;
  cross_region_events_ = 0;
  barrier_wait_us_ = 0;
  critical_path_events_ = 0;
  ++generation_;
  tl_setup_uid_counter = 1;
}

size_t Simulator::QueueSize() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->QueueSize();
  }
  return total;
}

uint64_t Simulator::EventsRun() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->events_run();
  }
  return total;
}

uint64_t Simulator::RegionEventsRun(RegionId id) const {
  COMMA_CHECK(id < shards_.size()) << "unknown region " << id;
  return shards_[id]->events_run();
}

}  // namespace comma::sim
