// Discrete-event simulation core, shardable by network region.
//
// Single-region simulations (the default) behave exactly as the original
// serial core: one priority queue of (time, sequence, callback) events,
// drained in (time, insertion-order) order, fully deterministic for a given
// seed and schedule.
//
// Multi-region simulations partition the event queue into per-region
// EventShards and run a conservative epoch-barrier PDES loop (classic
// null-message lookahead; docs/parallel-sim.md):
//
//   epoch horizon = min(next event anywhere) + min cross-region link latency
//
// Every shard drains its events with when < horizon — serially in region
// order when SimulatorOptions::num_workers == 1, or concurrently on worker
// threads otherwise — then a barrier drains the cross-region channels in a
// fixed (dst, src) order and computes the next horizon. Cross-region sends
// must declare a delay >= the edge's registered lookahead (links register
// their propagation delay via RegisterCrossRegionEdge), which is what makes
// the horizon safe: nothing executed this epoch can create work before it.
//
// Determinism contract (parallel_determinism_test): the total event order is
// (when, region-id, per-region seq), and every seq depends only on region
// execution order plus the fixed channel-drain order — never on worker count
// or thread interleaving. Same seed ⇒ identical traces, metrics, fault logs,
// and stream bytes at 1, 2, 4, or 8 workers.
//
// Timers scheduled through ScheduleTimer() return a TimerId encoding
// (generation, region, counter); cancellation tombstones the queue entry.
// Reset() bumps the generation, so a stale id held across Reset() is a
// checked no-op instead of cancelling an unrelated new timer.
//
// Concurrency (DESIGN.md §7): all public methods are simulation-thread-only
// except the region-internal scheduling done by worker threads inside Run();
// the epoch barrier is the only synchronization point and cross-region
// channels the only shared mutable state (channel_mu_).
#ifndef COMMA_SIM_SIMULATOR_H_
#define COMMA_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/cross_region_channel.h"
#include "src/sim/event_shard.h"
#include "src/sim/region.h"
#include "src/sim/time.h"

namespace comma::sim {

// Opaque identifier for a cancellable timer. Zero is never a valid id.
// Layout: [generation:16][region:16][counter:32] — generation-0, region-0
// ids are bare counters, matching the original serial simulator's values.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimerId = 0;

// Draws a uid for an object the calling context creates (net::Packet).
// Layout: [region:16][counter:48]. Inside an event the executing region's
// shard counts, so uids never race between workers and are the same at
// every worker count. Outside any event (setup, tests between runs) they
// come from the reserved region kSetupUidRegion, counted per thread. Each
// Simulator construction and Reset() rewinds both spaces; ids from before
// a rewind may recur after it.
inline constexpr RegionId kSetupUidRegion = 0xffff;
uint64_t NextUid();

class Simulator {
 public:
  Simulator() : Simulator(SimulatorOptions{}) {}
  explicit Simulator(const SimulatorOptions& options);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- Region topology (set up before the first Run) ---

  // Creates a new region and returns its id. Region 0 ("main") always
  // exists; scenarios typically keep backbone routing there and create one
  // region per gateway cluster.
  RegionId AddRegion(const std::string& name);
  size_t RegionCount() const { return shards_.size(); }
  const Region& region(RegionId id) const { return regions_[id]; }

  // Declares a cross-region communication edge with conservative lookahead
  // `latency` (> 0): any executing event in one region scheduling into the
  // other must use a delay >= the smallest latency registered for the edge.
  // Links call this with their propagation delay. Both directions are
  // registered; repeated calls keep the minimum.
  void RegisterCrossRegionEdge(RegionId a, RegionId b, Duration latency);
  // The smallest latency registered for (a, b); kNoEvent if unregistered.
  Duration EdgeLookahead(RegionId a, RegionId b) const;

  // The region the calling context schedules into: the executing region
  // from inside an event, the ambient (ScopedRegion) region otherwise.
  RegionId CurrentRegion() const;

  // True while the caller is inside an event of this simulator (on any
  // worker thread). Components that defer cross-region work only when an
  // immediate mutation would race (e.g. Link::ApplyPerSide) key off this.
  bool InEvent() const { return ExecutingShardHere() != nullptr; }

  const SimulatorOptions& options() const { return options_; }

  // --- Clock & scheduling ---

  // Current simulated time: the executing region's clock from inside an
  // event, the global (synchronized) clock outside Run.
  TimePoint Now() const;

  // Schedules `fn` to run `delay` microseconds from now, in the current
  // region (the executing region inside an event; the ambient construction
  // region — see ScopedRegion — otherwise). Negative delays are clamped to
  // zero (the event runs "immediately", after already-queued events at the
  // current time).
  void Schedule(Duration delay, std::function<void()> fn);

  // Schedules `fn` at absolute time `when` (clamped to Now()).
  void ScheduleAt(TimePoint when, std::function<void()> fn);

  // Schedules `fn` in `region`, `delay` from now. From inside an event of a
  // different region this is a cross-region send: the edge must have been
  // registered and `delay` must be >= its lookahead; the arrival is routed
  // through the edge's channel and becomes visible at the next barrier.
  void ScheduleInRegion(RegionId region, Duration delay, std::function<void()> fn);

  // Schedules a cancellable timer in the current region. The returned id
  // stays valid until the timer fires, is cancelled, or Reset() is called.
  TimerId ScheduleTimer(Duration delay, std::function<void()> fn);

  // Cancels a pending timer. Returns true if the timer was still pending.
  // Ids from before a Reset() (stale generation) are a checked no-op.
  bool Cancel(TimerId id);

  // True if the timer with this id has neither fired nor been cancelled.
  bool IsPending(TimerId id) const;

  // --- Running ---

  // Runs events until the queue is empty or `limit` events have run.
  // Returns the number of events executed. A finite limit is only
  // meaningful single-region (multi-region runs are epoch-granular).
  uint64_t Run(uint64_t limit = UINT64_MAX);

  // Runs events with time <= `until`. Afterwards Now() == max(Now(), until)
  // and every region's clock is re-synchronized to it.
  // Returns the number of events executed.
  uint64_t RunUntil(TimePoint until);

  // Runs events for `span` more microseconds of simulated time.
  uint64_t RunFor(Duration span) { return RunUntil(Now() + span); }

  // Executes the single earliest event. Returns false if the queue is
  // empty. Single-region only.
  bool Step();

  // Rewinds to a fresh simulation at t=0: every queued event, pending
  // timer, and in-flight channel arrival is dropped and counters restart.
  // Region topology and registered edges survive. Timer ids issued before
  // Reset() go stale (their generation no longer matches).
  void Reset();

  // --- Introspection ---

  // Number of events currently queued (including tombstoned timers).
  size_t QueueSize() const;

  // Total events executed since construction (or the last Reset).
  uint64_t EventsRun() const;

  // Epoch-loop telemetry (sim.* metrics; docs/parallel-sim.md). epochs()
  // and cross_region_events() are deterministic; barrier_wait_us() is
  // wall-clock and excluded from determinism witnesses.
  uint64_t epochs() const { return epochs_; }
  uint64_t cross_region_events() const { return cross_region_events_; }
  uint64_t barrier_wait_us() const { return barrier_wait_us_; }

  // Sum over epochs of the busiest shard's event count: the serialized
  // critical path of the epoch loop. EventsRun() / critical_path_events()
  // is the available parallelism of the run — the hardware-independent
  // bound on epoch-loop speedup. Deterministic and identical at every
  // worker count (both loops account it the same way).
  uint64_t critical_path_events() const { return critical_path_events_; }

 private:
  friend class ScopedRegion;

  struct EdgeKey {
    RegionId dst;
    RegionId src;
    bool operator<(const EdgeKey& o) const {
      return dst != o.dst ? dst < o.dst : src < o.src;
    }
  };

  void AddShard(const std::string& name);
  EventShard& SchedulingShard();
  const EventShard* ExecutingShardHere() const;
  uint64_t DrainShard(EventShard& shard, TimePoint horizon);
  // Drains channels and computes the next epoch horizon below `clip`
  // (exclusive). Returns false when no runnable event remains. Runs
  // exclusively (serial loop body or barrier completion step).
  bool AdvanceEpoch(TimePoint clip);
  void DrainChannels();
  uint64_t EpochLoop(TimePoint clip);
  uint64_t EpochLoopParallel(TimePoint clip, int workers);

  SimulatorOptions options_;
  std::vector<std::unique_ptr<EventShard>> shards_;
  std::vector<Region> regions_;
  // Channels and lookaheads keyed (dst, src): barrier drain order.
  std::map<EdgeKey, std::unique_ptr<CrossRegionChannel>> channels_;
  std::map<EdgeKey, Duration> edge_lookahead_;
  Duration min_lookahead_ = kNoEvent;  // kNoEvent = no cross edges.

  TimePoint now_ = 0;            // Global clock (authoritative outside Run).
  RegionId ambient_region_ = kMainRegion;  // ScopedRegion target.
  uint16_t generation_ = 0;      // Bumped by Reset(); tags TimerIds.
  bool running_ = false;
  TimePoint epoch_horizon_ = 0;  // Horizon of the epoch just executed.
  uint64_t epochs_ = 0;
  uint64_t cross_region_events_ = 0;
  uint64_t barrier_wait_us_ = 0;
  uint64_t critical_path_events_ = 0;
};

// Sets the ambient region new components schedule into while being
// constructed (or while the main thread manipulates them between runs).
// Scenario builders wrap each host's construction in one of these so that
// every timer and event the component ever schedules stays region-local.
class ScopedRegion {
 public:
  ScopedRegion(Simulator* sim, RegionId region) : sim_(sim), prev_(sim->ambient_region_) {
    sim_->ambient_region_ = region;
  }
  ~ScopedRegion() { sim_->ambient_region_ = prev_; }
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;

 private:
  Simulator* sim_;
  RegionId prev_;
};

}  // namespace comma::sim

#endif  // COMMA_SIM_SIMULATOR_H_
