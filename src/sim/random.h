// Deterministic pseudo-random source for the simulator.
//
// A small xoshiro256** generator, seeded explicitly, so that every loss
// pattern and jitter schedule in tests and benches reproduces exactly.
#ifndef COMMA_SIM_RANDOM_H_
#define COMMA_SIM_RANDOM_H_

#include <cstdint>

namespace comma::sim {

class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // A uniform 64-bit value.
  uint64_t NextU64();

  // A uniform value in [0, bound). bound == 0 returns 0.
  uint64_t NextBelow(uint64_t bound);

  // A uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Exponentially distributed value with the given mean (>= 0).
  double Exponential(double mean);

  // A uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Derives an independent child generator (for per-link streams).
  Random Fork();

  // Derives an independent child generator for a *named* stream without
  // consuming any of this generator's sequence. Used for per-region RNG
  // streams in partitioned scenarios: each region's drop/corruption
  // sequence depends only on (scenario seed, stream index), never on how
  // many other regions exist or how their draws interleave.
  Random ForkStream(uint64_t stream) const;

  // Snapshots / reinstates the full generator state. Lets checkpointed
  // components (e.g. a tdrop filter migrating to a standby gateway) resume
  // the exact random sequence the source would have produced.
  void SaveState(uint64_t out[4]) const;
  void RestoreState(const uint64_t in[4]);

 private:
  uint64_t s_[4];
};

// Mixes a scenario seed and a stream index into a child seed. Stable across
// releases: the partition-independence of per-region random sequences
// (docs/parallel-sim.md) depends on this mapping alone.
uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream);

}  // namespace comma::sim

#endif  // COMMA_SIM_RANDOM_H_
