#include "src/sim/random.h"

#include <cmath>

namespace comma::sim {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Random::Random(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
  }
}

uint64_t Random::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Random::NextBelow(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return v % bound;
}

double Random::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Random::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Random::Exponential(double mean) {
  if (mean <= 0.0) {
    return 0.0;
  }
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -mean * std::log(u);
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  if (hi <= lo) {
    return lo;
  }
  return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo + 1)));
}

Random Random::Fork() { return Random(NextU64()); }

uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream) {
  // Feed both words through SplitMix64 so adjacent stream indices land far
  // apart in seed space (a raw XOR would correlate neighboring regions).
  uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  const uint64_t a = SplitMix64(x);
  return a ^ SplitMix64(x);
}

Random Random::ForkStream(uint64_t stream) const {
  // Only the base state word seeds the child; the sequence position of
  // *this is deliberately not consumed.
  return Random(DeriveStreamSeed(s_[0], stream));
}

void Random::SaveState(uint64_t out[4]) const {
  for (int i = 0; i < 4; ++i) {
    out[i] = s_[i];
  }
}

void Random::RestoreState(const uint64_t in[4]) {
  for (int i = 0; i < 4; ++i) {
    s_[i] = in[i];
  }
}

}  // namespace comma::sim
