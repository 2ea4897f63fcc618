// Determinism witnesses (docs/parallel-sim.md): runs render what they
// observed as text, and the text's hash is the fingerprint that must match
// across worker counts and between a change and its parent.
#ifndef COMMA_SIM_WITNESS_H_
#define COMMA_SIM_WITNESS_H_

#include <cstdint>
#include <string>

namespace comma::sim {

// FNV-1a 64-bit over the bytes (witness fingerprints in bench output).
uint64_t WitnessHash(const std::string& bytes);

}  // namespace comma::sim

#endif  // COMMA_SIM_WITNESS_H_
