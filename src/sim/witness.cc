#include "src/sim/witness.h"

namespace comma::sim {

uint64_t WitnessHash(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace comma::sim
