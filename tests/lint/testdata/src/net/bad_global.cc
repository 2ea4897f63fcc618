// Bad fixture: mutable namespace-scope variables and static data members in
// an event-path module. Never compiled; scanned by tests/lint.
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fixture {

uint64_t packets_seen = 0;
static std::vector<int> scratch_pool;
thread_local int depth;
const char* mode_name = "fast";
std::atomic<uint64_t> next_id{1};

namespace {
int hidden_counter;
}  // namespace

class Gauge {
 public:
  explicit Gauge(int start);
  static int instances;
  static constexpr int kLimit = 4;
  static const int kFloor;
  static Gauge* Create(int seed);

 private:
  static inline std::string label_{"g"};
  int level_ = 0;
  int peak_ = 0;
};

int Gauge::instances = 0;
const int Gauge::kFloor = 1;
Gauge::Gauge(int start) : level_{start}, peak_{start} {}
int gauge_resets = 0;

// Constants, types and functions: none of these is flagged.
constexpr int kWindow = 4096;
const std::string kGreeting = "hi";
const char* const kNames[] = {"a", "b"};
extern const int kShared;
inline constexpr int kDepth = 3;
int Twice(int x) { return 2 * x; }
struct Point {
  int x;
  int y;
};
enum class Mode { kA, kB };
using Table = std::vector<int>;

}  // namespace fixture
