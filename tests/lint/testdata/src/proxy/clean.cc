// Clean fixture: the sanctioned idioms the rules push toward. Never
// compiled; scanned by tests/lint — must produce zero findings.
#include <cstdint>
#include <mutex>

#include "src/tcp/seq.h"
#include "src/util/bytes.h"
#include "src/util/thread_annotations.h"

namespace fixture {

bool InWindow(uint32_t rcv_nxt, uint32_t seg_seq) {
  return comma::tcp::SeqLeq(rcv_nxt, seg_seq);
}

const char* Text(const uint8_t* data) {
  return comma::util::AsCharPtr(data);
}

// Annotated shared state: every mutex is cited by a COMMA_GUARDED_BY, the
// *_locked_ field is guarded, and the nested acquisition follows the
// testdata/DESIGN.md ranks (table_mu_ 10 before row_mu_ 20).
class Cache {
 public:
  void Put(int row) {
    std::lock_guard<std::mutex> table(table_mu_);
    std::lock_guard<std::mutex> row_guard(row_mu_);
    rows_locked_ = row;
    ++size_;
  }

 private:
  std::mutex table_mu_;
  std::mutex row_mu_;
  int size_ COMMA_GUARDED_BY(table_mu_) = 0;
  int rows_locked_ COMMA_GUARDED_BY(row_mu_) = 0;
};

const int justified = 1;  // NOLINT(comma-metric-name-style): synthetic fixture name

}  // namespace fixture
