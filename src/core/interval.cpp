#include "core/interval.hpp"

namespace resim::core {

void IntervalRecorder::close(const Region& now) {
  if (interval_insts_ == 0 || now.committed == last_.committed) return;
  rows_.push_back({rows_.size(), now.committed, now.cycles, now - last_});
  last_ = now;
  while (next_ <= now.committed) next_ += interval_insts_;
}

}  // namespace resim::core
