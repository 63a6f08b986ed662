#include "core/rob.hpp"

#include "common/numeric.hpp"

namespace resim::core {

Rob::Rob(unsigned capacity, unsigned ifq_capacity)
    : entries_(capacity + ifq_capacity),
      insts_(capacity + ifq_capacity),
      rob_cap_(capacity),
      cap_(capacity + ifq_capacity) {
  require(capacity >= 1 && ifq_capacity >= 1, "Rob: capacity >= 1 and ifq_capacity >= 1");
}

}  // namespace resim::core
