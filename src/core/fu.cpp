#include "core/fu.hpp"

#include "common/numeric.hpp"

namespace resim::core {

FuPool::FuPool(unsigned alu_count, unsigned alu_latency, bool alu_pipelined,
               unsigned mul_count, unsigned mul_latency, bool mul_pipelined,
               unsigned div_count, unsigned div_latency, bool div_pipelined) {
  require(alu_count >= 1 && mul_count >= 1 && div_count >= 1, "FuPool: >=1 unit per class");
  classes_[0] = UnitClass{std::vector<Cycle>(alu_count, 0), alu_latency, alu_pipelined};
  classes_[1] = UnitClass{std::vector<Cycle>(mul_count, 0), mul_latency, mul_pipelined};
  classes_[2] = UnitClass{std::vector<Cycle>(div_count, 0), div_latency, div_pipelined};
}

std::optional<std::uint32_t> FuPool::bind(UnitClass& c, Cycle now) {
  for (Cycle& busy_until : c.units) {
    if (busy_until <= now) {
      // A pipelined unit is only unavailable for the issue cycle itself;
      // an unpipelined one blocks for its whole latency.
      busy_until = now + (c.pipelined ? 1 : c.latency);
      return c.latency;
    }
  }
  return std::nullopt;
}

std::optional<std::uint32_t> FuPool::try_issue(trace::OtherFu fu, Cycle now) {
  switch (fu) {
    case trace::OtherFu::kAlu: return bind(classes_[0], now);
    case trace::OtherFu::kMul: return bind(classes_[1], now);
    case trace::OtherFu::kDiv: return bind(classes_[2], now);
    case trace::OtherFu::kNone: return 1;  // nop/halt: no unit, completes next cycle
  }
  return std::nullopt;
}

}  // namespace resim::core
