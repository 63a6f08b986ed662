// Functional-unit pool with per-unit occupancy.
//
// Pipelined units accept one operation per cycle regardless of latency;
// unpipelined units (the divider) stay busy for their full latency
// (paper §V.C: ALU latency 1, multiplier 3, divider 10).
#ifndef RESIM_CORE_FU_H
#define RESIM_CORE_FU_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "isa/opcode.hpp"
#include "trace/record.hpp"

namespace resim::core {

struct FuPoolConfig;  // defined in core/config.hpp

class FuPool {
 public:
  FuPool(unsigned alu_count, unsigned alu_latency, bool alu_pipelined,
         unsigned mul_count, unsigned mul_latency, bool mul_pipelined,
         unsigned div_count, unsigned div_latency, bool div_pipelined);

  /// Try to bind a unit of the class needed by `fu` at cycle `now`.
  /// Returns the operation latency on success. OtherFu::kNone needs no
  /// unit and always succeeds with latency 1.
  std::optional<std::uint32_t> try_issue(trace::OtherFu fu, Cycle now);

  /// ALU binding for address generation and branch evaluation.
  std::optional<std::uint32_t> try_issue_alu(Cycle now) {
    return try_issue(trace::OtherFu::kAlu, now);
  }

 private:
  struct UnitClass {
    std::vector<Cycle> units;  ///< per-unit busy-until cycle
    std::uint32_t latency = 1;
    bool pipelined = true;
  };

  std::optional<std::uint32_t> bind(UnitClass& c, Cycle now);

  // [0]=ALU, [1]=MUL, [2]=DIV
  UnitClass classes_[3];
};

}  // namespace resim::core

#endif  // RESIM_CORE_FU_H
