// Functional simulator: executes a Program's architectural semantics and
// yields the dynamic instruction stream (the role SimpleScalar's
// functional simulators play for ReSim's trace generation, paper §I, §V.A).
#ifndef RESIM_FUNCSIM_FUNCSIM_H
#define RESIM_FUNCSIM_FUNCSIM_H

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "funcsim/memory_image.hpp"
#include "isa/program.hpp"

namespace resim::funcsim {

/// One executed dynamic instruction with its architectural outcome.
struct DynInst {
  const isa::StaticInst* si = nullptr;
  Addr pc = 0;
  Addr next_pc = 0;   ///< architecturally-correct successor PC
  bool taken = false; ///< control-flow outcome (false for non-branches)
  Addr mem_addr = 0;  ///< normalized effective address (Lw/Sw only)
  InstSeq seq = 0;

  [[nodiscard]] bool is_branch() const { return si != nullptr && isa::is_branch(si->op); }
  [[nodiscard]] bool is_mem() const { return si != nullptr && isa::is_mem(si->op); }
};

struct FuncSimConfig {
  std::uint64_t mem_size_bytes = 1 << 22;  ///< 4 MiB data region
  std::uint64_t mem_seed = 1;
};

class FuncSim {
 public:
  FuncSim(const isa::Program& program, const FuncSimConfig& cfg = {});

  /// Execute one instruction. Precondition: !done().
  DynInst step();

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] Addr pc() const { return pc_; }
  [[nodiscard]] InstSeq executed() const { return seq_; }

  [[nodiscard]] std::uint64_t reg(Reg r) const { return regs_[r]; }

  [[nodiscard]] const MemoryImage& memory() const { return mem_; }
  [[nodiscard]] MemoryImage& memory() { return mem_; }
  [[nodiscard]] const isa::Program& program() const { return program_; }

  void reset();

 private:
  const isa::Program& program_;
  MemoryImage mem_;
  std::array<std::uint64_t, kNumArchRegs> regs_{};
  Addr pc_;
  InstSeq seq_ = 0;
  bool done_ = false;
};

}  // namespace resim::funcsim

#endif  // RESIM_FUNCSIM_FUNCSIM_H
