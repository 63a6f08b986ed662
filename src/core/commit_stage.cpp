// Commit stage (paper §III): "Commit commits the oldest RB entry
// releasing Store Operations to memory, if a memory write port is
// available, and updates the Branch Predictor in case of branch."
//
// Branch resolution happens here (§V.A: "the branch resolution point at
// Commit"): committing a mispredicted branch squashes every in-flight
// tagged instruction, discards the unfetched remainder of the wrong-path
// block and redirects fetch with the misspeculation penalty.
#include "core/engine.hpp"

#include <stdexcept>

namespace resim::core {

CommitStats::CommitStats(StatsRegistry& reg)
    : insts(reg.counter("commit.insts")),
      loads(reg.counter("commit.loads")),
      stores(reg.counter("commit.stores")),
      branches(reg.counter("commit.branches")),
      store_hits(reg.counter("commit.store_hits")),
      store_misses(reg.counter("commit.store_misses")),
      write_port_stalls(reg.counter("commit.write_port_stalls")),
      squashes(reg.counter("commit.squashes")),
      squashed_insts(reg.counter("commit.squashed_insts")),
      discarded_tagged(reg.counter("fetch.discarded_tagged")) {}

void ReSimEngine::stage_commit() {
  for (unsigned slot = 0; slot < cfg_.width; ++slot) {
    if (rob_.empty()) break;
    const int head_slot = rob_.head_slot();
    const RobEntry& e = rob_.entry(head_slot);
    if (!e.completed) break;  // in-order commit
    // Read in place: pop_head() only moves the head, and nothing
    // reallocates the slot before this iteration ends.
    const FetchedInst& fi = rob_.inst(head_slot);

    if (fi.wrong_path()) {
      // A wrong-path instruction can only reach the head after its
      // mispredicted branch committed — and that squashes the window.
      throw std::logic_error("ReSimEngine: wrong-path instruction at ROB head");
    }

    if (e.is_store()) {
      // Stores drain to memory at commit and need a write port
      // (§III/§IV.A: "D-Cache is also accessed when store instructions
      // are committed").
      if (write_ports_used_ >= cfg_.mem_write_ports) {
        cstat_.write_port_stalls.add();
        break;
      }
      ++write_ports_used_;
      const auto res = mem_.dwrite(lsq_.entry(e.lsq_slot).addr);
      (res.hit ? cstat_.store_hits : cstat_.store_misses).add();
    }

    // Retire.
    if (e.lsq_slot >= 0) {
      if (lsq_.entry(lsq_.head_slot()).rob_slot != head_slot) {
        throw std::logic_error("ReSimEngine: LSQ/ROB commit order mismatch");
      }
      lsq_.pop_head();
    }
    rename_.clear_if(fi.rec.out, head_slot);

    last_commit_cycle_ = cycle_;
    cstat_.insts.add();
    if (e.is_mem()) (e.is_store() ? cstat_.stores : cstat_.loads).add();
    rob_.pop_head();

    if (e.is_branch()) {
      cstat_.branches.add();
      const Addr actual_next = fi.rec.taken ? fi.rec.target : fi.pc + kInstBytes;
      bp_.update_commit(fi.pc, fi.rec.ctrl, fi.rec.taken, actual_next, fi.pred);
      if (fi.outcome == bpred::Outcome::kMispredict) {
        squash_and_redirect(actual_next);
        break;  // the squash empties the window; nothing further commits
      }
    }
  }
}

}  // namespace resim::core
