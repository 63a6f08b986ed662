// Dispatch stage (paper §III): "Dispatch allocates Load/Store Queue (LSQ)
// and Reorder Buffer (RB) entries, and accesses the Rename Table."
//
// Instructions become dispatchable one cycle after fetch (the Decouple
// Buffer boundary); dispatch stalls on a full ROB or LSQ. The IFQ front
// already sits in the window slot behind the ROB's tail, so dispatching
// it moves the ROB/IFQ boundary and copies nothing (core/rob.hpp).
#include "core/engine.hpp"

namespace resim::core {

DispatchStats::DispatchStats(StatsRegistry& reg)
    : insts(reg.counter("dispatch.insts")),
      loads(reg.counter("dispatch.loads")),
      stores(reg.counter("dispatch.stores")),
      rob_full(reg.counter("dispatch.rob_full")),
      lsq_full(reg.counter("dispatch.lsq_full")) {}

void ReSimEngine::stage_dispatch() {
  for (unsigned slot = 0; slot < cfg_.width; ++slot) {
    if (rob_.ifq_empty()) break;
    const FetchedInst& fi = rob_.ifq_front();
    if (fi.fetched_at >= cycle_) break;  // decouple: fetched this very cycle

    if (rob_.full()) {
      dstat_.rob_full.add();
      break;
    }
    if (fi.rec.is_mem() && lsq_.full()) {
      dstat_.lsq_full.add();
      break;
    }

    const int rob_slot = rob_.allocate();
    RobEntry& e = rob_.entry(rob_slot);
    FetchedInst& inst = rob_.inst(rob_slot);  // the record Fetch wrote, in place
    trace::TraceRecord& rec = inst.rec;
    // Decode normalization: stores write no register. A malformed record
    // carrying a destination would otherwise rename a register to an
    // instruction that never broadcasts a result (stores complete through
    // Lsq_refresh, not Writeback) and strand its consumers.
    if (rec.is_mem() && rec.is_store) rec.out = kNoReg;
    e.dispatched_at = cycle_;
    e.fmt = rec.fmt;
    e.store = rec.is_mem() && rec.is_store;
    // Branches and O-format ops bind their functional-unit class.
    e.fu = rec.is_branch() ? trace::OtherFu::kAlu : rec.fu;

    // Rename-table read: source operands either have an in-flight
    // producer (pending until its writeback, which walks the consumer
    // list this links onto) or are architecturally ready.
    const Reg srcs[2] = {rec.in1, rec.in2};
    for (int k = 0; k < 2; ++k) {
      const int producer = rename_.lookup(srcs[k]);
      if (producer < 0) continue;
      RobEntry& p = rob_.entry(producer);
      if (p.completed) continue;
      e.src_rob[k] = producer;
      ++e.src_pending;
      e.next_consumer[k] = p.consumers;
      p.consumers = rob_slot * 2 + k;
    }

    // Rename-table write: this entry becomes the newest producer.
    rename_.set(rec.out, rob_slot);

    if (e.is_mem()) {
      const int lsq_slot = lsq_.allocate();
      LsqEntry& m = lsq_.entry(lsq_slot);
      m.is_store = e.store;
      m.rob_slot = rob_slot;
      m.seq = inst.seq;
      m.addr = rec.addr;
      e.lsq_slot = lsq_slot;
      (e.store ? dstat_.stores : dstat_.loads).add();
    }
    if (e.is_mem() ? e.src_rob[0] < 0 : e.src_pending == 0) ready_.insert(rob_slot);

    dstat_.insts.add();
  }
}

}  // namespace resim::core
