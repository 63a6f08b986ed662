// Issue stage (paper §III):
//
//   "The Issue stage examines the ready instructions and schedules them
//    if there are available functional units. Load operations marked as
//    ready by Lsq_refresh are issued and a read port is allocated if
//    their value has not been forwarded in the LSQ. Issue also schedules
//    a Writeback event."
//
// Scheduling is oldest-first over the ROB with a total width of N slots
// per cycle. Memory operations take two issue steps: address generation
// on an ALU, then (loads) the cache access once Lsq_refresh marks them
// ready. In the Optimized pipeline, slot 0 may not hold a load memory
// access (§IV.B) — non-load candidates are preferred for slot 0 and, if
// none exists, slot 0 stays empty.
#include "core/engine.hpp"

namespace resim::core {

IssueStats::IssueStats(StatsRegistry& reg)
    : ops(reg.counter("issue.ops")),
      agen(reg.counter("issue.agen")),
      fu_stalls(reg.counter("issue.fu_stalls")),
      slot0_load_skips(reg.counter("issue.slot0_load_skips")),
      loads_forwarded(reg.counter("issue.loads_forwarded")),
      read_port_stalls(reg.counter("issue.read_port_stalls")),
      load_hits(reg.counter("issue.load_hits")),
      load_misses(reg.counter("issue.load_misses")) {}

void ReSimEngine::stage_issue() {
  // Candidates come straight off the ready set, oldest first, each
  // handled as the walk reaches it (engine.hpp).
  unsigned used_slots = 0;

  // An issued FU op or load memory access takes a slot, leaves the ready
  // set and waits in the in-flight set for Writeback.
  const auto start = [&](int slot, Cycle complete_at) {
    RobEntry& e = rob_.entry(slot);
    e.issued = true;
    e.complete_at = complete_at;
    ready_.erase(slot);
    inflight_.insert(slot);
    ++used_slots;
  };

  const auto issue = [&](int slot) {
    RobEntry& e = rob_.entry(slot);
    if (!e.is_mem()) {
      // FU op.
      const auto lat = fu_.try_issue(e.fu, cycle_);
      if (!lat) {
        istat_.fu_stalls.add();
        return;
      }
      start(slot, cycle_ + *lat);
      istat_.ops.add();
      return;
    }

    // Address generation needs only the base register (in1); a store's
    // data register (in2) is tracked separately (STA/STD split), so an
    // in-flight store with late data does not hide its address from
    // Lsq_refresh's dependence checks.
    if (!e.agen_issued) {
      // Effective-address computation occupies an ALU for one op.
      const auto lat = fu_.try_issue_alu(cycle_);
      if (!lat) {
        istat_.fu_stalls.add();
        return;
      }
      e.agen_issued = true;
      lsq_.entry(e.lsq_slot).addr_ready_at = cycle_ + *lat;
      ready_.erase(slot);
      ++used_slots;
      istat_.agen.add();
      return;
    }

    // Load memory access: a memory op whose address is generated is
    // ready again only once Lsq_refresh marks its load mem_ready.
    // Optimized pipeline: no load in the major cycle's first slot. With
    // only load candidates ready, slot 0 stays empty and loads occupy
    // slots 1..N-1.
    if (used_slots == 0 && !sched_.load_allowed_in_slot0()) {
      istat_.slot0_load_skips.add();
      used_slots = 1;
    }
    LsqEntry& m = lsq_.entry(e.lsq_slot);
    if (m.forwarded) {
      // Value satisfied inside the LSQ: one-cycle completion, no port.
      m.mem_issued = true;
      start(slot, cycle_ + 1);
      istat_.loads_forwarded.add();
      return;
    }
    if (read_ports_used_ >= cfg_.mem_read_ports) {
      istat_.read_port_stalls.add();
      return;
    }
    ++read_ports_used_;
    const auto res = mem_.dread(m.addr);
    m.mem_issued = true;
    start(slot, cycle_ + res.latency);
    (res.hit ? istat_.load_hits : istat_.load_misses).add();
  };

  // Optimized pipeline: if the oldest candidate is a load memory access,
  // the first non-load candidate issues first, in slot 0; the rest keep
  // their age order.
  int first = -1;
  if (!sched_.load_allowed_in_slot0()) {
    bool load_seen = false;
    ready_.for_each_from(rob_.head_slot(), [&](int slot) {
      const RobEntry& e = rob_.entry(slot);
      if (e.is_mem() && e.agen_issued) {
        load_seen = true;
        return true;
      }
      if (load_seen) first = slot;
      return false;
    });
    if (first >= 0) issue(first);
  }

  if (used_slots >= cfg_.width) return;
  ready_.for_each_from(rob_.head_slot(), [&](int slot) {
    if (slot != first) issue(slot);
    return used_slots < cfg_.width;
  });
}

}  // namespace resim::core
