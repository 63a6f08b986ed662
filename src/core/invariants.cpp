// ReSimEngine::check_invariants(): an independent recomputation of the
// event-driven scheduling state (engine.hpp header) from the window, LSQ
// and rename table alone, plus an audit of the window's IFQ half. Cold
// code: the cycle loop never calls it.
// Tests call it after every step_major_cycle(), so any drift between
// the incremental structures and what a scan of the window would find
// fails at the cycle it first appears.
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace resim::core {

namespace {

[[noreturn]] void violation(Cycle cycle, int slot, const std::string& what) {
  throw std::logic_error("ReSimEngine invariant violated at cycle " + std::to_string(cycle) +
                         ", ROB slot " + std::to_string(slot) + ": " + what);
}

}  // namespace

void ReSimEngine::check_invariants() const {
  const unsigned cap = rob_.slots();
  const unsigned window = rob_.size() + rob_.ifq_size();
  std::vector<bool> live(cap, false);    // ROB entries
  std::vector<bool> in_ifq(cap, false);  // IFQ instructions
  std::vector<unsigned> age(cap, 0);
  for (unsigned i = 0; i < window; ++i) {
    const int slot = rob_.slot_at(i);
    (i < rob_.size() ? live : in_ifq)[static_cast<std::size_t>(slot)] = true;
    age[static_cast<std::size_t>(slot)] = i;
    // Window age order: every fetched instruction takes the next sequence
    // number and leaves only by commit or squash, so they run on by one
    // from the ROB head through the IFQ.
    if (i > 0 && rob_.inst(slot).seq != rob_.inst(rob_.slot_at(i - 1)).seq + 1) {
      violation(cycle_, slot, std::string(i < rob_.size() ? "ROB" : "IFQ") +
                                  " seq does not follow the previous entry's");
    }
  }

  // Consumer lists: every link names a live, younger consumer whose
  // operand points back at this producer; count links per consumer.
  std::vector<std::array<bool, 2>> linked(cap, {false, false});
  for (unsigned i = 0; i < rob_.size(); ++i) {
    const int p = rob_.slot_at(i);
    unsigned steps = 0;
    for (int link = rob_.entry(p).consumers; link >= 0;) {
      const int c = link >> 1;
      const int k = link & 1;
      if (++steps > 2 * cap || c < 0 || static_cast<unsigned>(c) >= cap) {
        violation(cycle_, p, "consumer list is cyclic or leaves the ROB");
      }
      const auto cu = static_cast<std::size_t>(c);
      if (in_ifq[cu]) violation(cycle_, p, "consumer link names an IFQ slot");
      if (!live[cu] || age[cu] <= i) violation(cycle_, p, "consumer link to a dead or older slot");
      if (rob_.entry(c).src_rob[k] != p) violation(cycle_, c, "linked operand names another producer");
      if (linked[cu][static_cast<std::size_t>(k)]) violation(cycle_, c, "operand linked twice");
      if (rob_.entry(p).completed) violation(cycle_, p, "completed producer still has consumers");
      linked[cu][static_cast<std::size_t>(k)] = true;
      link = rob_.entry(c).next_consumer[k];
    }
  }

  for (unsigned i = 0; i < rob_.size(); ++i) {
    const int slot = rob_.slot_at(i);
    const auto su = static_cast<std::size_t>(slot);
    const RobEntry& e = rob_.entry(slot);

    // src_pending counts exactly the live links; src_rob[k] >= 0 iff linked.
    unsigned links = 0;
    for (std::size_t k = 0; k < 2; ++k) {
      if ((e.src_rob[k] >= 0) != linked[su][k]) {
        violation(cycle_, slot, "src_rob[" + std::to_string(k) + "] disagrees with its link");
      }
      links += linked[su][k] ? 1u : 0u;
    }
    if (e.src_pending != links) violation(cycle_, slot, "src_pending != live consumer links");

    // In-flight set == {issued && !completed}.
    if (inflight_.contains(slot) != (e.issued && !e.completed)) {
      violation(cycle_, slot, "in-flight set disagrees with issued && !completed");
    }

    // Checked before the candidate predicate, which reads the LSQ entry.
    if (e.is_mem() != rob_.inst(slot).rec.is_mem() || e.is_mem() != (e.lsq_slot >= 0) ||
        e.lsq_slot >= static_cast<int>(lsq_.capacity())) {
      violation(cycle_, slot, "memory class disagrees with the record or LSQ slot");
    }

    // Ready set == the issue scan's per-entry candidate predicate.
    bool candidate = false;
    if (!e.completed && e.dispatched_at < cycle_) {
      if (e.is_mem()) {
        if (!e.agen_issued && e.src_rob[0] < 0) {
          candidate = true;
        } else if (e.is_load() && !e.issued) {
          const LsqEntry& m = lsq_.entry(e.lsq_slot);
          candidate = m.mem_ready && !m.mem_issued;
        }
      } else {
        candidate = !e.issued && e.src_pending == 0;
      }
    }
    if (ready_.contains(slot) != candidate) {
      violation(cycle_, slot, "ready set disagrees with the issue candidate predicate");
    }
  }
  for (unsigned s = 0; s < cap; ++s) {
    if (!live[s] && (ready_.contains(static_cast<int>(s)) || inflight_.contains(static_cast<int>(s)))) {
      violation(cycle_, static_cast<int>(s),
                in_ifq[s] ? "IFQ slot is in the ready or in-flight set"
                          : "free slot is in the ready or in-flight set");
    }
  }

  // LSQ: every entry's owner is live and points back to it, in order.
  int prev_owner_age = -1;
  for (unsigned i = 0; i < lsq_.size(); ++i) {
    const int ls = lsq_.slot_at(i);
    const int owner = lsq_.entry(ls).rob_slot;
    if (owner < 0 || static_cast<unsigned>(owner) >= cap || !live[static_cast<std::size_t>(owner)]) {
      violation(cycle_, owner, "LSQ entry " + std::to_string(ls) + " owned by a dead ROB slot");
    }
    if (rob_.entry(owner).lsq_slot != ls) {
      violation(cycle_, owner, "LSQ entry " + std::to_string(ls) + " not pointed back to");
    }
    const int owner_age = static_cast<int>(age[static_cast<std::size_t>(owner)]);
    if (owner_age <= prev_owner_age) violation(cycle_, owner, "LSQ out of ROB age order");
    prev_owner_age = owner_age;
  }

  // Rename table: each register maps to its newest live writer, or to
  // nothing when no live entry writes it.
  std::array<int, kNumArchRegs> newest{};
  newest.fill(-1);
  for (unsigned i = 0; i < rob_.size(); ++i) {
    const int slot = rob_.slot_at(i);
    const Reg out = rob_.inst(slot).rec.out;
    if (out != kNoReg && out != kZeroReg && out < kNumArchRegs) newest[out] = slot;
  }
  for (Reg r = 1; r < kNumArchRegs; ++r) {
    const int named = rename_.lookup(r);
    const bool names_ifq = named >= 0 && static_cast<unsigned>(named) < cap &&
                           in_ifq[static_cast<std::size_t>(named)];
    if (names_ifq || named != newest[r]) {
      violation(cycle_, named,
                "rename of r" + std::to_string(r) +
                    (names_ifq ? " names an IFQ slot" : " is not its newest live writer"));
    }
  }
}

}  // namespace resim::core
