// Sampling plane of ReSimEngine (docs/SAMPLING.md).
//
// Everything here is off the cycle loop's hot path: region() is read at
// interval and window boundaries, and functional warmup runs between
// detailed windows of a sampled run.
//
// Functional warmup mirrors the architectural (correct-path) effects of
// Fetch + Commit without any timing: the implicit-PC walk and branch
// resync follow fetch_cycle(), predictor train-at-commit follows
// stage_commit(), I-cache touches happen at the fetch PC and D-cache
// touches at the effective address. Wrong-path (tagged) records are
// discarded untouched — in detailed mode they only perturb timing and
// are squashed before commit, so they must leave no architectural marks
// here either.
#include <stdexcept>

#include "core/engine.hpp"

namespace resim::core {

Region ReSimEngine::region() const {
  const auto misses = [](const cache::TagCache* c) -> std::uint64_t {
    return c == nullptr ? 0 : c->misses();
  };
  return {cstat_.insts.value(),
          cycle_,
          cstat_.branches.value(),
          fstat_.mispredicts.value(),
          misses(mem_.icache()),
          misses(mem_.dcache())};
}

std::uint64_t ReSimEngine::functional_warmup(std::uint64_t max_records) {
  if (!pipeline_empty() || mispredict_inflight_) {
    throw std::logic_error("functional_warmup: pipeline not drained");
  }

  Addr pc = fetch_pc_;
  std::uint64_t done = 0;
  while (done < max_records && fetch_.peek() != nullptr) {
    const trace::TraceRecord& rec = fetch_.next();
    ++done;
    if (rec.wrong_path) continue;  // tagged: no architectural effect

    // Implicit-PC walk with branch resync, as in fetch_cycle().
    if (rec.is_branch() && rec.pc != pc) pc = rec.pc;
    (void)mem_.ifetch(pc);

    if (rec.is_branch()) {
      const Addr fallthrough = pc + kInstBytes;
      const Addr actual_next = rec.taken ? rec.target : fallthrough;
      // predict() keeps the RAS in step (speculative push/pop), and the
      // snapshot it returns trains the same entry commit would.
      const bpred::Prediction pred = bp_.predict(pc, rec.ctrl, fallthrough, rec.taken, actual_next);
      bp_.update_commit(pc, rec.ctrl, rec.taken, actual_next, pred);
      pc = actual_next;
    } else {
      if (rec.is_mem()) {
        if (rec.is_store) {
          (void)mem_.dwrite(rec.addr);
        } else {
          (void)mem_.dread(rec.addr);
        }
      }
      pc += kInstBytes;
    }
  }
  fetch_.flush();

  fetch_pc_ = pc;
  if (done != 0) stats_.counter("sample.warmup_records").add(done);
  return done;
}

}  // namespace resim::core
