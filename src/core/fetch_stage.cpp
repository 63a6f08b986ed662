// Fetch stage (paper §III):
//
//   "Fetch is the simulator's front end, fetching instructions from the
//    trace until a control flow bubble is encountered or Instruction
//    Fetch Queue (IFQ) is full. It performs target resolution of control
//    flow instructions and checks for misfetches ... On misfetch PC is
//    set to the next sequential address, a misfetch delayed penalty is
//    imposed. During Fetch Instruction Cache is also accessed."
//
// Mis-speculation (§V.A): on a direction mispredict, fetch follows the
// tagged wrong-path block; when the block is exhausted (or absent —
// predictor disagreement with the trace generator) fetch stalls until the
// branch resolves at Commit.
#include "core/engine.hpp"

namespace resim::core {

FetchStats::FetchStats(StatsRegistry& reg)
    : insts(reg.counter("fetch.insts")),
      branches(reg.counter("fetch.branches")),
      wrong_path_insts(reg.counter("fetch.wrong_path_insts")),
      pc_resyncs(reg.counter("fetch.pc_resyncs")),
      taken_breaks(reg.counter("fetch.taken_breaks")),
      misfetches(reg.counter("fetch.misfetches")),
      mispredicts(reg.counter("fetch.mispredicts")),
      mispredict_without_block(reg.counter("fetch.mispredict_without_block")),
      skipped_tagged(reg.counter("fetch.skipped_tagged")),
      icache_miss_stalls(reg.counter("fetch.icache_miss_stalls")),
      penalty_stall_cycles(reg.counter("fetch.penalty_stall_cycles")),
      resolution_stall_cycles(reg.counter("fetch.resolution_stall_cycles")),
      ifq_full(reg.counter("fetch.ifq_full")) {}

void ReSimEngine::stage_fetch() {
  fetch_cycle();
  // Settle the cursor before any other stage (or finished()/result())
  // observes the source: its counters and position are exact here.
  fetch_.flush();
}

void ReSimEngine::fetch_cycle() {
  // Take the next record into the IFQ, written once, in place, in the
  // window slot it will later commit from (Rob::ifq_push).
  const auto take = [this](Addr pc) -> FetchedInst& {
    FetchedInst& fi = rob_.ifq_push();
    fi.rec = fetch_.next();
    fi.pc = pc;
    fi.seq = next_seq_++;
    fi.fetched_at = cycle_;
    fi.pred = {};
    fi.outcome = bpred::Outcome::kCorrect;
    fstat_.insts.add();
    return fi;
  };

  if (cycle_ < fetch_stall_until_) {
    fstat_.penalty_stall_cycles.add();
    return;
  }
  if (awaiting_resolution_) {
    fstat_.resolution_stall_cycles.add();
    return;
  }

  for (unsigned slot = 0; slot < cfg_.width; ++slot) {
    if (rob_.ifq_full()) {
      fstat_.ifq_full.add();
      break;
    }

    // Skip stale tagged blocks: the trace generator mispredicted where our
    // commit-time-trained predictor did not (DESIGN.md §5).
    while (!wrong_path_active_ && fetch_.peek() != nullptr && fetch_.peek()->wrong_path) {
      (void)fetch_.next();
      fstat_.skipped_tagged.add();
    }

    const trace::TraceRecord* rec = fetch_.peek();
    if (rec == nullptr) {
      if (wrong_path_active_) {
        // Trace ended inside a tagged block: wait for branch resolution.
        wrong_path_active_ = false;
        awaiting_resolution_ = true;
      }
      break;
    }

    if (wrong_path_active_ && !rec->wrong_path) {
      // Tagged block exhausted before resolution: fetch has nothing more
      // to do until Commit redirects it.
      wrong_path_active_ = false;
      awaiting_resolution_ = true;
      break;
    }

    // --- wrong-path fetch --------------------------------------------------
    if (wrong_path_active_) {
      const auto ic = mem_.ifetch(wrong_path_pc_);
      if (!ic.hit) {
        fstat_.icache_miss_stalls.add();
        fetch_stall_until_ = cycle_ + ic.latency;
        break;
      }
      (void)take(wrong_path_pc_);
      wrong_path_pc_ += kInstBytes;
      fstat_.wrong_path_insts.add();
      continue;
    }

    // --- correct-path fetch --------------------------------------------------
    // Branch records carry their PC; resync the implicit PC tracker if the
    // stream and our bookkeeping ever disagree.
    Addr pc = fetch_pc_;
    if (rec->is_branch() && rec->pc != pc) {
      fstat_.pc_resyncs.add();
      pc = rec->pc;
    }

    const auto ic = mem_.ifetch(pc);
    if (!ic.hit) {
      // Blocking I-cache: the line fills, fetch retries after the miss
      // latency (the access above installed the tags).
      fstat_.icache_miss_stalls.add();
      fetch_stall_until_ = cycle_ + ic.latency;
      break;
    }

    FetchedInst& fi = take(pc);
    if (!fi.rec.is_branch()) {
      fetch_pc_ = pc + kInstBytes;
      continue;
    }

    // Control flow: predict, classify, steer.
    const Addr fallthrough = pc + kInstBytes;
    const Addr actual_next = fi.rec.taken ? fi.rec.target : fallthrough;
    fi.pred = bp_.predict(pc, fi.rec.ctrl, fallthrough, fi.rec.taken, actual_next);
    fi.outcome = bpred::BranchPredictorUnit::classify(fi.pred, fi.rec.taken, actual_next);
    fstat_.branches.add();

    switch (fi.outcome) {
      case bpred::Outcome::kCorrect:
        fetch_pc_ = actual_next;
        if (fi.pred.dir_taken) {
          // Control-flow bubble: a predicted-taken branch ends the group.
          fstat_.taken_breaks.add();
          slot = cfg_.width;  // break out after accounting
        }
        break;

      case bpred::Outcome::kMisfetch:
        // Direction right, target wrong: fetch went sequential; the front
        // end recovers after the misfetch delayed penalty and resumes on
        // the correct path.
        fstat_.misfetches.add();
        fetch_pc_ = actual_next;
        fetch_stall_until_ = cycle_ + 1 + cfg_.misfetch_penalty;
        slot = cfg_.width;
        break;

      case bpred::Outcome::kMispredict: {
        fstat_.mispredicts.add();
        mispredict_inflight_ = true;
        resume_pc_ = actual_next;
        const trace::TraceRecord* nxt = fetch_.peek();
        if (nxt != nullptr && nxt->wrong_path) {
          // Follow the tagged wrong-path block down our predicted path.
          wrong_path_active_ = true;
          wrong_path_pc_ = fi.pred.next_pc;
        } else {
          // No block available (generator predicted correctly here):
          // nothing to fetch until resolution.
          awaiting_resolution_ = true;
          fstat_.mispredict_without_block.add();
        }
        slot = cfg_.width;
        break;
      }
    }
  }
}

}  // namespace resim::core
