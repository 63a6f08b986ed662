// Sampling / interval-stats plane of ReSimEngine (docs/SAMPLING.md).
//
// Everything here is off the cycle loop's hot path: interval boundaries
// fire every sample.interval_insts committed instructions, and
// functional warmup runs between detailed windows of a sampled run.
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
#include "core/interval.hpp"

namespace resim::core {

StatsSnapshot ReSimEngine::stats_snapshot() const {
  StatsRegistry merged = stats_;
  merged.merge(bp_.stats());
  mem_.export_stats(merged);
  return merged.snapshot();
}

void ReSimEngine::attach_interval_recorder(IntervalRecorder* rec) {
  intervals_ = rec;
  if (rec == nullptr || rec->interval_insts() == 0) {
    intervals_ = nullptr;
    interval_next_ = ~std::uint64_t{0};
    return;
  }
  // First boundary after the NEXT full interval from wherever we are —
  // attaching mid-run starts a fresh interval, it does not backfill.
  interval_next_ = committed_ + rec->interval_insts();
}

void ReSimEngine::record_interval_boundary() {
  // Width commits can overshoot a boundary; advance the threshold past
  // the current count so each row spans at least one full interval.
  const std::uint64_t n = intervals_->interval_insts();
  intervals_->boundary(stats_snapshot(), committed_, cycle_);
  while (interval_next_ <= committed_) interval_next_ += n;
}

void ReSimEngine::flush_intervals() {
  if (intervals_ == nullptr) return;
  intervals_->boundary(stats_snapshot(), committed_, cycle_);
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
