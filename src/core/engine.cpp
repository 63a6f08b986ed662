#include "core/engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "isa/program.hpp"

namespace resim::core {

namespace {

/// The longest an instruction can legally wait to commit: an
/// instruction-fetch miss, a data miss, the slowest functional unit and
/// both redirect penalties, each at its configured worst.
Cycle longest_stall(const CoreConfig& c) {
  const cache::MemSysConfig& m = c.mem;
  const auto miss = [&m](const cache::CacheConfig& l1) -> Cycle {
    return m.perfect ? 1 : m.with_l2 ? l1.hit_latency + m.l2.miss_latency : l1.miss_latency;
  };
  return miss(m.l1i) + miss(m.l1d) +
         std::max({c.fu.alu_latency, c.fu.mul_latency, c.fu.div_latency}) +
         c.misfetch_penalty + c.misspec_penalty;
}

}  // namespace

ReSimEngine::ReSimEngine(const CoreConfig& cfg, trace::TraceSource& source)
    : cfg_(cfg),
      sched_(PipelineSchedule::make(cfg.variant, cfg.width)),
      src_(source),
      bp_(cfg.bp),
      mem_(cfg.mem),
      rob_(cfg.rob_size, cfg.ifq_size),
      lsq_(cfg.lsq_size),
      fu_(cfg.fu.alu_count, cfg.fu.alu_latency, cfg.fu.alu_pipelined, cfg.fu.mul_count,
          cfg.fu.mul_latency, cfg.fu.mul_pipelined, cfg.fu.div_count, cfg.fu.div_latency,
          cfg.fu.div_pipelined),
      ready_(rob_.slots()),
      inflight_(rob_.slots()),
      fstat_(stats_),
      dstat_(stats_),
      istat_(stats_),
      lstat_(stats_),
      wstat_(stats_),
      cstat_(stats_),
      ostat_(stats_),
      fetch_(source) {
  cfg_.validate();
  watchdog_cycles_ = kWatchdogMargin + longest_stall(cfg_);
  // The first record carries no PC context: PCs are implicit from the
  // program base until the first branch record resyncs us (DESIGN.md §5).
  fetch_pc_ = isa::Program::kDefaultBase;
}

OccupancyStats::OccupancyStats(StatsRegistry& reg)
    : ifq(reg.occupancy("occ.ifq")),
      rob(reg.occupancy("occ.rob")),
      lsq(reg.occupancy("occ.lsq")) {}

bool ReSimEngine::pipeline_empty() const {
  return rob_.empty() && rob_.ifq_empty();
}

bool ReSimEngine::finished() {
  // The virtual fetch_view() last: while anything is in flight it is not
  // needed.
  return pipeline_empty() && !mispredict_inflight_ && src_.fetch_view().empty();
}

bool ReSimEngine::step_major_cycle() {
  if (finished()) return false;

  read_ports_used_ = 0;
  write_ports_used_ = 0;

  // Reverse pipeline order: every stage sees begin-of-cycle state.
  stage_commit();
  stage_writeback();
  stage_lsq_refresh();
  stage_issue();
  stage_dispatch();
  stage_fetch();

  sample_occupancy_and_advance();

  // Watchdog: a cycle budget without forward progress indicates a model
  // bug; fail loudly rather than spin.
  if (cycle_ - last_commit_cycle_ > watchdog_cycles_ && !pipeline_empty()) {
    throw_no_commit();
  }
  return true;
}

void ReSimEngine::throw_no_commit() const {
  std::ostringstream os;
  const auto at = [&os](Cycle c) -> std::ostream& {
    return c == kNever ? os << "never" : os << "cycle " << c;
  };
  os << "ReSimEngine: no commit in " << watchdog_cycles_ << " cycles (the config's longest stall + "
     << kWatchdogMargin << "; deadlock?) at cycle " << cycle_ << "; ROB head: ";
  if (rob_.empty()) {
    os << "empty";
  } else {
    const RobEntry& e = rob_.entry(rob_.head_slot());
    os << "seq " << rob_.inst(rob_.head_slot()).seq << ", format " << "OMB"[static_cast<int>(e.fmt)]
       << ", " << e.src_pending << " sources pending, dispatched at ";
    at(e.dispatched_at) << (e.issued ? ", issued, completes at " : ", not issued, completes at ");
    at(e.issued ? e.complete_at : kNever);
  }
  os << "; LSQ head: ";
  if (lsq_.empty()) {
    os << "empty";
  } else {
    const LsqEntry& l = lsq_.entry(lsq_.head_slot());
    os << "seq " << l.seq << (l.is_store ? ", store" : ", load") << ", address at ";
    at(l.addr_ready_at) << (l.is_store ? (l.store_done ? ", done" : ", not done")
                                        : (l.mem_issued ? ", issued" : ", not issued"));
  }
  throw std::runtime_error(os.str());
}

void ReSimEngine::sample_occupancy_and_advance() {
  ostat_.ifq.sample(rob_.ifq_size());
  ostat_.rob.sample(rob_.size());
  ostat_.lsq.sample(lsq_.size());
  ++cycle_;
}

void ReSimEngine::wake_dependents(int producer_slot) {
  RobEntry& p = rob_.entry(producer_slot);
  for (int link = p.consumers; link >= 0;) {
    const int slot = link >> 1;
    const int k = link & 1;
    RobEntry& c = rob_.entry(slot);
    link = c.next_consumer[k];
    c.src_rob[k] = -1;
    --c.src_pending;
    // Address generation waits on the base register only; FU ops on all.
    if (c.is_mem() ? k == 0 : c.src_pending == 0) ready_.insert(slot);
  }
  p.consumers = -1;
}

void ReSimEngine::squash_and_redirect(Addr resume_pc) {
  // Everything younger than the resolving branch is wrong-path by
  // construction (fetch only followed the tagged block).
  cstat_.squashed_insts.add(rob_.size() + rob_.ifq_size());
  cstat_.squashes.add();
  rob_.clear();  // the ROB and the IFQ behind it
  ready_.clear();
  inflight_.clear();
  lsq_.clear();
  rename_.clear();

  // Discard tagged records not fetched by the resolution point (§V.A).
  for (const trace::TraceRecord* r = fetch_.peek(); r != nullptr && r->wrong_path;
       r = fetch_.peek()) {
    (void)fetch_.next();
    cstat_.discarded_tagged.add();
  }
  fetch_.flush();

  wrong_path_active_ = false;
  awaiting_resolution_ = false;
  mispredict_inflight_ = false;
  fetch_pc_ = resume_pc;
  fetch_stall_until_ = cycle_ + 1 + cfg_.misspec_penalty;
}

SimResult ReSimEngine::result() const {
  SimResult r;
  r.committed = cstat_.insts.value();
  r.fetched = fstat_.insts.value();
  r.wrong_path_fetched = fstat_.wrong_path_insts.value();
  r.squashed = cstat_.squashed_insts.value();
  r.major_cycles = cycle_;
  r.minor_cycles = static_cast<std::uint64_t>(cycle_) * sched_.latency();
  r.trace_records = src_.records_consumed();
  r.trace_bits = fetch_.wire_bits();
  r.stats = stats_;
  // Fold predictor and cache statistics into the report.
  r.stats.merge(bp_.stats());
  mem_.export_stats(r.stats);
  return r;
}

SimResult ReSimEngine::run() {
  while (step_major_cycle()) {
  }
  return result();
}

}  // namespace resim::core
