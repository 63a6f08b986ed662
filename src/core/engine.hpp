// ReSimEngine: the trace-driven, cycle-accurate timing engine
// (the paper's primary contribution, §III-§IV).
//
// One call to step_major_cycle() simulates one target-processor cycle.
// Stages execute in reverse pipeline order so each stage observes
// begin-of-cycle state, which reproduces the paper's documented timing
// semantics exactly:
//   * instructions woken by Writeback may issue in the same cycle
//     (§IV.A: "instructions waken up by their producer may be issued
//     during the same simulated cycle");
//   * instructions completing in cycle C become commit-eligible in C+1
//     (§IV.B: the flag that "prevents Commit from considering such
//     instructions within the same major cycle");
//   * instructions fetched in C dispatch no earlier than C+1 (the
//     Decouple Buffer between Fetch and Dispatch);
//   * the Optimized pipeline may not issue a load in slot 0 (§IV.B).
//
// One instruction window (core/rob.hpp). The IFQ is the run of ring
// slots just behind the ROB's tail: Fetch writes each instruction once,
// in place, into the slot it will commit from; Dispatch moves the
// ROB/IFQ boundary by one slot and copies nothing; a squash empties both
// halves in one call.
//
// Event-driven select and wakeup. No stage walks the whole ROB. Three
// structures, each updated where its state changes, stand in for the
// per-cycle scans:
//   * consumer lists (RobEntry::consumers): Dispatch links each
//     (consumer slot, operand) onto its in-flight producer; Writeback
//     walks only that list to clear src_rob[k] and src_pending;
//   * the in-flight set (inflight_): slots issued but not completed.
//     Writeback picks up to N of them with complete_at <= now;
//   * the ready set (ready_): FU ops with no pending source, memory ops
//     whose base register is ready for address generation, and loads
//     Lsq_refresh marked mem_ready. Dispatch, wakeup, Lsq_refresh and
//     Issue keep it current. Issue walks it directly and handles each
//     candidate as it is visited, stopping once N slots are used.
//     Issuing one entry changes only that entry's kind and membership,
//     so every kind read during the walk is begin-of-stage state. The
//     Optimized slot-0 rule adds one short pre-walk, taken only when the
//     oldest candidate is a load memory access: it finds the first
//     non-load candidate, which then issues first.
// Both sets are SlotSet bitsets over the window's slots, visited
// oldest-first from the ROB head, so they yield exactly the entries, in
// exactly the order, that the scans over the ROB did; no IFQ slot is
// ever a member. check_invariants() recomputes all three from scratch,
// audits the IFQ half, and throws on any difference; tests call it
// every cycle.
//
// Minor-cycle accounting: every major cycle costs schedule().latency()
// minor cycles (the paper's fixed-latency major cycle), which is what the
// FPGA performance model converts to wall-clock throughput.
#ifndef RESIM_CORE_ENGINE_H
#define RESIM_CORE_ENGINE_H

#include <cstdint>
#include <string>

#include "bpred/unit.hpp"
#include "cache/memsys.hpp"
#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/fu.hpp"
#include "core/lsq.hpp"
#include "core/rename.hpp"
#include "core/rob.hpp"
#include "core/schedule.hpp"
#include "trace/reader.hpp"

namespace resim::core {

// --- per-stage statistics structs ------------------------------------------
// Each stage resolves its counters ONCE at engine construction (the
// constructors live in the stage's own translation unit, next to the code
// that bumps them). The cycle loop then increments plain uint64_t slots
// through stable StatsRegistry handles instead of paying a string-keyed
// map lookup per event (docs/STATS.md). Resolution alone publishes
// nothing: a counter appears in reports only once an event touches it.

struct FetchStats {
  explicit FetchStats(StatsRegistry& reg);
  Counter& insts;
  Counter& branches;
  Counter& wrong_path_insts;
  Counter& pc_resyncs;
  Counter& taken_breaks;
  Counter& misfetches;
  Counter& mispredicts;
  Counter& mispredict_without_block;
  Counter& skipped_tagged;
  Counter& icache_miss_stalls;
  Counter& penalty_stall_cycles;
  Counter& resolution_stall_cycles;
  Counter& ifq_full;
};

struct DispatchStats {
  explicit DispatchStats(StatsRegistry& reg);
  Counter& insts;
  Counter& loads;
  Counter& stores;
  Counter& rob_full;
  Counter& lsq_full;
};

struct IssueStats {
  explicit IssueStats(StatsRegistry& reg);
  Counter& ops;
  Counter& agen;
  Counter& fu_stalls;
  Counter& slot0_load_skips;
  Counter& loads_forwarded;
  Counter& read_port_stalls;
  Counter& load_hits;
  Counter& load_misses;
};

struct LsqRefreshStats {
  explicit LsqRefreshStats(StatsRegistry& reg);
  Counter& stores_completed;
  Counter& loads_blocked;
  Counter& loads_forwarded;
  Counter& loads_ready;
};

struct WritebackStats {
  explicit WritebackStats(StatsRegistry& reg);
  Counter& broadcasts;
};

struct CommitStats {
  explicit CommitStats(StatsRegistry& reg);
  Counter& insts;
  Counter& loads;
  Counter& stores;
  Counter& branches;
  Counter& store_hits;
  Counter& store_misses;
  Counter& write_port_stalls;
  Counter& squashes;
  Counter& squashed_insts;
  Counter& discarded_tagged;  ///< "fetch.discarded_tagged" (squash path)
};

struct OccupancyStats {
  explicit OccupancyStats(StatsRegistry& reg);
  Occupancy& ifq;
  Occupancy& rob;
  Occupancy& lsq;
};

/// Final outcome of a simulation run.
struct SimResult {
  std::uint64_t committed = 0;          ///< correct-path instructions committed
  std::uint64_t fetched = 0;            ///< instructions entering the pipeline (incl. wrong path)
  std::uint64_t wrong_path_fetched = 0; ///< tagged instructions fetched
  std::uint64_t squashed = 0;           ///< wrong-path instructions squashed in-flight
  std::uint64_t major_cycles = 0;
  std::uint64_t minor_cycles = 0;
  std::uint64_t trace_records = 0;      ///< records consumed from the source
  std::uint64_t trace_bits = 0;         ///< wire bits consumed

  StatsRegistry stats;

  [[nodiscard]] double ipc() const {
    return major_cycles == 0 ? 0.0
                             : static_cast<double>(committed) / static_cast<double>(major_cycles);
  }
  [[nodiscard]] double bits_per_record() const {
    return trace_records == 0
               ? 0.0
               : static_cast<double>(trace_bits) / static_cast<double>(trace_records);
  }
};

/// A stretch of a run: the difference of two ReSimEngine::region()
/// readings (or one reading: the stretch since construction). An
/// interval row, a sampled window and the post-warm-up region are each
/// one Region.
struct Region {
  std::uint64_t committed = 0;   ///< correct-path instructions committed
  std::uint64_t cycles = 0;      ///< major cycles
  std::uint64_t branches = 0;    ///< committed branches ("commit.branches")
  std::uint64_t mispredicts = 0; ///< resolved mispredicts ("fetch.mispredicts")
  std::uint64_t il1_misses = 0;  ///< L1-I misses, functional warmup's included (0 when perfect)
  std::uint64_t dl1_misses = 0;  ///< L1-D misses, functional warmup's included (0 when perfect)

  /// The stretch from reading `from` to this later reading.
  [[nodiscard]] Region operator-(const Region& from) const {
    return {committed - from.committed,   cycles - from.cycles,
            branches - from.branches,     mispredicts - from.mispredicts,
            il1_misses - from.il1_misses, dl1_misses - from.dl1_misses};
  }
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(committed) / static_cast<double>(cycles);
  }
  /// Combined L1 misses per kilo-instruction (committed).
  [[nodiscard]] double mpki() const {
    return committed == 0 ? 0.0
                          : 1000.0 * static_cast<double>(il1_misses + dl1_misses) /
                                static_cast<double>(committed);
  }
  /// Branch mispredicts per kilo-instruction (committed).
  [[nodiscard]] double branch_mpki() const {
    return committed == 0
               ? 0.0
               : 1000.0 * static_cast<double>(mispredicts) / static_cast<double>(committed);
  }
};

class ReSimEngine {
 public:
  ReSimEngine(const CoreConfig& cfg, trace::TraceSource& source);

  // The stage stat structs hold references into stats_; a copied or
  // moved engine would keep counting into the source object's registry.
  ReSimEngine(const ReSimEngine&) = delete;
  ReSimEngine& operator=(const ReSimEngine&) = delete;

  /// Run until the trace is exhausted and the pipeline drains.
  SimResult run();

  /// Simulate one major cycle. Returns false iff the simulation had
  /// already finished (nothing was stepped).
  bool step_major_cycle();

  [[nodiscard]] bool finished();

  // --- observers (tests, benches) ----------------------------------------
  [[nodiscard]] Cycle cycle() const { return cycle_; }
  [[nodiscard]] std::uint64_t committed() const { return cstat_.insts.value(); }
  [[nodiscard]] const CoreConfig& config() const { return cfg_; }
  [[nodiscard]] const PipelineSchedule& schedule() const { return sched_; }
  [[nodiscard]] const Rob& rob() const { return rob_; }
  [[nodiscard]] const Lsq& lsq() const { return lsq_; }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }
  [[nodiscard]] const bpred::BranchPredictorUnit& predictor() const { return bp_; }
  [[nodiscard]] const cache::MemorySystem& memory() const { return mem_; }

  [[nodiscard]] SimResult result() const;

  /// Recompute the event-driven scheduling state from scratch and throw
  /// std::logic_error naming the first disagreement: ready and in-flight
  /// sets, consumer lists against src_rob/src_pending, window age order
  /// (IFQ included), LSQ/ROB back-pointers, the rename table, and that
  /// nothing names an IFQ slot (core/invariants.cpp).
  /// Cold: the cycle loop never calls it; tests call it between cycles.
  void check_invariants() const;

  // --- sampling plane (core/sampling.cpp) -----------------------------------

  /// The counts a measured stretch is cut from, since construction; the
  /// stretch between two readings is their difference. Reads the stage
  /// counters and the L1 caches directly: cheap enough for any boundary.
  [[nodiscard]] Region region() const;

  /// Functional warmup (docs/SAMPLING.md): consume up to `max_records`
  /// records from the source, updating the branch predictor and caches
  /// architecturally — no pipeline occupancy, no cycle accounting, no
  /// timing stats. Wrong-path (tagged) records are discarded untouched,
  /// exactly like the detailed squash path discards them. Requires an
  /// empty pipeline (throws std::logic_error otherwise). Returns the
  /// number of records consumed; leaves fetch_pc_ at the next record's
  /// implicit PC so a detailed window can start seamlessly.
  std::uint64_t functional_warmup(std::uint64_t max_records);

 private:
  // Stage implementations (one translation unit each).
  void stage_commit();
  void stage_writeback();
  void stage_lsq_refresh();
  void stage_issue();
  void stage_dispatch();
  void stage_fetch();

  void fetch_cycle();  ///< stage_fetch body

  // Mis-speculation recovery at branch resolution (Commit).
  void squash_and_redirect(Addr resume_pc);

  void wake_dependents(int producer_slot);  ///< walk the producer's consumer list
  [[noreturn]] void throw_no_commit() const;  ///< the watchdog's report
  void sample_occupancy_and_advance();
  [[nodiscard]] bool pipeline_empty() const;

  CoreConfig cfg_;
  PipelineSchedule sched_;
  trace::TraceSource& src_;
  bpred::BranchPredictorUnit bp_;
  cache::MemorySystem mem_;
  Rob rob_;
  Lsq lsq_;
  RenameTable rename_;
  FuPool fu_;
  SlotSet ready_;     ///< Issue candidates (see the header comment)
  SlotSet inflight_;  ///< issued, not yet completed
  StatsRegistry stats_;

  // Resolve-once stat handles (must follow stats_: they bind into it).
  FetchStats fstat_;
  DispatchStats dstat_;
  IssueStats istat_;
  LsqRefreshStats lstat_;
  WritebackStats wstat_;
  CommitStats cstat_;
  OccupancyStats ostat_;

  Cycle cycle_ = 0;
  InstSeq next_seq_ = 0;
  Cycle last_commit_cycle_ = 0;
  /// Cycles without a commit the watchdog allows: kWatchdogMargin past
  /// the longest stall the configuration can produce, fixed at
  /// construction so the per-cycle check stays one compare.
  static constexpr Cycle kWatchdogMargin = 200'000;
  Cycle watchdog_cycles_ = 0;

  // Every record the engine reads comes through this cursor over src_'s
  // views (trace/reader.hpp): a pointer into the source's own
  // TraceRecords, an index bump per record and one virtual fetch_view()
  // per view. The cursor also sums the wire bits of every record it
  // hands out, which result() reports as trace_bits. Each reader
  // (stage_fetch, squash_and_redirect, functional_warmup) flushes it
  // before returning, so between stages and cycles the source's record
  // count and position are exact and result() and the sampling driver
  // see no batching.
  trace::ViewCursor fetch_;

  // Fetch state.
  Addr fetch_pc_ = 0;
  Cycle fetch_stall_until_ = 0;
  bool wrong_path_active_ = false;   ///< consuming a tagged block
  Addr wrong_path_pc_ = 0;           ///< next wrong-path PC to assign
  bool awaiting_resolution_ = false; ///< mispredict outstanding, nothing to fetch
  bool mispredict_inflight_ = false; ///< an unresolved mispredicted branch exists
  Addr resume_pc_ = 0;               ///< correct-path PC after the branch resolves

  // Per-cycle port usage.
  unsigned read_ports_used_ = 0;
  unsigned write_ports_used_ = 0;
};

}  // namespace resim::core

#endif  // RESIM_CORE_ENGINE_H
