// Adversarial and fuzz tests: hostile trace streams and boundary
// configurations must never hang, crash or violate invariants. Every
// run checks the engine's invariants (ReSimEngine::check_invariants)
// after each cycle.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "trace/tracegen.hpp"
#include "workload/micro.hpp"
#include "workload/suite.hpp"

namespace resim::core {
namespace {

using trace::OtherFu;
using trace::RecFormat;
using trace::TraceRecord;

SimResult run_trace(const trace::Trace& t, const CoreConfig& cfg) {
  trace::VectorTraceSource src(t);
  ReSimEngine eng(cfg, src);
  eng.check_invariants();
  while (eng.step_major_cycle()) eng.check_invariants();
  return eng.result();
}

trace::Trace wrap(std::vector<TraceRecord> recs) {
  trace::Trace t;
  t.name = "adversarial";
  t.records = std::move(recs);
  return t;
}

TEST(Adversarial, LeadingTaggedRecordsAreDiscarded) {
  // Tagged records with no preceding mispredicted branch: the engine must
  // skip them (stale block) and still simulate the rest.
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 10; ++i) {
    auto r = TraceRecord::other(OtherFu::kAlu, 1, 1, kNoReg);
    r.wrong_path = true;
    recs.push_back(r);
  }
  for (int i = 0; i < 20; ++i) recs.push_back(TraceRecord::other(OtherFu::kAlu, 2, 2, kNoReg));
  const auto r = run_trace(wrap(recs), CoreConfig::paper_4wide_perfect());
  EXPECT_EQ(r.committed, 20u);
  EXPECT_EQ(r.stats.value("fetch.skipped_tagged"), 10u);
}

TEST(Adversarial, TaggedBlockAfterCorrectlyPredictedBranch) {
  // The generator thought this branch would mispredict; our engine (with
  // a perfect oracle) predicts it right and must skip the stale block.
  auto cfg = CoreConfig::paper_4wide_perfect();
  cfg.bp = bpred::BPredConfig::perfect();
  std::vector<TraceRecord> recs;
  recs.push_back(TraceRecord::other(OtherFu::kAlu, 1, 1, kNoReg));
  recs.push_back(TraceRecord::branch(isa::CtrlType::kCond, true, 0x400008, 0x400100,
                                     1, kNoReg));
  for (int i = 0; i < 24; ++i) {
    auto r = TraceRecord::other(OtherFu::kAlu, 3, 3, kNoReg);
    r.wrong_path = true;
    recs.push_back(r);
  }
  for (int i = 0; i < 10; ++i) recs.push_back(TraceRecord::other(OtherFu::kAlu, 4, 4, kNoReg));
  const auto r = run_trace(wrap(recs), cfg);
  EXPECT_EQ(r.committed, 12u);
  EXPECT_EQ(r.wrong_path_fetched, 0u);
  EXPECT_EQ(r.stats.value("fetch.skipped_tagged"), 24u);
}

TEST(Adversarial, MispredictWithoutBlockStallsUntilResolution) {
  // Force a mispredict (always-taken predictor, not-taken branch) with no
  // tagged block following: fetch must stall, resolve at commit, resume.
  auto cfg = CoreConfig::paper_4wide_perfect();
  cfg.bp.kind = bpred::DirKind::kAlwaysTaken;
  std::vector<TraceRecord> recs;
  // Warm the BTB so the taken prediction has a target (else misfetch).
  recs.push_back(TraceRecord::branch(isa::CtrlType::kCond, true, 0x400000, 0x400000, 1,
                                     kNoReg));
  recs.push_back(TraceRecord::branch(isa::CtrlType::kCond, false, 0x400000, 0x400000, 1,
                                     kNoReg));
  for (int i = 0; i < 10; ++i) recs.push_back(TraceRecord::other(OtherFu::kAlu, 4, 4, kNoReg));
  const auto r = run_trace(wrap(recs), cfg);
  EXPECT_EQ(r.committed, 12u);
  EXPECT_GE(r.stats.value("fetch.mispredict_without_block"), 1u);
  EXPECT_GT(r.stats.value("fetch.resolution_stall_cycles"), 0u);
}

TEST(Adversarial, AllStoresDrainThroughOneWritePort) {
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 64; ++i) {
    recs.push_back(TraceRecord::mem(true, 0x1000'0000 + 8u * i, kNoReg, kZeroReg, kZeroReg));
  }
  const auto r = run_trace(wrap(recs), CoreConfig::paper_4wide_perfect());
  EXPECT_EQ(r.committed, 64u);
  // One write port: commit drains at most one store per cycle.
  EXPECT_GE(r.major_cycles, 64u);
}

TEST(Adversarial, SelfDependentRecordsDoNotDeadlock) {
  // Each record reads its own destination: rename makes it depend on the
  // previous instance — the longest possible chain.
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 100; ++i) recs.push_back(TraceRecord::other(OtherFu::kDiv, 7, 7, 7));
  const auto r = run_trace(wrap(recs), CoreConfig::paper_4wide_perfect());
  EXPECT_EQ(r.committed, 100u);
  EXPECT_GE(r.major_cycles, 100u * 10u);  // unpipelined divider chain
}

TEST(Adversarial, LoadAtTheLongestMissLatencyIsNotADeadlock) {
  // The registry accepts L1 miss latencies up to 2^20 cycles; one load
  // that long must finish, not trip the no-commit watchdog.
  auto cfg = CoreConfig::paper_2wide_cache();
  cfg.mem.l1d.miss_latency = 1u << 20;
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 4; ++i) recs.push_back(TraceRecord::other(OtherFu::kAlu, 1, 1, kNoReg));
  recs.push_back(TraceRecord::mem(false, 0x10000, 2, 1, kNoReg));
  for (int i = 0; i < 4; ++i) recs.push_back(TraceRecord::other(OtherFu::kAlu, 3, 2, kNoReg));
  const trace::Trace t = wrap(recs);
  trace::VectorTraceSource src(t);
  const SimResult r = ReSimEngine(cfg, src).run();
  EXPECT_EQ(r.committed, recs.size());
  EXPECT_GT(r.major_cycles, std::uint64_t{1} << 20);
}

TEST(Adversarial, MinimalMachineConfiguration) {
  // Width 1, ROB 2, LSQ 1, IFQ 1: the smallest legal machine.
  auto cfg = CoreConfig::paper_4wide_perfect();
  cfg.width = 1;
  cfg.ifq_size = 1;
  cfg.rob_size = 2;
  cfg.lsq_size = 1;
  cfg.mem_read_ports = 1;
  cfg.variant = PipelineVariant::kEfficient;  // optimized needs N-1 >= 1 ports
  trace::TraceGenConfig g;
  g.max_insts = 3000;
  trace::TraceGenerator gen(workload::make_workload("gzip"), g);
  const auto t = gen.generate();
  const auto r = run_trace(t, cfg);
  EXPECT_EQ(r.committed, 3000u);
  EXPECT_LE(r.ipc(), 1.0);
}

TEST(Adversarial, SingleEntryIfqStillFlows) {
  auto cfg = CoreConfig::paper_4wide_perfect();
  cfg.width = 1;
  cfg.ifq_size = 1;
  cfg.variant = PipelineVariant::kEfficient;
  cfg.mem_read_ports = 1;
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 50; ++i) recs.push_back(TraceRecord::other(OtherFu::kAlu, 1, kZeroReg, kNoReg));
  const auto r = run_trace(wrap(recs), cfg);
  EXPECT_EQ(r.committed, 50u);
}

TEST(Adversarial, BranchStormEveryRecordIsABranch) {
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 200; ++i) {
    const Addr pc = 0x400000 + 8u * static_cast<Addr>(i);
    recs.push_back(TraceRecord::branch(isa::CtrlType::kCond, false, pc, pc + 16, 1, 2));
  }
  const auto r = run_trace(wrap(recs), CoreConfig::paper_4wide_perfect());
  EXPECT_EQ(r.committed, 200u);
  EXPECT_EQ(r.stats.value("commit.branches"), 200u);
}

TEST(Adversarial, DeepRasOverflowRecovers) {
  // 64 nested calls against a 16-entry RAS: wraps, mispredicted returns
  // become misfetches, nothing hangs.
  trace::TraceGenConfig g;
  g.max_insts = 20000;
  trace::TraceGenerator gen(
      workload::make_call_ladder(1 << 20, 64), g);
  const auto t = gen.generate();
  const auto r = run_trace(t, CoreConfig::paper_4wide_perfect());
  EXPECT_EQ(r.committed, 20000u);
  EXPECT_GT(r.stats.value("bpred.ras_pops"), 0u);
}

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, RandomTraceStreamsNeverHang) {
  // Random but well-formed record streams (random formats, registers,
  // addresses, outcomes, tag bits) through random legal configurations.
  Rng rng(GetParam());
  std::vector<TraceRecord> recs;
  const int n = 2000;
  Addr pc = 0x400000;
  for (int i = 0; i < n; ++i) {
    auto rreg = [&rng]() -> Reg {
      const auto v = rng.below(33);
      return v == 32 ? kNoReg : static_cast<Reg>(v);
    };
    TraceRecord r;
    switch (rng.below(3)) {
      case 0:
        r = TraceRecord::other(static_cast<OtherFu>(rng.below(4)), rreg(), rreg(), rreg());
        break;
      case 1:
        r = TraceRecord::mem(rng.chance(1, 2), 0x1000'0000 + (rng.next() & 0xFFFF8),
                             rreg(), rreg(), rreg());
        break;
      default: {
        const bool taken = rng.chance(1, 2);
        r = TraceRecord::branch(isa::CtrlType::kCond, taken, pc,
                                0x400000 + (rng.next() & 0xFFF8), rreg(), rreg());
        break;
      }
    }
    r.wrong_path = rng.chance(1, 10);
    recs.push_back(r);
    pc += 8;
  }

  auto cfg = CoreConfig::paper_4wide_perfect();
  cfg.width = 1u << rng.below(3);                 // 1, 2, 4
  cfg.rob_size = 4u << rng.below(3);              // 4..16
  cfg.lsq_size = 2u << rng.below(3);              // 2..8
  cfg.ifq_size = std::max(cfg.width, 2u << rng.below(3));
  cfg.variant = PipelineVariant::kEfficient;
  cfg.mem_read_ports = 1 + static_cast<unsigned>(rng.below(2));
  cfg.bp.kind = static_cast<bpred::DirKind>(rng.below(5));

  const auto r = run_trace(wrap(recs), cfg);
  // Invariants: terminates (no watchdog throw), balance holds, window
  // bounds respected.
  EXPECT_EQ(r.fetched, r.committed + r.squashed);
  EXPECT_LE(r.stats.occupancies().at("occ.rob").max(), cfg.rob_size);
  EXPECT_LE(r.stats.occupancies().at("occ.lsq").max(), cfg.lsq_size);
  EXPECT_GT(r.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace resim::core
