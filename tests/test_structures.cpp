// Hardware window structures: ROB, LSQ, rename table, FU pool.
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/fu.hpp"
#include "core/lsq.hpp"
#include "core/rename.hpp"
#include "core/rob.hpp"

namespace resim::core {
namespace {

// ---- Rob -----------------------------------------------------------------

/// Fetch (ifq_push) then dispatch (allocate) one instruction.
int dispatch(Rob& rob, InstSeq seq) {
  rob.ifq_push().seq = seq;
  return rob.allocate();
}

TEST(Rob, AllocateInProgramOrder) {
  Rob rob(4, 2);
  const int a = dispatch(rob, 0);
  const int b = dispatch(rob, 1);
  EXPECT_EQ(rob.slot_at(0), a);
  EXPECT_EQ(rob.slot_at(1), b);
  EXPECT_EQ(rob.size(), 2u);
  EXPECT_TRUE(rob.ifq_empty());
}

TEST(Rob, FullRejectsAllocation) {
  Rob rob(2, 2);
  EXPECT_THROW(rob.allocate(), std::logic_error);  // nothing fetched
  dispatch(rob, 0);
  dispatch(rob, 1);
  EXPECT_TRUE(rob.full());
  rob.ifq_push().seq = 2;
  EXPECT_THROW(rob.allocate(), std::logic_error);
  EXPECT_EQ(rob.ifq_size(), 1u);  // the refused instruction stays queued
}

TEST(Rob, PopHeadAdvances) {
  Rob rob(3, 1);
  dispatch(rob, 10);
  dispatch(rob, 11);
  EXPECT_EQ(rob.inst(rob.head_slot()).seq, 10u);
  rob.pop_head();
  EXPECT_EQ(rob.inst(rob.head_slot()).seq, 11u);
  rob.pop_head();
  EXPECT_TRUE(rob.empty());
  EXPECT_THROW(rob.pop_head(), std::logic_error);
}

TEST(Rob, WrapAroundReusesSlots) {
  Rob rob(2, 1);
  for (int i = 0; i < 10; ++i) {
    dispatch(rob, static_cast<InstSeq>(i));
    EXPECT_EQ(rob.inst(rob.head_slot()).seq, static_cast<InstSeq>(i));
    rob.pop_head();
  }
}

TEST(Rob, AllocateResetsEntryState) {
  Rob rob(2, 1);
  int s = dispatch(rob, 0);
  rob.entry(s).issued = true;
  rob.entry(s).completed = true;
  rob.pop_head();
  s = dispatch(rob, 1);
  EXPECT_FALSE(rob.entry(s).issued);
  EXPECT_FALSE(rob.entry(s).completed);
  EXPECT_EQ(rob.entry(s).src_pending, 0u);
}

TEST(Rob, IfqAndAllocateAcrossTheWrap) {
  Rob rob(3, 2);  // a ring of five slots
  ASSERT_EQ(rob.slots(), 5u);
  for (InstSeq i = 0; i < 4; ++i) {
    dispatch(rob, i);
    rob.pop_head();
  }
  ASSERT_EQ(rob.head_slot(), 4);

  // The IFQ runs on from the ROB's tail across the end of the ring.
  rob.ifq_push().seq = 4;
  rob.ifq_push().seq = 5;
  EXPECT_TRUE(rob.ifq_full());
  EXPECT_THROW(rob.ifq_push(), std::logic_error);
  EXPECT_EQ(rob.slot_at(0), 4);
  EXPECT_EQ(rob.slot_at(1), 0);
  EXPECT_EQ(rob.ifq_front().seq, 4u);

  // Dispatch moves the boundary: the front's slot becomes the ROB tail.
  EXPECT_EQ(rob.allocate(), 4);
  EXPECT_EQ(rob.ifq_front().seq, 5u);
  rob.ifq_push().seq = 6;
  EXPECT_EQ(rob.allocate(), 0);
  EXPECT_EQ(rob.allocate(), 1);
  EXPECT_TRUE(rob.full());
  EXPECT_TRUE(rob.ifq_empty());
  EXPECT_THROW((void)rob.ifq_front(), std::logic_error);

  // With the ROB full the IFQ still takes its own two.
  rob.ifq_push().seq = 7;
  rob.ifq_push().seq = 8;
  EXPECT_TRUE(rob.ifq_full());
  for (unsigned i = 0; i < 5; ++i) EXPECT_EQ(rob.inst(rob.slot_at(i)).seq, 4u + i) << i;
  EXPECT_THROW((void)rob.slot_at(5), std::out_of_range);
}

TEST(Rob, AllocateKeepsTheColdRecord) {
  Rob rob(1, 1);
  int s = dispatch(rob, 41);
  rob.entry(s).consumers = 3;
  rob.pop_head();

  FetchedInst& fi = rob.ifq_push();
  fi.seq = 42;
  fi.pc = 0x4000;
  fi.rec.addr = 0x1234;
  fi.outcome = bpred::Outcome::kMispredict;
  s = rob.allocate();
  EXPECT_EQ(&rob.inst(s), &fi);  // dispatched where it was fetched
  EXPECT_EQ(rob.inst(s).seq, 42u);
  EXPECT_EQ(rob.inst(s).pc, 0x4000u);
  EXPECT_EQ(rob.inst(s).rec.addr, 0x1234u);
  EXPECT_EQ(rob.inst(s).outcome, bpred::Outcome::kMispredict);
  EXPECT_EQ(rob.entry(s).consumers, -1);  // hot state: reset
}

TEST(Rob, ClearEmptiesWindow) {
  Rob rob(4, 2);
  dispatch(rob, 0);
  dispatch(rob, 1);
  rob.ifq_push().seq = 2;
  rob.ifq_push().seq = 3;
  rob.clear();  // both halves
  EXPECT_TRUE(rob.empty());
  EXPECT_TRUE(rob.ifq_empty());
  EXPECT_THROW((void)rob.slot_at(0), std::out_of_range);
  EXPECT_THROW((void)rob.ifq_front(), std::logic_error);
  EXPECT_THROW(rob.allocate(), std::logic_error);
  const int s = dispatch(rob, 4);
  EXPECT_EQ(s, rob.head_slot());  // the next entry is the oldest
  for (InstSeq i = 5; i < 8; ++i) dispatch(rob, i);
  rob.ifq_push();
  rob.ifq_push();
  EXPECT_TRUE(rob.full());
  EXPECT_TRUE(rob.ifq_full());
}

// ---- SlotSet ---------------------------------------------------------------

std::vector<int> walk(const SlotSet& set, int head) {
  std::vector<int> out;
  set.for_each_from(head, [&](int s) {
    out.push_back(s);
    return true;
  });
  return out;
}

TEST(SlotSet, WalksOldestFirstFromHeadAcrossWords) {
  SlotSet set(130);  // three words
  for (int s : {0, 5, 63, 64, 100, 129}) set.insert(s);
  EXPECT_EQ(walk(set, 0), (std::vector<int>{0, 5, 63, 64, 100, 129}));
  EXPECT_EQ(walk(set, 64), (std::vector<int>{64, 100, 129, 0, 5, 63}));
  EXPECT_EQ(walk(set, 6), (std::vector<int>{63, 64, 100, 129, 0, 5}));
  EXPECT_EQ(walk(set, 129), (std::vector<int>{129, 0, 5, 63, 64, 100}));
}

TEST(SlotSet, EraseClearAndEarlyStop) {
  SlotSet set(16);
  for (int s = 0; s < 16; s += 3) set.insert(s);
  set.erase(6);
  EXPECT_FALSE(set.contains(6));
  EXPECT_TRUE(set.contains(9));
  std::vector<int> seen;
  set.for_each_from(10, [&](int s) {
    seen.push_back(s);
    return seen.size() < 3;
  });
  EXPECT_EQ(seen, (std::vector<int>{12, 15, 0}));
  set.clear();
  EXPECT_TRUE(walk(set, 0).empty());
}

// ---- Lsq -----------------------------------------------------------------

TEST(Lsq, ProgramOrderMaintained) {
  Lsq lsq(4);
  const int a = lsq.allocate();
  lsq.entry(a).seq = 1;
  const int b = lsq.allocate();
  lsq.entry(b).seq = 2;
  EXPECT_EQ(lsq.entry(lsq.slot_at(0)).seq, 1u);
  EXPECT_EQ(lsq.entry(lsq.slot_at(1)).seq, 2u);
}

TEST(Lsq, AddrReadyGating) {
  LsqEntry e;
  EXPECT_FALSE(e.addr_ready(1000));  // kNever
  e.addr_ready_at = 5;
  EXPECT_FALSE(e.addr_ready(4));
  EXPECT_TRUE(e.addr_ready(5));
}

TEST(Lsq, FullAndClear) {
  Lsq lsq(2);
  lsq.allocate();
  lsq.allocate();
  EXPECT_TRUE(lsq.full());
  EXPECT_THROW(lsq.allocate(), std::logic_error);
  lsq.clear();
  EXPECT_TRUE(lsq.empty());
}

// ---- RenameTable ------------------------------------------------------------

TEST(Rename, LookupDefaultsReady) {
  RenameTable rt;
  EXPECT_EQ(rt.lookup(5), -1);
  EXPECT_EQ(rt.lookup(kNoReg), -1);
  EXPECT_EQ(rt.lookup(kZeroReg), -1);
}

TEST(Rename, SetAndLookup) {
  RenameTable rt;
  rt.set(5, 3);
  EXPECT_EQ(rt.lookup(5), 3);
}

TEST(Rename, ZeroRegisterNeverRenamed) {
  RenameTable rt;
  rt.set(kZeroReg, 7);
  EXPECT_EQ(rt.lookup(kZeroReg), -1);
}

TEST(Rename, ClearIfOnlyMatchingSlot) {
  RenameTable rt;
  rt.set(5, 3);
  rt.clear_if(5, 4);  // a younger producer overwrote: no-op
  EXPECT_EQ(rt.lookup(5), 3);
  rt.clear_if(5, 3);
  EXPECT_EQ(rt.lookup(5), -1);
}

TEST(Rename, ClearWipesAll) {
  RenameTable rt;
  rt.set(1, 1);
  rt.set(2, 2);
  rt.clear();
  EXPECT_EQ(rt.lookup(1), -1);
  EXPECT_EQ(rt.lookup(2), -1);
}

// ---- FuPool -----------------------------------------------------------------

FuPool paper_pool() {
  // 4 ALU (lat 1, pipelined), 1 MUL (lat 3, pipelined), 1 DIV (lat 10, unpipelined)
  return FuPool(4, 1, true, 1, 3, true, 1, 10, false);
}

TEST(FuPool, FourAlusPerCycle) {
  FuPool p = paper_pool();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(p.try_issue(trace::OtherFu::kAlu, 0).has_value());
  }
  EXPECT_FALSE(p.try_issue(trace::OtherFu::kAlu, 0).has_value());  // 5th stalls
  EXPECT_TRUE(p.try_issue(trace::OtherFu::kAlu, 1).has_value());   // next cycle
}

TEST(FuPool, PipelinedMultiplierAcceptsEveryCycle) {
  FuPool p = paper_pool();
  EXPECT_EQ(p.try_issue(trace::OtherFu::kMul, 0).value(), 3u);
  EXPECT_FALSE(p.try_issue(trace::OtherFu::kMul, 0).has_value());  // one unit
  EXPECT_TRUE(p.try_issue(trace::OtherFu::kMul, 1).has_value());   // pipelined
}

TEST(FuPool, UnpipelinedDividerBlocksForLatency) {
  FuPool p = paper_pool();
  EXPECT_EQ(p.try_issue(trace::OtherFu::kDiv, 0).value(), 10u);
  for (Cycle c = 1; c < 10; ++c) {
    EXPECT_FALSE(p.try_issue(trace::OtherFu::kDiv, c).has_value()) << c;
  }
  EXPECT_TRUE(p.try_issue(trace::OtherFu::kDiv, 10).has_value());
}

TEST(FuPool, NoneNeedsNoUnit) {
  FuPool p = paper_pool();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p.try_issue(trace::OtherFu::kNone, 0).value(), 1u);
  }
}

// ---- CoreConfig ----------------------------------------------------------------

TEST(CoreConfig, PaperConfigsValidate) {
  EXPECT_NO_THROW(CoreConfig::paper_4wide_perfect().validate());
  EXPECT_NO_THROW(CoreConfig::paper_2wide_cache().validate());
}

TEST(CoreConfig, OptimizedRequiresFewerMemPorts) {
  // §IV.B: N+3 pipeline valid only with <= N-1 memory ports.
  CoreConfig c = CoreConfig::paper_4wide_perfect();
  c.mem_read_ports = 4;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.mem_read_ports = 3;
  EXPECT_NO_THROW(c.validate());
  c.variant = PipelineVariant::kEfficient;
  c.mem_read_ports = 4;
  EXPECT_NO_THROW(c.validate());  // restriction is Optimized-only
}

TEST(CoreConfig, WrongPathBlockIsRobPlusIfq) {
  const CoreConfig c = CoreConfig::paper_4wide_perfect();
  EXPECT_EQ(c.wrong_path_block(), c.rob_size + c.ifq_size);
  EXPECT_EQ(c.wrong_path_block(), 24u);  // paper's conservative size
}

}  // namespace
}  // namespace resim::core
