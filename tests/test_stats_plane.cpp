// The handle-based statistics plane (docs/STATS.md):
//  * handle-vs-string equivalence and reference stability,
//  * the touched-visibility contract (resolve-once handles must not
//    change reports),
//  * StatsRegistry::merge() semantics,
//  * byte-exact golden stats reports for the two paper machines and two
//    variants of them, pinned against tests/golden/ (the report format
//    is a compatibility contract: name-sorted, setw(34), fixed-4
//    occupancy averages).
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "config/config_file.hpp"
#include "core/engine.hpp"
#include "trace/reader.hpp"
#include "trace/tracegen.hpp"
#include "workload/suite.hpp"

namespace {

using namespace resim;

// ---- handles vs strings ---------------------------------------------------

TEST(StatsHandles, HandleAndStringApiHitTheSameSlot) {
  StatsRegistry s;
  Counter& h = s.counter("fetch.insts");
  h.add(3);
  s.counter("fetch.insts").add(4);
  EXPECT_EQ(s.value("fetch.insts"), 7u);
  EXPECT_EQ(h.value(), 7u);
}

TEST(StatsHandles, HandlesSurviveLaterRegistrations) {
  StatsRegistry s;
  Counter& c = s.counter("first");
  Occupancy& o = s.occupancy("occ.first");
  c.add();
  o.sample(5);
  // Node-stable storage: resolving many more names must not move slots.
  for (int i = 0; i < 1000; ++i) {
    s.counter("filler." + std::to_string(i));
    s.occupancy("ofiller." + std::to_string(i));
  }
  c.add();
  o.sample(7);
  EXPECT_EQ(s.value("first"), 2u);
  EXPECT_EQ(s.occupancy("occ.first").samples(), 2u);
  EXPECT_EQ(s.occupancy("occ.first").max(), 7u);
}

TEST(StatsHandles, ResolvingAloneDoesNotPublish) {
  StatsRegistry s;
  Counter& silent = s.counter("never.fired");
  Occupancy& osilent = s.occupancy("occ.never");
  (void)silent;
  (void)osilent;
  s.counter("fired").add();
  EXPECT_FALSE(s.has_counter("never.fired"));
  EXPECT_TRUE(s.has_counter("fired"));
  const auto rep = s.report();
  EXPECT_EQ(rep.find("never.fired"), std::string::npos);
  EXPECT_EQ(rep.find("occ.never"), std::string::npos);
  EXPECT_NE(rep.find("fired"), std::string::npos);
}

TEST(StatsHandles, AddZeroPublishes) {
  // add(0) is an event (e.g. a squash that found an empty window): the
  // counter must appear in the report with value 0, as it always has.
  StatsRegistry s;
  s.counter("commit.squashed_insts").add(0);
  EXPECT_TRUE(s.has_counter("commit.squashed_insts"));
  EXPECT_NE(s.report().find("commit.squashed_insts"), std::string::npos);
}

// ---- merge ----------------------------------------------------------------

TEST(StatsMerge, CountersAddAndUntouchedAreSkipped) {
  StatsRegistry a;
  StatsRegistry b;
  a.counter("shared").add(10);
  b.counter("shared").add(5);
  b.counter("only_b").add(2);
  (void)b.counter("silent_in_b");  // resolved, never fired
  a.merge(b);
  EXPECT_EQ(a.value("shared"), 15u);
  EXPECT_EQ(a.value("only_b"), 2u);
  EXPECT_FALSE(a.has_counter("silent_in_b"));
}

TEST(StatsMerge, OccupanciesWeighBySampleCount) {
  StatsRegistry a;
  StatsRegistry b;
  a.occupancy("occ.x").sample(2);  // sum 2, samples 1, max 2
  b.occupancy("occ.x").sample(4);
  b.occupancy("occ.x").sample(6);  // sum 10, samples 2, max 6
  b.occupancy("occ.only_b").sample(3);
  a.merge(b);
  const auto& x = a.occupancies().at("occ.x");
  EXPECT_EQ(x.samples(), 3u);
  EXPECT_EQ(x.max(), 6u);
  EXPECT_DOUBLE_EQ(x.average(), 4.0);  // (2 + 10) / 3
  EXPECT_EQ(a.occupancies().at("occ.only_b").samples(), 1u);
}

TEST(StatsMerge, MergeIntoEmptyEqualsCopy) {
  StatsRegistry src;
  src.counter("c").add(9);
  src.occupancy("o").sample(4);
  StatsRegistry dst;
  dst.merge(src);
  EXPECT_EQ(dst.report(), src.report());
}

// ---- engine-level: result() is repeatable and handle-driven ---------------

core::SimResult run_paper_machine(const std::string& cfg_file, std::uint64_t insts,
                                  std::string* report_out = nullptr,
                                  const std::vector<std::string>& sets = {}) {
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  config::load_config_file(std::string(RESIM_SOURCE_DIR) + "/configs/" + cfg_file, cfg);
  config::apply_sets(cfg, sets);
  cfg.validate();
  // The sweep_point pairing every paper experiment uses: the generator
  // predicts with the engine's predictor configuration.
  trace::TraceGenConfig g;
  g.max_insts = insts;
  g.bp = cfg.bp;
  g.wrong_path_block = cfg.wrong_path_block();
  trace::TraceGenerator gen(workload::make_workload("gzip"), g);
  const trace::Trace t = gen.generate();
  trace::VectorTraceSource src(t);
  core::ReSimEngine eng(cfg, src);
  auto r = eng.run();
  // result() merges bp/cache stats into a copy; calling it again must
  // not double-count (the live registry stays unmerged).
  EXPECT_EQ(eng.result().stats.report(), r.stats.report());
  if (report_out != nullptr) *report_out = r.stats.report();
  return r;
}

void expect_golden_report(const std::string& cfg_file, const std::vector<std::string>& sets,
                          const std::string& golden_file) {
  std::string report;
  (void)run_paper_machine(cfg_file, 30000, &report, sets);
  std::ifstream golden(std::string(RESIM_SOURCE_DIR) + "/tests/golden/" + golden_file);
  ASSERT_TRUE(golden) << "missing tests/golden/" << golden_file;
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(report, want.str());
}

TEST(StatsGolden, Paper4WidePerfectReportIsByteExact) {
  expect_golden_report("paper_4wide_perfect.cfg", {}, "stats_paper_4wide_perfect.txt");
}

TEST(StatsGolden, Paper2WideCacheReportIsByteExact) {
  expect_golden_report("paper_2wide_cache.cfg", {}, "stats_paper_2wide_cache.txt");
}

TEST(StatsGolden, Paper2WideCache2LevRob64ReportIsByteExact) {
  // The sweep_cache benchmark's shape: a real predictor squashes under
  // real L1s with a large window (the plain 2-wide golden never squashes).
  expect_golden_report("paper_2wide_cache.cfg",
                       {"bp.kind=2lev", "core.rob_size=64", "core.lsq_size=32"},
                       "stats_paper_2wide_cache_2lev_rob64.txt");
}

TEST(StatsGolden, Paper4WideEfficientRob2ReportIsByteExact) {
  // The smallest legal ROB: dispatch stalls on a full window most cycles.
  expect_golden_report("paper_4wide_perfect.cfg",
                       {"pipeline.variant=efficient", "core.rob_size=2"},
                       "stats_paper_4wide_perfect_efficient_rob2.txt");
}

TEST(StatsGolden, CacheMachinePublishesL1CountersEvenWhenIdle) {
  // A constructed cache always exports its three counters (value 0 if
  // idle) — the shape the pre-handle result() produced.
  const auto r = run_paper_machine("paper_2wide_cache.cfg", 2000);
  EXPECT_TRUE(r.stats.has_counter("il1.accesses"));
  EXPECT_TRUE(r.stats.has_counter("dl1.hits"));
  EXPECT_TRUE(r.stats.has_counter("dl1.misses"));
  EXPECT_EQ(r.stats.value("il1.hits") + r.stats.value("il1.misses"),
            r.stats.value("il1.accesses"));
}

TEST(StatsGolden, PerfectMemoryMachineReportsNoCacheCounters) {
  const auto r = run_paper_machine("paper_4wide_perfect.cfg", 2000);
  EXPECT_FALSE(r.stats.has_counter("il1.accesses"));
  EXPECT_FALSE(r.stats.has_counter("dl1.accesses"));
}

TEST(StatsGolden, PerfectPredictorMachineReportsNoMispredictCounters) {
  // paper_2wide_cache runs the perfect (oracle) predictor: the
  // mispredict machinery never fires, so none of its (eagerly resolved)
  // counters may appear — exactly what the lazy-creation binary printed.
  const auto r = run_paper_machine("paper_2wide_cache.cfg", 2000);
  const auto rep = r.stats.report();
  EXPECT_EQ(rep.find("fetch.mispredicts"), std::string::npos);
  EXPECT_EQ(rep.find("commit.squashes"), std::string::npos);
}

}  // namespace
