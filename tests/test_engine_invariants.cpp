// The engine's invariant checker (ReSimEngine::check_invariants,
// core/invariants.cpp) after every simulated cycle: the event-driven
// ready set, in-flight set and consumer lists must equal what a scan of
// the window computes, and ROB, LSQ and rename state must stay
// consistent, on every suite workload across both pipeline variants,
// both paper machines and the ROB sizes the sweeps use; and on window
// rings (ROB + IFQ slots) the sweeps never reach. The adversarial traces
// in test_engine_adversarial.cpp run under the same checker.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_file.hpp"
#include "core/engine.hpp"
#include "temp_path.hpp"
#include "trace/file_source.hpp"
#include "trace/tracegen.hpp"
#include "trace/writer.hpp"
#include "workload/suite.hpp"

namespace resim::core {
namespace {

/// A paper machine: paper_2wide_cache with the 2lev predictor (its own
/// perfect predictor never squashes) or paper_4wide_perfect.
CoreConfig paper_config(bool cache, PipelineVariant variant) {
  CoreConfig cfg = CoreConfig::paper_4wide_perfect();
  const std::string dir = std::string(RESIM_SOURCE_DIR) + "/configs/";
  if (cache) {
    config::load_config_file(dir + "paper_2wide_cache.cfg", cfg);
    cfg.bp.kind = bpred::DirKind::kTwoLevel;
  } else {
    config::load_config_file(dir + "paper_4wide_perfect.cfg", cfg);
  }
  cfg.variant = variant;
  return cfg;
}

trace::Trace make_trace(const std::string& workload, const CoreConfig& cfg) {
  trace::TraceGenConfig g;
  g.max_insts = 10000;
  g.bp = cfg.bp;
  g.wrong_path_block = cfg.wrong_path_block();
  trace::TraceGenerator gen(workload::make_workload(workload), g);
  return gen.generate();
}

std::uint64_t correct_path_records(const trace::Trace& t) {
  std::uint64_t n = 0;
  for (const auto& r : t.records) n += r.wrong_path ? 0 : 1;
  return n;
}

/// Run to the end, checking the invariants before the first cycle and
/// after every one.
SimResult run_checked(const CoreConfig& cfg, trace::TraceSource& src) {
  ReSimEngine eng(cfg, src);
  eng.check_invariants();
  while (eng.step_major_cycle()) eng.check_invariants();
  return eng.result();
}

using Params = std::tuple<std::string, PipelineVariant, bool, unsigned>;

class EngineInvariants : public ::testing::TestWithParam<Params> {};

TEST_P(EngineInvariants, HoldAfterEveryCycle) {
  const auto& [workload, variant, cache, rob] = GetParam();
  CoreConfig cfg = paper_config(cache, variant);
  cfg.rob_size = rob;
  cfg.validate();

  const trace::Trace t = make_trace(workload, cfg);
  const std::uint64_t correct_path = correct_path_records(t);
  const bool has_wrong_path = correct_path < t.records.size();

  trace::VectorTraceSource src(t);
  const SimResult r = run_checked(cfg, src);
  // Every correct-path record commits exactly once (commit throws on a
  // wrong-path head, so none of those can).
  EXPECT_EQ(r.committed, correct_path);
  EXPECT_EQ(r.fetched, r.committed + r.squashed);
  // Tagged blocks mean the generator's predictor (the engine's own
  // configuration) mispredicted, so the squash path ran under the checker.
  if (has_wrong_path) {
    EXPECT_GT(r.stats.value("commit.squashes"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineInvariants,
    ::testing::Combine(::testing::ValuesIn(workload::suite_names()),
                       ::testing::Values(PipelineVariant::kEfficient,
                                         PipelineVariant::kOptimized),
                       ::testing::Bool(), ::testing::Values(2u, 16u, 64u)),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::get<0>(info.param) + "_" + variant_name(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_cache2lev" : "_perfect") + "_rob" +
             std::to_string(std::get<3>(info.param));
    });

// Window rings the configs and sweeps never reach: the smallest ROBs
// with an IFQ of exactly one fetch group, and ROB + IFQ slot counts of
// 64 and 65, so the window runs up to and across a SlotSet word. Both
// backends must give the same result.
struct Ring {
  const char* name;
  unsigned rob;
  unsigned ifq;  ///< 0: the machine's width
};

using RingParams = std::tuple<Ring, PipelineVariant, bool>;

class WindowRings : public ::testing::TestWithParam<RingParams> {};

TEST_P(WindowRings, HoldAfterEveryCycleOnBothBackends) {
  const auto& [ring, variant, cache] = GetParam();
  CoreConfig cfg = paper_config(cache, variant);
  cfg.rob_size = ring.rob;
  cfg.ifq_size = ring.ifq == 0 ? cfg.width : ring.ifq;
  cfg.validate();

  const trace::Trace t = make_trace("gzip", cfg);
  trace::VectorTraceSource memory(t);
  const SimResult m = run_checked(cfg, memory);
  EXPECT_EQ(m.committed, correct_path_records(t));
  EXPECT_EQ(m.fetched, m.committed + m.squashed);
  if (cache) {
    EXPECT_GT(m.stats.value("commit.squashes"), 0u);
  }

  const TempPath path("window_ring.rsim");
  trace::save_trace(t, path, /*chunk_records=*/1000);
  trace::FileTraceSource stream(path);
  const SimResult s = run_checked(cfg, stream);
  EXPECT_EQ(s.committed, m.committed);
  EXPECT_EQ(s.major_cycles, m.major_cycles);
  EXPECT_EQ(s.trace_records, m.trace_records);
  EXPECT_EQ(s.trace_bits, m.trace_bits);
  EXPECT_EQ(s.stats.report(), m.stats.report());
}

INSTANTIATE_TEST_SUITE_P(
    Rings, WindowRings,
    ::testing::Combine(::testing::Values(Ring{"rob2_ifqN", 2, 0}, Ring{"rob3_ifqN", 3, 0},
                                         Ring{"sum64", 56, 8}, Ring{"sum65", 57, 8}),
                       ::testing::Values(PipelineVariant::kEfficient,
                                         PipelineVariant::kOptimized),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<RingParams>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             variant_name(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_cache2lev" : "_perfect");
    });

}  // namespace
}  // namespace resim::core
