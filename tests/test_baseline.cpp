// Software baselines: coupled (execution-driven) mode and host-speed
// measurement plumbing.
#include <gtest/gtest.h>

#include "baseline/coupled.hpp"
#include "baseline/funcspeed.hpp"
#include "trace/tracegen.hpp"
#include "workload/suite.hpp"

namespace resim::baseline {
namespace {

TEST(Streaming, SourceMatchesBulkTrace) {
  trace::TraceGenConfig g;
  g.max_insts = 3000;
  trace::TraceGenerator bulk(workload::make_workload("gzip"), g);
  const auto t = bulk.generate();

  trace::TraceGenerator live(workload::make_workload("gzip"), g);
  StreamingTraceSource src(live);
  std::size_t i = 0;
  while (src.peek() != nullptr) {
    const auto r = src.next();
    ASSERT_LT(i, t.records.size());
    EXPECT_EQ(r.fmt, t.records[i].fmt);
    EXPECT_EQ(r.wrong_path, t.records[i].wrong_path);
    ++i;
  }
  EXPECT_EQ(i, t.records.size());
  EXPECT_EQ(src.records_consumed(), t.records.size());
}

TEST(Coupled, ReportsHostSpeed) {
  trace::TraceGenConfig g;
  g.max_insts = 5000;
  const auto r = run_coupled(workload::make_workload("bzip2"),
                             core::CoreConfig::paper_4wide_perfect(), g);
  EXPECT_EQ(r.sim.committed, 5000u);
  // The engine's cursor counted the wire bits of every generated record.
  const auto t = trace::TraceGenerator(workload::make_workload("bzip2"), g).generate();
  EXPECT_EQ(r.sim.trace_records, t.records.size());
  EXPECT_EQ(r.sim.trace_bits, t.total_bits());
  EXPECT_GT(r.host_seconds, 0.0);
  EXPECT_GT(r.host_mips, 0.0);
}

TEST(FuncSpeed, FunctionalFasterThanTimed) {
  // The functional simulator must beat the full timing model on the host —
  // the premise of trace-driven acceleration.
  const auto wl = workload::make_workload("gzip");
  const auto fn = measure_functional(wl, 200'000);
  EXPECT_EQ(fn.instructions, 200'000u);

  trace::TraceGenConfig g;
  g.max_insts = 50'000;
  trace::TraceGenerator gen(workload::make_workload("gzip"), g);
  const auto t = gen.generate();
  const auto timed = measure_trace_driven(t, core::CoreConfig::paper_4wide_perfect());
  EXPECT_EQ(timed.instructions, 50'000u);
  EXPECT_GT(fn.mips(), timed.mips());
}

TEST(FuncSpeed, MipsComputation) {
  HostSpeed h;
  h.instructions = 2'000'000;
  h.seconds = 2.0;
  EXPECT_DOUBLE_EQ(h.mips(), 1.0);
  h.seconds = 0;
  EXPECT_DOUBLE_EQ(h.mips(), 0.0);
}

TEST(FuncSpeed, StopsAtBudget) {
  const auto wl = workload::make_workload("vpr");
  const auto h = measure_functional(wl, 1234);
  EXPECT_EQ(h.instructions, 1234u);
}

}  // namespace
}  // namespace resim::baseline
