// Sampled simulation: SegmentedTraceSource allowances, SamplingPlan
// construction/validation, functional warmup, interval recording, and
// the sampled-vs-full accuracy + sampling-off identity contracts
// (docs/SAMPLING.md).
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/interval.hpp"
#include "driver/result_export.hpp"
#include "driver/run.hpp"
#include "driver/sampling.hpp"
#include "temp_path.hpp"
#include "trace/batch_cache.hpp"
#include "trace/file_source.hpp"
#include "trace/segment.hpp"
#include "trace/tracegen.hpp"
#include "trace/writer.hpp"
#include "trace_test_util.hpp"
#include "workload/suite.hpp"

namespace resim::driver {
namespace {

using trace::testutil::records_equal;

trace::Trace make_trace(const std::string& bench, std::uint64_t insts) {
  trace::TraceGenConfig g;
  g.max_insts = insts;
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  g.bp = cfg.bp;
  g.wrong_path_block = cfg.wrong_path_block();
  return trace::TraceGenerator(workload::make_workload(bench), g).generate();
}

// ---- SegmentedTraceSource -------------------------------------------------

TEST(SegmentedTraceSource, StartsAtEofUntilASegmentOpens) {
  const auto t = make_trace("gzip", 500);
  trace::VectorTraceSource base(t);
  trace::SegmentedTraceSource seg(base);
  EXPECT_EQ(seg.peek(), nullptr);
  EXPECT_THROW((void)seg.next(), std::out_of_range);
  EXPECT_EQ(seg.remaining(), 0u);

  seg.open_segment(3);
  EXPECT_EQ(seg.remaining(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(seg.peek(), nullptr);
    ASSERT_TRUE(records_equal(seg.next(), t.records[i]));
  }
  EXPECT_EQ(seg.peek(), nullptr);  // allowance used up
  EXPECT_EQ(seg.records_consumed(), 3u);
}

TEST(SegmentedTraceSource, CloseSegmentRevokesUnusedAllowance) {
  const auto t = make_trace("gzip", 500);
  trace::VectorTraceSource base(t);
  trace::SegmentedTraceSource seg(base);
  seg.open_segment(10);
  (void)seg.next();
  (void)seg.next();
  EXPECT_EQ(seg.close_segment(), 8u);
  EXPECT_EQ(seg.peek(), nullptr);
  // The inner source did not move past the revoked records.
  EXPECT_EQ(seg.inner_position(), 2u);
}

TEST(SegmentedTraceSource, SkipGapRequiresClosedSegment) {
  const auto t = make_trace("gzip", 500);
  trace::VectorTraceSource base(t);
  trace::SegmentedTraceSource seg(base);
  seg.open_segment(5);
  EXPECT_THROW(seg.skip_gap(10), std::logic_error);
  (void)seg.close_segment();
  EXPECT_EQ(seg.skip_gap(100), 100u);
  EXPECT_EQ(seg.inner_position(), 100u);
  // Gap records never enter the consumer's totals.
  EXPECT_EQ(seg.records_consumed(), 0u);
  seg.open_segment(1);
  ASSERT_TRUE(records_equal(seg.next(), t.records[100]));
}

TEST(SegmentedTraceSource, ViewsAreTruncatedAtTheAllowance) {
  // BatchTraceSource lends whole shared chunks; the segment adaptor
  // must clip its views at the allowance.
  const auto t = make_trace("gzip", 2000);
  const TempPath path("seg_views.rsim");
  trace::save_trace(t, path, /*chunk_records=*/512);
  trace::BatchTraceSource base(std::make_shared<trace::SharedBatchCache>(path));
  trace::SegmentedTraceSource seg(base);

  EXPECT_TRUE(seg.fetch_view().empty());  // closed segment: no view
  seg.open_segment(7);
  auto v = seg.fetch_view();
  ASSERT_NE(v.records, nullptr);
  EXPECT_EQ(v.count, 7u);  // chunk holds 512, the allowance clips it
  EXPECT_THROW(seg.consume_view(8), std::logic_error);
  seg.consume_view(v.count);
  EXPECT_EQ(seg.records_consumed(), 7u);
  EXPECT_EQ(seg.remaining(), 0u);
  EXPECT_TRUE(seg.fetch_view().empty());
}

// ---- SamplingPlan ---------------------------------------------------------

TEST(SamplingPlan, UniformSpreadsDisjointWindows) {
  const auto plan = SamplingPlan::uniform(/*total=*/10000, /*k=*/4, /*w=*/500, /*u=*/100);
  ASSERT_EQ(plan.starts.size(), 4u);
  EXPECT_EQ(plan.window_records, 500u);
  EXPECT_EQ(plan.warmup_records, 100u);
  for (std::size_t i = 1; i < plan.starts.size(); ++i) {
    EXPECT_GE(plan.starts[i], plan.starts[i - 1] + plan.window_records);
  }
  EXPECT_LT(plan.starts.back() + plan.window_records, 10000u);
  // Windows are centered in their strides, so the first does not start
  // at record 0.
  EXPECT_GT(plan.starts.front(), 0u);
}

TEST(SamplingPlan, UniformDegradesToBackToBackWhenOversubscribed) {
  // K*W > total: coverage from the front, fewer windows if needed.
  const auto plan = SamplingPlan::uniform(/*total=*/1000, /*k=*/8, /*w=*/300, /*u=*/0);
  ASSERT_FALSE(plan.starts.empty());
  EXPECT_EQ(plan.starts.front(), 0u);
  for (std::size_t i = 1; i < plan.starts.size(); ++i) {
    EXPECT_EQ(plan.starts[i], plan.starts[i - 1] + 300u);
  }
  EXPECT_LT(plan.starts.back(), 1000u);
}

TEST(SamplingPlan, UniformRejectsZeroWindows) {
  EXPECT_THROW((void)SamplingPlan::uniform(1000, 0, 100, 0), std::invalid_argument);
  EXPECT_THROW((void)SamplingPlan::uniform(1000, 4, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)SamplingPlan::uniform(0, 4, 100, 0), std::invalid_argument);
}

TEST(SamplingPlan, FromFileParsesCommentsAndBlankLines) {
  const TempPath path("plan_ok.txt");
  {
    std::ofstream out(path);
    out << "# sampling plan\n\n100\n  900 \n2000\n";
  }
  const auto plan = SamplingPlan::from_file(path, /*total=*/5000, /*w=*/400, /*u=*/50);
  ASSERT_EQ(plan.starts.size(), 3u);
  EXPECT_EQ(plan.starts[0], 100u);
  EXPECT_EQ(plan.starts[1], 900u);
  EXPECT_EQ(plan.starts[2], 2000u);
}

TEST(SamplingPlan, FromFileRejectsGarbageWithLineNumber) {
  const TempPath path("plan_bad.txt");
  {
    std::ofstream out(path);
    out << "100\nnot-a-number\n";
  }
  try {
    (void)SamplingPlan::from_file(path, 5000, 400, 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos) << e.what();
  }
}

TEST(SamplingPlan, ValidateRejectsOverlapAndOutOfRange) {
  SamplingPlan plan;
  plan.window_records = 100;
  plan.total_records = 1000;
  plan.starts = {0, 50};  // overlaps: 50 < 0 + 100
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.starts = {0, 990};  // 990 < 1000: in range, non-overlapping
  EXPECT_NO_THROW(plan.validate());
  plan.starts = {0, 1000};  // past the end
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(SamplingPlan, PlanFromConfigNeedsAKnownTraceLength) {
  auto cfg = core::CoreConfig::paper_4wide_perfect();
  cfg.sample.windows = 4;
  cfg.sample.window_insts = 200;
  cfg.sample.warmup_insts = 50;
  const auto t = make_trace("gzip", 2000);
  trace::VectorTraceSource src(t);
  const auto plan = plan_from_config(cfg, src);
  EXPECT_EQ(plan.total_records, t.records.size());
  EXPECT_EQ(plan.starts.size(), 4u);
  // A container's header carries its record count too.
  const TempPath path("plan_v2.rsim");
  trace::save_trace(t, path);
  trace::FileTraceSource file(path);
  EXPECT_EQ(plan_from_config(cfg, file).starts, plan.starts);

  // A source that cannot report its length is rejected up front.
  class Unknown final : public trace::TraceSource {
   public:
    [[nodiscard]] trace::BatchView fetch_view() override { return {}; }
    void consume_view(std::size_t) override {}
    [[nodiscard]] std::uint64_t records_consumed() const override { return 0; }
  } unknown;
  EXPECT_THROW((void)plan_from_config(cfg, unknown), std::invalid_argument);
}

// ---- functional warmup ----------------------------------------------------

TEST(FunctionalWarmup, ReplaysRecordsWithoutCycleAccounting) {
  const auto t = make_trace("gzip", 3000);
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  trace::VectorTraceSource base(t);
  trace::SegmentedTraceSource seg(base);
  core::ReSimEngine eng(cfg, seg);

  seg.open_segment(1000);
  const std::uint64_t done = eng.functional_warmup(1000);
  (void)seg.close_segment();
  EXPECT_EQ(done, 1000u);
  EXPECT_EQ(eng.committed(), 0u);  // warmup commits nothing
  EXPECT_EQ(eng.cycle(), 0u);      // and burns no cycles
  // The warmup record count is observable in the stats plane.
  EXPECT_EQ(eng.stats().value("sample.warmup_records"), 1000u);
}

TEST(FunctionalWarmup, WarmCachesMissLessThanColdOnTheSameWindow) {
  // Two engines simulate the same detailed window; one functionally
  // warmed over the preceding records, one cold. The warmed caches hold
  // the working set, so the cold engine pays compulsory misses the warm
  // one does not — the whole point of functional warmup.
  const auto t = make_trace("parser", 12000);
  const auto cfg = core::CoreConfig::paper_2wide_cache();
  const std::uint64_t kStart = 8000;
  const std::uint64_t kWindow = 3000;

  trace::VectorTraceSource base_w(t);
  trace::SegmentedTraceSource seg_w(base_w);
  core::ReSimEngine warm(cfg, seg_w);
  seg_w.open_segment(kStart);
  EXPECT_EQ(warm.functional_warmup(kStart), kStart);
  (void)seg_w.close_segment();
  const core::Region warm0 = warm.region();
  // Warmup drove real cache fills: the miss counters already moved.
  EXPECT_GT(warm0.il1_misses + warm0.dl1_misses, 0u);
  seg_w.open_segment(kWindow);
  while (warm.step_major_cycle()) {
  }
  const core::Region dw = warm.region() - warm0;

  trace::VectorTraceSource base_c(t);
  trace::SegmentedTraceSource seg_c(base_c);
  core::ReSimEngine cold(cfg, seg_c);
  seg_c.skip_gap(kStart);
  const core::Region cold0 = cold.region();
  seg_c.open_segment(kWindow);
  while (cold.step_major_cycle()) {
  }
  const core::Region dc = cold.region() - cold0;

  EXPECT_LT(dw.il1_misses + dw.dl1_misses, dc.il1_misses + dc.dl1_misses);
}

// ---- sampled runs ---------------------------------------------------------

TEST(RunSampled, EstimatesTrackTheFullRunOnSuiteWorkloads) {
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  for (const auto& bench : workload::suite_names()) {
    const auto t = make_trace(bench, 50000);
    trace::VectorTraceSource full_src(t);
    const auto full = core::ReSimEngine(cfg, full_src).run();
    const double full_ipc = full.ipc();

    trace::VectorTraceSource src(t);
    const auto plan =
        SamplingPlan::uniform(t.records.size(), /*k=*/8, /*w=*/4000, /*u=*/1000);
    const auto s = run_sampled(cfg, src, plan);
    ASSERT_FALSE(s.windows.empty()) << bench;
    const double rel = std::abs(s.ipc.mean - full_ipc) / full_ipc;
    EXPECT_LT(rel, 0.10) << bench << ": sampled " << s.ipc.mean << " vs full "
                         << full_ipc;
    // The bookkeeping identity: every record is detailed, warmup, or
    // skipped — nothing is lost.
    EXPECT_EQ(s.detailed_records + s.warmup_records + s.skipped_records,
              src.records_consumed());
    EXPECT_GT(s.skipped_records, 0u) << bench;
    EXPECT_GT(s.coverage(), 0.0);
    EXPECT_LT(s.coverage(), 1.0);
  }
}

TEST(RunSampled, CiIsZeroForASingleWindow) {
  const auto t = make_trace("gzip", 20000);
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  trace::VectorTraceSource src(t);
  const auto plan = SamplingPlan::uniform(t.records.size(), 1, 5000, 500);
  const auto s = run_sampled(cfg, src, plan);
  ASSERT_EQ(s.windows.size(), 1u);
  EXPECT_EQ(s.ipc.ci95, 0.0);
  EXPECT_GT(s.ipc.mean, 0.0);
}

TEST(RunEngine, SamplingOffIsIdenticalToAPlainRun) {
  const auto t = make_trace("vpr", 20000);
  const auto cfg = core::CoreConfig::paper_4wide_perfect();  // sample.windows == 0

  trace::VectorTraceSource a(t);
  const auto plain = core::ReSimEngine(cfg, a).run();
  trace::VectorTraceSource b(t);
  const auto routed = run_trace(cfg, b).result;

  EXPECT_EQ(routed.committed, plain.committed);
  EXPECT_EQ(routed.fetched, plain.fetched);
  EXPECT_EQ(routed.wrong_path_fetched, plain.wrong_path_fetched);
  EXPECT_EQ(routed.squashed, plain.squashed);
  EXPECT_EQ(routed.major_cycles, plain.major_cycles);
  EXPECT_EQ(routed.minor_cycles, plain.minor_cycles);
  EXPECT_EQ(routed.trace_records, plain.trace_records);
  EXPECT_EQ(routed.trace_bits, plain.trace_bits);
  // No sampling counter may appear in a sampling-off run (the
  // touched-visibility contract keeps exports byte-identical).
  for (const auto& [name, c] : routed.stats.counters()) {
    if (name.rfind("sample.", 0) == 0) {
      EXPECT_FALSE(c.touched()) << name;
    }
  }
}

TEST(RunEngine, SampledRunCommitsOnlyTheWindows) {
  const auto t = make_trace("gzip", 30000);
  auto cfg = core::CoreConfig::paper_4wide_perfect();
  cfg.sample.windows = 4;
  cfg.sample.window_insts = 2000;
  cfg.sample.warmup_insts = 500;
  trace::VectorTraceSource src(t);
  const auto r = run_trace(cfg, src).result;
  EXPECT_GT(r.committed, 0u);
  EXPECT_LT(r.committed, 30000u);  // far fewer than the full trace
}

TEST(RunEngine, SampledRunRefusesAWindowNamingIt) {
  const auto t = make_trace("gzip", 5000);
  auto cfg = core::CoreConfig::paper_4wide_perfect();
  cfg.sample.windows = 2;
  for (const char* member : {"'skip'", "'warmup'", "'max_records'"}) {
    RunSpec spec;
    if (member[1] == 's') spec.skip = 100;
    if (member[1] == 'w') spec.warmup = 100;
    if (member[1] == 'm') spec.max_records = 1000;
    trace::VectorTraceSource src(t);
    try {
      (void)run_trace(cfg, src, spec);
      FAIL() << member << " must be refused";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(member), std::string::npos) << e.what();
    }
  }
}

// ---- regions --------------------------------------------------------------

TEST(Region, ReadsWhatTheReportCounts) {
  // region() reads the stage counters and the L1 caches directly; the
  // report merges the same counters by name. Both predictors mispredict
  // under 2lev, and only the cache machine has L1 counters.
  const auto t = make_trace("gzip", 20000);
  for (core::CoreConfig cfg :
       {core::CoreConfig::paper_4wide_perfect(), core::CoreConfig::paper_2wide_cache()}) {
    cfg.bp.kind = bpred::DirKind::kTwoLevel;
    SCOPED_TRACE(cfg.mem.perfect ? "perfect" : "cache");
    trace::VectorTraceSource src(t);
    core::ReSimEngine eng(cfg, src);
    const core::SimResult r = eng.run();
    const core::Region g = eng.region();
    EXPECT_EQ(g.committed, r.committed);
    EXPECT_EQ(g.cycles, r.major_cycles);
    EXPECT_EQ(g.branches, r.stats.value("commit.branches"));
    EXPECT_EQ(g.mispredicts, r.stats.value("fetch.mispredicts"));
    EXPECT_EQ(g.il1_misses, r.stats.value("il1.misses"));
    EXPECT_EQ(g.dl1_misses, r.stats.value("dl1.misses"));
    EXPECT_GT(g.branches, 0u);
    EXPECT_GT(g.mispredicts, 0u);
    EXPECT_EQ(g.dl1_misses > 0, !cfg.mem.perfect);
  }
}

TEST(Region, SampledWindowsSumToThePooledResult) {
  // Cycles and commits happen only inside detailed windows, so the
  // windows partition the pooled counts. (L1 misses do not sum: the
  // functional warmup between windows misses too.)
  const auto t = make_trace("gzip", 30000);
  auto cfg = core::CoreConfig::paper_2wide_cache();
  cfg.bp.kind = bpred::DirKind::kTwoLevel;
  trace::VectorTraceSource src(t);
  const auto plan = SamplingPlan::uniform(t.records.size(), 5, 3000, 1000);
  const SampledResult s = run_sampled(cfg, src, plan);
  ASSERT_EQ(s.windows.size(), 5u);
  core::Region sum;
  for (const SampledWindow& w : s.windows) {
    sum.committed += w.region.committed;
    sum.cycles += w.region.cycles;
    sum.branches += w.region.branches;
    sum.mispredicts += w.region.mispredicts;
  }
  EXPECT_EQ(sum.committed, s.result.committed);
  EXPECT_EQ(sum.cycles, s.result.major_cycles);
  EXPECT_EQ(sum.branches, s.result.stats.value("commit.branches"));
  EXPECT_EQ(sum.mispredicts, s.result.stats.value("fetch.mispredicts"));
  EXPECT_GT(sum.mispredicts, 0u);
}

// ---- interval recording ---------------------------------------------------

TEST(IntervalRecorder, RowsPartitionTheRun) {
  const auto t = make_trace("gzip", 20000);
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  trace::VectorTraceSource src(t);
  core::IntervalRecorder rec(/*interval_insts=*/5000);
  RunSpec spec;
  spec.intervals = &rec;
  const auto r = run_trace(cfg, src, spec).result;

  const auto& rows = rec.rows();
  ASSERT_GE(rows.size(), 4u);
  std::uint64_t committed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t prev_end = 0;
  for (const auto& row : rows) {
    EXPECT_GT(row.end_inst, prev_end);
    prev_end = row.end_inst;
    committed += row.region.committed;
    cycles += row.region.cycles;
    EXPECT_GT(row.region.ipc(), 0.0);
  }
  // The rows partition the whole run: per-interval deltas sum back to
  // the totals.
  EXPECT_EQ(committed, r.committed);
  EXPECT_EQ(cycles, r.major_cycles);
  EXPECT_EQ(rows.back().end_inst, r.committed);
}

TEST(IntervalRecorder, CloseIsIdempotentAndSkipsEmptyTails) {
  const auto t = make_trace("gzip", 10000);
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  trace::VectorTraceSource src(t);
  core::ReSimEngine eng(cfg, src);
  core::IntervalRecorder rec(2500);
  while (eng.step_major_cycle()) rec.after_cycle(eng);
  rec.close(eng.region());
  const auto n = rec.rows().size();
  EXPECT_GE(n, 4u);
  rec.close(eng.region());  // boundary at an unchanged commit count: no-op
  EXPECT_EQ(rec.rows().size(), n);
}

TEST(IntervalRecorder, ZeroLengthRecordsNothing) {
  const auto t = make_trace("gzip", 5000);
  trace::VectorTraceSource src(t);
  core::IntervalRecorder rec(0);
  RunSpec spec;
  spec.intervals = &rec;
  (void)run_trace(core::CoreConfig::paper_4wide_perfect(), src, spec);
  EXPECT_TRUE(rec.rows().empty());
}

TEST(IntervalExport, CsvAndJsonCarryEveryRow) {
  std::vector<core::IntervalRow> rows(2);
  rows[0] = {0, 1000, 600, {1000, 600, 100, 5, 2, 3}};
  rows[1] = {1, 2000, 1300, {1000, 700, 120, 8, 1, 4}};

  std::ostringstream csv;
  write_intervals_csv(csv, rows);
  const std::string c = csv.str();
  EXPECT_NE(c.find("interval,end_inst,end_cycle,committed,cycles,branches,"
                   "mispredicts,il1_misses,dl1_misses,ipc,mpki,branch_mpki"),
            std::string::npos);
  // 1 header + 2 data rows.
  EXPECT_EQ(std::count(c.begin(), c.end(), '\n'), 3);
  EXPECT_NE(c.find("0,1000,600,1000,600,100,5,2,3,1.666667"), std::string::npos);

  std::ostringstream js;
  write_intervals_json(js, rows, 1000);
  const std::string j = js.str();
  EXPECT_NE(j.find("\"interval_insts\": 1000"), std::string::npos);
  EXPECT_NE(j.find("\"intervals\": 2"), std::string::npos);
  EXPECT_NE(j.find("\"end_inst\": [1000, 2000]"), std::string::npos);
  EXPECT_NE(j.find("\"ipc\": [1.666667, 1.428571]"), std::string::npos);
}

TEST(IntervalRecorder, SampledRunRecordsInsideWindows) {
  const auto t = make_trace("gzip", 30000);
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  trace::VectorTraceSource src(t);
  const auto plan = SamplingPlan::uniform(t.records.size(), 4, 4000, 500);
  core::IntervalRecorder rec(1000);
  const auto s = run_sampled(cfg, src, plan, &rec);
  ASSERT_FALSE(rec.rows().empty());
  std::uint64_t committed = 0;
  for (const auto& row : rec.rows()) committed += row.region.committed;
  EXPECT_EQ(committed, s.result.committed);
}

}  // namespace
}  // namespace resim::driver
