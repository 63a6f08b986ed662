// The trace read path: every TraceSource agrees with every other on
// records and accounting (one parameterized source-equivalence test),
// plus engine identity, edge cases of the file readers, and the batch
// runner's prepared-trace and trace.backend dispatch.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "driver/batch_runner.hpp"
#include "driver/sampling.hpp"
#include "temp_path.hpp"
#include "trace/batch_cache.hpp"
#include "trace/file_source.hpp"
#include "trace/segment.hpp"
#include "trace/tracegen.hpp"
#include "trace/writer.hpp"
#include "trace_test_util.hpp"
#include "workload/suite.hpp"

namespace resim::trace {
namespace {

using testutil::records_equal;

Trace generate(const std::string& bench, std::uint64_t insts) {
  TraceGenConfig g;
  g.max_insts = insts;
  return TraceGenerator(workload::make_workload(bench), g).generate();
}

// ---- source equivalence ----------------------------------------------------
//
// One test for every reader: the vector, stream and shared-batch
// sources over containers v2, v3 and v4, driven through
// SegmentedTraceSource by seeded (skip, warmup, window) draws and
// drained by all three reading styles (peek/next, partial views, a
// ViewCursor). Every source must hand over exactly the records a plain
// index walk over the trace predicts, with identical records_consumed;
// the chunk cursors must also agree on chunks_skipped, and hold at most
// one chunk decoded. Wire bits are counted by the engine's cursor
// alone; EngineResultsMatchOverAWindow checks that count on every
// source.

constexpr std::uint32_t kChunk = 512;
constexpr std::uint64_t kRecords = 5000;  // 9 full chunks + a 392-record tail

/// A source under test; `cursor` is null for the vector source.
struct Reader {
  std::string name;
  std::unique_ptr<TraceSource> src;
  ChunkCursor* cursor = nullptr;
};

class SourceEquivalence : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    const auto cfg = core::CoreConfig::paper_4wide_perfect();
    TraceGenConfig g;
    g.max_insts = kRecords;
    g.bp = cfg.bp;
    g.wrong_path_block = cfg.wrong_path_block();
    trace_ = TraceGenerator(workload::make_workload("vortex"), g).generate();
    ASSERT_GE(trace_.records.size(), kRecords);
    trace_.records.resize(kRecords);
    path_.emplace("equiv_v" + std::to_string(GetParam()) + ".rsim");
    save_trace(trace_, *path_, kChunk, /*compress=*/GetParam() >= kContainerV3,
               /*prefilter=*/GetParam() == kContainerV4);
  }

  /// Fresh readers.
  std::vector<Reader> open_all() const {
    std::vector<Reader> out;
    out.push_back({"vector", std::make_unique<VectorTraceSource>(trace_), nullptr});
    const auto add = [&out](const char* name, std::unique_ptr<ChunkCursor> c) {
      ChunkCursor* raw = c.get();
      out.push_back({name, std::move(c), raw});
    };
    add("stream", std::make_unique<FileTraceSource>(*path_));
    add("shared", std::make_unique<BatchTraceSource>(std::make_shared<SharedBatchCache>(*path_)));
    for (const auto& r : out) {
      if (r.cursor == nullptr) continue;
      EXPECT_EQ(r.cursor->trace_name(), trace_.name) << r.name;
      EXPECT_EQ(r.cursor->start_pc(), trace_.start_pc) << r.name;
      EXPECT_EQ(r.cursor->container_version(), GetParam()) << r.name;
      EXPECT_EQ(r.src->total_records(), trace_.records.size()) << r.name;
    }
    return out;
  }

  Trace trace_;
  std::optional<TempPath> path_;
};

/// One sampled region: gap records skipped, then a warm-up segment and
/// a window segment (kAll: the rest of the trace).
struct Region {
  std::uint64_t skip, warmup, window;
};

/// Drains the open segment in reading style `style`, appending what it
/// read to `out`.
void drain_segment(SegmentedTraceSource& seg, unsigned style, Rng& rng,
                   std::vector<TraceRecord>& out) {
  if (style == 0) {
    while (seg.peek() != nullptr) out.push_back(seg.next());
  } else if (style == 1) {
    for (BatchView v = seg.fetch_view(); !v.empty(); v = seg.fetch_view()) {
      const std::size_t k = 1 + rng.below(v.count);  // partial views too
      out.insert(out.end(), v.records, v.records + k);
      seg.consume_view(k);
    }
  } else {
    ViewCursor cur(seg);
    while (cur.peek() != nullptr) out.push_back(cur.next());
    cur.flush();
  }
}

/// Counters after each step of a draw, for comparing sources.
struct Trail {
  std::vector<TraceRecord> records;
  std::vector<std::uint64_t> counters;  ///< segment + inner accounting
  std::vector<std::uint64_t> inner;     ///< chunks_skipped (cursors)
};

Trail run_draw(Reader& rd, const std::vector<Region>& regions, std::uint64_t seed) {
  Trail t;
  Rng rng(seed);
  SegmentedTraceSource seg(*rd.src);
  unsigned style = 0;
  for (const Region& r : regions) {
    t.counters.push_back(seg.skip_gap(r.skip));
    for (const std::uint64_t len : {r.warmup, r.window}) {
      seg.open_segment(len);
      drain_segment(seg, style++ % 3, rng, t.records);
      seg.close_segment();
      t.counters.push_back(seg.records_consumed());
      t.counters.push_back(seg.inner_position());
      if (rd.cursor != nullptr) t.inner.push_back(rd.cursor->chunks_skipped());
    }
  }
  return t;
}

/// The same draw predicted by an index walk over the trace itself.
Trail expected_draw(const Trace& trace, const std::vector<Region>& regions) {
  Trail t;
  const std::uint64_t n = trace.records.size();
  std::uint64_t pos = 0;
  std::uint64_t seg_records = 0;
  for (const Region& r : regions) {
    const std::uint64_t skipped = std::min(r.skip, n - pos);
    pos += skipped;
    t.counters.push_back(skipped);
    for (const std::uint64_t len : {r.warmup, r.window}) {
      const std::uint64_t take = std::min(len, n - pos);
      for (std::uint64_t i = 0; i < take; ++i) t.records.push_back(trace.records[pos + i]);
      pos += take;
      seg_records += take;
      t.counters.push_back(seg_records);
      t.counters.push_back(pos);
    }
  }
  return t;
}

std::vector<std::vector<Region>> draws(std::uint64_t n, std::uint64_t seed) {
  constexpr std::uint64_t kAll = SegmentedTraceSource::kAll;
  std::vector<std::vector<Region>> out = {
      {{0, 0, kAll}},                  // plain full drain
      {{2100, 0, kAll}},               // hop 4 chunks, decode the 5th's tail
      {{1610, 300, 1200}},             // land mid-chunk, warm across a boundary
      {{100, 0, 600}, {1000, 50, 500}},  // a second gap after a partial chunk
      {{0, 10, 20}, {n, 5, 5}},        // skip past the end
      {{0, 0, 0}, {512, 0, 0}},        // zero-length windows
      {{4608, 0, kAll}},               // every full chunk hopped
  };
  Rng rng(seed);
  for (int d = 0; d < 12; ++d) {
    std::vector<Region> regions;
    const std::uint64_t k = rng.range(1, 3);
    for (std::uint64_t i = 0; i < k; ++i) {
      regions.push_back({rng.chance(1, 5) ? 0 : rng.below(n / 2), rng.below(700),
                         rng.chance(1, 6) ? kAll : rng.below(1500)});
    }
    out.push_back(regions);
  }
  return out;
}

TEST_P(SourceEquivalence, EverySourceAgreesOnSeededWindows) {
  const auto all_draws = draws(trace_.records.size(), 0x5EED + GetParam());
  for (std::size_t d = 0; d < all_draws.size(); ++d) {
    const Trail want = expected_draw(trace_, all_draws[d]);
    std::vector<Reader> readers = open_all();
    const Trail* cursor_ref = nullptr;
    std::vector<Trail> got;
    got.reserve(readers.size());
    for (Reader& rd : readers) {
      got.push_back(run_draw(rd, all_draws[d], d));
      const Trail& g = got.back();
      SCOPED_TRACE(rd.name + " draw " + std::to_string(d));
      ASSERT_EQ(g.records.size(), want.records.size());
      for (std::size_t i = 0; i < g.records.size(); ++i) {
        ASSERT_TRUE(records_equal(g.records[i], want.records[i])) << "record " << i;
      }
      EXPECT_EQ(g.counters, want.counters);
      if (rd.cursor == nullptr) continue;
      EXPECT_LE(rd.cursor->max_batch_records(), kChunk);
      if (cursor_ref == nullptr) {
        cursor_ref = &g;
      } else {
        EXPECT_EQ(g.inner, cursor_ref->inner);
      }
      // rewind() restarts every cursor from record zero.
      rd.cursor->rewind();
      EXPECT_EQ(rd.src->records_consumed(), 0u);
      EXPECT_EQ(rd.cursor->chunks_skipped(), 0u);
      ASSERT_NE(rd.src->peek(), nullptr);
      EXPECT_TRUE(records_equal(rd.src->next(), trace_.records.front()));
    }
  }
}

TEST_P(SourceEquivalence, SkipHopsWholeChunksUnread) {
  // 2100 records = 4 whole 512-record chunks + 52: the chunks are hopped
  // by their stored size, never decoded, and only the 5th is opened.
  for (Reader& rd : open_all()) {
    if (rd.cursor == nullptr) continue;
    SCOPED_TRACE(rd.name);
    EXPECT_EQ(rd.src->skip(2100), 2100u);
    EXPECT_EQ(rd.cursor->chunks_skipped(), 4u);
    EXPECT_EQ(rd.cursor->chunks_decoded(), 1u);
    EXPECT_TRUE(records_equal(rd.src->next(), trace_.records[2100]));
    // Past the end: an empty view, a refused consume, a throwing next().
    EXPECT_EQ(rd.src->skip(~std::uint64_t{0}), trace_.records.size() - 2101);
    EXPECT_EQ(rd.cursor->chunks_skipped(), 9u);
    EXPECT_EQ(rd.cursor->chunks_decoded(), 1u);
    EXPECT_TRUE(rd.src->fetch_view().empty());
    EXPECT_THROW(rd.src->consume_view(1), std::logic_error);
    EXPECT_THROW((void)rd.src->next(), std::out_of_range);
    EXPECT_EQ(rd.src->records_consumed(), trace_.records.size());
  }
}

/// Wire bits of trace records [first, first + n).
std::uint64_t bits_of(const Trace& t, std::uint64_t first, std::uint64_t n) {
  std::uint64_t bits = 0;
  for (std::uint64_t i = first; i < first + n; ++i) bits += encoded_bits(t.records[i]);
  return bits;
}

TEST_P(SourceEquivalence, EngineResultsMatchOverAWindow) {
  // Whole, windowed (the skip hops four 512-record chunks) and sampled
  // runs on every source. The engine's cursor is the one wire-bit
  // count: trace_bits must be the encoded_bits of exactly the records
  // the engine consumed, and every source must agree on every result.
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  const auto plan = driver::SamplingPlan::uniform(kRecords, /*k=*/3, /*w=*/400, /*u=*/300);
  for (const char* mode : {"whole", "window", "sampled"}) {
    SCOPED_TRACE(mode);
    std::vector<core::SimResult> results;
    for (Reader& rd : open_all()) {
      SCOPED_TRACE(rd.name);
      core::SimResult r;
      std::uint64_t want_records = 0;
      std::uint64_t want_bits = 0;
      if (mode == std::string("whole")) {
        r = core::ReSimEngine(cfg, *rd.src).run();
        want_records = kRecords;
        want_bits = trace_.total_bits();
      } else if (mode == std::string("window")) {
        SegmentedTraceSource seg(*rd.src);
        ASSERT_EQ(seg.skip_gap(2100), 2100u);
        seg.open_segment(2000);
        r = core::ReSimEngine(cfg, seg).run();
        want_records = 2000;
        want_bits = bits_of(trace_, 2100, 2000);
        if (rd.cursor != nullptr) {
          EXPECT_EQ(rd.cursor->chunks_skipped(), 4u);
        }
      } else {
        const driver::SampledResult s = driver::run_sampled(cfg, *rd.src, plan);
        ASSERT_EQ(s.windows.size(), plan.starts.size());
        for (const driver::SampledWindow& w : s.windows) {
          want_records += w.warmup_used + w.records;
          want_bits += bits_of(trace_, w.start - w.warmup_used, w.warmup_used + w.records);
        }
        r = s.result;
      }
      EXPECT_EQ(r.trace_records, want_records);
      EXPECT_EQ(r.trace_bits, want_bits);
      if (rd.cursor != nullptr) {
        EXPECT_LE(rd.cursor->max_batch_records(), kChunk);
      }
      results.push_back(r);
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].committed, results[0].committed);
      EXPECT_EQ(results[i].fetched, results[0].fetched);
      EXPECT_EQ(results[i].squashed, results[0].squashed);
      EXPECT_EQ(results[i].major_cycles, results[0].major_cycles);
      EXPECT_EQ(results[i].trace_records, results[0].trace_records);
      EXPECT_EQ(results[i].trace_bits, results[0].trace_bits);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Containers, SourceEquivalence,
                         ::testing::Values(kContainerV2, kContainerV3, kContainerV4),
                         [](const auto& info) { return "v" + std::to_string(info.param); });

// ---- file-reader edge cases ------------------------------------------------

TEST(FileTraceSource, NextPastEndThrows) {
  Trace t;
  t.name = "empty";
  const TempPath path("empty.rsim");
  save_trace(t, path);
  FileTraceSource src(path);
  EXPECT_EQ(src.peek(), nullptr);
  EXPECT_THROW((void)src.next(), std::out_of_range);
}

// Engine identity across the whole suite: the acceptance criterion.
class StreamedSimEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamedSimEquivalence, SimResultIdenticalToInMemory) {
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  TraceGenConfig g;
  g.max_insts = 5000;
  g.bp = cfg.bp;
  g.wrong_path_block = cfg.wrong_path_block();
  const Trace t = TraceGenerator(workload::make_workload(GetParam()), g).generate();

  const TempPath path("suite_" + GetParam() + ".rsim");
  save_trace(t, path);

  VectorTraceSource vsrc(t);
  const auto rv = core::ReSimEngine(cfg, vsrc).run();
  FileTraceSource fsrc(path);
  const auto rf = core::ReSimEngine(cfg, fsrc).run();
  // Constant memory: the cursor never held more than one chunk decoded.
  EXPECT_GT(fsrc.max_batch_records(), 0u);
  EXPECT_LE(fsrc.max_batch_records(), kDefaultChunkRecords);

  EXPECT_EQ(rf.committed, rv.committed);
  EXPECT_EQ(rf.fetched, rv.fetched);
  EXPECT_EQ(rf.wrong_path_fetched, rv.wrong_path_fetched);
  EXPECT_EQ(rf.squashed, rv.squashed);
  EXPECT_EQ(rf.major_cycles, rv.major_cycles);
  EXPECT_EQ(rf.minor_cycles, rv.minor_cycles);
  EXPECT_EQ(rf.trace_records, rv.trace_records);
  EXPECT_EQ(rf.trace_bits, rv.trace_bits);
}

INSTANTIATE_TEST_SUITE_P(Suite, StreamedSimEquivalence,
                         ::testing::ValuesIn(workload::suite_names()),
                         [](const auto& info) { return info.param; });

TEST(FileTraceSource, NextPastEndThrowsAndEmptyTraceLoads) {
  Trace t;
  t.name = "empty";
  const TempPath path("stream_empty.rsim");
  save_trace(t, path, kDefaultChunkRecords, /*compress=*/true);
  FileTraceSource src(path);
  EXPECT_EQ(src.peek(), nullptr);
  EXPECT_THROW((void)src.next(), std::out_of_range);
}

TEST(FileTraceSource, MissingFileRejected) {
  EXPECT_THROW(FileTraceSource("/nonexistent/path/to.trace"), std::runtime_error);
}

// ---- compression ratio on suite workloads ---------------------------------

TEST(TraceFileV3, SuiteWorkloadCompressesAtLeastTwofold) {
  // The acceptance criterion: compressed .rsim for suite workloads at
  // least 2x smaller than v2. Deterministic (seeded tracegen), so this
  // is a stable property of codec + workload, not of the host.
  for (const auto& name : workload::suite_names()) {
    const Trace t = generate(name, 20000);
    const TempPath raw_path("ratio_raw_" + name + ".rsim");
    const TempPath lz_path("ratio_lz_" + name + ".rsim");
    save_trace(t, raw_path);
    save_trace(t, lz_path, kDefaultChunkRecords, /*compress=*/true);
    const auto raw_size = std::filesystem::file_size(raw_path.str());
    const auto lz_size = std::filesystem::file_size(lz_path.str());
    EXPECT_GE(raw_size, 2 * lz_size)
        << name << ": v2 " << raw_size << " bytes, v3 " << lz_size << " bytes";
  }
}

}  // namespace
}  // namespace resim::trace

// ---- streamed jobs in the batch runner ------------------------------------

namespace resim::driver {
namespace {

TEST(BatchRunnerStream, TracePathJobsMatchSharedPreparedTrace) {
  // Config sweep over one prepared on-disk trace: trace_path workers each
  // stream the file (O(chunk) memory) and must match the shared decoded
  // vector bit for bit.
  trace::TraceGenConfig g;
  g.max_insts = 4000;
  auto shared = std::make_shared<trace::Trace>(
      trace::TraceGenerator(workload::make_workload("gzip"), g).generate());
  const TempPath path("trace_path.rsim");
  trace::save_trace(*shared, path);

  std::vector<SimJob> prepared, streamed;
  for (unsigned rob : {8u, 16u}) {
    auto cfg = core::CoreConfig::paper_4wide_perfect();
    cfg.rob_size = rob;
    cfg.lsq_size = rob / 2;
    SimJob job;
    job.label = "rob" + std::to_string(rob);
    job.workload = shared->name;
    job.config = cfg;
    job.trace = shared;
    prepared.push_back(job);
    job.trace = nullptr;
    job.trace_path = path;
    streamed.push_back(job);
  }
  const auto want = BatchRunner(1).run(prepared);
  for (unsigned threads : {1u, 4u}) {
    const auto got = BatchRunner(threads).run(streamed);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(csv_row(got[i]), csv_row(want[i]));
    }
  }
}

// ---- trace.backend dispatch ------------------------------------------------

TEST(BatchRunnerBackend, EveryBackendYieldsIdenticalCsvRows) {
  // The tentpole contract: trace.backend is a host knob, never a result
  // knob. Generated jobs, prepared-trace jobs and trace_path jobs (raw
  // v2 and compressed v3) must produce byte-identical CSV rows on memory
  // and stream, at any thread count, with decode sharing on or off, and
  // through run_one() as through run().
  const std::uint64_t insts = 4000;
  std::vector<SimJob> jobs;
  for (unsigned width : {2u, 4u}) {
    auto cfg = core::CoreConfig::paper_4wide_perfect();
    cfg.width = width;
    cfg.mem_read_ports = width - 1;
    jobs.push_back(SimJob::sweep_point("w" + std::to_string(width), "gzip", cfg, insts));
  }
  const auto baseline = BatchRunner(1).run(jobs);

  const TempPath raw_path("backend_raw.rsim");
  const TempPath lz_path("backend_lz.rsim");
  const auto prepared = std::make_shared<const trace::Trace>(
      trace::TraceGenerator(workload::make_workload("gzip"), jobs[0].gen).generate());
  trace::save_trace(*prepared, raw_path);
  trace::save_trace(*prepared, lz_path, trace::kDefaultChunkRecords, /*compress=*/true);

  for (const auto backend : {core::TraceBackend::kMemory, core::TraceBackend::kStream}) {
    // "" generates, "prepared" shares the decoded trace, the rest are files.
    for (const std::string& path :
         {std::string(), std::string("prepared"), raw_path.str(), lz_path.str()}) {
      for (const bool shared : {true, false}) {
        std::vector<SimJob> variant = jobs;
        for (auto& job : variant) {
          job.config.trace_backend = backend;
          job.config.trace_shared_decode = shared;
          if (path == "prepared") {
            job.trace = prepared;
          } else {
            job.trace_path = path;
          }
        }
        const std::string where = "backend " + std::to_string(static_cast<int>(backend)) +
                                  " input '" + path + "' shared " + std::to_string(shared);
        for (unsigned threads : {1u, 4u}) {
          const auto results = BatchRunner(threads).run(variant);
          ASSERT_EQ(results.size(), baseline.size());
          for (std::size_t i = 0; i < results.size(); ++i) {
            // The config CSV column set carries no backend column, so rows
            // must match the memory baseline byte for byte.
            EXPECT_EQ(csv_row(results[i]), csv_row(baseline[i])) << where << " threads " << threads;
          }
        }
        for (std::size_t i = 0; i < variant.size(); ++i) {
          EXPECT_EQ(csv_row(BatchRunner::run_one(variant[i])), csv_row(baseline[i]))
              << where << " run_one";
        }
      }
    }
  }
}

TEST(BatchRunnerBackend, NoTempContainerOutlivesARun) {
  // Stream jobs without a file read a private resim_job_* temp
  // container. None may survive the run: not after a clean run, grouped
  // or private, and not after a job whose container cannot be written
  // (a branch record with no control type has no encoding).
  const std::string prefix = "resim_job_" + std::to_string(::getpid()) + "_";
  const auto temp_containers = [&prefix] {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path())) {
      n += e.path().filename().string().rfind(prefix, 0) == 0 ? 1 : 0;
    }
    return n;
  };
  ASSERT_EQ(temp_containers(), 0u);

  std::vector<SimJob> jobs;
  for (unsigned rob : {8u, 16u}) {
    auto cfg = core::CoreConfig::paper_4wide_perfect();
    cfg.rob_size = rob;
    cfg.trace_backend = core::TraceBackend::kStream;
    cfg.trace_prefilter = true;
    jobs.push_back(SimJob::sweep_point("rob" + std::to_string(rob), "gzip", cfg, 2000));
  }
  for (const bool shared : {true, false}) {
    for (auto& job : jobs) job.config.trace_shared_decode = shared;
    (void)BatchRunner(2).run(jobs);
    (void)BatchRunner::run_one(jobs[0]);
    EXPECT_EQ(temp_containers(), 0u) << "shared " << shared;
  }

  auto broken = std::make_shared<trace::Trace>(
      trace::TraceGenerator(workload::make_workload("gzip"), jobs[0].gen).generate());
  broken->records.push_back(
      trace::TraceRecord::branch(isa::CtrlType::kCond, true, 0x400000, 0x400100, 1, kNoReg));
  broken->records.back().ctrl = isa::CtrlType::kNone;
  for (auto& job : jobs) job.trace = broken;
  for (const bool shared : {true, false}) {
    for (auto& job : jobs) job.config.trace_shared_decode = shared;
    EXPECT_THROW((void)BatchRunner(2).run(jobs), std::invalid_argument);
    EXPECT_THROW((void)BatchRunner::run_one(jobs[0]), std::invalid_argument);
    EXPECT_EQ(temp_containers(), 0u) << "after a failed write, shared " << shared;
  }
}

TEST(BatchRunnerBackend, PreparedTraceJobRoundTripsUnderFileBackends) {
  // A shared decoded trace under the stream backend round-trips through
  // a private temp file; results must be unchanged (lossless codec).
  trace::TraceGenConfig g;
  g.max_insts = 3000;
  auto shared = std::make_shared<trace::Trace>(
      trace::TraceGenerator(workload::make_workload("vpr"), g).generate());
  SimJob job;
  job.label = "prepared";
  job.workload = shared->name;
  job.config = core::CoreConfig::paper_4wide_perfect();
  job.trace = shared;
  const auto want = BatchRunner::run_one(job);
  SimJob j = job;
  j.config.trace_backend = core::TraceBackend::kStream;
  const auto got = BatchRunner::run_one(j);
  EXPECT_EQ(got.result.committed, want.result.committed);
  EXPECT_EQ(got.result.major_cycles, want.result.major_cycles);
  EXPECT_EQ(got.result.trace_records, want.result.trace_records);
  EXPECT_EQ(got.result.trace_bits, want.result.trace_bits);
}

}  // namespace
}  // namespace resim::driver
