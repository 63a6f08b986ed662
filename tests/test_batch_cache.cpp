// SharedBatchCache / BatchTraceSource: decode-once fan-out identity.
//
// The bar for every test here is byte-identity: reading a trace through
// the shared-batch plane (decoded batches, one producer, N consumers) must
// be indistinguishable — records, counters, engine results, sweep CSVs —
// from the private per-job sources it replaces.
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "driver/batch_runner.hpp"
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

/// Saves `t` in the container flavor `flavor` ("v2", "v3", "v4").
TempPath save_flavor(const Trace& t, const std::string& leaf, const std::string& flavor,
                     std::uint32_t chunk_records = 512) {
  TempPath path(leaf + "_" + flavor + ".rsim");
  save_trace(t, path, chunk_records, /*compress=*/flavor != "v2",
             /*prefilter=*/flavor == "v4");
  return path;
}

// ---- engine identity ------------------------------------------------------

TEST(BatchTraceSource, EngineResultsMatchVectorSourceAcrossVersions) {
  const Trace t = generate("gzip", 8000);
  const auto cfg = core::CoreConfig::paper_4wide_perfect();
  VectorTraceSource vsrc(t);
  const auto want = core::ReSimEngine(cfg, vsrc).run();
  for (const std::string flavor : {"v2", "v3", "v4"}) {
    const TempPath path = save_flavor(t, "engine", flavor);
    BatchTraceSource src(std::make_shared<SharedBatchCache>(path));
    const auto got = core::ReSimEngine(cfg, src).run();
    EXPECT_EQ(got.committed, want.committed) << flavor;
    EXPECT_EQ(got.major_cycles, want.major_cycles) << flavor;
    EXPECT_EQ(got.trace_records, want.trace_records) << flavor;
    EXPECT_EQ(got.trace_bits, want.trace_bits) << flavor;
  }
}

// ---- multi-consumer fan-out ----------------------------------------------

TEST(SharedBatchCache, ConcurrentConsumersSeeIdenticalStreamsDecodeOnce) {
  const Trace t = generate("vpr", 12000);
  const TempPath path = save_flavor(t, "fanout", "v3", /*chunk_records=*/256);
  constexpr std::size_t kConsumers = 4;
  const auto cache =
      std::make_shared<SharedBatchCache>(path, /*expected_consumers=*/kConsumers);
  ASSERT_GT(cache->chunk_count(), 2u);

  // Reference digest from a private file source.
  std::uint64_t want_digest = 0;
  std::uint64_t want_records = 0;
  {
    FileTraceSource ref(path);
    while (ref.peek() != nullptr) {
      const TraceRecord r = ref.next();
      want_digest = want_digest * 1099511628211ULL + r.pc * 3 + r.addr * 5 +
                    static_cast<std::uint64_t>(r.fmt);
      ++want_records;
    }
  }

  // Register every consumer BEFORE any of them drains: decode-once is
  // guaranteed for consumers present from the start (eviction needs all
  // registered consumers past a chunk). Late joiners may legitimately
  // re-decode via the capacity-pressure valve — that case is covered by
  // TinyCapacityStillCorrectUnderEvictionPressure.
  std::vector<std::unique_ptr<BatchTraceSource>> sources;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    sources.push_back(std::make_unique<BatchTraceSource>(cache));
  }

  std::vector<std::uint64_t> digests(kConsumers, 0);
  std::vector<std::uint64_t> counts(kConsumers, 0);
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    pool.emplace_back([&, c] {
      try {
        BatchTraceSource& src = *sources[c];
        while (src.peek() != nullptr) {
          const TraceRecord r = src.next();
          digests[c] = digests[c] * 1099511628211ULL + r.pc * 3 + r.addr * 5 +
                       static_cast<std::uint64_t>(r.fmt);
          ++counts[c];
        }
      } catch (...) {
        failed.store(true);
      }
    });
  }
  for (auto& th : pool) th.join();
  sources.clear();
  ASSERT_FALSE(failed.load());
  for (std::size_t c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(digests[c], want_digest) << "consumer " << c;
    EXPECT_EQ(counts[c], want_records) << "consumer " << c;
  }
  // Decode-once: all consumers registered up front and the default
  // capacity covers the backpressure window, so every chunk was decoded
  // exactly once and every other read was a cache hit.
  EXPECT_EQ(cache->chunks_decoded(), cache->chunk_count());
  EXPECT_EQ(cache->hits(), (kConsumers - 1) * cache->chunk_count());
}

TEST(SharedBatchCache, TinyCapacityStillCorrectUnderEvictionPressure) {
  // With a 2-batch cache the consumers serialize behind backpressure
  // and chunks get evicted and re-decoded; correctness (identical
  // streams) must survive even though decode-once does not.
  const Trace t = generate("gzip", 6000);
  const TempPath path = save_flavor(t, "pressure", "v3", /*chunk_records=*/128);
  constexpr std::size_t kConsumers = 3;
  const auto cache = std::make_shared<SharedBatchCache>(path, kConsumers,
                                                        /*capacity=*/2);
  std::vector<std::uint64_t> counts(kConsumers, 0);
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    pool.emplace_back([&, c] {
      try {
        BatchTraceSource src(cache);
        while (src.peek() != nullptr) {
          (void)src.next();
          ++counts[c];
        }
      } catch (...) {
        failed.store(true);
      }
    });
  }
  for (auto& th : pool) th.join();
  ASSERT_FALSE(failed.load());
  for (std::size_t c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(counts[c], t.records.size()) << "consumer " << c;
  }
  EXPECT_GE(cache->chunks_decoded(), cache->chunk_count());
  EXPECT_GT(cache->evictions(), 0u);
}

TEST(SharedBatchCache, InterleavedSegmentedConsumersStayIndependent) {
  // A sweep gives every job its own BatchTraceSource over one
  // SharedBatchCache; each job's window hops to a different region.
  // Interleaved cursors must each see exactly their own slice.
  Trace t = generate("parser", 4000);
  ASSERT_GE(t.records.size(), 2348u);
  t.records.resize(2348);  // 4 full 512-record chunks + a 300-record tail
  const TempPath path = save_flavor(t, "multi", "v2");

  auto cache = std::make_shared<SharedBatchCache>(path, /*expected_consumers=*/2);
  BatchTraceSource a(cache);
  BatchTraceSource b(cache);
  SegmentedTraceSource wa(a);
  SegmentedTraceSource wb(b);
  (void)wa.skip_gap(100);   // window over chunks 0-1
  wa.open_segment(600);
  (void)wb.skip_gap(1700);  // window over chunks 3-4
  wb.open_segment(500);
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(records_equal(wa.next(), t.records[100 + i]));
    ASSERT_TRUE(records_equal(wb.next(), t.records[1700 + i]));
  }
  for (std::uint64_t i = 500; i < 600; ++i) {
    ASSERT_TRUE(records_equal(wa.next(), t.records[100 + i]));
  }
  EXPECT_EQ(wa.peek(), nullptr);
  EXPECT_EQ(wb.peek(), nullptr);
  EXPECT_EQ(wa.records_consumed(), 600u);
  EXPECT_EQ(wb.records_consumed(), 500u);
  EXPECT_EQ(b.chunks_skipped(), 3u);
}

// ---- batch-runner grouping ------------------------------------------------

/// A same-workload grid: N configurations over one workload.
std::vector<driver::SimJob> same_workload_grid(core::TraceBackend backend,
                                               bool shared_decode) {
  std::vector<driver::SimJob> jobs;
  for (unsigned width : {2u, 4u}) {
    for (unsigned rob : {16u, 32u}) {
      auto job = driver::SimJob::sweep_point(
          "gzip/w" + std::to_string(width) + "r" + std::to_string(rob), "gzip",
          core::CoreConfig::paper_4wide_perfect(), 4000);
      job.config.width = width;
      job.config.mem_read_ports = std::max(1u, width - 1);
      job.config.rob_size = rob;
      job.config.trace_backend = backend;
      job.config.trace_shared_decode = shared_decode;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(BatchRunnerSharedDecode, CsvByteIdenticalAcrossThreadsBackendsAndSharing) {
  // The tentpole's outer contract: sweep CSV bytes never depend on -j,
  // on the trace backend, or on whether the shared producer engaged.
  std::string reference;
  for (const auto backend : {core::TraceBackend::kMemory, core::TraceBackend::kStream}) {
    for (const bool shared : {true, false}) {
      for (const unsigned threads : {1u, 4u}) {
        const driver::BatchRunner runner(threads);
        const auto results = runner.run(same_workload_grid(backend, shared));
        std::ostringstream csv;
        driver::write_csv(csv, results);
        if (reference.empty()) {
          reference = csv.str();
          ASSERT_FALSE(reference.empty());
        } else {
          EXPECT_EQ(csv.str(), reference)
              << "backend=" << static_cast<int>(backend) << " shared=" << shared
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(BatchRunnerSharedDecode, DecodeStatsReportDecodeOnceForFileBackends) {
  const driver::BatchRunner runner(4);
  std::vector<driver::GroupDecodeStats> stats;
  const auto results =
      runner.run(same_workload_grid(core::TraceBackend::kStream, true), &stats);
  EXPECT_EQ(results.size(), 4u);
  ASSERT_EQ(stats.size(), 1u) << "one same-workload group expected";
  EXPECT_EQ(stats[0].members, 4u);
  EXPECT_GT(stats[0].chunks_in_trace, 0u);
  EXPECT_EQ(stats[0].chunks_decoded, stats[0].chunks_in_trace)
      << "decode-once violated: " << stats[0].chunks_decoded << " decodes for "
      << stats[0].chunks_in_trace << " chunks";
}

TEST(BatchRunnerSharedDecode, SharedDecodeOffFormsNoGroups) {
  const driver::BatchRunner runner(2);
  std::vector<driver::GroupDecodeStats> stats;
  (void)runner.run(same_workload_grid(core::TraceBackend::kStream, false), &stats);
  EXPECT_TRUE(stats.empty());
}

TEST(BatchRunnerSharedDecode, PrefilterRoundTripKeepsResultsIdentical) {
  // trace.prefilter switches the temp container to v4, the group's and
  // each private job's alike: the CSV must not move by a byte.
  const driver::BatchRunner runner(2);
  for (const bool shared : {true, false}) {
    auto plain = same_workload_grid(core::TraceBackend::kStream, shared);
    auto filtered = same_workload_grid(core::TraceBackend::kStream, shared);
    for (auto& job : filtered) job.config.trace_prefilter = true;
    std::ostringstream a, b;
    driver::write_csv(a, runner.run(plain));
    driver::write_csv(b, runner.run(filtered));
    EXPECT_EQ(a.str(), b.str()) << "shared " << shared;
  }
}

}  // namespace
}  // namespace resim::trace
