// Parallel design-space batch driver.
//
// ReSim exists for "bulk simulations with varying design parameters"
// (paper §I). A SimJob names one point of that space — a CoreConfig
// applied to one workload's trace — and BatchRunner shards a vector of
// jobs across host cores. Every job is simulated by a worker-private
// ReSimEngine through the one run path (driver/run.hpp), so a parallel
// sweep is deterministic and bit-identical to running the same jobs
// serially: results[i] always corresponds to jobs[i], and no simulation
// state is shared between jobs. Jobs that read the same trace share the
// *decode* work (never simulation state) through one producer per group
// — see run() — so an N-point same-workload sweep decodes each
// container chunk once, not N times.
#ifndef RESIM_DRIVER_BATCH_RUNNER_H
#define RESIM_DRIVER_BATCH_RUNNER_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "trace/tracegen.hpp"
#include "trace/writer.hpp"

namespace resim::driver {

/// One point of a design-space sweep.
///
/// Record-source precedence: `trace_path` (the worker opens the
/// on-disk .rsim itself), then `trace` (prepared decoded trace shared
/// read-only across jobs, the paper's "traces prepared off-line" mode),
/// else the worker generates the trace itself from `workload` and `gen`
/// — trace generation is seeded and therefore deterministic.
///
/// config.trace_backend (the `trace.backend` registry parameter)
/// selects how each job reads records: kMemory decodes the whole trace
/// up front; kStream uses a constant-memory FileTraceSource. A stream
/// job without a file (generated or prepared trace) reads a private temp
/// .rsim, v4 when config.trace_prefilter is set, unlinked as soon as it
/// is open. Both backends are bit-identical in results; only host memory
/// behavior differs.
struct SimJob {
  std::string label;     ///< row label in reports/CSV
  std::string workload;  ///< benchmark name (workload::make_workload registry)
  core::CoreConfig config{};
  trace::TraceGenConfig gen{};
  std::string trace_path;                     ///< optional on-disk .rsim to stream
  std::shared_ptr<const trace::Trace> trace;  ///< optional prepared trace

  /// A sweep point whose trace-generation parameters match the core
  /// configuration (predictor + conservative wrong-path block), the
  /// pairing every paper experiment uses.
  [[nodiscard]] static SimJob sweep_point(std::string label, std::string workload,
                                          const core::CoreConfig& cfg,
                                          std::uint64_t insts);
};

/// A completed job: the configuration it ran plus the engine's result.
struct JobResult {
  std::string label;
  std::string workload;
  core::CoreConfig config{};
  core::SimResult result{};
};

/// Decode-work accounting for one shared-trace job group, read off the
/// group's SharedBatchCache (trace/batch_cache.hpp) after the run. The
/// decode-once CI assertion checks chunks_decoded == chunks_in_trace
/// for a same-workload sweep whose point count fits the worker pool
/// (tools/check_decode_once.py, docs/CI.md).
struct GroupDecodeStats {
  std::string workload;   ///< workload name, or the .rsim path for path groups
  std::size_t members = 0;    ///< jobs that shared this group
  std::size_t consumers = 0;  ///< expected concurrent consumers: min(members, threads)
  std::uint64_t chunks_in_trace = 0;  ///< 0 for memory-backend groups
  std::uint64_t chunks_decoded = 0;   ///< decode events (memory groups: the 1 shared load)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
};

class BatchRunner {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency().
  explicit BatchRunner(unsigned threads = 0);

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run all jobs, sharding across the worker pool. results[i] is
  /// jobs[i]'s outcome regardless of thread count. If a job throws, the
  /// pool stops claiming new jobs and one of the thrown exceptions
  /// (lowest worker index) is rethrown after all workers drain.
  ///
  /// Decode-once fan-out: jobs whose config has trace.shared_decode set
  /// and that read the same record stream (same trace_path, same
  /// prepared trace, or byte-identical generation parameters) form a
  /// group. A group's trace is decoded by one shared producer — a
  /// load_trace for the memory backend, a trace::SharedBatchCache for
  /// the stream backend — instead of once per job, and the runner claims
  /// group members contiguously so the producer engages at any -j.
  /// Grouped stream jobs read through BatchTraceSource. Results are
  /// byte-identical to private decoding in every mode.
  /// `decode_stats`, when non-null, receives one entry per group in
  /// deterministic (first-member) order.
  [[nodiscard]] std::vector<JobResult> run(
      const std::vector<SimJob>& jobs,
      std::vector<GroupDecodeStats>* decode_stats = nullptr) const;

  /// run() over consecutive batches of max(16, 4 x threads) jobs, each
  /// batch's results handed to `done` as it completes, so a long sweep's
  /// rows leave as they finish; concatenated, they equal one run()'s.
  /// `decode_stats`, when non-null, collects every batch's groups.
  void run_batches(const std::vector<SimJob>& jobs,
                   const std::function<void(const std::vector<JobResult>&)>& done,
                   std::vector<GroupDecodeStats>* decode_stats = nullptr) const;

  /// Simulate a single job in the calling thread (always private
  /// decode; the shared producer exists only under run()).
  [[nodiscard]] static JobResult run_one(const SimJob& job);

 private:
  unsigned threads_;
};

// --- CSV emission (resim_cli sweep; byte-stable across thread counts) ------

/// RFC-4180 quoting for free-form fields (labels may contain commas).
[[nodiscard]] std::string csv_escape(const std::string& s);

/// `extra_params` appends one column per ParamRegistry dotted path after
/// the standard config columns — how a sweep spec's non-standard axes
/// (e.g. mem.l1d.assoc) reach the CSV. Empty = today's exact layout.
[[nodiscard]] std::string csv_header(const std::vector<std::string>& extra_params = {});
[[nodiscard]] std::string csv_row(const JobResult& r,
                                  const std::vector<std::string>& extra_params = {});
void write_csv(std::ostream& os, const std::vector<JobResult>& results,
               const std::vector<std::string>& extra_params = {});

// --- sweep resume (resim_cli sweep --resume FILE) --------------------------

/// First CSV field of `line`, RFC-4180 unescaped (quoted labels may hold
/// commas and doubled quotes).
[[nodiscard]] std::string csv_first_field(const std::string& line);

/// The first `fields` unquoted-comma-separated fields of a CSV line,
/// verbatim (no unescaping). Used to compare a done row's configuration
/// columns against the configuration the current sweep would write.
[[nodiscard]] std::string csv_field_prefix(const std::string& line, std::size_t fields);

/// Number of configuration columns a row of this sweep carries before
/// the metric columns begin: label..mem plus one per extra param.
[[nodiscard]] std::size_t csv_config_fields(const std::vector<std::string>& extra_params);

/// What the configuration columns of `job`'s CSV row will look like —
/// computable without running the job, so a resume can detect rows
/// written by a sweep with different parameters. Pass a precomputed
/// csv_config_fields value in `fields` to skip re-deriving it (0 derives).
[[nodiscard]] std::string csv_config_prefix(const SimJob& job,
                                            const std::vector<std::string>& extra_params,
                                            std::size_t fields = 0);

/// What an existing sweep CSV already holds, for `sweep --resume`.
struct ResumeState {
  std::vector<std::string> labels;  ///< labels of the complete rows, in order
  std::vector<std::string> rows;    ///< those rows, verbatim
  std::size_t dropped = 0;          ///< malformed rows ignored (truncated write)
};

/// Parse an existing sweep CSV. The stream's first line must equal
/// `expected_header` — the header this sweep would write — or
/// std::runtime_error is thrown: appending a different grid's rows into
/// the file would silently interleave incompatible columns. Rows whose
/// column count does not match the header (e.g. a line truncated by a
/// crash or a full disk) are counted in `dropped` and NOT treated as
/// done, so their grid points re-run. An empty stream yields an empty
/// state (a fresh file).
[[nodiscard]] ResumeState parse_resume_csv(std::istream& existing,
                                           const std::string& expected_header);

}  // namespace resim::driver

#endif  // RESIM_DRIVER_BATCH_RUNNER_H
