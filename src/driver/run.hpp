// The one run path: `resim_cli sim` and `stats`, a served `sim` and
// every BatchRunner job open their trace and run it here.
//
//   opening  trace.backend picks the reader: the memory backend reads a
//            decoded trace (a TraceLoader's, for a path: the CLI decodes
//            the file, the daemon lends its resident copy), stream
//            reads the container chunk by chunk;
//   running  sampled when sample.windows > 0 or a plan file is given,
//            else one skip -> warm-up -> max-records window; a
//            whole-trace run drives the engine on the source directly.
#ifndef RESIM_DRIVER_RUN_H
#define RESIM_DRIVER_RUN_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/engine.hpp"
#include "core/interval.hpp"
#include "driver/sampling.hpp"
#include "trace/file_source.hpp"

namespace resim::driver {

/// Hands out the decoded trace at a path, for the memory backend.
using TraceLoader =
    std::function<std::shared_ptr<const trace::Trace>(const std::string& path)>;

/// The CLI's TraceLoader: decodes the file on every call.
[[nodiscard]] std::shared_ptr<const trace::Trace> load_file(const std::string& path);

/// A trace as its backend reads it: decoded records (memory), else the
/// container at `path` (stream).
struct TraceRecords {
  std::shared_ptr<const trace::Trace> decoded;
  std::string path;
};

/// One trace opened for one run; owns the source the run reads.
class OpenTrace {
 public:
  /// Decoded records are read in place; a container is streamed.
  explicit OpenTrace(const TraceRecords& records);

  [[nodiscard]] trace::TraceSource& source() const { return *src_; }
  [[nodiscard]] const std::string& name() const;
  /// The container reader; nullptr for decoded records.
  [[nodiscard]] const trace::FileTraceSource* file() const { return file_; }

 private:
  std::shared_ptr<const trace::Trace> decoded_;
  std::unique_ptr<trace::TraceSource> src_;
  const trace::FileTraceSource* file_ = nullptr;
};

/// Opens `path` for `backend`, the memory backend reading `load(path)`.
[[nodiscard]] OpenTrace open_trace(const std::string& path, core::TraceBackend backend,
                                   const TraceLoader& load);

/// What a run simulates besides its machine; the defaults run the whole
/// trace (sampled when cfg.sample.windows > 0).
struct RunSpec {
  std::uint64_t skip = 0;    ///< records chunk-skipped before the window
  std::uint64_t warmup = 0;  ///< leading window records outside the measured region
  std::optional<std::uint64_t> max_records;  ///< window cap, warm-up included
  std::optional<std::string> plan;           ///< sampling plan file (`sim --plan`)
  core::IntervalRecorder* intervals = nullptr;

  [[nodiscard]] bool windowed() const { return skip != 0 || warmup != 0 || max_records; }
  [[nodiscard]] bool sampled(const core::CoreConfig& cfg) const {
    return cfg.sample.windows > 0 || plan;
  }
  /// Throws std::invalid_argument naming the member (and its `sim` flag)
  /// when max_records < warmup, or when a sampled run is given a window.
  void validate(const core::CoreConfig& cfg) const;
};

struct RunResult {
  core::SimResult result;  ///< sampled runs: pooled over the windows
  SamplingPlan plan;       ///< sampled runs only: no starts otherwise
  SampledResult sampled;   ///< sampled runs only
  std::uint64_t skipped = 0;  ///< windowed runs: records skipped unread
  core::Region warm;          ///< windowed runs: the engine's region() when the warm-up ended

  [[nodiscard]] bool is_sampled() const { return !plan.starts.empty(); }
  /// Every record the run got past: skipped, warmed and simulated.
  [[nodiscard]] std::uint64_t effective_records() const;
};

/// The one run: `spec` validate()d, then `src` consumed in one pass.
[[nodiscard]] RunResult run_trace(const core::CoreConfig& cfg, trace::TraceSource& src,
                                  const RunSpec& spec = {});

}  // namespace resim::driver

#endif  // RESIM_DRIVER_RUN_H
