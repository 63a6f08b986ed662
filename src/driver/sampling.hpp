// SimPoint-style sampled simulation (docs/SAMPLING.md).
//
// A sampled run simulates K detailed windows of W records spread over
// the trace, functionally warms the branch predictor and caches for U
// records before each window, and chunk-skips the gaps unread. Reported
// whole-trace metrics are per-window means with 95% confidence
// intervals (mean ± 1.96·s/√K); the engine-level pooled stats over all
// detailed windows ride along so every existing exporter works
// unchanged.
//
// One engine and one SegmentedTraceSource live for the whole run:
// predictor and cache state persist across windows (warmup refreshes,
// never resets), which is what makes short warmups sufficient.
#ifndef RESIM_DRIVER_SAMPLING_H
#define RESIM_DRIVER_SAMPLING_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/interval.hpp"
#include "trace/reader.hpp"

namespace resim::driver {

/// Where the detailed windows sit in the trace (absolute record
/// indices). Built uniformly from sample.* params or loaded from an
/// explicit plan file (one start index per line, '#' comments).
struct SamplingPlan {
  std::uint64_t window_records = 0;  ///< W: records per detailed window
  std::uint64_t warmup_records = 0;  ///< U: functional-warmup records per window
  std::uint64_t total_records = 0;   ///< trace length the plan was built for
  std::vector<std::uint64_t> starts; ///< ascending, non-overlapping window starts

  /// K windows of W records spread evenly: each window is centered in
  /// its stride when the stride allows, and starts degrade to
  /// back-to-back coverage when K*W exceeds the trace.
  [[nodiscard]] static SamplingPlan uniform(std::uint64_t total, std::uint64_t k,
                                            std::uint64_t w, std::uint64_t u);

  /// Explicit plan file: one absolute record index per line, blank
  /// lines and '#' comments ignored. Starts must be ascending and
  /// non-overlapping (validate() runs on the result).
  [[nodiscard]] static SamplingPlan from_file(const std::string& path, std::uint64_t total,
                                              std::uint64_t w, std::uint64_t u);

  /// Throws std::invalid_argument on an unusable plan (no windows,
  /// W = 0, overlapping/unordered starts, starts past the trace end).
  void validate() const;
};

/// One detailed window: where it sat and its region, which includes its
/// pipeline-drain tail but not the functional warmup before it.
struct SampledWindow {
  std::uint64_t start = 0;        ///< absolute record index the window began at
  std::uint64_t warmup_used = 0;  ///< functional-warmup records actually replayed
  std::uint64_t records = 0;      ///< trace records consumed by the window
  core::Region region;
};

/// Whole-trace estimate of one metric: per-window mean with a 95%
/// confidence half-width (1.96·s/√K, sample stddev; 0 when K < 2).
struct MetricEstimate {
  double mean = 0.0;
  double ci95 = 0.0;
};

struct SampledResult {
  /// Engine result pooled over all detailed windows (stats, committed,
  /// cycles, trace_records — the latter includes warmup records, which
  /// flow through the same source). Feeds the existing exporters.
  core::SimResult result;

  std::vector<SampledWindow> windows;

  MetricEstimate ipc;
  MetricEstimate mpki;
  MetricEstimate branch_mpki;

  std::uint64_t detailed_records = 0;  ///< records simulated in detail
  std::uint64_t warmup_records = 0;    ///< records replayed functionally
  std::uint64_t skipped_records = 0;   ///< records chunk-skipped unread
  std::uint64_t plan_total_records = 0;

  /// Fraction of the trace simulated in detail.
  [[nodiscard]] double coverage() const {
    return plan_total_records == 0
               ? 0.0
               : static_cast<double>(detailed_records) / static_cast<double>(plan_total_records);
  }
};

/// Build the uniform plan cfg.sample.* describes for `src`. Throws
/// std::invalid_argument when the source cannot report its length
/// (total_records() == 0) — sampling needs the trace extent up front.
[[nodiscard]] SamplingPlan plan_from_config(const core::CoreConfig& cfg,
                                            const trace::TraceSource& src);

/// Run the sampled simulation over `src` (consumed in one pass). An
/// optional interval recorder is fed from inside the detailed windows.
/// The plan must be validate()-clean.
[[nodiscard]] SampledResult run_sampled(const core::CoreConfig& cfg, trace::TraceSource& src,
                                        const SamplingPlan& plan,
                                        core::IntervalRecorder* intervals = nullptr);

}  // namespace resim::driver

#endif  // RESIM_DRIVER_SAMPLING_H
