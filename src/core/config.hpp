// Simulated-processor configuration (paper §III, §V.C).
//
// ReSim is "designed to be parameterizable"; every structure size below
// is a free parameter. The named factory functions return the exact
// configurations evaluated in the paper.
#ifndef RESIM_CORE_CONFIG_H
#define RESIM_CORE_CONFIG_H

#include <cstdint>

#include "bpred/config.hpp"
#include "cache/memsys.hpp"
#include "core/schedule.hpp"

namespace resim::core {

/// Functional-unit pool (paper §V.C: "four ALUs, one Multiplier and one
/// Divider with one, three and ten cycle latency respectively").
struct FuPoolConfig {
  unsigned alu_count = 4;
  unsigned alu_latency = 1;
  bool alu_pipelined = true;
  unsigned mul_count = 1;
  unsigned mul_latency = 3;
  bool mul_pipelined = true;
  unsigned div_count = 1;
  unsigned div_latency = 10;
  bool div_pipelined = false;

  void validate() const {
    require(alu_count >= 1 && mul_count >= 1 && div_count >= 1,
            "FuPoolConfig: at least one unit per class");
    require(alu_latency >= 1 && mul_latency >= 1 && div_latency >= 1,
            "FuPoolConfig: latencies >= 1");
  }
};

/// How a simulation worker feeds itself trace records (a host-side
/// knob, not a property of the simulated machine): decode the whole
/// trace up front (memory), or stream a .rsim file chunk-at-a-time in
/// O(chunk) RSS (stream). Reflected as the `trace.backend` registry
/// parameter so sweeps can be driven onto either backend declaratively;
/// both produce bit-identical simulation results.
enum class TraceBackend : std::uint8_t { kMemory, kStream };

/// Interval stats + sampled (SimPoint-style) execution knobs
/// (docs/SAMPLING.md). All default to "off": with the defaults every
/// run is the usual full detailed simulation, byte-identical to a build
/// without this struct. Host-side accuracy/latency trade: sampling
/// changes which regions are simulated in detail, so reported stats are
/// estimates of the full run, never a different machine.
struct SampleConfig {
  /// Record a time-series stats row every N committed instructions
  /// (0 = off). Orthogonal to sampling; works in full runs too.
  std::uint64_t interval_insts = 0;

  /// Number K of detailed sample windows (0 = sampling off: full run).
  std::uint64_t windows = 0;

  /// Records per detailed window (W).
  std::uint64_t window_insts = 100'000;

  /// Functional-warmup records replayed into the branch predictor and
  /// caches immediately before each detailed window.
  std::uint64_t warmup_insts = 10'000;

  void validate() const {
    require(window_insts >= 1, "SampleConfig: window_insts >= 1");
  }
};

struct CoreConfig {
  unsigned width = 4;       ///< N: fetch/dispatch/issue/writeback/commit width
  unsigned ifq_size = 8;    ///< instruction fetch queue entries
  unsigned rob_size = 16;   ///< paper: "16 Reorder Buffer entries"
  unsigned lsq_size = 8;    ///< paper: "8 LSQ entries"
  FuPoolConfig fu{};

  unsigned mem_read_ports = 2;   ///< cache read ports available to Issue
  unsigned mem_write_ports = 1;  ///< memory write ports available to Commit

  unsigned misfetch_penalty = 3;  ///< paper: "set to three"
  unsigned misspec_penalty = 3;

  bpred::BPredConfig bp{};
  cache::MemSysConfig mem = cache::MemSysConfig::perfect_memory();

  PipelineVariant variant = PipelineVariant::kOptimized;

  /// Host trace-source backend (never affects simulation results; see
  /// TraceBackend above and docs/CONFIG.md).
  TraceBackend trace_backend = TraceBackend::kMemory;

  /// Share one decoded-batch producer across batch-runner jobs that
  /// read the same trace (trace/batch_cache.hpp), so an N-point sweep
  /// decodes each chunk once instead of N times. Host-side only: results
  /// are byte-identical with it on or off.
  bool trace_shared_decode = true;

  /// Write the v4 delta pre-filter in front of the LZ stage when the
  /// batch runner round-trips records through a temp .rsim
  /// (docs/TRACE_FORMAT.md). Host-side only: the filter is exactly
  /// invertible, so results never change — only the temp file shrinks.
  bool trace_prefilter = false;

  /// `resim_cli serve` backpressure bound: requests queued but not yet
  /// executing before the daemon answers `busy` (docs/SERVE.md).
  /// Host-side only: simulation results never depend on it.
  unsigned serve_max_pending = 64;

  /// `resim_cli serve` idle shutdown: seconds without a connection,
  /// pending request, or running job before the daemon exits on its
  /// own. 0 keeps it alive until a shutdown request or signal.
  /// Host-side only.
  unsigned serve_idle_timeout_s = 0;

  /// Interval stats + sampled execution (defaults: both off — full
  /// detailed runs, outputs unchanged). See SampleConfig above.
  SampleConfig sample{};

  /// Conservative wrong-path window (ROB + IFQ, paper §V.A).
  [[nodiscard]] unsigned wrong_path_block() const { return rob_size + ifq_size; }

  void validate() const;

  /// Table 1 left: 4-issue, two-level BP, perfect memory, Optimized
  /// pipeline (major-cycle latency N+3 = 7).
  [[nodiscard]] static CoreConfig paper_4wide_perfect();

  /// Table 1 right: 2-issue, perfect BP, 32 KB 8-way 64 B L1 I+D caches,
  /// Efficient pipeline (major-cycle latency N+4 = 6).
  [[nodiscard]] static CoreConfig paper_2wide_cache();
};

}  // namespace resim::core

#endif  // RESIM_CORE_CONFIG_H
