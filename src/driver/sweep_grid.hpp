// Sweep assembly: a spec over a run's machine -> driver::SimJob grid.
// `resim_cli sweep` and the daemon's sweep requests both call
// resolve_sweep() then expand_sweep(), so a spec runs the same machines
// from either. Axes nest in spec order (first axis outermost), a point's
// label is the '/'-joined axis tokens ("gzip/optimized/w4/rob16/2lev"),
// and each derivation below applies unless the sweep pins its target:
//
//   core.lsq_size       = max(2, core.rob_size / 2)
//   core.ifq_size       = max(core.ifq_size, core.width)
//   core.mem_read_ports = max(1, core.width - 1)
//
// Spec `set` lines, axes and every --set (a request's "set" entry) pin;
// a config file is the base machine the derivations scale.
#ifndef RESIM_DRIVER_SWEEP_GRID_H
#define RESIM_DRIVER_SWEEP_GRID_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/sweep_spec.hpp"
#include "driver/batch_runner.hpp"
#include "driver/run.hpp"

namespace resim::driver {

struct SweepGrid {
  std::vector<SimJob> jobs;              ///< cross-product, axis-nesting order
  std::vector<std::string> axis_paths;   ///< param axes (bench excluded)
  /// Axis paths whose values the standard CSV does not already carry;
  /// write_csv appends one column per entry.
  std::vector<std::string> extra_csv_paths;
};

/// Expand the spec. A missing bench axis defaults to {"gzip"} as the
/// outermost axis; the value "all" expands to the whole workload suite.
/// Every point's config is validate()d here, so an invalid corner of the
/// grid fails before any simulation starts, naming the point's label.
[[nodiscard]] SweepGrid expand_spec(const config::SweepSpec& spec);

/// The sweep a run names: `spec` text (`what` in errors) parsed over
/// `base`, the run's config::resolve_machine(); then `sets` re-applied,
/// so they outrank the spec's own `set` lines, and pinned; then `insts`,
/// when given, replacing the spec's.
[[nodiscard]] config::SweepSpec resolve_sweep(std::istream& spec, const std::string& what,
                                              const core::CoreConfig& base,
                                              const std::vector<std::string>& sets,
                                              std::optional<std::uint64_t> insts);

/// expand_spec() for a run. With a prepared trace (`trace_path` set) the
/// bench axis collapses to the container's benchmark name, memory-backend
/// jobs share `load(trace_path)` (called at most once) and stream jobs
/// open the file themselves; otherwise every job generates its own.
[[nodiscard]] SweepGrid expand_sweep(config::SweepSpec spec, const std::string& trace_path,
                                     const TraceLoader& load);

}  // namespace resim::driver

#endif  // RESIM_DRIVER_SWEEP_GRID_H
