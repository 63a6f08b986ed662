// Sweep-spec files: a design-space cross-product as declarative text.
//
// Grammar (docs/CONFIG.md):
//
//   # axes, in nesting order (first axis is the outermost loop):
//   bench         = gzip,parser      # workload axis ("all" = whole suite)
//   pipeline.variant = optimized
//   core.width    = 2..8 step 2      # integer range, inclusive
//   core.rob_size = 16,32,64         # value list
//   bp.kind       = 2lev,perfect
//   # scalars:
//   insts         = 100000           # instructions per generated trace
//   set core.mem_write_ports = 2     # fixed base-config override, not an axis
//
// Every bare `path = values` line is an AXIS: its values multiply into
// the cross-product and contribute one label token per point, even when
// single-valued. `set path = value` lines pin a base-config parameter
// without creating an axis. The driver expands a spec into SimJobs
// (driver/sweep_grid.hpp) with labels and CSV columns derived from the
// axes.
#ifndef RESIM_CONFIG_SWEEP_SPEC_H
#define RESIM_CONFIG_SWEEP_SPEC_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace resim::config {

/// One sweep dimension: a parameter path (or the special axis "bench")
/// and its value list in sweep order.
struct SweepAxis {
  std::string path;
  std::vector<std::string> values;
};

struct SweepSpec {
  core::CoreConfig base{};        ///< base config with `set` lines applied
  std::vector<SweepAxis> axes;    ///< in file order; may include "bench"
  std::vector<std::string> pinned;///< paths assigned by `set` lines or axes
  std::uint64_t insts = 100'000;  ///< instructions per generated trace
  bool insts_set = false;         ///< spec contained an `insts` line

  [[nodiscard]] bool is_pinned(const std::string& path) const;
  /// Total cross-product size.
  [[nodiscard]] std::uint64_t point_count() const;
};

/// Expand an axis right-hand side: "a,b,c" list, "A..B [step S]"
/// inclusive integer range, or a single value. Result is non-empty;
/// `what` prefixes errors.
[[nodiscard]] std::vector<std::string> expand_axis_values(const std::string& rhs,
                                                          const std::string& what);

/// Parse spec text over `base`. Param axis values are validated against
/// the ParamRegistry immediately (on a scratch config), so a bad value
/// fails here with file, line and dotted path. `what` names the source.
[[nodiscard]] SweepSpec parse_sweep_spec(std::istream& is, const std::string& what,
                                         const core::CoreConfig& base);
[[nodiscard]] SweepSpec load_sweep_spec_file(const std::string& path,
                                             const core::CoreConfig& base);

}  // namespace resim::config

#endif  // RESIM_CONFIG_SWEEP_SPEC_H
