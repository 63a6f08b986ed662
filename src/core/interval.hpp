// Interval statistics: a time series of per-interval IPC/MPKI rows
// (docs/SAMPLING.md §"Interval stats").
//
// The driver's stepping loop feeds the recorder after every cycle; the
// engine knows nothing of it. Each time the committed count reaches the
// next multiple of `interval_insts`, the recorder reads
// ReSimEngine::region() and keeps the difference from the previous
// boundary as one compact row; exporters render the rows as columnar
// CSV/JSON (driver/result_export.hpp).
#ifndef RESIM_CORE_INTERVAL_H
#define RESIM_CORE_INTERVAL_H

#include <cstdint>
#include <vector>

#include "core/engine.hpp"

namespace resim::core {

/// One interval of the time series: its region (interval-local counts)
/// and the cumulative position it ended at, so plots have an x-axis
/// without re-summing.
struct IntervalRow {
  std::uint64_t index = 0;      ///< 0-based interval number
  std::uint64_t end_inst = 0;   ///< cumulative committed insts at the boundary
  std::uint64_t end_cycle = 0;  ///< cumulative major cycles at the boundary
  Region region;
};

/// Accumulates the interval time series for one engine run: call
/// after_cycle() after every cycle and close() once the run drains (the
/// trailing partial interval). A recorder with interval_insts 0 records
/// nothing.
class IntervalRecorder {
 public:
  explicit IntervalRecorder(std::uint64_t interval_insts)
      : interval_insts_(interval_insts),
        next_(interval_insts == 0 ? ~std::uint64_t{0} : interval_insts) {}

  /// One compare: closes the interval once the engine's commits reach
  /// the next boundary.
  void after_cycle(const ReSimEngine& eng) {
    if (eng.committed() >= next_) close(eng.region());
  }

  /// Close the current interval at reading `now`. A call with no new
  /// committed instructions is a no-op, so closing twice (or at the end
  /// of a run that drained exactly on a boundary) never emits an empty
  /// row.
  void close(const Region& now);

  [[nodiscard]] const std::vector<IntervalRow>& rows() const { return rows_; }

 private:
  std::uint64_t interval_insts_;
  /// Committed count of the next boundary; width commits can overshoot
  /// one, so close() moves it past the current count. ~0 records nothing.
  std::uint64_t next_;
  Region last_{};
  std::vector<IntervalRow> rows_;
};

}  // namespace resim::core

#endif  // RESIM_CORE_INTERVAL_H
