// Simulation statistics registry.
//
// The paper (§V.B) collects sim-outorder-style statistics in 64-bit
// hardware registers "to avoid overflow problems". StatsRegistry holds
// named 64-bit counters plus occupancy accumulators (for IFQ/ROB/LSQ
// average-occupancy statistics) and renders a sim-outorder-like report.
//
// Two access surfaces (docs/STATS.md):
//
//  * Handles — resolve a name ONCE (typically in a stage constructor)
//    and keep the returned Counter&/Occupancy&. Storage is node-stable
//    (std::map nodes never move), so a handle stays valid for the
//    registry's lifetime and every hot-path event is a plain inlined
//    uint64_t increment, not a string lookup.
//  * Strings — counter(name)/occupancy(name)/value(name) for cold paths
//    (tests, exporters, one-shot merges).
//
// Visibility contract: a stat appears in report()/exports only once an
// event has touched it (add()/sample(), including add(0)). Resolving a
// handle alone does not publish the name, so eager handle resolution is
// invisible in the output — reports stay byte-identical with the old
// create-on-first-event behavior.
#ifndef RESIM_COMMON_STATS_H
#define RESIM_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace resim {

/// A single named 64-bit event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_ += n;
    touched_ = true;
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  /// An event has hit this counter (controls report/export visibility).
  [[nodiscard]] bool touched() const { return touched_; }

 private:
  std::uint64_t value_ = 0;
  bool touched_ = false;
};

/// Accumulates per-cycle occupancy samples of a structure.
class Occupancy {
 public:
  void sample(std::uint64_t occupancy) {
    sum_ += occupancy;
    ++samples_;
    if (occupancy > max_) max_ = occupancy;
    touched_ = true;
  }
  [[nodiscard]] double average() const {
    return samples_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(samples_);
  }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] bool touched() const { return touched_; }

  /// Fold another tracker in: the union average weighs each side by its
  /// sample count, the union max is the max of maxima.
  void merge_from(const Occupancy& o) {
    sum_ += o.sum_;
    samples_ += o.samples_;
    if (o.max_ > max_) max_ = o.max_;
    touched_ = true;
  }

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t max_ = 0;
  bool touched_ = false;
};

/// Named registry. Counters and occupancy trackers are created on first
/// use; names are hierarchical by convention ("fetch.insn", "bpred.dir_hits").
/// References returned by counter()/occupancy() are stable handles: the
/// registry owns the slots in node-stable storage, so no later
/// registration invalidates them.
class StatsRegistry {
 public:
  Counter& counter(std::string_view name);
  Occupancy& occupancy(std::string_view name);

  [[nodiscard]] std::uint64_t value(std::string_view name) const;
  [[nodiscard]] bool has_counter(std::string_view name) const;

  /// Fold another registry into this one: touched counters add their
  /// values, touched occupancy trackers merge sums/samples and take the
  /// max of maxima. Untouched (resolved-but-silent) stats are skipped,
  /// so merging never publishes names the source never reported.
  void merge(const StatsRegistry& other);

  /// sim-outorder style text report, one "name  value" line per touched
  /// stat, sorted by name.
  [[nodiscard]] std::string report() const;

  /// Raw storage access (exporters/tests). Iterating callers must honor
  /// the visibility contract and skip entries whose touched() is false.
  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Occupancy, std::less<>>& occupancies() const {
    return occupancies_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Occupancy, std::less<>> occupancies_;
};

}  // namespace resim

#endif  // RESIM_COMMON_STATS_H
