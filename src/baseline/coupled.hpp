// Execution-driven coupled simulation: functional simulator feeding the
// timing engine on the fly, with no materialized trace — the FAST-style
// mode the paper anticipates (§I: "can be used in combination with a fast
// functional software simulator to efficiently add the timing information
// on the fly"; §VI: "we also investigate ways to produce the trace on the
// fly directly from a functional simulator").
//
// This module is also the repository's measured software baseline: the
// same coupled pipeline *is* an execution-driven sim-outorder-style
// simulator when run on the host, which is what bench/table2 measures.
#ifndef RESIM_BASELINE_COUPLED_H
#define RESIM_BASELINE_COUPLED_H

#include <vector>

#include "core/engine.hpp"
#include "core/perf.hpp"
#include "trace/tracegen.hpp"
#include "workload/workload.hpp"

namespace resim::baseline {

/// TraceSource that pulls records from a live TraceGenerator, up to one
/// container chunk at a time, into a reused staging vector it lends in
/// place.
class StreamingTraceSource final : public trace::TraceSource {
 public:
  explicit StreamingTraceSource(trace::TraceGenerator& gen) : gen_(gen) {}

  [[nodiscard]] trace::BatchView fetch_view() override {
    if (pos_ == staging_.size()) {
      staging_.clear();
      pos_ = 0;
      while (staging_.size() < trace::kDefaultChunkRecords && gen_.step(staging_) != 0) {
      }
    }
    return {staging_.data() + pos_, staging_.size() - pos_};
  }

  void consume_view(std::size_t n) override {
    check_consume(n, staging_.size() - pos_);
    pos_ += n;
    records_ += n;
  }

  [[nodiscard]] std::uint64_t records_consumed() const override { return records_; }

 private:
  trace::TraceGenerator& gen_;
  std::vector<trace::TraceRecord> staging_;
  std::size_t pos_ = 0;  ///< next unconsumed record in staging_
  std::uint64_t records_ = 0;
};

struct CoupledResult {
  core::SimResult sim;
  double host_seconds = 0;   ///< wall-clock time of the coupled run
  double host_mips = 0;      ///< committed instructions / host second / 1e6
  /// Simulated major cycles / host second / 1e6 — the same engine-core
  /// throughput metric bench/micro_engine_throughput gates in CI, so the
  /// coupled baseline and the trace-driven engine are compared on one
  /// surface.
  double host_mcycles_per_sec = 0;
};

/// Run workload -> (functional sim + predictor) -> timing engine, fused.
[[nodiscard]] CoupledResult run_coupled(const workload::Workload& wl,
                                        const core::CoreConfig& core_cfg,
                                        const trace::TraceGenConfig& gen_cfg);

}  // namespace resim::baseline

#endif  // RESIM_BASELINE_COUPLED_H
