#include "driver/run.hpp"

#include <stdexcept>

#include "trace/segment.hpp"

namespace resim::driver {

std::shared_ptr<const trace::Trace> load_file(const std::string& path) {
  return std::make_shared<const trace::Trace>(trace::load_trace(path));
}

OpenTrace::OpenTrace(const TraceRecords& records) : decoded_(records.decoded) {
  if (decoded_) {
    src_ = std::make_unique<trace::VectorTraceSource>(*decoded_);
    return;
  }
  auto file = std::make_unique<trace::FileTraceSource>(records.path);
  file_ = file.get();
  src_ = std::move(file);
}

const std::string& OpenTrace::name() const {
  return decoded_ ? decoded_->name : file_->trace_name();
}

OpenTrace open_trace(const std::string& path, core::TraceBackend backend,
                     const TraceLoader& load) {
  return OpenTrace({backend == core::TraceBackend::kMemory ? load(path) : nullptr, path});
}

void RunSpec::validate(const core::CoreConfig& cfg) const {
  if (max_records && *max_records < warmup) {
    throw std::invalid_argument(
        "'max_records' (--max-records) caps the total window, warm-up included, and "
        "must be >= 'warmup' (--warmup)");
  }
  if (!sampled(cfg) || !windowed()) return;
  const char* member = skip != 0 ? "'skip' (--skip)"
                       : warmup != 0 ? "'warmup' (--warmup)"
                                     : "'max_records' (--max-records)";
  throw std::invalid_argument(std::string(member) +
                              " describes one window; sampled execution "
                              "(sample.windows > 0 or --plan) places its own windows");
}

namespace {

/// Runs `eng` to its end. Without a recorder this is ReSimEngine::run();
/// with one, every cycle ends with the recorder's boundary compare and
/// the trailing partial interval closes once the pipeline drains.
core::SimResult finish(core::ReSimEngine& eng, core::IntervalRecorder* intervals) {
  if (intervals == nullptr) return eng.run();
  while (eng.step_major_cycle()) intervals->after_cycle(eng);
  intervals->close(eng.region());
  return eng.result();
}

}  // namespace

std::uint64_t RunResult::effective_records() const {
  return is_sampled()
             ? sampled.detailed_records + sampled.warmup_records + sampled.skipped_records
             : skipped + result.trace_records;
}

RunResult run_trace(const core::CoreConfig& cfg, trace::TraceSource& src,
                    const RunSpec& spec) {
  spec.validate(cfg);
  RunResult out;
  if (spec.sampled(cfg)) {
    out.plan = spec.plan ? SamplingPlan::from_file(*spec.plan, src.total_records(),
                                                   cfg.sample.window_insts,
                                                   cfg.sample.warmup_insts)
                         : plan_from_config(cfg, src);
    out.sampled = run_sampled(cfg, src, out.plan, spec.intervals);
    out.result = out.sampled.result;
    return out;
  }
  if (!spec.windowed()) {
    core::ReSimEngine eng(cfg, src);
    out.result = finish(eng, spec.intervals);
    return out;
  }
  // The window is one segment after one chunk-hopping gap.
  trace::SegmentedTraceSource win(src);
  out.skipped = win.skip_gap(spec.skip);
  win.open_segment(spec.max_records.value_or(trace::SegmentedTraceSource::kAll));
  core::ReSimEngine eng(cfg, win);
  // ChampSim-style region run: note the warm-up boundary so the measured
  // region's IPC excludes cold-start transients.
  while (win.records_consumed() < spec.warmup && win.peek() != nullptr &&
         eng.step_major_cycle()) {
    if (spec.intervals != nullptr) spec.intervals->after_cycle(eng);
  }
  out.warm = eng.region();
  out.result = finish(eng, spec.intervals);
  return out;
}

}  // namespace resim::driver
