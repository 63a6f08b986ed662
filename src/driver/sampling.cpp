#include "driver/sampling.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "trace/segment.hpp"

namespace resim::driver {

SamplingPlan SamplingPlan::uniform(std::uint64_t total, std::uint64_t k, std::uint64_t w,
                                   std::uint64_t u) {
  SamplingPlan plan;
  plan.window_records = w;
  plan.warmup_records = u;
  plan.total_records = total;
  if (k == 0 || w == 0 || total == 0) {
    plan.validate();  // throws with the precise reason
  }
  const std::uint64_t stride = total / k;
  // Center each window in its stride; when the windows would overlap
  // (K*W >= total) degrade to back-to-back coverage from the front.
  const std::uint64_t offset = stride > w ? (stride - w) / 2 : 0;
  plan.starts.reserve(static_cast<std::size_t>(k));
  std::uint64_t prev_end = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    std::uint64_t start = i * stride + offset;
    if (start < prev_end) start = prev_end;  // keep windows disjoint
    if (start >= total) break;               // trace exhausted: fewer windows
    plan.starts.push_back(start);
    prev_end = start + w;
  }
  plan.validate();
  return plan;
}

SamplingPlan SamplingPlan::from_file(const std::string& path, std::uint64_t total,
                                     std::uint64_t w, std::uint64_t u) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("sampling plan: cannot open '" + path + "'");
  }
  SamplingPlan plan;
  plan.window_records = w;
  plan.warmup_records = u;
  plan.total_records = total;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string tok = line.substr(first, last - first + 1);
    try {
      std::size_t used = 0;
      const std::uint64_t v = std::stoull(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
      plan.starts.push_back(v);
    } catch (const std::exception&) {
      throw std::invalid_argument("sampling plan: " + path + ":" +
                                  std::to_string(lineno) +
                                  ": expected a record index, got '" + tok + "'");
    }
  }
  plan.validate();
  return plan;
}

void SamplingPlan::validate() const {
  if (window_records == 0) {
    throw std::invalid_argument("sampling plan: window_records must be >= 1");
  }
  if (starts.empty()) {
    throw std::invalid_argument("sampling plan: no sample windows (need K >= 1 and a "
                                "non-empty trace)");
  }
  for (std::size_t i = 0; i < starts.size(); ++i) {
    if (i != 0 && starts[i] < starts[i - 1] + window_records) {
      throw std::invalid_argument(
          "sampling plan: window starts must be ascending and non-overlapping "
          "(start[" + std::to_string(i) + "] = " + std::to_string(starts[i]) +
          " < previous start + W = " +
          std::to_string(starts[i - 1] + window_records) + ")");
    }
  }
  if (total_records != 0 && starts.back() >= total_records) {
    throw std::invalid_argument("sampling plan: start " + std::to_string(starts.back()) +
                                " is past the end of the trace (" +
                                std::to_string(total_records) + " records)");
  }
}

SamplingPlan plan_from_config(const core::CoreConfig& cfg, const trace::TraceSource& src) {
  const std::uint64_t total = src.total_records();
  if (total == 0) {
    throw std::invalid_argument(
        "sampled simulation needs the trace length up front; this source reports no "
        "records (a live generator, or an empty trace) — use a prepared .rsim trace");
  }
  return SamplingPlan::uniform(total, cfg.sample.windows, cfg.sample.window_insts,
                               cfg.sample.warmup_insts);
}

namespace {

MetricEstimate estimate(const std::vector<double>& xs) {
  MetricEstimate e;
  if (xs.empty()) return e;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  e.mean = sum / static_cast<double>(xs.size());
  if (xs.size() < 2) return e;
  double ss = 0.0;
  for (const double x : xs) ss += (x - e.mean) * (x - e.mean);
  const double sd = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  e.ci95 = 1.96 * sd / std::sqrt(static_cast<double>(xs.size()));
  return e;
}

}  // namespace

SampledResult run_sampled(const core::CoreConfig& cfg, trace::TraceSource& src,
                          const SamplingPlan& plan, core::IntervalRecorder* intervals) {
  plan.validate();

  trace::SegmentedTraceSource seg(src);
  core::ReSimEngine eng(cfg, seg);

  SampledResult out;
  out.plan_total_records = plan.total_records;
  out.windows.reserve(plan.starts.size());

  for (const std::uint64_t start : plan.starts) {
    // The previous window may already sit past this start (degenerate
    // plans); never seek backwards, just shrink warmup/window to fit.
    std::uint64_t pos = seg.inner_position();
    const std::uint64_t warmup_from =
        start > plan.warmup_records ? start - plan.warmup_records : 0;
    if (warmup_from > pos) {
      seg.skip_gap(warmup_from - pos);
      pos = seg.inner_position();
    }

    // Functional warmup up to the window start (shrunk when the gap was
    // shorter than U).
    std::uint64_t warmup_done = 0;
    if (start > pos) {
      seg.open_segment(start - pos);
      warmup_done = eng.functional_warmup(start - pos);
      seg.close_segment();
      out.warmup_records += warmup_done;
    }

    // Detailed window: run to the segment's end AND pipeline drain, so
    // every fetched record commits or squashes inside its own window.
    const core::Region region0 = eng.region();
    const std::uint64_t consumed0 = seg.records_consumed();

    seg.open_segment(plan.window_records);
    while (eng.step_major_cycle()) {
      if (intervals != nullptr) intervals->after_cycle(eng);
    }
    seg.close_segment();

    const std::uint64_t records = seg.records_consumed() - consumed0;
    out.detailed_records += records;
    if (records != 0) out.windows.push_back({start, warmup_done, records, eng.region() - region0});
  }

  if (intervals != nullptr) intervals->close(eng.region());
  out.result = eng.result();
  out.skipped_records = seg.inner_position() - seg.records_consumed();

  std::vector<double> ipc_xs;
  std::vector<double> mpki_xs;
  std::vector<double> bmpki_xs;
  ipc_xs.reserve(out.windows.size());
  mpki_xs.reserve(out.windows.size());
  bmpki_xs.reserve(out.windows.size());
  for (const auto& w : out.windows) {
    ipc_xs.push_back(w.region.ipc());
    mpki_xs.push_back(w.region.mpki());
    bmpki_xs.push_back(w.region.branch_mpki());
  }
  out.ipc = estimate(ipc_xs);
  out.mpki = estimate(mpki_xs);
  out.branch_mpki = estimate(bmpki_xs);
  return out;
}

}  // namespace resim::driver
