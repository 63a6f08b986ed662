// Design-space exploration: the use case ReSim exists for ("bulk
// simulations with varying design parameters", paper Section I).
//
// Three declarative sweep specs — machine width, ROB/LSQ window, and
// direction-predictor kind — expanded through the same
// config::SweepSpec -> driver::expand_spec pipeline `resim_cli sweep
// --spec` uses, then sharded across host cores by driver::BatchRunner.
// Each row reports target IPC, modeled FPGA simulation speed and
// estimated area — the reconfigurability payoff. The output is
// identical for any thread count.
//
// A 4th argument selects the trace backend (the `trace.backend`
// registry parameter): "stream" makes every worker simulate from a
// private constant-memory trace::FileTraceSource (each worker's
// generated trace round-tripped through a temp .rsim file); the default
// decodes in memory. Every result row is identical on both backends,
// because the codec is lossless.
//
//   ./design_space [benchmark] [instructions] [threads] [memory|stream]
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "resim/resim.hpp"

namespace {

using namespace resim;

void report(const driver::JobResult& jr) {
  const auto& cfg = jr.config;
  const auto lat = core::PipelineSchedule::latency_of(cfg.variant, cfg.width);
  const auto t = core::fpga_throughput(jr.result, fpga::xc4vlx40().minor_clock_mhz, lat);
  const auto area = fpga::estimate_area(cfg);
  std::cout << std::left << std::setw(34) << jr.label << std::right << std::fixed
            << std::setprecision(3) << std::setw(8) << jr.result.ipc()
            << std::setprecision(2) << std::setw(10) << t.mips << std::setw(12)
            << static_cast<long>(area.total_slices()) << '\n';
}

/// Parse one sweep spec from text and expand it to jobs. Exactly what
/// `resim_cli sweep --spec FILE` does, spec inline instead of on disk.
std::vector<driver::SimJob> expand(const std::string& spec_text,
                                   const std::string& bench, std::uint64_t insts) {
  std::istringstream is("bench = " + bench + "\ninsts = " + std::to_string(insts) +
                        "\n" + spec_text);
  const auto spec =
      config::parse_sweep_spec(is, "<design_space>", core::CoreConfig::paper_4wide_perfect());
  return driver::expand_spec(spec).jobs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "gzip";
  const std::uint64_t insts = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100'000;
  const unsigned threads =
      argc > 3 ? static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10)) : 0;
  const core::TraceBackend backend =
      argc > 4 ? config::trace_backend_of(argv[4]) : core::TraceBackend::kMemory;

  // The sweep: three declarative specs, one SimJob per design point,
  // grouped for the report. Unpinned parameters follow the width-linked
  // derivations (LSQ = ROB/2, IFQ and read ports scale with width).
  const char* const kSpecs[] = {
      "core.width = 2,4,8\n",                              // width sweep
      "core.rob_size = 8,16,32,64\n",                      // window sweep at width 4
      "bp.kind = nottaken,bimodal,gshare,2lev,perfect\n",  // predictor sweep
  };

  std::vector<driver::SimJob> jobs;
  std::vector<std::size_t> group_ends;
  for (const char* spec : kSpecs) {
    auto group = expand(spec, bench, insts);
    jobs.insert(jobs.end(), group.begin(), group.end());
    group_ends.push_back(jobs.size());
  }

  // One line of backend plumbing: the runner reads each job's
  // trace.backend and does the right thing per worker.
  for (auto& job : jobs) job.config.trace_backend = backend;

  const driver::BatchRunner runner(threads);
  std::cout << "design-space exploration on '" << bench << "' (" << insts
            << " instructions per point, " << jobs.size() << " points, "
            << runner.threads() << " host threads, "
            << config::trace_backend_name(backend) << " trace backend)\n\n";
  std::cout << std::left << std::setw(34) << "configuration" << std::right << std::setw(8)
            << "IPC" << std::setw(10) << "MIPS@V4" << std::setw(12) << "slices" << '\n';
  std::cout << std::string(64, '-') << '\n';

  const auto results = runner.run(jobs);
  std::size_t group = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    report(results[i]);
    if (i + 1 == group_ends[group] && i + 1 != results.size()) {
      std::cout << '\n';
      ++group;
    }
  }

  std::cout << "\n(each row is one 'reconfiguration' of ReSim: new parameters, new\n"
               " VHDL generation, same trace — the paper's design-space workflow,\n"
               " written as sweep-spec axes; see docs/CONFIG.md)\n";
  return 0;
}
