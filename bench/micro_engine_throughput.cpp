// Engine-core simulation throughput: how many simulated cycles and
// committed instructions per host second the ReSimEngine cycle loop
// sustains — the software-side counterpart of the paper's MIPS-scale
// FPGA engine numbers (§V.C, Tables 1/3), and the number the
// handle-based statistics plane exists to protect: with resolve-once
// stat handles the cycle loop does plain uint64_t increments, so this
// bench measures timing logic, not bookkeeping.
//
// Grid: every suite workload x {efficient, optimized} pipeline x
// {memory, stream} trace backend on paper_4wide_perfect, plus the
// perfbench sweep_cache shape for its two workloads (gzip, vpr):
// paper_2wide_cache with the 2lev predictor at ROB 16 and 64 (LSQ =
// ROB/2), where mispredict squashes, real L1s and a large window meet.
// Each point runs `reps` times and keeps the fastest (cold caches and
// scheduler jitter only ever slow a run down). The reps go round-robin:
// rep r of every point runs before rep r+1 of any point, so a slow
// spell of the host costs each point at most the reps it overlaps
// rather than every rep of the points that happened to run during it.
// Every trace is generated once, before the first rep, and kept until
// the last. Every run cross-checks committed/cycle totals against the
// point's first run — backends and reps must be bit-identical (exit 1
// otherwise, and identity_ok=false lands in the JSON for the gate).
//
// Besides the table, the run is saved as machine-readable
// BENCH_engine.json (path override: RESIM_BENCH_JSON env var) with one
// entry per grid point, so the CI perf gate has Minsts/s numbers to
// compare against bench/baselines/BENCH_engine.json (docs/CI.md).
//
//   ./micro_engine_throughput [reps]   (RESIM_BENCH_INSTS sizes traces)
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "trace/file_source.hpp"
#include "trace/writer.hpp"

namespace resim::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// A deterministic trace for `cfg`, paired with its predictor exactly
/// like SimJob::sweep_point, and saved to a temp container of its own
/// for the stream backend (every trace is alive at once).
struct BenchTrace {
  trace::Trace trace;
  std::string rsim_path;

  BenchTrace(const std::string& workload, const core::CoreConfig& cfg, std::uint64_t insts) {
    static int serial = 0;
    trace::TraceGenConfig g;
    g.max_insts = insts;
    g.bp = cfg.bp;
    g.wrong_path_block = cfg.wrong_path_block();
    trace::TraceGenerator gen(workload::make_workload(workload), g);
    trace = gen.generate();
    rsim_path = std::filesystem::temp_directory_path() /
                ("engine_bench_" + std::to_string(getpid()) + "_" + std::to_string(serial++) +
                 "_" + workload + ".rsim");
    trace::save_trace(trace, rsim_path);
  }
  ~BenchTrace() { std::filesystem::remove(rsim_path); }
  BenchTrace(const BenchTrace&) = delete;
  BenchTrace& operator=(const BenchTrace&) = delete;
};

/// One grid point: a configuration over a trace on one backend.
struct Point {
  std::string name;
  core::CoreConfig cfg;
  std::shared_ptr<const BenchTrace> trace;
  bool stream = false;
  double secs = 0;            ///< fastest rep
  std::uint64_t committed = 0;
  std::uint64_t major_cycles = 0;

  [[nodiscard]] double mcycles_per_sec() const {
    return static_cast<double>(major_cycles) / secs / 1e6;
  }
  [[nodiscard]] double minsts_per_sec() const {
    return static_cast<double>(committed) / secs / 1e6;
  }
  [[nodiscard]] double ipc() const {
    return major_cycles == 0
               ? 0.0
               : static_cast<double>(committed) / static_cast<double>(major_cycles);
  }
};

/// Appends the points "<prefix>/memory" and "<prefix>/stream" of `cfg`
/// over `t`.
void add_backends(const std::string& prefix, const core::CoreConfig& cfg,
                  const std::shared_ptr<const BenchTrace>& t, std::vector<Point>& points) {
  for (const bool stream : {false, true}) {
    Point p;
    p.name = prefix + (stream ? "/stream" : "/memory");
    p.cfg = cfg;
    p.trace = t;
    p.stream = stream;
    points.push_back(std::move(p));
  }
}

/// Times one run of `p`, keeping the fastest. Returns false if its
/// committed/cycle totals differ from the point's first run.
bool time_rep(Point& p, int rep) {
  std::unique_ptr<trace::TraceSource> src;
  if (p.stream) {
    src = std::make_unique<trace::FileTraceSource>(p.trace->rsim_path);
  } else {
    src = std::make_unique<trace::VectorTraceSource>(p.trace->trace);
  }
  core::ReSimEngine eng(p.cfg, *src);
  const auto t0 = Clock::now();
  const core::SimResult r = eng.run();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  if (rep == 0) {
    p.committed = r.committed;
    p.major_cycles = r.major_cycles;
    p.secs = secs;
    return true;
  }
  if (secs < p.secs) p.secs = secs;
  if (r.committed != p.committed || r.major_cycles != p.major_cycles) {
    std::cerr << "DETERMINISM VIOLATION at " << p.name << " rep " << rep << '\n';
    return false;
  }
  return true;
}

int run(int reps) {
  const std::uint64_t insts = inst_budget();
  bool identity_ok = true;

  std::vector<Point> points;
  for (const auto& name : workload::suite_names()) {
    const core::CoreConfig base = core::CoreConfig::paper_4wide_perfect();
    const auto t = std::make_shared<const BenchTrace>(name, base, insts);
    for (const auto variant :
         {core::PipelineVariant::kEfficient, core::PipelineVariant::kOptimized}) {
      core::CoreConfig cfg = base;
      cfg.variant = variant;
      add_backends(name + "/" + core::variant_name(variant), cfg, t, points);
    }
  }
  for (const char* name : {"gzip", "vpr"}) {
    for (const unsigned rob : {16u, 64u}) {
      core::CoreConfig cfg = core::CoreConfig::paper_2wide_cache();
      cfg.bp.kind = bpred::DirKind::kTwoLevel;
      cfg.rob_size = rob;
      cfg.lsq_size = rob / 2;
      add_backends(std::string(name) + "/cache2lev_rob" + std::to_string(rob), cfg,
                   std::make_shared<const BenchTrace>(name, cfg, insts), points);
    }
  }

  for (int rep = 0; rep < reps; ++rep) {
    for (Point& p : points) identity_ok &= time_rep(p, rep);
  }

  bench::print_header("engine-core throughput: " + std::to_string(insts) +
                      " insts per workload, best of " + std::to_string(reps) +
                      " round-robin reps");
  std::cout << std::left << std::setw(30) << "point" << std::right << std::setw(12)
            << "Mcycles/s" << std::setw(12) << "Minsts/s" << std::setw(10) << "IPC"
            << '\n';
  bench::print_rule(64);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    // Backend identity: the stream run must commit the memory run's totals.
    if (p.stream && (points[i - 1].committed != p.committed ||
                     points[i - 1].major_cycles != p.major_cycles)) {
      std::cerr << "IDENTITY VIOLATION at " << p.name << ": " << p.committed << "/"
                << p.major_cycles << " vs " << points[i - 1].committed << "/"
                << points[i - 1].major_cycles << '\n';
      identity_ok = false;
    }
    std::cout << std::left << std::setw(30) << p.name << std::right << std::fixed
              << std::setprecision(3) << std::setw(12) << p.mcycles_per_sec() << std::setw(12)
              << p.minsts_per_sec() << std::setw(10) << p.ipc() << '\n';
  }

  const char* json_env = std::getenv("RESIM_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_engine.json";
  std::ofstream jf(json_path);
  if (!jf) {
    std::cerr << "warning: cannot write " << json_path << '\n';
  } else {
    jf << std::fixed << std::setprecision(6);
    jf << "{\n"
       << "  \"bench\": \"micro_engine_throughput\",\n"
       << "  \"insts_per_workload\": " << insts << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"identity_ok\": " << (identity_ok ? "true" : "false") << ",\n"
       << "  \"engine_points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      jf << "    {\"name\": \"" << points[i].name
         << "\", \"mcycles_per_sec\": " << points[i].mcycles_per_sec()
         << ", \"minsts_per_sec\": " << points[i].minsts_per_sec()
         << ", \"ipc\": " << points[i].ipc() << "}"
         << (i + 1 < points.size() ? ",\n" : "\n");
    }
    jf << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << " (" << points.size() << " points)\n";
  }

  return identity_ok ? 0 : 1;
}

}  // namespace
}  // namespace resim::bench

int main(int argc, char** argv) {
  int reps = 3;
  if (argc > 1) {
    const long v = std::strtol(argv[1], nullptr, 10);
    if (v >= 1 && v <= 100) reps = static_cast<int>(v);
  }
  return resim::bench::run(reps);
}
