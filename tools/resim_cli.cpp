// resim_cli — command-line front end, SimpleScalar-style: gen, sim,
// stats, sweep, params, serve, client, schedule and vhdl (usage() below
// lists each command's flags; run with no arguments to print it).
//
// Every simulated-machine knob is a ParamRegistry dotted path
// (docs/CONFIG.md). sim, stats, params, serve and sweep resolve their
// machine the way the daemon resolves a request (config::resolve_machine):
// defaults < --config FILE < --set k=v, left to right. The shorthands
// --width --rob --lsq --ifq --ports --variant --bp --backend are pure
// sugar for a --set of one parameter, placed before the explicit ones.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <atomic>
#include <csignal>

#include "config/config_file.hpp"
#include "config/names.hpp"
#include "config/param_registry.hpp"
#include "config/sweep_spec.hpp"
#include "core/cmp.hpp"
#include "core/interval.hpp"
#include "driver/result_export.hpp"
#include "driver/sweep_grid.hpp"
#include "resim/resim.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace resim;

struct Args {
  std::map<std::string, std::string> kv;  ///< last occurrence wins
  std::vector<std::string> sets;          ///< every --set, in order
};

// A flag token is "--name" or a short "-x" (exactly one character, so
// values like "-results.csv" or "-3" still parse as values).
bool is_flag_token(const std::string& s) {
  if (s.rfind("--", 0) == 0) return s.size() > 2;
  return s.size() == 2 && s[0] == '-' && std::isalpha(static_cast<unsigned char>(s[1]));
}

/// The only flags that take no value; every other flag requires one.
bool is_boolean_flag(const std::string& key) {
  return key == "report" || key == "markdown" ||
         key == "compress" || key == "prefilter" || key == "protocol-markdown" ||
         key == "sim" || key == "sweep" || key == "ping" || key == "status" ||
         key == "shutdown";
}

/// The one-parameter shorthands: `--rob 32` is `--set core.rob_size=32`.
constexpr std::pair<const char*, const char*> kAliases[] = {
    {"width", "core.width"},          {"rob", "core.rob_size"},
    {"lsq", "core.lsq_size"},         {"ifq", "core.ifq_size"},
    {"ports", "core.mem_read_ports"}, {"variant", "pipeline.variant"},
    {"bp", "bp.kind"},                {"backend", "trace.backend"},
};

/// A command: its entry point and the flags it reads. Machine commands
/// also read --config, --set and the kAliases shorthands. Any other flag
/// is refused by name, so a typo cannot silently run another machine.
struct Command {
  int (*run)(const Args&);
  const char* flags;  ///< space-separated
  bool machine;
};

bool accepts(const Command& c, const std::string& flag) {
  const bool alias = std::any_of(std::begin(kAliases), std::end(kAliases),
                                 [&](const auto& al) { return flag == al.first; });
  if (c.machine && (alias || flag == "config" || flag == "set")) return true;
  return (' ' + std::string(c.flags) + ' ').find(' ' + flag + ' ') != std::string::npos;
}

Args parse_args(int argc, char** argv, const Command& cmd) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string tok = argv[i];
    if (!is_flag_token(tok)) {
      throw std::invalid_argument("expected --flag, got: " + tok);
    }
    const std::string key = tok.substr(tok.rfind("--", 0) == 0 ? 2 : 1);
    if (!accepts(cmd, key)) throw std::invalid_argument("unknown flag " + tok);
    // insert_or_assign with an explicit std::string sidesteps GCC 12's
    // -Wrestrict false positive on map::operator[] + char* assign at -O3.
    if (is_boolean_flag(key)) {
      args.kv.insert_or_assign(key, std::string("1"));
    } else if (i + 1 < argc && !is_flag_token(argv[i + 1])) {
      if (key == "set") {
        args.sets.emplace_back(argv[++i]);
      } else {
        args.kv.insert_or_assign(key, std::string(argv[++i]));
      }
    } else {
      throw std::invalid_argument("flag " + tok + " requires a value");
    }
  }
  return args;
}

std::string get(const Args& a, const std::string& key, const std::string& def) {
  const auto it = a.kv.find(key);
  return it == a.kv.end() ? def : it->second;
}

bool has(const Args& a, const std::string& key) { return a.kv.count(key) != 0; }

/// The flag as it is spelled on the command line: -j, --insts.
std::string flag_name(const std::string& key) { return (key.size() == 1 ? "-" : "--") + key; }

/// The flag's value as a T, or `def` when it is absent. A value T cannot
/// hold is refused by flag name, never narrowed.
template <class T = std::uint64_t>
T get_num(const Args& a, const std::string& key, std::type_identity_t<T> def) {
  const auto it = a.kv.find(key);
  if (it == a.kv.end()) return def;
  const std::uint64_t v = config::parse_u64(it->second, flag_name(key));
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (v > kMax) {
    throw std::invalid_argument(flag_name(key) + ": " + it->second + " exceeds " +
                                std::to_string(kMax));
  }
  return static_cast<T>(v);
}

/// Every `--set` the command line names: the aliases, then each --set.
std::vector<std::string> sets_of(const Args& a) {
  std::vector<std::string> sets;
  for (const auto& [flag, path] : kAliases) {
    if (has(a, flag)) sets.push_back(std::string(path) + '=' + get(a, flag, ""));
  }
  sets.insert(sets.end(), a.sets.begin(), a.sets.end());
  return sets;
}

/// Whole-file read (config text to resolve, or --config/--spec contents
/// to inline into a request).
std::string slurp_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The run's machine (config::resolve_machine), not yet validated.
core::CoreConfig machine_of(const Args& a, std::vector<std::string>* assigned = nullptr) {
  const std::string path = get(a, "config", "");
  return config::resolve_machine(has(a, "config") ? slurp_file(path) : "", path, sets_of(a),
                                 assigned);
}

core::CoreConfig validated_machine_of(const Args& a) {
  core::CoreConfig cfg = machine_of(a);
  cfg.validate();
  return cfg;
}

int cmd_gen(const Args& a) {
  const std::string bench = get(a, "bench", "gzip");
  const std::string out = get(a, "out", bench + ".rsim");
  trace::TraceGenConfig g;
  g.max_insts = get_num(a, "insts", 1'000'000);
  g.bp.kind = config::dir_kind_of(get(a, "bp", "2lev"));
  const std::uint64_t chunk = get_num(a, "chunk", trace::kDefaultChunkRecords);
  if (chunk == 0 || chunk > trace::kMaxChunkRecords) {
    // Guard before any work: chunk_records sizes every chunk-count
    // division downstream, so 0 must die here, loudly, not as a
    // divide-by-zero or a headerless file.
    throw std::invalid_argument("--chunk: must be in [1, " +
                                std::to_string(trace::kMaxChunkRecords) + "]");
  }
  trace::TraceGenerator gen(workload::make_workload(bench), g);
  const trace::Trace t = gen.generate();
  const bool compress = has(a, "compress");
  const bool prefilter = has(a, "prefilter");
  if (prefilter && !compress) {
    throw std::invalid_argument("--prefilter requires --compress (the delta "
                                "filter feeds the LZ stage; docs/TRACE_FORMAT.md)");
  }
  trace::save_trace(t, out, static_cast<std::uint32_t>(chunk), compress, prefilter);
  std::cout << "wrote " << out << ": " << trace::analyze(t).summary() << '\n';
  if (compress) {
    // Ratio defined exactly as the CI gate and the benches define it:
    // the bytes an uncompressed v2 container of this trace would take,
    // over the v3/v4 file actually written.
    std::uint64_t v2_bytes = 4 + 4 + 4 + t.name.size() + 8 + 8 + 4 + 4;
    for (std::uint64_t first = 0; first < t.records.size(); first += chunk) {
      const std::uint64_t n = std::min<std::uint64_t>(chunk, t.records.size() - first);
      std::uint64_t bits = 0;
      for (std::uint64_t i = 0; i < n; ++i) bits += trace::encoded_bits(t.records[first + i]);
      v2_bytes += 8 + (bits + 7) / 8;  // chunk header + byte-aligned payload
    }
    const auto file_bytes = std::filesystem::file_size(out);
    std::cout << "compressed (container v" << (prefilter ? 4 : 3) << "): "
              << file_bytes << " bytes on disk vs "
              << v2_bytes << " uncompressed (v2), "
              << static_cast<double>(v2_bytes) / static_cast<double>(file_bytes)
              << "x smaller\n";
  }
  return 0;
}

int cmd_stats(const Args& a) {
  // stats itself is configuration-independent, but --config/--set are
  // still resolved and validated so the command doubles as a config
  // checker next to a trace inspection. The resolved trace.backend also
  // drives how this very inspection reads the file.
  const auto cfg = validated_machine_of(a);
  const driver::OpenTrace in =
      driver::open_trace(get(a, "trace", "trace.rsim"), cfg.trace_backend, driver::load_file);
  const trace::TraceStats s = trace::analyze(in.source());
  std::cout << in.name() << ": " << s.summary() << '\n'
            << "  loads " << s.load_records << ", stores " << s.store_records
            << ", branches " << s.branch_records << '\n'
            << "  branch fraction " << s.branch_fraction() << ", mem fraction "
            << s.mem_fraction() << '\n';
  return 0;
}

int cmd_sim(const Args& a) {
  const auto cfg = validated_machine_of(a);
  driver::RunSpec spec;
  spec.skip = get_num(a, "skip", 0);
  spec.warmup = get_num(a, "warmup", 0);
  if (has(a, "max-records")) spec.max_records = get_num(a, "max-records", 0);
  if (has(a, "plan")) spec.plan = get(a, "plan", "");
  spec.validate(cfg);  // before the trace is opened
  if (has(a, "intervals") && cfg.sample.interval_insts == 0) {
    throw std::invalid_argument(
        "--intervals needs an interval length: --set sample.interval_insts=N");
  }
  core::IntervalRecorder intervals(cfg.sample.interval_insts);
  if (cfg.sample.interval_insts > 0) spec.intervals = &intervals;

  const driver::OpenTrace in =
      driver::open_trace(get(a, "trace", "trace.rsim"), cfg.trace_backend, driver::load_file);
  const auto wall0 = std::chrono::steady_clock::now();
  const driver::RunResult run = driver::run_trace(cfg, in.source(), spec);
  const core::SimResult& r = run.result;
  const unsigned sched_latency =
      core::PipelineSchedule::make(cfg.variant, cfg.width).latency();
  if (run.is_sampled()) {
    const driver::SampledResult& sr = run.sampled;
    std::cout << "trace " << in.name() << ": sampled " << sr.windows.size() << " windows x "
              << run.plan.window_records << " records (warmup " << run.plan.warmup_records
              << "), " << 100.0 * sr.coverage() << "% of " << run.plan.total_records
              << " records in detail\n"
              << "engine: " << core::variant_name(cfg.variant) << " pipeline, "
              << sched_latency << " minors/major\n"
              << "sampled: detailed " << sr.detailed_records << " records, warmup "
              << sr.warmup_records << ", chunk-skipped " << sr.skipped_records
              << " unread\n"
              << "estimate ipc " << sr.ipc.mean << " +/- " << sr.ipc.ci95
              << " (95% CI over " << sr.windows.size() << " windows)\n"
              << "estimate mpki " << sr.mpki.mean << " +/- " << sr.mpki.ci95 << '\n'
              << "estimate branch_mpki " << sr.branch_mpki.mean << " +/- "
              << sr.branch_mpki.ci95 << '\n';
  } else {
    const auto& dev = fpga::device_by_name(get(a, "device", "xc4vlx40"));
    const auto rpt = core::fpga_throughput(r, dev.minor_clock_mhz, sched_latency);
    std::cout << "trace " << in.name() << ": committed " << r.committed << " insts, "
              << r.major_cycles << " cycles, IPC " << r.ipc() << '\n'
              << "engine: " << core::variant_name(cfg.variant) << " pipeline, "
              << sched_latency << " minors/major, " << r.minor_cycles
              << " minor cycles\n"
              << dev.name << ": " << rpt.mips << " MIPS ("
              << rpt.mips_processed << " incl. wrong path), trace feed "
              << rpt.trace_mbytes_per_sec << " MB/s\n";
    if (spec.windowed()) {
      std::cout << "window: skipped " << spec.skip << " records, warm-up " << spec.warmup
                << ", simulated " << r.trace_records << " records\n";
      if (in.file() != nullptr) {
        std::cout << "window: chunk-skip seek jumped " << in.file()->chunks_skipped()
                  << " chunks unread\n";
      }
    }
    if (spec.warmup > 0) {
      // The window's records all flowed through the warm-up first.
      if (r.trace_records < spec.warmup) {
        std::cout << "warning: trace ended during warm-up (" << r.trace_records << " of "
                  << spec.warmup << " records); no measured region\n";
      } else {
        const core::Region m{r.committed - run.warm.committed,
                             r.major_cycles - run.warm.cycles};
        std::cout << "measured region (post warm-up): committed " << m.committed << " in "
                  << m.cycles << " cycles, IPC " << m.ipc() << '\n';
      }
    }
  }
  // Effective host throughput counts every record the run got past —
  // skipped, warmed and simulated — so sampling wins are visible from
  // the CLI. On stderr: the stdout report is a byte-identity surface
  // (CI gates), and wall-clock timing is never reproducible.
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  if (wall_s > 0.0) {
    std::cerr << "timing: " << static_cast<double>(run.effective_records()) / wall_s / 1e6
              << " effective Minsts/s (" << run.effective_records() << " records incl. "
                 "skipped/warmup in " << wall_s << " s)\n";
  }
  if (has(a, "intervals")) {
    const std::string ipath = get(a, "intervals", "");
    std::ofstream f(ipath);
    if (!f) throw std::runtime_error("cannot open output file: " + ipath);
    const bool as_json =
        ipath.size() >= 5 && ipath.compare(ipath.size() - 5, 5, ".json") == 0;
    if (as_json) {
      driver::write_intervals_json(f, intervals.rows(), cfg.sample.interval_insts);
    } else {
      driver::write_intervals_csv(f, intervals.rows());
    }
    std::cout << "intervals: wrote " << intervals.rows().size() << " x "
              << cfg.sample.interval_insts << "-inst rows to " << ipath << '\n';
  }
  if (has(a, "report")) {
    std::cout << "\n-- statistics --\n" << r.stats.report();
  }
  if (has(a, "json")) {
    std::ofstream f(get(a, "json", ""));
    if (!f) throw std::runtime_error("cannot open output file: " + get(a, "json", ""));
    f << driver::result_json({in.name(), in.name(), cfg, r}) << '\n';
  }
  return 0;
}

// Cross-product design-space sweep sharded across host cores
// (driver::BatchRunner). Output is a CSV, byte-identical for any -j.
// The grid is assembled exactly as a served sweep request's is
// (driver::resolve_sweep, then driver::expand_sweep).
int cmd_sweep(const Args& a) {
  if (!has(a, "spec")) {
    throw std::invalid_argument("needs --spec FILE (sweep-spec grammar: docs/CONFIG.md)");
  }
  const driver::BatchRunner runner(get_num<unsigned>(a, "j", 1));
  // --resume warns about the --config parameters no CSV column records.
  std::vector<std::string> named;
  const core::CoreConfig base = machine_of(a, &named);
  const std::string spec_path = get(a, "spec", "");
  std::istringstream spec_text(slurp_file(spec_path));
  const std::optional<std::uint64_t> insts =
      has(a, "insts") ? std::optional(get_num(a, "insts", 0)) : std::nullopt;
  const config::SweepSpec spec =
      driver::resolve_sweep(spec_text, spec_path, base, sets_of(a), insts);

  // --trace FILE sweeps configurations over one prepared trace instead
  // of generating per job; the CSV is byte-identical across backends.
  auto grid = driver::expand_sweep(spec, get(a, "trace", ""), driver::load_file);

  // --resume FILE: the grid points whose complete label row already
  // exists in FILE are skipped; the rest run in batches, each batch
  // appended and flushed as it completes, so an interrupted resume run
  // itself leaves its finished rows behind for the next attempt. The
  // file's header must match the header this sweep would write (same
  // axes/extra columns), otherwise resuming is refused; rows truncated
  // by a crash are dropped from the file and their points re-run.
  const std::string resume = get(a, "resume", "");
  std::size_t resumed_skipped = 0;
  if (!resume.empty()) {
    if (has(a, "out")) {
      throw std::invalid_argument("--resume names the output CSV itself; drop --out");
    }
    if (has(a, "json") || has(a, "csv-full")) {
      // These exports would cover only the points run in THIS invocation
      // and silently pass for a full-grid export; run them on the
      // completed CSV's grid without --resume instead.
      throw std::invalid_argument("--resume cannot export --json/--csv-full "
                                  "(they would hold only the resumed subset)");
    }
    driver::ResumeState st;
    {
      std::ifstream existing(resume);
      if (existing) {
        st = driver::parse_resume_csv(existing, driver::csv_header(grid.extra_csv_paths));
      }
    }
    if (st.dropped != 0) {
      std::cerr << "resume: dropped " << st.dropped
                << " malformed row(s) (interrupted write?); those points re-run\n";
    }
    std::map<std::string, std::size_t> done;  // label -> row index
    for (std::size_t i = 0; i < st.labels.size(); ++i) done.emplace(st.labels[i], i);
    // A row only counts as done if its configuration columns match what
    // this sweep would write for that label — a row from a sweep whose
    // --config/--set landed in a config column is stale, re-run and
    // replaced. Parameters with no CSV column (--insts, cache geometry,
    // FU latencies, ...) cannot be cross-checked: warn so the caller
    // knows resume assumes the same invocation for those.
    std::vector<std::string> unchecked;
    named.insert(named.end(), spec.pinned.begin(), spec.pinned.end());
    for (const auto& p : named) {
      static const char* const kColumnBacked[] = {
          "pipeline.variant", "core.width",    "core.ifq_size", "core.rob_size",
          "core.lsq_size",    "bp.kind",       "mem.perfect",   "mem.with_l2",
          "trace.backend",  // no column, but cannot change results
      };
      const bool covered =
          std::any_of(std::begin(kColumnBacked), std::end(kColumnBacked),
                      [&](const char* c) { return p == c; }) ||
          std::find(grid.extra_csv_paths.begin(), grid.extra_csv_paths.end(), p) !=
              grid.extra_csv_paths.end();
      if (!covered) unchecked.push_back(p);
    }
    if (!unchecked.empty()) {
      std::cerr << "resume: warning: no CSV column records";
      for (const auto& p : unchecked) std::cerr << ' ' << p;
      std::cerr << "; rows cannot be cross-checked against those overrides — "
                   "resume with the same values\n";
    }
    const std::size_t cfg_fields = driver::csv_config_fields(grid.extra_csv_paths);
    std::set<std::size_t> stale_rows;
    std::vector<driver::SimJob> pending;
    pending.reserve(grid.jobs.size());
    for (auto& job : grid.jobs) {
      const auto it = done.find(job.label);
      if (it != done.end() &&
          driver::csv_field_prefix(st.rows[it->second], cfg_fields) ==
              driver::csv_config_prefix(job, grid.extra_csv_paths, cfg_fields)) {
        ++resumed_skipped;
      } else {
        if (it != done.end()) stale_rows.insert(it->second);
        pending.push_back(std::move(job));
      }
    }
    if (!stale_rows.empty()) {
      std::cerr << "resume: " << stale_rows.size() << " row(s) in " << resume
                << " have different configuration columns than this sweep writes; "
                   "re-running those points\n";
    }
    grid.jobs = std::move(pending);
    // Rewrite header + surviving rows (drops any truncated tail or stale
    // row and guarantees the file ends in a newline before appending).
    // Written to a temp file and renamed over the original so a crash
    // mid-rewrite cannot lose the completed rows --resume exists to keep.
    const std::string tmp = resume + ".tmp";
    {
      std::ofstream f(tmp);
      if (!f) throw std::runtime_error("cannot open output file: " + tmp);
      f << driver::csv_header(grid.extra_csv_paths) << '\n';
      for (std::size_t i = 0; i < st.rows.size(); ++i) {
        if (stale_rows.count(i) == 0) f << st.rows[i] << '\n';
      }
      f.flush();
      if (!f) throw std::runtime_error("write failed: " + tmp);
    }
    std::filesystem::rename(tmp, resume);
  }

  // --decode-stats FILE: per-group decode-work accounting (chunks in the
  // trace vs decode events) as JSON. A side channel on purpose — the
  // CSV/JSON result exports stay byte-identical with sharing on or off,
  // so decode counters must never appear in them. Consumed by
  // tools/check_decode_once.py in CI.
  const bool want_decode_stats = has(a, "decode-stats");
  std::vector<driver::GroupDecodeStats> decode_stats;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<driver::JobResult> results;
  std::size_t appended = 0;
  if (!resume.empty()) {
    // Checkpointed execution: each batch appended + flushed on completion,
    // then freed — a resumable sweep is exactly the kind too big to hold
    // every result in memory. A kill between batches loses at most one.
    std::ofstream f(resume, std::ios::app);
    if (!f) throw std::runtime_error("cannot open output file: " + resume);
    runner.run_batches(
        grid.jobs,
        [&](const auto& part) {
          for (const auto& r : part) f << driver::csv_row(r, grid.extra_csv_paths) << '\n';
          f.flush();
          appended += part.size();
        },
        want_decode_stats ? &decode_stats : nullptr);
  } else {
    results = runner.run(grid.jobs, want_decode_stats ? &decode_stats : nullptr);
  }
  const double secs = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();

  const std::string out = get(a, "out", "");
  if (resume.empty()) {
    if (out.empty()) {
      driver::write_csv(std::cout, results, grid.extra_csv_paths);
    } else {
      std::ofstream f(out);
      if (!f) throw std::runtime_error("cannot open output file: " + out);
      driver::write_csv(f, results, grid.extra_csv_paths);
    }
  } else {
    std::cerr << "resume: " << resumed_skipped << " grid point(s) already in " << resume
              << ", " << appended << " appended\n";
  }
  if (has(a, "json")) {
    std::ofstream f(get(a, "json", ""));
    if (!f) throw std::runtime_error("cannot open output file: " + get(a, "json", ""));
    driver::write_json(f, results);
  }
  if (has(a, "csv-full")) {
    std::ofstream f(get(a, "csv-full", ""));
    if (!f) throw std::runtime_error("cannot open output file: " + get(a, "csv-full", ""));
    driver::write_config_csv(f, results);
  }
  if (want_decode_stats) {
    const std::string path = get(a, "decode-stats", "");
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open output file: " + path);
    f << "{\n  \"threads\": " << runner.threads() << ",\n  \"jobs\": "
      << grid.jobs.size() << ",\n  \"groups\": [";
    for (std::size_t i = 0; i < decode_stats.size(); ++i) {
      const auto& g = decode_stats[i];
      f << (i == 0 ? "\n" : ",\n") << "    {\"workload\": \""
        << driver::json_escape(g.workload) << "\", \"members\": " << g.members
        << ", \"consumers\": " << g.consumers
        << ", \"chunks_in_trace\": " << g.chunks_in_trace
        << ", \"chunks_decoded\": " << g.chunks_decoded
        << ", \"cache_hits\": " << g.cache_hits
        << ", \"cache_evictions\": " << g.cache_evictions << "}";
    }
    f << (decode_stats.empty() ? "]\n" : "\n  ]\n") << "}\n";
    if (!f) throw std::runtime_error("write failed: " + path);
  }
  std::cerr << "sweep: " << grid.jobs.size() << " configs, " << runner.threads()
            << " threads, " << secs << " s ("
            << static_cast<double>(grid.jobs.size()) / secs << " jobs/s)\n";
  return 0;
}

/// List every registry parameter with its current value (after --config
/// and --set), or save the resolved configuration as a config file.
int cmd_params(const Args& a) {
  const auto& reg = config::ParamRegistry::instance();
  const core::CoreConfig cfg = validated_machine_of(a);

  if (has(a, "save")) {
    config::save_config_file(get(a, "save", ""), cfg);
    std::cout << "wrote " << reg.params().size() << " parameters to "
              << get(a, "save", "") << '\n';
    return 0;
  }
  if (has(a, "markdown")) {
    std::cout << reg.markdown_table();
    return 0;
  }
  for (const auto& p : reg.params()) {
    std::ostringstream line;
    line << p.path << " = " << reg.format(p, cfg);
    std::cout << std::left << std::setw(40) << line.str() << " # [" << p.type_name()
              << "] " << p.doc;
    const std::string c = p.constraint_doc();
    if (!c.empty()) std::cout << " (" << c << ")";
    std::cout << '\n';
  }
  return 0;
}

int cmd_schedule(const Args& a) {
  const auto s = core::PipelineSchedule::make(
      config::variant_of(get(a, "variant", "optimized")),
      get_num<unsigned>(a, "width", 4));
  std::cout << s.render();
  return 0;
}

int cmd_vhdl(const Args& a) {
  bpred::BPredConfig cfg = bpred::BPredConfig::paper_default();
  cfg.pht_entries = get_num<std::uint32_t>(a, "pht", cfg.pht_entries);
  cfg.hist_bits = get_num<std::uint32_t>(a, "hist", cfg.hist_bits);
  cfg.btb_entries = get_num<std::uint32_t>(a, "btb", cfg.btb_entries);
  cfg.ras_entries = get_num<std::uint32_t>(a, "ras", cfg.ras_entries);
  const std::string out = get(a, "out", "resim_vhdl");
  std::filesystem::create_directories(out);
  const auto files = codegen::generate_bpred_vhdl(cfg);
  codegen::write_vhdl_files(files, out);
  std::cout << "wrote " << files.size() << " VHDL units to " << out << '\n';
  return 0;
}

/// The daemon a SIGINT/SIGTERM should stop. request_stop is one atomic
/// store plus one non-blocking pipe write, both async-signal-safe.
std::atomic<serve::Daemon*> g_serve_daemon{nullptr};

extern "C" void serve_signal_handler(int) {
  if (auto* d = g_serve_daemon.load()) d->request_stop();
}

int cmd_serve(const Args& a) {
  if (has(a, "protocol-markdown")) {
    // docs/SERVE.md's message-type and error-code tables, generated from
    // the MsgType/ErrCode enums; CI diffs this output against the doc.
    std::cout << serve::protocol_markdown();
    return 0;
  }
  // serve.* knobs resolve through the registry like every other
  // parameter: defaults < --config < --set.
  const auto cfg = validated_machine_of(a);
  serve::ServeOptions opts;
  opts.unix_path = get(a, "socket", "");
  opts.threads = get_num<unsigned>(a, "j", 1);
  opts.max_pending = cfg.serve_max_pending;
  opts.idle_timeout_s = cfg.serve_idle_timeout_s;
  opts.log = [](const std::string& line) { std::cerr << line << '\n'; };

  serve::Daemon daemon(opts);
  g_serve_daemon.store(&daemon);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  daemon.start();
  daemon.wait();
  g_serve_daemon.store(nullptr);
  return 0;
}

int cmd_client(const Args& a) {
  if (!has(a, "socket")) throw std::invalid_argument("needs --socket PATH");
  const int priority = get_num<int>(a, "priority", 0);
  serve::Client client = serve::Client::connect_to_unix(get(a, "socket", ""));
  const std::string id = get(a, "id", "req-1");

  if (has(a, "ping")) {
    client.ping(id);
    std::cout << "pong (id " << id << ")\n";
    return 0;
  }

  // Response bodies go to --out or stdout VERBATIM (the served-vs-CLI
  // byte-identity gate pipes stdout); the frame summary goes to stderr.
  std::ofstream file;
  if (has(a, "out")) {
    file.open(get(a, "out", ""));
    if (!file) throw std::runtime_error("cannot open output file: " + get(a, "out", ""));
  }
  std::ostream& out = file.is_open() ? static_cast<std::ostream&>(file) : std::cout;

  std::string payload;
  if (has(a, "status")) {
    payload = serve::build_status_request(id);
  } else if (has(a, "shutdown")) {
    payload = serve::build_shutdown_request(id);
  } else if (has(a, "sim")) {
    serve::SimRequestSpec spec;
    spec.id = id;
    spec.priority = priority;
    spec.trace_path = get(a, "trace", "trace.rsim");
    if (has(a, "config")) spec.config_text = slurp_file(get(a, "config", ""));
    spec.sets = a.sets;
    spec.skip = get_num(a, "skip", 0);
    spec.warmup = get_num(a, "warmup", 0);
    if (has(a, "max-records")) spec.max_records = get_num(a, "max-records", 0);
    payload = serve::build_sim_request(spec);
  } else if (has(a, "sweep")) {
    serve::SweepRequestSpec spec;
    spec.id = id;
    spec.priority = priority;
    spec.spec_text = slurp_file(get(a, "spec", ""));
    if (has(a, "config")) spec.config_text = slurp_file(get(a, "config", ""));
    spec.sets = a.sets;
    spec.trace_path = get(a, "trace", "");
    if (has(a, "insts")) spec.insts = get_num(a, "insts", 0);
    spec.format = get(a, "format", "");
    payload = serve::build_sweep_request(spec);
  } else {
    throw std::invalid_argument(
        "need one of --ping, --status, --shutdown, --sim, --sweep");
  }

  const auto done = client.request(payload, out);
  std::cerr << "client: id " << id << " done, " << done.frames << " frame(s), "
            << done.bytes << " byte(s)\n";
  return 0;
}

int usage() {
  std::cerr <<
      "usage: resim_cli <command> [flags]\n"
      "  gen      --bench NAME --insts N --out FILE [--bp KIND] [--chunk N]\n"
      "           [--compress] [--prefilter]\n"
      "  sim      --trace FILE [--config FILE] [--set key=value]... [--device NAME]\n"
      "           [--report] [--json FILE] [--skip N] [--warmup N] [--max-records N]\n"
      "           [--intervals FILE] [--plan FILE]\n"
      "  stats    --trace FILE [--config FILE] [--set key=value]...\n"
      "  sweep    --spec FILE [-j N] [--config FILE] [--set key=value]...\n"
      "           [--trace FILE] [--insts N]\n"
      "           [--out FILE | --resume FILE] [--json FILE] [--csv-full FILE]\n"
      "           [--decode-stats FILE]\n"
      "  params   [--config FILE] [--set key=value]... [--save FILE] [--markdown]\n"
      "  serve    --socket PATH [-j N] [--config FILE]\n"
      "           [--set key=value]... [--protocol-markdown]\n"
      "  client   --socket PATH [--id ID] [--out FILE]\n"
      "           (--ping | --status | --shutdown\n"
      "            | --sim --trace FILE [--config FILE] [--set key=value]...\n"
      "              [--priority N] [--skip N] [--warmup N] [--max-records N]\n"
      "            | --sweep --spec FILE [--config FILE] [--set key=value]...\n"
      "              [--priority N] [--trace FILE] [--insts N]\n"
      "              [--format csv|json|csv-full])\n"
      "  schedule --variant NAME --width N\n"
      "  vhdl     --out DIR [--pht N --hist N --btb N --ras N]\n"
      "machine: defaults < --config FILE < --set key=value, left to right, as\n"
      "in a served request. --width --rob --lsq --ifq --ports --variant --bp\n"
      "--backend each set one parameter (--rob 32 = --set core.rob_size=32)\n"
      "ahead of every --set. Grammars and parameters: docs/CONFIG.md (or\n"
      "`resim_cli params`). sampled execution: --set sample.windows=K\n"
      "[sample.window_insts=W sample.warmup_insts=U], or --plan FILE; interval\n"
      "stats: --set sample.interval_insts=N --intervals FILE (docs/SAMPLING.md).\n";
  return 2;
}

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      {"gen", {cmd_gen, "bench insts out bp chunk compress prefilter", false}},
      {"sim",
       {cmd_sim, "trace device report json skip warmup max-records intervals plan", true}},
      {"stats", {cmd_stats, "trace", true}},
      {"sweep", {cmd_sweep, "spec j trace insts out resume json csv-full decode-stats", true}},
      {"params", {cmd_params, "save markdown", true}},
      {"serve", {cmd_serve, "protocol-markdown socket j", true}},
      {"client",
       {cmd_client,
        "socket id out ping status shutdown sim sweep priority trace config set "
        "skip warmup max-records spec insts format",
        false}},
      {"schedule", {cmd_schedule, "variant width", false}},
      {"vhdl", {cmd_vhdl, "out pht hist btb ras", false}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto it = commands().find(cmd);
  if (it == commands().end()) return usage();
  try {
    return it->second.run(parse_args(argc, argv, it->second));
  } catch (const std::exception& e) {
    std::cerr << "resim_cli " << cmd << ": " << e.what() << '\n';
    return 1;
  }
}
