// resim_bench: the compiled half of the end-to-end benchmark.
//
// perfbench/run.py builds this next to resim_cli and drives it; see
// perfbench/README.md for the workloads and every metric. Subcommands:
//
//   resim_bench setup   WORKLOAD --dir D --root R --seed S
//       Generate WORKLOAD's inputs from the seed into D: .rsim traces,
//       sweep specs and a meta file of expected values (correct-path
//       instruction counts). run.py times this process as set-up.
//
//   resim_bench run     WORKLOAD --dir D --root R --seed S --seconds T
//                       --threads J [--trace 1 --spans FILE]
//       Repeat WORKLOAD's operation over D's inputs for T seconds and
//       check every output. With --trace 1, each repeat runs the
//       operation as measured, then once more serially, one public call
//       per layer at a time, untraced and with spans, then replays the
//       inputs through single layers; every per-layer metric reports its
//       median over the repeats.
//
//   resim_bench loadgen --dir D --root R --seed S --seconds T
//                       --socket P [--trace 1 --spans FILE]
//       Open-loop load against a running `resim_cli serve` daemon, then
//       run every request variant in-process and compare bytes.
//
// Each subcommand prints one JSON object on stdout.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "config/config_file.hpp"
#include "config/sweep_spec.hpp"
#include "driver/batch_runner.hpp"
#include "driver/result_export.hpp"
#include "driver/sampling.hpp"
#include "driver/sweep_grid.hpp"
#include "resim/resim.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "serve/trace_cache.hpp"
#include "trace/batch_cache.hpp"
#include "trace/segment.hpp"

namespace {

using namespace resim;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// --- workload definitions ---------------------------------------------------

/// sweep_cache: bulk design-space sweep over prepared traces.
constexpr const char* kSweepSpec =
    "# sweep_cache (perfbench/README.md); base: configs/paper_2wide_cache.cfg\n"
    "bench = gzip,vpr\n"
    "core.rob_size = 16,32,64\n"
    "mem.l1d.size_bytes = 4096,16384,65536\n"
    "set bp.kind = 2lev\n"
    "set trace.backend = stream\n"
    "set trace.shared_decode = true\n"
    "insts = 150000\n";

/// sampled_sweep: sampled runs over one long v4 (LZ + delta) trace.
constexpr std::uint64_t kSampledInsts = 4'000'000;
constexpr const char* kSampledSpec =
    "# sampled_sweep (perfbench/README.md); base: configs/paper_2wide_cache.cfg\n"
    "bp.kind = 2lev,gshare,bimodal,comb\n"
    "mem.l1d.size_bytes = 8192,32768\n"
    "set trace.backend = stream\n"
    "set sample.windows = 10\n"
    "set sample.window_insts = 5000\n"
    "set sample.warmup_insts = 200000\n";

/// serve_openloop: short windows of one small cached trace, plus a few
/// two-point sweeps over the whole of it. Each sweep costs about eight
/// sims, so the 2% of requests that are sweeps fill the top 1% of
/// latencies: p99 measures head-of-line blocking, not the edge between
/// two populations. There is one sweep spec so that p99 always falls
/// among the same kind of request.
constexpr std::uint64_t kServeInsts = 20'000;
constexpr std::uint64_t kServeWindow = 6'000;
constexpr std::size_t kServeOffsets = 32;
constexpr const char* kServeSweepSpec = "bp.kind = 2lev,bimodal\n";
/// Offered load, requests/s: about a sixth of what the daemon's single
/// executor sustains on this mix at the commit that added the benchmark.
constexpr double kServeRate = 60.0;
/// A served request slower than this (from when it was due) failed.
constexpr double kLatencyLimitMs = 500.0;
/// In-process runs of each request variant, interleaved across variants
/// so that a slow spell of the host is spread over all of them; the
/// median is the variant's exec time.
constexpr int kExecReps = 5;

/// Engine cycles per timed block in traced runs: one clock read per
/// block keeps the timer's own cost out of the step times.
constexpr unsigned kStepBlock = 256;

// --- small utilities --------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Returns the heap's free memory to the system, then restarts this
/// process's high-water RSS count (Linux >= 4.0), so every operation's
/// peak starts from the same baseline rather than from what earlier
/// operations left in the allocator.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

/// High-water resident set size of this process, MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::uint64_t correct_path_count(const trace::Trace& t) {
  return static_cast<std::uint64_t>(std::count_if(
      t.records.begin(), t.records.end(), [](const auto& r) { return !r.wrong_path; }));
}

std::string quoted(const std::string& s) { return '"' + driver::json_escape(s) + '"'; }

/// Flat JSON object writer; numbers keep all their digits.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonOut& raw(const std::string& key, const std::string& json) {
    out_ += (out_.empty() ? "{" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    if (i != 0) s += ',';
    s += buf;
  }
  return s + "]";
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += quoted(v[i]);
  }
  return s + "]";
}

/// Per-layer metrics of one traced measurement, by name.
struct Metrics {
  std::map<std::string, double> values;
  Metrics& num(const std::string& key, double v) {
    values[key] = v;
    return *this;
  }
};

std::string to_json(const Metrics& m) {
  JsonOut out;
  for (const auto& [k, v] : m.values) out.num(k, v);
  return out.done();
}

// --- spans ------------------------------------------------------------------

/// In-memory span log for one thread: name, start, end, parent. Spans
/// nest by scope; the log is written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  /// A span whose times were taken elsewhere (served requests).
  void add(std::string name, std::int64_t start, std::int64_t end, int parent) {
    spans_.push_back({std::move(name), start, end, parent});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double s = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) s += seconds(static_cast<int>(i));
    }
    return s;
  }

  /// Self time: duration minus the union of its direct children.
  [[nodiscard]] double self_seconds(std::size_t id) const {
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(id)) kids.emplace_back(s.start_ns, s.end_ns);
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans_[id].start_ns;
    for (const auto& [a, b] : kids) {
      const std::int64_t lo = std::max(a, reach);
      const std::int64_t hi = std::min(b, spans_[id].end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, b);
    }
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns - covered) * 1e-9;
  }

  [[nodiscard]] bool in_tree(std::size_t id, int root) const {
    for (int p = static_cast<int>(id); p != -1; p = spans_[static_cast<std::size_t>(p)].parent) {
      if (p == root) return true;
    }
    return false;
  }

  void write(const std::string& path) const {
    std::string s = "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      s += "  {\"id\": " + std::to_string(i) + ", \"name\": " + quoted(sp.name) +
           ", \"start_ns\": " + std::to_string(sp.start_ns) +
           ", \"end_ns\": " + std::to_string(sp.end_ns) +
           ", \"parent\": " + std::to_string(sp.parent) + "}" +
           (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    write_file(path, s + "]\n");
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for its scope; a no-op without a tracer (untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~SpanScope() {
    if (t_) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Per-layer self times of the tree under `root` ("trace.load" counts
/// toward layer "trace"), the root's own remainder, and span count.
void report_spans(const Tracer& tr, int root, Metrics& out) {
  std::map<std::string, double> self;
  std::size_t count = 0;
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    if (static_cast<int>(i) == root || !tr.in_tree(i, root)) continue;
    const std::string& name = tr.spans()[i].name;
    self[name.substr(0, name.find('.'))] += tr.self_seconds(i);
    ++count;
  }
  for (const char* layer : {"trace", "core", "driver", "serve", "loadgen"}) {
    out.num(std::string("span.") + layer + "_self_s", self[layer]);
  }
  const double wall = tr.seconds(root);
  const double rest = tr.self_seconds(static_cast<std::size_t>(root));
  out.num("span.unattributed_s", rest);
  out.num("span.attributed_frac", ratio(wall - rest, wall));
  out.num("span.count", static_cast<double>(count));
}

// --- arguments and inputs ---------------------------------------------------

struct Opts {
  std::string cmd;
  std::string workload;
  std::string dir;
  std::string root;
  std::string spans;
  std::string socket;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;
};

Opts parse_opts(int argc, char** argv) {
  Opts o;
  if (argc < 2) throw std::invalid_argument("usage: resim_bench setup|run|loadgen ...");
  o.cmd = argv[1];
  int i = 2;
  if (o.cmd != "loadgen") {
    if (argc < 3) throw std::invalid_argument("missing workload name");
    o.workload = argv[i++];
  }
  for (; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--dir") o.dir = v;
    else if (k == "--root") o.root = v;
    else if (k == "--spans") o.spans = v;
    else if (k == "--socket") o.socket = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--threads") o.threads = static_cast<unsigned>(std::stoul(v));
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (i != argc) throw std::invalid_argument("flag without a value");
  if (o.dir.empty() || o.root.empty()) throw std::invalid_argument("--dir and --root are required");
  if (o.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  return o;
}

std::string in_dir(const Opts& o, const std::string& name) { return (fs::path(o.dir) / name).string(); }

core::CoreConfig load_cfg(const Opts& o, const std::string& file,
                          const std::vector<std::string>& sets = {}) {
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  config::load_config_file((fs::path(o.root) / "configs" / file).string(), cfg);
  (void)config::apply_sets(cfg, sets);
  cfg.validate();
  return cfg;
}

/// Key/value lines "key value" written by setup, read by run.
using Meta = std::map<std::string, std::string>;

void write_meta(const Opts& o, const Meta& m) {
  std::string s;
  for (const auto& [k, v] : m) s += k + ' ' + v + '\n';
  write_file(in_dir(o, "meta.txt"), s);
}

Meta read_meta(const Opts& o) {
  Meta m;
  std::istringstream is(read_file(in_dir(o, "meta.txt")));
  std::string k;
  std::string v;
  while (is >> k >> v) m[k] = v;
  return m;
}

std::uint64_t meta_u64(const Meta& m, const std::string& key) {
  const auto it = m.find(key);
  if (it == m.end()) throw std::runtime_error("meta.txt: no " + key);
  return std::stoull(it->second);
}

trace::Trace generate(const std::string& bench, std::uint64_t seed,
                      const trace::TraceGenConfig& gen) {
  workload::WorkloadParams p;
  p.seed = seed;
  return trace::TraceGenerator(workload::make_workload(bench, p), gen).generate();
}

trace::TraceGenConfig gen_for(const core::CoreConfig& cfg, std::uint64_t insts) {
  trace::TraceGenConfig g;
  g.bp = cfg.bp;
  g.wrong_path_block = cfg.wrong_path_block();
  g.max_insts = insts;
  return g;
}

/// File holding a sweep job's prepared trace: one per (bench, gen) pair.
std::string sweep_trace_name(const driver::SimJob& job) {
  return "sweep_" + job.workload + "_w" + std::to_string(job.gen.wrong_path_block) + ".rsim";
}

/// Parses a sweep spec the way `resim_cli sweep --spec` does; a
/// prepared trace collapses the bench axis to the trace's own name.
driver::SweepGrid load_grid(const Opts& o, const std::string& spec_file,
                            const std::string& trace_file = "") {
  const core::CoreConfig base = load_cfg(o, "paper_2wide_cache.cfg");
  config::SweepSpec spec = config::load_sweep_spec_file(in_dir(o, spec_file), base);
  if (!trace_file.empty()) {
    const std::string bench = trace::FileTraceSource(trace_file).trace_name();
    spec.axes.erase(std::remove_if(spec.axes.begin(), spec.axes.end(),
                                   [](const auto& a) { return a.path == "bench"; }),
                    spec.axes.end());
    spec.axes.insert(spec.axes.begin(), {"bench", {bench}});
  }
  driver::SweepGrid grid = driver::expand_spec(spec);
  for (auto& job : grid.jobs) {
    job.trace_path = trace_file.empty() ? in_dir(o, sweep_trace_name(job)) : trace_file;
  }
  return grid;
}

// --- setup ------------------------------------------------------------------

int cmd_setup(const Opts& o) {
  fs::create_directories(o.dir);
  double gen_s = 0.0;
  double save_s = 0.0;
  Meta meta;
  const auto make = [&](const std::string& bench, const trace::TraceGenConfig& gen,
                        const std::string& file, bool v4) {
    auto t0 = Clock::now();
    const trace::Trace t = generate(bench, o.seed, gen);
    gen_s += seconds_since(t0);
    t0 = Clock::now();
    trace::save_trace(t, in_dir(o, file), trace::kDefaultChunkRecords, v4, v4);
    save_s += seconds_since(t0);
    meta["correct." + file] = std::to_string(correct_path_count(t));
    return t;
  };

  if (o.workload == "sweep_cache") {
    write_file(in_dir(o, "sweep_cache.spec"), kSweepSpec);
    std::set<std::string> done;
    for (const auto& job : load_grid(o, "sweep_cache.spec").jobs) {
      const std::string file = sweep_trace_name(job);
      if (done.insert(file).second) (void)make(job.workload, job.gen, file, false);
    }
  } else if (o.workload == "sampled_sweep") {
    write_file(in_dir(o, "sampled_sweep.spec"), kSampledSpec);
    const core::CoreConfig base = load_cfg(o, "paper_2wide_cache.cfg", {"bp.kind=2lev"});
    const trace::Trace t = make("gzip", gen_for(base, kSampledInsts), "sampled.rsim", true);
    // Every point samples the same windows; a window commits exactly its
    // correct-path records (it drains before the next one opens).
    const auto grid = load_grid(o, "sampled_sweep.spec", in_dir(o, "sampled.rsim"));
    const auto& s = grid.jobs.front().config.sample;
    const auto plan =
        driver::SamplingPlan::uniform(t.records.size(), s.windows, s.window_insts, s.warmup_insts);
    std::uint64_t in_windows = 0;
    for (const std::uint64_t start : plan.starts) {
      const std::uint64_t end = std::min<std::uint64_t>(start + plan.window_records, t.records.size());
      for (std::uint64_t i = start; i < end; ++i) in_windows += t.records[i].wrong_path ? 0 : 1;
    }
    meta["window_correct"] = std::to_string(in_windows);
  } else if (o.workload == "serve_openloop") {
    const trace::Trace t =
        make("gzip", gen_for(load_cfg(o, "paper_4wide_perfect.cfg"), kServeInsts), "serve.rsim", false);
    meta["records"] = std::to_string(t.records.size());
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  write_meta(o, meta);
  std::cout << JsonOut().num("gen_s", gen_s).num("save_s", save_s).done() << '\n';
  return 0;
}

// --- model statistics -------------------------------------------------------

/// Simulated-machine counts pooled over results; repeat exactly for a
/// given seed, so any change in them is a change in the model.
struct Model {
  std::uint64_t committed = 0, cycles = 0, fetched = 0, wrong_path = 0;
  std::uint64_t rob_full = 0, lsq_full = 0, ifq_full = 0;
  std::uint64_t branches = 0, mispredicts = 0, misfetches = 0;
  std::uint64_t il1_acc = 0, il1_miss = 0, dl1_acc = 0, dl1_miss = 0;
  std::uint64_t rob_occ_sum = 0, rob_occ_samples = 0;

  void add(const core::SimResult& r) {
    const StatsRegistry& s = r.stats;
    committed += r.committed;
    cycles += r.major_cycles;
    fetched += r.fetched;
    wrong_path += r.wrong_path_fetched;
    rob_full += s.value("dispatch.rob_full");
    lsq_full += s.value("dispatch.lsq_full");
    ifq_full += s.value("fetch.ifq_full");
    branches += s.value("fetch.branches");
    mispredicts += s.value("fetch.mispredicts");
    misfetches += s.value("fetch.misfetches");
    il1_acc += s.value("il1.accesses");
    il1_miss += s.value("il1.misses");
    dl1_acc += s.value("dl1.accesses");
    dl1_miss += s.value("dl1.misses");
    const auto it = s.occupancies().find("occ.rob");
    if (it != s.occupancies().end()) {
      rob_occ_sum += it->second.sum();
      rob_occ_samples += it->second.samples();
    }
  }

  void report(Metrics& out) const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    out.num("core.ipc", ratio(d(committed), d(cycles)))
        .num("core.rob_occ_avg", ratio(d(rob_occ_sum), d(rob_occ_samples)))
        .num("core.rob_full_frac", ratio(d(rob_full), d(cycles)))
        .num("core.lsq_full_frac", ratio(d(lsq_full), d(cycles)))
        .num("core.ifq_full_frac", ratio(d(ifq_full), d(cycles)))
        .num("core.wrong_path_frac", ratio(d(wrong_path), d(fetched)))
        .num("bpred.mispredict_rate", ratio(d(mispredicts), d(branches)))
        .num("bpred.misfetch_rate", ratio(d(misfetches), d(branches)))
        .num("cache.l1i_miss_rate", ratio(d(il1_miss), d(il1_acc)))
        .num("cache.l1d_miss_rate", ratio(d(dl1_miss), d(dl1_acc)));
  }
};

/// The core-layer split of a set of engine runs.
struct CoreTiming {
  double run_s = 0.0;
  std::uint64_t cycles = 0;
  std::vector<double> block_ns;  ///< host ns per cycle, one per block

  void report(Metrics& out, double share) const {
    out.num("core.run_s", run_s)
        .num("core.share_of_wall", share)
        .num("core.mcycles_per_s", ratio(static_cast<double>(cycles), run_s) / 1e6)
        .num("core.host_ns_per_cycle", ratio(run_s * 1e9, static_cast<double>(cycles)))
        .num("core.step_ns_p50", quantile(block_ns, 0.5))
        .num("core.step_ns_p99", quantile(block_ns, 0.99));
  }
};

/// Steps `eng` to the end, timing blocks of cycles when `ct` is given.
core::SimResult step_to_end(core::ReSimEngine& eng, CoreTiming* ct) {
  if (ct == nullptr) {
    while (eng.step_major_cycle()) {
    }
    return eng.result();
  }
  const auto t_all = Clock::now();
  const std::uint64_t c0 = eng.cycle();
  for (bool more = true; more;) {
    const auto t0 = Clock::now();
    unsigned k = 0;
    while (k < kStepBlock && (more = eng.step_major_cycle())) ++k;
    if (k != 0) {
      ct->block_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / k);
    }
  }
  ct->run_s += seconds_since(t_all);
  ct->cycles += eng.cycle() - c0;
  return eng.result();
}

volatile std::uint64_t g_sink = 0;  // keeps replay results observable

/// Correct-path branch records replayed through predict + update_commit.
double bpred_ns_per_branch(const trace::Trace& t, const bpred::BPredConfig& cfg) {
  std::vector<const trace::TraceRecord*> br;
  for (const auto& r : t.records) {
    if (!r.wrong_path && r.is_branch()) br.push_back(&r);
  }
  bpred::BranchPredictorUnit bp(cfg);
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (const trace::TraceRecord* r : br) {
    const Addr fall = r->pc + kInstBytes;
    const Addr next = r->taken ? r->target : fall;
    const bpred::Prediction p = bp.predict(r->pc, r->ctrl, fall, r->taken, next);
    bp.update_commit(r->pc, r->ctrl, r->taken, next, p);
    sink += p.next_pc;
  }
  const double s = seconds_since(t0);
  g_sink = g_sink + sink;
  return ratio(s * 1e9, static_cast<double>(br.size()));
}

/// Correct-path fetches, loads and stores replayed through the memory
/// system (the implicit-PC walk functional warmup uses).
double cache_ns_per_access(const trace::Trace& t, const cache::MemSysConfig& cfg) {
  enum Kind : std::uint8_t { kFetch, kRead, kWrite };
  std::vector<std::pair<Kind, Addr>> ops;
  Addr pc = t.start_pc;
  for (const auto& r : t.records) {
    if (r.wrong_path) continue;
    if (r.is_branch() && r.pc != pc) pc = r.pc;
    ops.emplace_back(kFetch, pc);
    if (r.is_branch()) {
      pc = r.taken ? r.target : pc + kInstBytes;
    } else {
      if (r.is_mem()) ops.emplace_back(r.is_store ? kWrite : kRead, r.addr);
      pc += kInstBytes;
    }
  }
  cache::MemorySystem mem(cfg);
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (const auto& [kind, addr] : ops) {
    const cache::AccessResult a =
        kind == kFetch ? mem.ifetch(addr) : kind == kRead ? mem.dread(addr) : mem.dwrite(addr);
    sink += a.latency;
  }
  const double s = seconds_since(t0);
  g_sink = g_sink + sink;
  return ratio(s * 1e9, static_cast<double>(ops.size()));
}

/// Reads a container through the workload's own source with no engine.
struct DrainResult {
  double seconds = 0.0;
  std::uint64_t records = 0;
};

DrainResult drain_memory(const std::string& path) {
  const auto t0 = Clock::now();
  const trace::Trace t = trace::load_trace(path);
  return {seconds_since(t0), t.records.size()};
}

DrainResult drain_shared(const std::string& path) {
  const auto t0 = Clock::now();
  trace::BatchTraceSource src(std::make_shared<trace::SharedBatchCache>(path, 1));
  std::uint64_t n = 0;
  for (;;) {
    const trace::BatchView v = src.fetch_view();
    if (v.count != 0) {
      src.consume_view(v.count);
      n += v.count;
    } else if (src.peek() != nullptr) {
      (void)src.next();
      ++n;
    } else {
      break;
    }
  }
  return {seconds_since(t0), n};
}

void report_trace_probe(Metrics& out, const DrainResult& d, std::uint64_t bytes,
                        std::uint64_t insts) {
  out.num("trace.load_s", d.seconds)
      .num("trace.decode_mrec_per_s", ratio(static_cast<double>(d.records), d.seconds) / 1e6)
      .num("trace.bytes_per_inst", ratio(static_cast<double>(bytes), static_cast<double>(insts)));
}

void report_decode_stats(Metrics& out, const std::vector<driver::GroupDecodeStats>& ds) {
  std::uint64_t in_trace = 0, decoded = 0, evictions = 0;
  for (const auto& g : ds) {
    in_trace += g.chunks_in_trace;
    decoded += g.chunks_decoded;
    evictions += g.cache_evictions;
  }
  out.num("trace.chunks_in_trace", static_cast<double>(in_trace))
      .num("trace.chunks_decoded", static_cast<double>(decoded))
      .num("trace.decode_useful_ratio", ratio(static_cast<double>(in_trace), static_cast<double>(decoded)))
      .num("trace.cache_evictions", static_cast<double>(evictions));
}

// --- the timed operations ---------------------------------------------------

/// One operation's outcome: host seconds, correct-path instructions
/// whose results it produced, a digest of its output bytes, failures.
struct OpResult {
  double wall_s = 0.0;
  std::uint64_t insts = 0;
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  Model model;
  std::vector<driver::GroupDecodeStats> decode;
  double export_s = 0.0;
  std::uint64_t export_bytes = 0;
  double batch_s = 0.0;
  // By-layer sampled replay: records run in detail and covered, and
  // each point's mean window IPC (its sampled estimate).
  std::uint64_t detailed_records = 0;
  std::uint64_t total_records = 0;
  std::vector<double> estimates;
};

/// Everything a workload's operation needs, prepared before timing.
struct Context {
  Opts opts;
  Meta meta;
  driver::SweepGrid grid;
  std::vector<std::uint64_t> expect;   ///< per job: committed it must report
  std::uint64_t span_insts = 0;        ///< sampled: trace instructions per point
};

Context make_context(const Opts& o) {
  Context c;
  c.opts = o;
  c.meta = read_meta(o);
  if (o.workload == "sweep_cache") {
    c.grid = load_grid(o, "sweep_cache.spec");
    for (const auto& job : c.grid.jobs) {
      c.expect.push_back(meta_u64(c.meta, "correct." + sweep_trace_name(job)));
    }
  } else if (o.workload == "sampled_sweep") {
    c.grid = load_grid(o, "sampled_sweep.spec", in_dir(o, "sampled.rsim"));
    c.expect.assign(c.grid.jobs.size(), meta_u64(c.meta, "window_correct"));
    c.span_insts = meta_u64(c.meta, "correct.sampled.rsim");
  } else {
    throw std::invalid_argument("unknown workload for run: " + o.workload);
  }
  return c;
}

/// The CSV and JSON exports `resim_cli sweep --out --json` writes, then
/// the operation's wall time and the checks on its results.
void export_and_check(const Context& c, Tracer* tr, Clock::time_point t0,
                      const std::vector<driver::JobResult>& results, OpResult& out) {
  std::string bytes;
  {
    SpanScope s(tr, "driver.write_csv_json");
    const auto e0 = Clock::now();
    std::ostringstream os;
    driver::write_csv(os, results, c.grid.extra_csv_paths);
    driver::write_json(os, results);
    bytes = os.str();
    out.export_s = seconds_since(e0);
  }
  out.wall_s = seconds_since(t0);
  out.attempted = results.size();
  out.digest = fnv1a(bytes);
  out.export_bytes = bytes.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    out.model.add(r);
    out.insts += c.span_insts != 0 ? c.span_insts : r.committed;
    if (r.committed != c.expect[i]) {
      out.errors.push_back(results[i].label + ": committed " + std::to_string(r.committed) +
                           " != expected " + std::to_string(c.expect[i]));
    }
  }
}

/// The measured operation: BatchRunner over the grid on --threads
/// workers, then the exports.
OpResult op_batch(const Context& c) {
  OpResult out;
  const auto t0 = Clock::now();
  const auto results = driver::BatchRunner(c.opts.threads).run(c.grid.jobs, &out.decode);
  out.batch_s = seconds_since(t0);
  export_and_check(c, nullptr, t0, results, out);
  return out;
}

/// One sampled point the way run_sampled runs it, one public call at a
/// time: chunk skip to each warmup start, functional warmup up to the
/// window, then the window in detail until the pipeline drains.
driver::JobResult replay_sampled(const driver::SimJob& job, Tracer* tr, CoreTiming* ct,
                                 OpResult& out) {
  std::unique_ptr<trace::FileTraceSource> file;
  {
    SpanScope s(tr, "trace.FileTraceSource");
    file = std::make_unique<trace::FileTraceSource>(job.trace_path);
  }
  driver::SamplingPlan plan;
  {
    SpanScope s(tr, "driver.plan_from_config");
    plan = driver::plan_from_config(job.config, *file);
  }
  trace::SegmentedTraceSource seg(*file);
  std::unique_ptr<core::ReSimEngine> eng;
  {
    SpanScope s(tr, "core.ReSimEngine");
    eng = std::make_unique<core::ReSimEngine>(job.config, seg);
  }
  double ipc_sum = 0.0;
  std::size_t windows = 0;
  for (const std::uint64_t start : plan.starts) {
    std::uint64_t pos = seg.inner_position();
    const std::uint64_t warmup_from =
        start > plan.warmup_records ? start - plan.warmup_records : 0;
    if (warmup_from > pos) {
      SpanScope s(tr, "trace.skip_gap");
      seg.skip_gap(warmup_from - pos);
      pos = seg.inner_position();
    }
    if (start > pos) {
      SpanScope s(tr, "core.functional_warmup");
      seg.open_segment(start - pos);
      (void)eng->functional_warmup(start - pos);
      seg.close_segment();
    }
    SpanScope s(tr, "core.step_major_cycle");
    const std::uint64_t committed0 = eng->committed();
    const std::uint64_t cycles0 = eng->cycle();
    const std::uint64_t consumed0 = seg.records_consumed();
    seg.open_segment(plan.window_records);
    (void)step_to_end(*eng, ct);
    seg.close_segment();
    const std::uint64_t records = seg.records_consumed() - consumed0;
    out.detailed_records += records;
    if (records != 0) {
      ipc_sum += ratio(static_cast<double>(eng->committed() - committed0),
                       static_cast<double>(eng->cycle() - cycles0));
      ++windows;
    }
  }
  out.total_records += plan.total_records;
  out.estimates.push_back(ratio(ipc_sum, static_cast<double>(windows)));
  return {job.label, job.workload, job.config, eng->result()};
}

/// The operation again, serially and one public call at a time, so that
/// each span's time belongs to one layer. sweep_cache loads each trace
/// once (as decode sharing does) and runs every point's engine over it;
/// sampled_sweep replays every point's plan. Its output bytes must equal
/// op_batch's: cmd_run checks every repeat's digest against the first.
OpResult op_by_layer(const Context& c, Tracer* tr, CoreTiming* ct) {
  OpResult out;
  const auto t0 = Clock::now();
  SpanScope root(tr, "op");
  std::vector<driver::JobResult> results;
  if (c.opts.workload == "sweep_cache") {
    std::map<std::string, trace::Trace> traces;
    for (const auto& job : c.grid.jobs) {
      auto it = traces.find(job.trace_path);
      if (it == traces.end()) {
        SpanScope s(tr, "trace.load_trace");
        it = traces.emplace(job.trace_path, trace::load_trace(job.trace_path)).first;
      }
      SpanScope s(tr, "core.ReSimEngine.run");
      trace::VectorTraceSource src(it->second);
      core::ReSimEngine eng(job.config, src);
      results.push_back({job.label, job.workload, job.config, step_to_end(eng, ct)});
    }
  } else {
    for (const auto& job : c.grid.jobs) results.push_back(replay_sampled(job, tr, ct, out));
  }
  export_and_check(c, tr, t0, results, out);
  return out;
}

// --- traced-run layer probes ------------------------------------------------

/// Each job again through run_one, alone on this thread.
void probe_jobs(const Context& c, Tracer& tr, const OpResult& batch, Metrics& out) {
  std::vector<double> job_s;
  for (const auto& job : c.grid.jobs) {
    SpanScope s(&tr, "driver.BatchRunner.run_one");
    const auto t0 = Clock::now();
    (void)driver::BatchRunner::run_one(job);
    job_s.push_back(seconds_since(t0));
  }
  double sum_job = 0.0;
  for (const double s : job_s) sum_job += s;
  out.num("driver.job_s_p50", median(job_s))
      .num("driver.job_s_max", quantile(job_s, 1.0))
      .num("driver.parallel_eff", ratio(sum_job, c.opts.threads * batch.batch_s));
}

/// Each distinct trace drained through the sweep's own source with no
/// engine; the first point's trace replayed through bpred and caches.
void probe_single_layers(const Context& c, Tracer& tr, Metrics& out) {
  std::set<std::string> paths;
  for (const auto& job : c.grid.jobs) paths.insert(job.trace_path);
  DrainResult d;
  std::uint64_t bytes = 0;
  std::uint64_t insts = 0;
  for (const std::string& path : paths) {
    SpanScope s(&tr, "trace.BatchTraceSource.drain");
    const DrainResult one = drain_shared(path);
    d.seconds += one.seconds;
    d.records += one.records;
    bytes += fs::file_size(path);
    insts += meta_u64(c.meta, "correct." + fs::path(path).filename().string());
  }
  report_trace_probe(out, d, bytes, insts);
  const auto& first = c.grid.jobs.front();
  const trace::Trace t = trace::load_trace(first.trace_path);
  {
    SpanScope s(&tr, "bpred.replay");
    out.num("bpred.ns_per_branch", bpred_ns_per_branch(t, first.config.bp));
  }
  SpanScope s(&tr, "cache.replay");
  out.num("cache.ns_per_access", cache_ns_per_access(t, first.config.mem));
}

/// The reference for sampled_ipc_err_pct: every sampled point simulated
/// in full detail.
std::vector<double> full_detailed_ipc(const Context& c) {
  std::vector<driver::SimJob> full = c.grid.jobs;
  for (auto& job : full) job.config.sample.windows = 0;
  std::vector<double> ipc;
  for (const auto& r : driver::BatchRunner(c.opts.threads).run(full)) ipc.push_back(r.result.ipc());
  return ipc;
}

// --- run --------------------------------------------------------------------

int cmd_run(const Opts& o) {
  const Context c = make_context(o);
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::vector<double> wall, insts, rss;
  std::optional<std::uint64_t> digest;
  const auto account = [&](const OpResult& r) {
    attempted += r.attempted;
    std::uint64_t failed_here = r.errors.size();
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    if (!digest) digest = r.digest;
    if (*digest != r.digest) {
      errors.push_back("output bytes differ from the first operation's");
      failed_here = r.attempted;
    }
    return failed_here;
  };

  // One untimed repeat first: page cache and allocator warm, and its
  // output is the reference every later operation must reproduce.
  std::uint64_t failed = account(op_batch(c));
  Metrics layers;
  if (!o.trace) {
    const auto start = Clock::now();
    while (seconds_since(start) < o.seconds || wall.size() < 3) {
      reset_peak_rss();
      const OpResult r = op_batch(c);
      rss.push_back(peak_rss_mb());
      failed += account(r);
      wall.push_back(r.wall_s);
      insts.push_back(static_cast<double>(r.insts));
    }
  } else {
    // Traced measurements repeat for --seconds; each metric reports its
    // median over the repeats. A repeat runs the measured operation, then
    // the by-layer operation untraced and traced: their difference is the
    // tracing overhead, and the traced one's spans split its wall time.
    const std::vector<double> exact_ipc =
        o.workload == "sampled_sweep" ? full_detailed_ipc(c) : std::vector<double>{};
    std::map<std::string, std::vector<double>> reps;
    const auto start = Clock::now();
    do {
      const OpResult batch = op_batch(c);
      failed += account(batch);
      const OpResult plain = op_by_layer(c, nullptr, nullptr);
      failed += account(plain);
      Tracer tr;
      CoreTiming ct;
      const OpResult r = op_by_layer(c, &tr, &ct);
      failed += account(r);
      Metrics m;
      const int root = 0;
      report_spans(tr, root, m);
      m.num("span.overhead_s", tr.seconds(root) - plain.wall_s);
      r.model.report(m);
      ct.report(m, ratio(ct.run_s, tr.seconds(root)));
      m.num("driver.batch_run_s", batch.batch_s)
          .num("driver.export_s", batch.export_s)
          .num("driver.export_mb", static_cast<double>(batch.export_bytes) / 1e6);
      report_decode_stats(m, batch.decode);
      if (o.workload == "sampled_sweep") {
        double err = 0.0;
        for (std::size_t i = 0; i < exact_ipc.size(); ++i) {
          err += std::abs(r.estimates[i] - exact_ipc[i]) / exact_ipc[i];
        }
        m.num("driver.sample_skip_s", tr.total("trace.skip_gap"))
            .num("driver.sample_warmup_s", tr.total("core.functional_warmup"))
            .num("driver.sample_detailed_s", tr.total("core.step_major_cycle"))
            .num("driver.sample_coverage",
                 ratio(static_cast<double>(r.detailed_records), static_cast<double>(r.total_records)))
            .num("sampled_ipc_err_pct", 100.0 * err / static_cast<double>(exact_ipc.size()));
      }
      {
        SpanScope probes(&tr, "probes");
        probe_jobs(c, tr, batch, m);
        probe_single_layers(c, tr, m);
      }
      if (!o.spans.empty()) tr.write(o.spans);
      for (const auto& [k, v] : m.values) reps[k].push_back(v);
    } while (seconds_since(start) < o.seconds);
    for (const auto& [k, v] : reps) layers.num(k, median(v));
  }
  std::cout << JsonOut()
                   .num("attempted", static_cast<double>(attempted))
                   .num("failed", static_cast<double>(failed))
                   .raw("errors", json_strings(errors))
                   .str("digest", hex64(digest.value_or(0)))
                   .raw("rss_mb", json_list(rss))
                   .raw("wall_s", json_list(wall))
                   .raw("insts", json_list(insts))
                   .raw("layers", to_json(layers))
                   .done()
            << '\n';
  return 0;
}

// --- serve load generator ---------------------------------------------------

enum class ReqKind : std::uint8_t { kSim, kSweep, kPing, kStatus };

struct Request {
  ReqKind kind = ReqKind::kSim;
  std::size_t variant = 0;  ///< sim window index; 0 for the other kinds
  double due_s = 0.0;
  std::string payload;
};

/// What came back for one request (written by the reader thread).
struct Reply {
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  std::string body;
  std::string error;
};

std::string payload_of(ReqKind kind, std::size_t variant, const std::string& id,
                       const std::vector<std::uint64_t>& offsets, const std::string& cfg_text) {
  switch (kind) {
    case ReqKind::kSim: {
      serve::SimRequestSpec s;
      s.id = id;
      s.trace_path = "serve.rsim";
      s.config_text = cfg_text;
      s.skip = offsets[variant];
      s.max_records = kServeWindow;
      return serve::build_sim_request(s);
    }
    case ReqKind::kSweep: {
      serve::SweepRequestSpec s;
      s.id = id;
      s.spec_text = kServeSweepSpec;
      s.config_text = cfg_text;
      s.trace_path = "serve.rsim";
      s.format = "json";
      return serve::build_sweep_request(s);
    }
    case ReqKind::kPing:
      return serve::build_ping_request(id);
    case ReqKind::kStatus:
      return serve::build_status_request(id);
  }
  return {};
}

/// Committed instructions a sim (object) or JSON sweep (array) body reports.
std::uint64_t committed_in(const std::string& body) {
  const serve::JsonValue v = serve::parse_json(body);
  const auto one = [](const serve::JsonValue& r) {
    return r.find("result")->find("committed")->as_u64("committed");
  };
  if (v.kind() != serve::JsonValue::Kind::kArray) return one(v);
  std::uint64_t n = 0;
  for (const auto& r : v.as_array()) n += one(r);
  return n;
}

int cmd_loadgen(const Opts& o) {
  const Meta meta = read_meta(o);
  const std::uint64_t records = meta_u64(meta, "records");
  const std::string cfg_text =
      read_file((fs::path(o.root) / "configs" / "paper_4wide_perfect.cfg").string());

  // The request schedule: a fixed rate and a fixed mix per 100 requests
  // (89 windowed sims, 2 sweeps, 6 pings, 3 status polls); the seed
  // picks the sim window offsets and which window each sim reads.
  std::uint64_t rng = o.seed * 0x2545F4914F6CDD1Dull + 11;
  std::vector<std::uint64_t> offsets;
  for (std::size_t i = 0; i < kServeOffsets; ++i) {
    offsets.push_back(splitmix64(rng) % (records - kServeWindow));
  }
  const auto kind_at = [](std::size_t i) {
    switch (i % 100) {
      case 0: case 50: return ReqKind::kSweep;
      case 10: case 25: case 40: case 60: case 75: case 90: return ReqKind::kPing;
      case 5: case 35: case 65: return ReqKind::kStatus;
      default: return ReqKind::kSim;
    }
  };
  const auto n = static_cast<std::size_t>(o.seconds * kServeRate);
  std::vector<Request> reqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = reqs[i];
    r.kind = kind_at(i);
    r.variant = r.kind == ReqKind::kSim ? splitmix64(rng) % kServeOffsets : 0;
    r.due_s = static_cast<double>(i) / kServeRate;
    r.payload = payload_of(r.kind, r.variant, "r" + std::to_string(i), offsets, cfg_text);
  }

  serve::Client client = serve::Client::connect_to_unix(o.socket);
  std::vector<Reply> replies(n);
  std::string reader_error;
  std::thread reader([&] {
    try {
      for (std::size_t remaining = n; remaining != 0;) {
        const auto frame = client.read_frame();
        if (!frame) throw std::runtime_error("connection closed with replies outstanding");
        const serve::JsonValue v = serve::parse_json(*frame);
        const std::string type = v.find("type")->as_string();
        const serve::JsonValue* id = v.find("id");
        if (id == nullptr || id->as_string().size() < 2) throw std::runtime_error("reply without id");
        Reply& rep = replies.at(std::stoull(id->as_string().substr(1)));
        if (type == "data") {
          rep.body += v.find("payload")->as_string();
          continue;
        }
        if (type == "error") rep.error = v.find("code")->as_string();
        rep.done_ns = now_ns();
        --remaining;
      }
    } catch (const std::exception& e) {
      reader_error = e.what();
    }
  });

  // Open loop: each request goes out when it is due, whatever is still
  // outstanding; the connection pipelines.
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const std::int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start.time_since_epoch()).count();
  std::string send_error;
  for (std::size_t i = 0; i < n && send_error.empty(); ++i) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(reqs[i].due_s)));
    replies[i].sent_ns = now_ns();
    try {
      client.send_request(reqs[i].payload);
    } catch (const std::exception& e) {
      send_error = e.what();
    }
  }
  reader.join();

  // Final daemon counters.
  std::ostringstream status_body;
  serve::Client::connect_to_unix(o.socket).request(serve::build_status_request("final"), status_body);
  const serve::JsonValue status = serve::parse_json(status_body.str());

  // Every request variant in-process, kExecReps times: the daemon's
  // bytes must match these, and the median run time is the variant's
  // execution share of latency.
  using Key = std::pair<int, std::size_t>;
  std::vector<Key> variants;
  for (std::size_t k = 0; k < kServeOffsets; ++k) variants.emplace_back(static_cast<int>(ReqKind::kSim), k);
  variants.emplace_back(static_cast<int>(ReqKind::kSweep), 0);
  serve::SharedTraceCache cache;
  std::map<Key, std::string> expected;
  std::map<Key, std::vector<double>> runs_ms;
  for (int rep = 0; rep < kExecReps; ++rep) {
    for (const Key& key : variants) {
      const auto kind = static_cast<ReqKind>(key.first);
      const serve::JsonValue v = serve::parse_json(payload_of(kind, key.second, "v", offsets, cfg_text));
      std::string body;
      const serve::Sink sink = [&body](std::string_view chunk) { body.append(chunk); };
      const auto t0 = Clock::now();
      if (kind == ReqKind::kSim) {
        serve::run_sim(serve::parse_sim_request(v), cache, sink);
      } else {
        serve::run_sweep(serve::parse_sweep_request(v), 1, cache, sink);
      }
      runs_ms[key].push_back(seconds_since(t0) * 1e3);
      expected[key] = std::move(body);
    }
  }
  std::map<Key, double> exec_ms;
  std::map<Key, std::uint64_t> committed;
  for (const Key& key : variants) {
    exec_ms[key] = median(runs_ms[key]);
    committed[key] = committed_in(expected[key]);
  }

  std::vector<double> lat_ms, lag_ms, ping_ms, exec_of, wait_ms;
  std::vector<std::string> errors;
  std::uint64_t failed = 0, busy = 0, late = 0, work_insts = 0;
  std::uint64_t response_bytes = 0;
  // Executor busy time as the client sees it: the daemon's one FIFO
  // executor starts a sim or sweep once it has arrived and the previous
  // one is done.
  double work_s = 0.0;
  std::int64_t executor_free = start_ns;
  std::int64_t last_done = start_ns;
  double pending_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = reqs[i];
    const Reply& rep = replies[i];
    response_bytes += rep.body.size();
    const double due_ns = static_cast<double>(start_ns) + r.due_s * 1e9;
    lag_ms.push_back((static_cast<double>(rep.sent_ns) - due_ns) / 1e6);
    if (rep.done_ns == 0 || !rep.error.empty()) {
      ++failed;
      busy += rep.error == "busy" ? 1 : 0;
      if (errors.size() < 8) errors.push_back("r" + std::to_string(i) + ": " + (rep.error.empty() ? "no reply" : rep.error));
      continue;
    }
    last_done = std::max(last_done, rep.done_ns);
    const double latency = (static_cast<double>(rep.done_ns) - due_ns) / 1e6;
    if (r.kind == ReqKind::kPing) {
      ping_ms.push_back(static_cast<double>(rep.done_ns - rep.sent_ns) / 1e6);
      continue;
    }
    if (r.kind == ReqKind::kStatus) {
      pending_max = std::max(pending_max, static_cast<double>(
          serve::parse_json(rep.body).find("pending")->as_u64("pending")));
      continue;
    }
    work_s += static_cast<double>(rep.done_ns - std::max(rep.sent_ns, executor_free)) * 1e-9;
    executor_free = rep.done_ns;
    const Key key{static_cast<int>(r.kind), r.variant};
    lat_ms.push_back(latency);
    exec_of.push_back(exec_ms[key]);
    if (rep.body != expected[key]) {
      ++failed;
      if (errors.size() < 8) errors.push_back("r" + std::to_string(i) + ": served body differs from in-process output");
      continue;
    }
    if (latency > kLatencyLimitMs) {
      ++failed;
      ++late;
      continue;
    }
    work_insts += committed[key];
  }
  if (!reader_error.empty()) errors.push_back("reader: " + reader_error);
  if (!send_error.empty()) errors.push_back("send: " + send_error);
  const double ping_p50 = median(ping_ms);
  for (std::size_t i = 0; i < lat_ms.size(); ++i) wait_ms.push_back(lat_ms[i] - exec_of[i] - ping_p50);

  std::uint64_t digest = 0;
  for (const auto& [key, body] : expected) digest = fnv1a(body, digest ^ (key.first * 131u + key.second));

  Metrics layers;
  if (o.trace) {
    // Per-request spans: due -> sent (generator lag), sent -> done.
    Tracer tr;
    const auto w0 = Clock::now();
    tr.add("op", start_ns, last_done, -1);
    for (std::size_t i = 0; i < n; ++i) {
      const Reply& rep = replies[i];
      if (rep.done_ns == 0) continue;
      const auto due = start_ns + static_cast<std::int64_t>(reqs[i].due_s * 1e9);
      tr.add("loadgen.send", due, std::max(due, rep.sent_ns), 0);
      tr.add("serve.request", rep.sent_ns, rep.done_ns, 0);
    }
    report_spans(tr, 0, layers);
    if (!o.spans.empty()) tr.write(o.spans);
    layers.num("span.overhead_s", seconds_since(w0));
    const auto u64 = [&status](const char* k) { return static_cast<double>(status.find(k)->as_u64(k)); };
    double exec_total = 0.0;
    for (const double e : exec_of) exec_total += e / 1e3;
    layers.num("serve.ping_ms_p50", ping_p50)
        .num("serve.exec_ms_p50", median(exec_of))
        .num("serve.queue_wait_ms_p50", median(wait_ms))
        .num("serve.queue_wait_ms_p99", quantile(wait_ms, 0.99))
        .num("serve.pending_max", pending_max)
        .num("serve.rejected_busy", u64("rejected_busy"))
        .num("serve.trace_cache_hit_ratio",
             ratio(u64("trace_cache_hits"), u64("trace_cache_hits") + u64("trace_cache_loads")))
        .num("serve.response_mb", static_cast<double>(response_bytes) / 1e6)
        .num("loadgen.lag_ms_p99", quantile(lag_ms, 0.99));

    // Layer probes over the served trace and configuration; the core
    // share for serve is the executor's busy share of the load phase.
    const core::CoreConfig cfg = load_cfg(o, "paper_4wide_perfect.cfg");
    const std::string path = "serve.rsim";
    const DrainResult d = drain_memory(path);
    report_trace_probe(layers, d, fs::file_size(path), meta_u64(meta, "correct.serve.rsim"));
    const trace::Trace t = trace::load_trace(path);
    trace::VectorTraceSource src(t);
    core::ReSimEngine eng(cfg, src);
    CoreTiming ct;
    Model model;
    model.add(step_to_end(eng, &ct));
    ct.report(layers, ratio(exec_total, static_cast<double>(last_done - start_ns) * 1e-9));
    model.report(layers);
    layers.num("bpred.ns_per_branch", bpred_ns_per_branch(t, cfg.bp))
        .num("cache.ns_per_access", cache_ns_per_access(t, cfg.mem));
  }

  std::cout << JsonOut()
                   .num("attempted", static_cast<double>(n))
                   .num("failed", static_cast<double>(failed))
                   .num("busy", static_cast<double>(busy))
                   .num("late", static_cast<double>(late))
                   .raw("errors", json_strings(errors))
                   .str("digest", hex64(digest))
                   .raw("lat_ms", json_list(lat_ms))
                   .num("work_insts", static_cast<double>(work_insts))
                   .num("work_s", work_s)
                   .raw("layers", to_json(layers))
                   .done()
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Opts o = parse_opts(argc, argv);
    if (o.cmd == "setup") return cmd_setup(o);
    if (o.cmd == "run") return cmd_run(o);
    if (o.cmd == "loadgen") return cmd_loadgen(o);
    throw std::invalid_argument("unknown subcommand " + o.cmd);
  } catch (const std::exception& e) {
    std::cerr << "resim_bench: " << e.what() << '\n';
    return 1;
  }
}
