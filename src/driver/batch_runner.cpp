#include "driver/batch_runner.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <istream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "config/names.hpp"
#include "config/param_registry.hpp"
#include "driver/run.hpp"
#include "trace/batch_cache.hpp"
#include "workload/suite.hpp"

namespace resim::driver {

SimJob SimJob::sweep_point(std::string label, std::string workload,
                           const core::CoreConfig& cfg, std::uint64_t insts) {
  SimJob job;
  job.label = std::move(label);
  job.workload = std::move(workload);
  job.config = cfg;
  job.gen.bp = cfg.bp;
  job.gen.wrong_path_block = cfg.wrong_path_block();
  job.gen.max_insts = insts;
  return job;
}

namespace {

/// A private temp container, unlinked when this dies; an open reader
/// keeps its inode alive.
struct TempContainer {
  std::string path;
  TempContainer() = default;
  TempContainer(const TempContainer&) = delete;
  TempContainer& operator=(const TempContainer&) = delete;
  ~TempContainer() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// The one turn of a SimJob into records: its file, its prepared trace
/// or a trace generated from its workload, in the form its backend
/// reads. Stream jobs without a file get a private `temp` container, v4
/// when trace.prefilter is set.
TraceRecords job_records(const SimJob& job, TempContainer& temp) {
  const bool memory = job.config.trace_backend == core::TraceBackend::kMemory;
  if (!job.trace_path.empty()) {
    return {memory ? load_file(job.trace_path) : nullptr, job.trace_path};
  }
  std::shared_ptr<const trace::Trace> t = job.trace;
  if (!t) {
    t = std::make_shared<const trace::Trace>(
        trace::TraceGenerator(workload::make_workload(job.workload), job.gen).generate());
  }
  if (memory) return {std::move(t), ""};
  // pid + a process-wide counter: concurrent processes and workers never
  // collide. Built with += to sidestep GCC 12's -Wrestrict false
  // positive (PR105651) on "literal" + std::string chains at -O3.
  static std::atomic<std::uint64_t> counter{0};
  temp.path = (std::filesystem::temp_directory_path() / "resim_job").string();
  temp.path += '_';
  temp.path += std::to_string(::getpid());
  temp.path += '_';
  temp.path += std::to_string(counter.fetch_add(1));
  temp.path += ".rsim";
  const bool v4 = job.config.trace_prefilter;
  trace::save_trace(*t, temp.path, trace::kDefaultChunkRecords, v4, v4);
  return {nullptr, temp.path};
}

/// A job's private reader. A temp container is unlinked as soon as it is
/// open.
OpenTrace open_job(const SimJob& job) {
  TempContainer temp;
  return OpenTrace(job_records(job, temp));
}

JobResult simulate(const SimJob& job, trace::TraceSource& src) {
  return {job.label, job.workload, job.config, run_trace(job.config, src).result};
}

/// Deterministic serialization of everything that decides a generated
/// trace's byte stream; two generated jobs group only when their record
/// streams are provably identical.
std::string gen_group_key(const std::string& workload, const trace::TraceGenConfig& g) {
  std::string k = workload;
  const auto add = [&k](std::uint64_t v) {
    k += '|';
    k += std::to_string(v);
  };
  add(static_cast<std::uint64_t>(g.bp.kind));
  add(g.bp.l1_entries);
  add(g.bp.hist_bits);
  add(g.bp.pht_entries);
  add(g.bp.bimodal_entries);
  add(g.bp.btb_entries);
  add(g.bp.btb_assoc);
  add(g.bp.ras_entries);
  add(g.wrong_path_block);
  add(g.emit_wrong_path ? 1 : 0);
  add(g.max_insts);
  return k;
}

/// One shared-decode job group: the producer state every member reads
/// through, initialized exactly once by the first member to run.
struct GroupShare {
  std::once_flag once;
  std::exception_ptr init_error;  ///< init failed: every member rethrows it

  // Planned before the pool starts:
  const SimJob* first = nullptr;  ///< the member whose records the group reads
  std::size_t members = 0;
  std::size_t expected = 0;  ///< min(members, pool threads)

  // Resolved by the first member, released by the last to finish:
  TraceRecords records;  ///< the decoded trace (memory groups) or its path
  std::shared_ptr<trace::SharedBatchCache> cache;  ///< file groups

  std::atomic<std::size_t> finished{0};  ///< members done
  GroupDecodeStats decoded;  ///< decode counters, copied out on release
};

/// Runs once the group's last member finishes: copies the decode
/// counters out and frees the decoded trace or batch cache, so a long
/// run holds only the groups still in flight.
void release_group(GroupShare& g) {
  if (g.cache) {
    g.decoded.chunks_in_trace = g.cache->chunk_count();
    g.decoded.chunks_decoded = g.cache->chunks_decoded();
    g.decoded.cache_hits = g.cache->hits();
    g.decoded.cache_evictions = g.cache->evictions();
  } else if (g.records.decoded) {
    g.decoded.chunks_decoded = 1;  // the single shared load/generate
  }
  g.cache.reset();
  g.records = {};
}

void init_group(GroupShare& g) {
  TempContainer temp;
  g.records = job_records(*g.first, temp);
  if (!g.records.decoded) {
    g.cache = std::make_shared<trace::SharedBatchCache>(g.records.path, g.expected);
  }
}

JobResult run_one_with_share(const SimJob& job, GroupShare& g) {
  std::call_once(g.once, [&g] {
    try {
      init_group(g);
    } catch (...) {
      g.init_error = std::current_exception();
    }
  });
  if (g.init_error) std::rethrow_exception(g.init_error);

  job.config.validate();
  JobResult out;
  if (g.cache) {
    trace::BatchTraceSource src(g.cache);
    out = simulate(job, src);
  } else {
    const OpenTrace in(g.records);
    out = simulate(job, in.source());
  }
  if (g.finished.fetch_add(1) + 1 == g.members) release_group(g);
  return out;
}

/// The grouping decision for a whole run: which jobs share which
/// producer, and the order workers claim jobs in (group members
/// contiguous, groups by first appearance) so a group's consumers run
/// concurrently at any thread count.
struct GroupPlan {
  std::vector<std::unique_ptr<GroupShare>> shares;
  std::vector<GroupShare*> of;     ///< per job; nullptr = private decode
  std::vector<std::size_t> order;  ///< claim order over job indices
};

GroupPlan plan_groups(const std::vector<SimJob>& jobs, unsigned threads) {
  GroupPlan plan;
  plan.of.assign(jobs.size(), nullptr);
  std::map<std::string, std::size_t> index;  // group key -> shares index
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SimJob& j = jobs[i];
    // Memory-backend prepared-trace jobs already share the decoded
    // records by construction.
    if (!j.config.trace_shared_decode) continue;
    const bool memory = j.config.trace_backend == core::TraceBackend::kMemory;
    std::string key;
    if (!j.trace_path.empty()) {
      key = (memory ? "m:path:" : "f:path:") + j.trace_path;
    } else if (j.trace) {
      if (memory) continue;
      key = "f:ptr:";
      key += std::to_string(reinterpret_cast<std::uintptr_t>(j.trace.get()));
    } else {
      key = (memory ? "m:gen:" : "f:gen:") + gen_group_key(j.workload, j.gen);
    }
    const auto [it, inserted] = index.emplace(key, plan.shares.size());
    if (inserted) {
      plan.shares.push_back(std::make_unique<GroupShare>());
      plan.shares.back()->first = &j;
    }
    GroupShare& g = *plan.shares[it->second];
    plan.of[i] = &g;
    ++g.members;
  }
  // A group of one gains nothing over a private source.
  for (auto& owner : plan.of) {
    if (owner != nullptr && owner->members < 2) owner = nullptr;
  }
  for (const auto& share : plan.shares) {
    share->expected = std::min<std::size_t>(share->members, threads);
  }
  // Claim order: each group is one contiguous bucket at its first
  // member's position; private jobs keep their slots. Deterministic, so
  // -j1 and -jN traverse identically.
  std::vector<std::vector<std::size_t>> buckets;
  std::map<const GroupShare*, std::size_t> bucket_of;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    GroupShare* g = plan.of[i];
    if (g == nullptr) {
      buckets.push_back({i});
      continue;
    }
    const auto [it, inserted] = bucket_of.emplace(g, buckets.size());
    if (inserted) {
      buckets.push_back({i});
    } else {
      buckets[it->second].push_back(i);
    }
  }
  plan.order.reserve(jobs.size());
  for (const auto& b : buckets) {
    for (const std::size_t i : b) plan.order.push_back(i);
  }
  return plan;
}

}  // namespace

BatchRunner::BatchRunner(unsigned threads)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {}

JobResult BatchRunner::run_one(const SimJob& job) {
  job.config.validate();
  const OpenTrace in = open_job(job);
  return simulate(job, in.source());
}

std::vector<JobResult> BatchRunner::run(const std::vector<SimJob>& jobs,
                                        std::vector<GroupDecodeStats>* decode_stats) const {
  std::vector<JobResult> results(jobs.size());
  const GroupPlan plan = plan_groups(jobs, threads_);
  const auto run_job = [&](std::size_t i) {
    results[i] =
        plan.of[i] != nullptr ? run_one_with_share(jobs[i], *plan.of[i]) : run_one(jobs[i]);
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, jobs.size()));
  if (workers <= 1) {
    for (const std::size_t i : plan.order) run_job(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          for (std::size_t k = next.fetch_add(1);
               k < plan.order.size() && !failed.load(std::memory_order_relaxed);
               k = next.fetch_add(1)) {
            run_job(plan.order[k]);
          }
        } catch (...) {
          errors[w] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : pool) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  if (decode_stats != nullptr) {
    decode_stats->clear();
    for (const auto& share : plan.shares) {
      if (share->members < 2) continue;  // dissolved singleton group
      GroupDecodeStats s = share->decoded;
      s.workload = !share->first->workload.empty() ? share->first->workload
                                                   : share->first->trace_path;
      s.members = share->members;
      s.consumers = share->expected;
      decode_stats->push_back(std::move(s));
    }
  }
  return results;
}

void BatchRunner::run_batches(const std::vector<SimJob>& jobs,
                              const std::function<void(const std::vector<JobResult>&)>& done,
                              std::vector<GroupDecodeStats>* decode_stats) const {
  const std::size_t batch = std::max<std::size_t>(16, threads_ * 4);
  for (std::size_t first = 0; first < jobs.size(); first += batch) {
    const auto b = jobs.begin() + static_cast<std::ptrdiff_t>(first);
    const std::vector<SimJob> slice(
        b, b + static_cast<std::ptrdiff_t>(std::min(batch, jobs.size() - first)));
    std::vector<GroupDecodeStats> stats;
    done(run(slice, decode_stats != nullptr ? &stats : nullptr));
    if (decode_stats != nullptr) decode_stats->insert(decode_stats->end(), stats.begin(), stats.end());
  }
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_header(const std::vector<std::string>& extra_params) {
  std::string h =
      "label,workload,variant,width,ifq,rob,lsq,bp,mem";
  for (const auto& p : extra_params) h += ',' + p;
  h +=
      ",committed,fetched,wrong_path_fetched,squashed,"
      "major_cycles,minor_cycles,trace_records,trace_bits,"
      "ipc,bits_per_record";
  return h;
}

std::string csv_row(const JobResult& r, const std::vector<std::string>& extra_params) {
  const auto& reg = config::ParamRegistry::instance();
  std::ostringstream os;
  os << csv_escape(r.label) << ',' << csv_escape(r.workload) << ','
     << core::variant_name(r.config.variant)
     << ',' << r.config.width << ',' << r.config.ifq_size << ',' << r.config.rob_size
     << ',' << r.config.lsq_size << ',' << config::dir_kind_name(r.config.bp.kind)
     << ',' << config::memsys_kind_name(r.config.mem);
  for (const auto& p : extra_params) os << ',' << csv_escape(reg.get(r.config, p));
  os << ',' << r.result.committed << ','
     << r.result.fetched << ',' << r.result.wrong_path_fetched << ','
     << r.result.squashed << ',' << r.result.major_cycles << ','
     << r.result.minor_cycles << ',' << r.result.trace_records << ','
     << r.result.trace_bits << ',' << std::fixed << std::setprecision(6)
     << r.result.ipc() << ',' << r.result.bits_per_record();
  return os.str();
}

void write_csv(std::ostream& os, const std::vector<JobResult>& results,
               const std::vector<std::string>& extra_params) {
  os << csv_header(extra_params) << '\n';
  for (const auto& r : results) os << csv_row(r, extra_params) << '\n';
}

namespace {

/// The one RFC-4180 walk: split on unquoted commas, fields kept
/// verbatim (quotes included). Joining the result with ',' reproduces
/// the line, so every other helper derives from this split.
std::vector<std::string> split_csv_fields(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (const char c : line) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return out;
}

}  // namespace

std::string csv_first_field(const std::string& line) {
  const std::string f = split_csv_fields(line).front();
  if (f.empty() || f[0] != '"') return f;
  std::string out;
  for (std::size_t i = 1; i < f.size(); ++i) {
    if (f[i] == '"') {
      if (i + 1 < f.size() && f[i + 1] == '"') {
        out += '"';
        ++i;  // doubled quote inside a quoted field
      } else {
        break;  // closing quote
      }
    } else {
      out += f[i];
    }
  }
  return out;
}

std::string csv_field_prefix(const std::string& line, std::size_t fields) {
  const auto all = split_csv_fields(line);
  std::string out;
  for (std::size_t i = 0; i < std::min(fields, all.size()); ++i) {
    if (i != 0) out += ',';
    out += all[i];
  }
  return out;
}

std::size_t csv_config_fields(const std::vector<std::string>& extra_params) {
  // Everything before the "committed" column is configuration (label,
  // workload, the fixed config columns, then the extra dotted-path
  // columns). Derived from csv_header itself so the two can never drift.
  const auto fields = split_csv_fields(csv_header(extra_params));
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i] == "committed") return i;
  }
  return fields.size();
}

std::string csv_config_prefix(const SimJob& job,
                              const std::vector<std::string>& extra_params,
                              std::size_t fields) {
  JobResult r;
  r.label = job.label;
  r.workload = job.workload;
  r.config = job.config;
  if (fields == 0) fields = csv_config_fields(extra_params);
  return csv_field_prefix(csv_row(r, extra_params), fields);
}

namespace {

/// Shape check for the final metric column (bits_per_record, always
/// fixed-6 formatted): catches a row truncated inside its last field,
/// which keeps the field count intact.
bool is_fixed6(const std::string& f) {
  const auto dot = f.find('.');
  if (dot == std::string::npos || dot == 0 || f.size() - dot - 1 != 6) return false;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i == dot) continue;
    if (f[i] < '0' || f[i] > '9') return false;
  }
  return true;
}

}  // namespace

ResumeState parse_resume_csv(std::istream& existing,
                             const std::string& expected_header) {
  ResumeState st;
  std::string line;
  if (!std::getline(existing, line)) return st;  // empty file: nothing done yet
  if (line != expected_header) {
    throw std::runtime_error(
        "--resume: existing CSV header does not match this sweep's layout; "
        "refusing to append (file header \"" +
        line + "\", sweep writes \"" + expected_header + "\")");
  }
  const std::size_t want = split_csv_fields(expected_header).size();
  while (std::getline(existing, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv_fields(line);
    if (fields.size() != want || !is_fixed6(fields.back())) {
      ++st.dropped;  // truncated by a crash / full disk: the point re-runs
      continue;
    }
    st.labels.push_back(csv_first_field(line));
    st.rows.push_back(line);
  }
  return st;
}

}  // namespace resim::driver
