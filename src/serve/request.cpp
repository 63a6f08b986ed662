#include "serve/request.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "driver/batch_runner.hpp"
#include "driver/result_export.hpp"
#include "driver/sweep_grid.hpp"
#include "resim/resim.hpp"

namespace resim::serve {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw RequestError(ErrCode::kBadRequest, what);
}

/// Reject members outside `allowed` by name: a typoed "configs" must
/// fail loudly, not silently run with defaults.
void check_members(const JsonValue& v, std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : v.as_object()) {
    (void)value;
    if (std::find_if(allowed.begin(), allowed.end(),
                     [&](const char* a) { return key == a; }) == allowed.end()) {
      bad("unknown request member '" + key + "'");
    }
  }
}

std::string required_string(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) bad(std::string("missing required member '") + key + "'");
  if (m->kind() != JsonValue::Kind::kString) {
    bad(std::string("member '") + key + "' must be a string, got " +
        JsonValue::kind_name(m->kind()));
  }
  return m->as_string();
}

std::string optional_string(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) return {};
  if (m->kind() != JsonValue::Kind::kString) {
    bad(std::string("member '") + key + "' must be a string, got " +
        JsonValue::kind_name(m->kind()));
  }
  return m->as_string();
}

std::optional<std::uint64_t> optional_u64(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) return std::nullopt;
  try {
    return m->as_u64(std::string("member '") + key + "'");
  } catch (const std::exception& e) {
    bad(e.what());
  }
}

int parse_priority(const JsonValue& v) {
  const auto p = optional_u64(v, "priority");
  if (!p) return kMinPriority;
  if (*p > static_cast<std::uint64_t>(kMaxPriority)) {
    bad("member 'priority' must be in [" + std::to_string(kMinPriority) + ", " +
        std::to_string(kMaxPriority) + "], got " + std::to_string(*p));
  }
  return static_cast<int>(*p);
}

std::vector<std::string> parse_sets(const JsonValue& v) {
  const JsonValue* m = v.find("set");
  if (m == nullptr) return {};
  if (m->kind() != JsonValue::Kind::kArray) {
    bad(std::string("member 'set' must be an array of \"path=value\" strings, got ") +
        JsonValue::kind_name(m->kind()));
  }
  std::vector<std::string> sets;
  sets.reserve(m->as_array().size());
  for (const auto& e : m->as_array()) {
    if (e.kind() != JsonValue::Kind::kString) {
      bad(std::string("member 'set' entries must be strings, got ") +
          JsonValue::kind_name(e.kind()));
    }
    sets.push_back(e.as_string());
  }
  return sets;
}

/// A request's machine, resolved as the CLI resolves its flags
/// (config::resolve_machine): paper defaults, then the inline "config"
/// text, then the "set" list.
core::CoreConfig resolve_config(const JsonValue& v, bool validate) {
  const std::string text = optional_string(v, "config");
  const std::vector<std::string> sets = parse_sets(v);
  try {
    core::CoreConfig cfg = config::resolve_machine(text, "request config", sets);
    if (validate) cfg.validate();
    return cfg;
  } catch (const std::exception& e) {
    bad(e.what());
  }
}

}  // namespace

std::string request_id_of(const JsonValue& v) {
  const JsonValue* id = v.find("id");
  return (id != nullptr && id->kind() == JsonValue::Kind::kString) ? id->as_string()
                                                                   : std::string();
}

SimRequest parse_sim_request(const JsonValue& v) {
  check_members(v, {"type", "id", "priority", "trace", "config", "set", "skip",
                    "warmup", "max_records"});
  SimRequest req;
  req.id = required_string(v, "id");
  req.priority = parse_priority(v);
  req.trace_path = required_string(v, "trace");
  if (req.trace_path.empty()) bad("member 'trace' must not be empty");
  req.config = resolve_config(v, /*validate=*/true);
  req.run.skip = optional_u64(v, "skip").value_or(0);
  req.run.warmup = optional_u64(v, "warmup").value_or(0);
  req.run.max_records = optional_u64(v, "max_records");
  try {
    req.run.validate(req.config);  // refused here, not after queueing
  } catch (const std::exception& e) {
    bad(e.what());
  }
  return req;
}

SweepRequest parse_sweep_request(const JsonValue& v) {
  check_members(v, {"type", "id", "priority", "spec", "config", "set", "trace",
                    "insts", "format"});
  SweepRequest req;
  req.id = required_string(v, "id");
  req.priority = parse_priority(v);
  req.trace_path = optional_string(v, "trace");

  const std::string format = optional_string(v, "format");
  if (format.empty() || format == "csv") {
    req.format = SweepFormat::kCsv;
  } else if (format == "json") {
    req.format = SweepFormat::kJson;
  } else if (format == "csv-full") {
    req.format = SweepFormat::kCsvFull;
  } else {
    bad("member 'format' must be one of csv, json, csv-full; got '" + format + "'");
  }

  // The spec over the request's machine, exactly as `sweep --spec` does
  // it; grid points are validate()d by expand_spec, not here.
  const core::CoreConfig base = resolve_config(v, /*validate=*/false);
  const std::string spec_text = required_string(v, "spec");
  const auto insts = optional_u64(v, "insts");
  try {
    std::istringstream is(spec_text);
    req.spec = driver::resolve_sweep(is, "request spec", base, parse_sets(v), insts);
  } catch (const std::exception& e) {
    bad(e.what());
  }
  return req;
}

void run_sim(const SimRequest& req, SharedTraceCache& traces, const Sink& sink) {
  // The memory backend borrows the resident trace instead of decoding.
  const driver::OpenTrace in =
      driver::open_trace(req.trace_path, req.config.trace_backend,
                         [&traces](const std::string& path) { return traces.get(path); });
  const driver::JobResult jr{in.name(), in.name(), req.config,
                             driver::run_trace(req.config, in.source(), req.run).result};
  sink(driver::result_json(jr) + '\n');
}

void run_sweep(const SweepRequest& req, unsigned threads, SharedTraceCache& traces,
               const Sink& sink) {
  // The memory backend borrows the resident trace, as run_sim does.
  auto grid = driver::expand_sweep(req.spec, req.trace_path,
                                   [&traces](const std::string& path) { return traces.get(path); });
  const std::size_t total = grid.jobs.size();

  switch (req.format) {
    case SweepFormat::kCsv:
      sink(driver::csv_header(grid.extra_csv_paths) + '\n');
      break;
    case SweepFormat::kJson:
      sink("[\n");
      break;
    case SweepFormat::kCsvFull:
      sink(driver::config_csv_header() + '\n');
      break;
  }
  std::size_t done = 0;
  driver::BatchRunner(threads).run_batches(grid.jobs, [&](const auto& part) {
    for (const auto& r : part) {
      ++done;
      switch (req.format) {
        case SweepFormat::kCsv:
          sink(driver::csv_row(r, grid.extra_csv_paths) + '\n');
          break;
        case SweepFormat::kJson:
          sink(driver::result_json(r, 2) + (done < total ? ",\n" : "\n"));
          break;
        case SweepFormat::kCsvFull:
          sink(driver::config_csv_row(r) + '\n');
          break;
      }
    }
  });
  if (req.format == SweepFormat::kJson) sink("]\n");
}

}  // namespace resim::serve
