#include "driver/result_export.hpp"

#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "config/param_registry.hpp"

namespace resim::driver {

namespace {

std::string fixed6(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6) << v;
  return os.str();
}

/// Config value as a JSON literal: numbers and booleans bare, enums
/// quoted — same typing the registry exposes.
std::string json_value(const config::ParamInfo& p, const core::CoreConfig& cfg) {
  const auto& reg = config::ParamRegistry::instance();
  const std::string v = reg.format(p, cfg);
  if (p.type != config::ParamType::kEnum) return v;
  // Built up in place: `"..." + std::string` trips GCC 12's -Wrestrict
  // false positive (PR105651) at -O3.
  std::string out = "\"";
  out += json_escape(v);
  out += '"';
  return out;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string result_json(const JobResult& r, unsigned indent) {
  const auto& reg = config::ParamRegistry::instance();
  const std::string in(indent, ' ');
  std::ostringstream os;
  os << in << "{\n";
  os << in << "  \"label\": \"" << json_escape(r.label) << "\",\n";
  os << in << "  \"workload\": \"" << json_escape(r.workload) << "\",\n";

  os << in << "  \"config\": {\n";
  const auto& params = reg.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    os << in << "    \"" << params[i].path << "\": " << json_value(params[i], r.config)
       << (i + 1 < params.size() ? ",\n" : "\n");
  }
  os << in << "  },\n";

  os << in << "  \"result\": {\n";
  os << in << "    \"committed\": " << r.result.committed << ",\n";
  os << in << "    \"fetched\": " << r.result.fetched << ",\n";
  os << in << "    \"wrong_path_fetched\": " << r.result.wrong_path_fetched << ",\n";
  os << in << "    \"squashed\": " << r.result.squashed << ",\n";
  os << in << "    \"major_cycles\": " << r.result.major_cycles << ",\n";
  os << in << "    \"minor_cycles\": " << r.result.minor_cycles << ",\n";
  os << in << "    \"trace_records\": " << r.result.trace_records << ",\n";
  os << in << "    \"trace_bits\": " << r.result.trace_bits << ",\n";
  os << in << "    \"ipc\": " << fixed6(r.result.ipc()) << ",\n";
  os << in << "    \"bits_per_record\": " << fixed6(r.result.bits_per_record()) << "\n";
  os << in << "  },\n";

  os << in << "  \"stats\": {\n";
  os << in << "    \"counters\": {";
  // Only touched stats are exported (the registry's visibility contract):
  // resolve-once handles register names eagerly, and a silent counter
  // must not appear where the lazy-creation binary printed nothing.
  std::size_t i = 0;
  for (const auto& [name, c] : r.result.stats.counters()) {
    if (!c.touched()) continue;
    os << (i++ == 0 ? "\n" : ",\n") << in << "      \"" << json_escape(name)
       << "\": " << c.value();
  }
  os << (i == 0 ? "" : "\n" + in + "    ") << "},\n";
  os << in << "    \"occupancies\": {";
  i = 0;
  for (const auto& [name, o] : r.result.stats.occupancies()) {
    if (!o.touched()) continue;
    os << (i++ == 0 ? "\n" : ",\n") << in << "      \"" << json_escape(name)
       << "\": {\"average\": " << fixed6(o.average()) << ", \"max\": " << o.max()
       << ", \"samples\": " << o.samples() << "}";
  }
  os << (i == 0 ? "" : "\n" + in + "    ") << "}\n";
  os << in << "  }\n";
  os << in << "}";
  return os.str();
}

void write_json(std::ostream& os, const std::vector<JobResult>& results) {
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << result_json(results[i], 2) << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

std::string config_csv_header() {
  const auto& reg = config::ParamRegistry::instance();
  std::string h = "label,workload";
  for (const auto& p : reg.params()) {
    h += ',';
    h += p.path;
  }
  h += ",committed,fetched,wrong_path_fetched,squashed,major_cycles,minor_cycles,"
       "trace_records,trace_bits,ipc,bits_per_record";
  return h;
}

std::string config_csv_row(const JobResult& r) {
  const auto& reg = config::ParamRegistry::instance();
  std::string row = csv_escape(r.label);
  row += ',';
  row += csv_escape(r.workload);
  for (const auto& p : reg.params()) {
    row += ',';
    row += reg.format(p, r.config);
  }
  row += ',' + std::to_string(r.result.committed);
  row += ',' + std::to_string(r.result.fetched);
  row += ',' + std::to_string(r.result.wrong_path_fetched);
  row += ',' + std::to_string(r.result.squashed);
  row += ',' + std::to_string(r.result.major_cycles);
  row += ',' + std::to_string(r.result.minor_cycles);
  row += ',' + std::to_string(r.result.trace_records);
  row += ',' + std::to_string(r.result.trace_bits);
  row += ',' + fixed6(r.result.ipc());
  row += ',' + fixed6(r.result.bits_per_record());
  return row;
}

void write_config_csv(std::ostream& os, const std::vector<JobResult>& results) {
  os << config_csv_header() << '\n';
  for (const auto& r : results) os << config_csv_row(r) << '\n';
}

void write_intervals_csv(std::ostream& os, const std::vector<core::IntervalRow>& rows) {
  os << "interval,end_inst,end_cycle,committed,cycles,branches,mispredicts,"
        "il1_misses,dl1_misses,ipc,mpki,branch_mpki\n";
  for (const auto& row : rows) {
    const core::Region& r = row.region;
    os << row.index << ',' << row.end_inst << ',' << row.end_cycle << ',' << r.committed << ','
       << r.cycles << ',' << r.branches << ',' << r.mispredicts << ',' << r.il1_misses << ','
       << r.dl1_misses << ',' << fixed6(r.ipc()) << ',' << fixed6(r.mpki()) << ','
       << fixed6(r.branch_mpki()) << '\n';
  }
}

void write_intervals_json(std::ostream& os, const std::vector<core::IntervalRow>& rows,
                          std::uint64_t interval_insts) {
  // Columnar: one array per metric, index-aligned — the layout plotting
  // tools consume directly, and far smaller than row objects.
  const auto column = [&os, &rows](const char* name, auto getter, bool last = false) {
    os << "  \"" << name << "\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i != 0) os << ", ";
      os << getter(rows[i]);
    }
    os << (last ? "]\n" : "],\n");
  };
  os << "{\n";
  os << "  \"interval_insts\": " << interval_insts << ",\n";
  os << "  \"intervals\": " << rows.size() << ",\n";
  using Row = core::IntervalRow;
  column("end_inst", [](const Row& r) { return r.end_inst; });
  column("end_cycle", [](const Row& r) { return r.end_cycle; });
  column("committed", [](const Row& r) { return r.region.committed; });
  column("cycles", [](const Row& r) { return r.region.cycles; });
  column("branches", [](const Row& r) { return r.region.branches; });
  column("mispredicts", [](const Row& r) { return r.region.mispredicts; });
  column("il1_misses", [](const Row& r) { return r.region.il1_misses; });
  column("dl1_misses", [](const Row& r) { return r.region.dl1_misses; });
  column("ipc", [](const Row& r) { return fixed6(r.region.ipc()); });
  column("mpki", [](const Row& r) { return fixed6(r.region.mpki()); });
  column("branch_mpki", [](const Row& r) { return fixed6(r.region.branch_mpki()); }, true);
  os << "}\n";
}

}  // namespace resim::driver
