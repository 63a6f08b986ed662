#include "config/param_registry.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/numeric.hpp"
#include "config/names.hpp"

namespace resim::config {

namespace {

using Cfg = core::CoreConfig;
using u64 = std::uint64_t;

constexpr u64 kNoMax = ~u64{0};

}  // namespace

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const auto v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])) ||
      end == s.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(what + ": expected an unsigned integer, got: " +
                                (s.empty() ? "<empty>" : s));
  }
  return v;
}

bool parse_bool(const std::string& s, const std::string& what) {
  if (s == "true" || s == "1") return true;
  if (s == "false" || s == "0") return false;
  throw std::invalid_argument(what + ": expected true|false|1|0, got: " +
                              (s.empty() ? "<empty>" : s));
}

std::string ParamInfo::type_name() const {
  switch (type) {
    case ParamType::kUInt: return "uint";
    case ParamType::kBool: return "bool";
    case ParamType::kEnum: {
      std::string out;
      for (const auto& v : enum_values) {
        if (!out.empty()) out += '|';
        out += v;
      }
      return out;
    }
  }
  return "?";
}

std::string ParamInfo::constraint_doc() const {
  if (type != ParamType::kUInt) return "";
  std::string out;
  if (pow2) out = "pow2";
  if (min > 0 || max != kNoMax) {
    if (!out.empty()) out += ", ";
    if (max == kNoMax) {
      out += ">= " + std::to_string(min);
    } else {
      out += "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    }
  }
  return out;
}

// Field accessor pair: read as u64, write with a narrowing cast (range
// already enforced by the registry before set() runs).
#define RESIM_ACC(EXPR, CAST)                                                        \
  [](const Cfg& c) -> u64 { return static_cast<u64>(c.EXPR); },                      \
      [](Cfg& c, u64 v) { c.EXPR = static_cast<CAST>(v); }

ParamRegistry::ParamRegistry() {
  auto add = [this](ParamInfo p) {
    if (p.label_tag.empty()) p.label_tag = p.path.substr(p.path.rfind('.') + 1);
    index_.emplace(p.path, params_.size());
    params_.push_back(std::move(p));
  };
  auto uint_p = [&](std::string path, u64 min, u64 max, bool pow2,
                    u64 (*get)(const Cfg&), void (*set)(Cfg&, u64), std::string doc,
                    std::string tag = "") {
    ParamInfo p;
    p.path = std::move(path);
    p.type = ParamType::kUInt;
    p.min = min;
    p.max = max;
    p.pow2 = pow2;
    p.get = get;
    p.set = set;
    p.doc = std::move(doc);
    p.label_tag = std::move(tag);
    add(std::move(p));
  };
  auto bool_p = [&](std::string path, u64 (*get)(const Cfg&), void (*set)(Cfg&, u64),
                    std::string doc) {
    ParamInfo p;
    p.path = std::move(path);
    p.type = ParamType::kBool;
    p.get = get;
    p.set = set;
    p.doc = std::move(doc);
    add(std::move(p));
  };
  auto enum_p = [&](std::string path, std::vector<std::string> values,
                    u64 (*get)(const Cfg&), void (*set)(Cfg&, u64), std::string doc) {
    ParamInfo p;
    p.path = std::move(path);
    p.type = ParamType::kEnum;
    p.enum_values = std::move(values);
    p.get = get;
    p.set = set;
    p.doc = std::move(doc);
    add(std::move(p));
  };

  // --- core.* -------------------------------------------------------------
  uint_p("core.width", 1, 16, false, RESIM_ACC(width, unsigned),
         "N: fetch/dispatch/issue/writeback/commit width", "w");
  uint_p("core.ifq_size", 1, 1u << 16, false, RESIM_ACC(ifq_size, unsigned),
         "instruction fetch queue entries (must hold a fetch group)", "ifq");
  uint_p("core.rob_size", 2, 1u << 16, false, RESIM_ACC(rob_size, unsigned),
         "reorder buffer entries", "rob");
  uint_p("core.lsq_size", 1, 1u << 16, false, RESIM_ACC(lsq_size, unsigned),
         "load/store queue entries", "lsq");
  uint_p("core.mem_read_ports", 1, 64, false, RESIM_ACC(mem_read_ports, unsigned),
         "cache read ports available to Issue");
  uint_p("core.mem_write_ports", 1, 64, false, RESIM_ACC(mem_write_ports, unsigned),
         "memory write ports available to Commit");
  uint_p("core.misfetch_penalty", 0, 1024, false, RESIM_ACC(misfetch_penalty, unsigned),
         "cycles lost on a BTB misfetch (paper: 3)");
  uint_p("core.misspec_penalty", 0, 1024, false, RESIM_ACC(misspec_penalty, unsigned),
         "cycles lost on direction mis-speculation (paper: 3)");

  // --- core.fu.* ----------------------------------------------------------
  uint_p("core.fu.alu_count", 1, 64, false, RESIM_ACC(fu.alu_count, unsigned),
         "integer ALUs in the pool (paper: 4)");
  uint_p("core.fu.alu_latency", 1, 1024, false, RESIM_ACC(fu.alu_latency, unsigned),
         "ALU result latency in cycles");
  bool_p("core.fu.alu_pipelined", RESIM_ACC(fu.alu_pipelined, bool),
         "ALUs accept a new op every cycle");
  uint_p("core.fu.mul_count", 1, 64, false, RESIM_ACC(fu.mul_count, unsigned),
         "multipliers in the pool (paper: 1)");
  uint_p("core.fu.mul_latency", 1, 1024, false, RESIM_ACC(fu.mul_latency, unsigned),
         "multiplier latency in cycles (paper: 3)");
  bool_p("core.fu.mul_pipelined", RESIM_ACC(fu.mul_pipelined, bool),
         "multipliers accept a new op every cycle");
  uint_p("core.fu.div_count", 1, 64, false, RESIM_ACC(fu.div_count, unsigned),
         "dividers in the pool (paper: 1)");
  uint_p("core.fu.div_latency", 1, 1024, false, RESIM_ACC(fu.div_latency, unsigned),
         "divider latency in cycles (paper: 10)");
  bool_p("core.fu.div_pipelined", RESIM_ACC(fu.div_pipelined, bool),
         "dividers accept a new op every cycle (paper: not pipelined)");

  // --- pipeline.* ---------------------------------------------------------
  enum_p("pipeline.variant", variant_names(), RESIM_ACC(variant, core::PipelineVariant),
         "internal minor-cycle organization (latency 2N+3 / N+4 / N+3)");

  // --- bp.* ---------------------------------------------------------------
  enum_p("bp.kind", dir_kind_names(), RESIM_ACC(bp.kind, bpred::DirKind),
         "direction predictor kind");
  uint_p("bp.l1_entries", 1, 1u << 20, true, RESIM_ACC(bp.l1_entries, std::uint32_t),
         "two-level: branch history table entries (paper: 4)");
  uint_p("bp.hist_bits", 1, 30, false, RESIM_ACC(bp.hist_bits, std::uint32_t),
         "two-level: history register length (paper: 8)");
  uint_p("bp.pht_entries", 1, 1u << 26, true, RESIM_ACC(bp.pht_entries, std::uint32_t),
         "two-level: pattern history table entries (paper: 4096)", "pht");
  uint_p("bp.bimodal_entries", 1, 1u << 26, true,
         RESIM_ACC(bp.bimodal_entries, std::uint32_t),
         "bimodal / gshare table entries");
  uint_p("bp.btb_entries", 1, 1u << 24, true, RESIM_ACC(bp.btb_entries, std::uint32_t),
         "branch target buffer entries (paper: 512)", "btb");
  uint_p("bp.btb_assoc", 1, 1u << 10, true, RESIM_ACC(bp.btb_assoc, std::uint32_t),
         "BTB associativity (<= btb_entries)");
  uint_p("bp.ras_entries", 1, 1u << 16, false,
         RESIM_ACC(bp.ras_entries, std::uint32_t),
         "return address stack entries (paper: 16)", "ras");

  // --- mem.* --------------------------------------------------------------
  bool_p("mem.perfect", RESIM_ACC(mem.perfect, bool),
         "perfect memory: every access hits in one cycle (paper config (i))");
  bool_p("mem.with_l2", RESIM_ACC(mem.with_l2, bool),
         "back the L1s with an explicit unified L2 (extension)");

#define RESIM_CACHE_PARAMS(PFX, MEMBER, DESC)                                        \
  uint_p(PFX ".size_bytes", 64, 1u << 30, true, RESIM_ACC(MEMBER.size_bytes,         \
         std::uint32_t), DESC " capacity in bytes");                                 \
  uint_p(PFX ".assoc", 1, 1024, true, RESIM_ACC(MEMBER.assoc, std::uint32_t),        \
         DESC " associativity");                                                     \
  uint_p(PFX ".block_bytes", 8, 4096, true,                                          \
         RESIM_ACC(MEMBER.block_bytes, std::uint32_t), DESC " block size in bytes"); \
  uint_p(PFX ".hit_latency", 1, 4096, false,                                         \
         RESIM_ACC(MEMBER.hit_latency, std::uint32_t), DESC " hit latency");         \
  uint_p(PFX ".miss_latency", 1, 1u << 20, false,                                    \
         RESIM_ACC(MEMBER.miss_latency, std::uint32_t),                              \
         DESC " miss service latency (>= hit_latency)");                             \
  enum_p(PFX ".repl", repl_names(), RESIM_ACC(MEMBER.repl, cache::ReplPolicy),       \
         DESC " replacement policy");                                                \
  bool_p(PFX ".write_allocate", RESIM_ACC(MEMBER.write_allocate, bool),              \
         DESC " allocates on write miss")

  RESIM_CACHE_PARAMS("mem.l1i", mem.l1i, "L1 instruction cache");
  RESIM_CACHE_PARAMS("mem.l1d", mem.l1d, "L1 data cache");
  RESIM_CACHE_PARAMS("mem.l2", mem.l2, "unified L2 cache");
#undef RESIM_CACHE_PARAMS

  // --- trace.* (host-side; never changes simulation results) --------------
  enum_p("trace.backend", trace_backend_names(),
         RESIM_ACC(trace_backend, core::TraceBackend),
         "worker trace source: decoded in memory or chunk-streamed");
  bool_p("trace.shared_decode", RESIM_ACC(trace_shared_decode, bool),
         "share one decoded-batch producer across same-trace sweep jobs");
  bool_p("trace.prefilter", RESIM_ACC(trace_prefilter, bool),
         "delta-filter PCs/addresses ahead of LZ when round-tripping temp traces");

  // --- serve.* (host-side; resim_cli serve daemon knobs) -------------------
  uint_p("serve.max_pending", 1, 1u << 16, false,
         RESIM_ACC(serve_max_pending, unsigned),
         "serve daemon: queued requests before new ones are answered busy");
  uint_p("serve.idle_timeout_s", 0, 1u << 20, false,
         RESIM_ACC(serve_idle_timeout_s, unsigned),
         "serve daemon: idle seconds before self-shutdown (0 = never)");

  // --- sample.* (interval stats + sampled execution, docs/SAMPLING.md) -----
  uint_p("sample.interval_insts", 0, kNoMax, false,
         RESIM_ACC(sample.interval_insts, std::uint64_t),
         "record a time-series stats row every N committed insts (0 = off)");
  uint_p("sample.windows", 0, kNoMax, false, RESIM_ACC(sample.windows, std::uint64_t),
         "sampled execution: number of detailed windows K (0 = full run)", "sw");
  uint_p("sample.window_insts", 1, kNoMax, false,
         RESIM_ACC(sample.window_insts, std::uint64_t),
         "sampled execution: records per detailed window W");
  uint_p("sample.warmup_insts", 0, kNoMax, false,
         RESIM_ACC(sample.warmup_insts, std::uint64_t),
         "sampled execution: functional-warmup records before each window");
}

#undef RESIM_ACC

const ParamRegistry& ParamRegistry::instance() {
  static const ParamRegistry reg;
  return reg;
}

std::vector<std::string> ParamRegistry::enumerate() const {
  std::vector<std::string> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.path);
  return out;
}

const ParamInfo* ParamRegistry::find(std::string_view path) const {
  const auto it = index_.find(path);
  return it == index_.end() ? nullptr : &params_[it->second];
}

const ParamInfo& ParamRegistry::at(const std::string& path) const {
  const ParamInfo* p = find(path);
  if (p == nullptr) throw std::invalid_argument("unknown parameter '" + path + "'");
  return *p;
}

void ParamRegistry::set(core::CoreConfig& cfg, const std::string& path,
                        const std::string& value) const {
  const ParamInfo& p = at(path);
  u64 v = 0;
  switch (p.type) {
    case ParamType::kUInt: {
      v = parse_u64(value, p.path);
      if (v < p.min || v > p.max) {
        throw std::invalid_argument(p.path + ": value " + value +
                                    " out of range (" + p.constraint_doc() + ")");
      }
      if (p.pow2 && !is_pow2(v)) {
        throw std::invalid_argument(p.path + ": must be a power of two, got " + value);
      }
      break;
    }
    case ParamType::kBool:
      v = parse_bool(value, p.path) ? 1 : 0;
      break;
    case ParamType::kEnum: {
      std::size_t i = 0;
      for (; i < p.enum_values.size(); ++i) {
        if (p.enum_values[i] == value) break;
      }
      if (i == p.enum_values.size()) {
        throw std::invalid_argument(p.path + ": unknown value '" + value +
                                    "' (accepted: " + p.type_name() + ")");
      }
      v = i;
      break;
    }
  }
  p.set(cfg, v);
}

std::string ParamRegistry::format(const ParamInfo& p, const core::CoreConfig& cfg) const {
  const u64 v = p.get(cfg);
  switch (p.type) {
    case ParamType::kUInt: return std::to_string(v);
    case ParamType::kBool: return v != 0 ? "true" : "false";
    case ParamType::kEnum:
      if (v >= p.enum_values.size()) {
        throw std::logic_error(p.path + ": enum value " + std::to_string(v) +
                               " has no name");
      }
      return p.enum_values[static_cast<std::size_t>(v)];
  }
  return "?";
}

std::string ParamRegistry::get(const core::CoreConfig& cfg,
                               const std::string& path) const {
  return format(at(path), cfg);
}

std::string ParamRegistry::default_value(const ParamInfo& p) const {
  static const core::CoreConfig defaults{};
  return format(p, defaults);
}

std::string ParamRegistry::label_token(const ParamInfo& p, const std::string& v) {
  switch (p.type) {
    case ParamType::kEnum: return v;
    case ParamType::kBool: return p.label_tag + "=" + v;
    case ParamType::kUInt: return p.label_tag + v;
  }
  return v;
}

std::string ParamRegistry::markdown_table() const {
  // '|' inside a cell (enum spellings) must be escaped in markdown.
  const auto cell = [](std::string s) {
    for (std::size_t i = 0; (i = s.find('|', i)) != std::string::npos; i += 2) {
      s.insert(i, 1, '\\');
    }
    return s;
  };
  std::string out =
      "| Parameter | Type | Default | Constraints | Meaning |\n"
      "|---|---|---|---|---|\n";
  for (const auto& p : params_) {
    out += "| `" + p.path + "` | " + cell(p.type_name()) + " | " + default_value(p) +
           " | " + p.constraint_doc() + " | " + cell(p.doc) + " |\n";
  }
  return out;
}

}  // namespace resim::config
