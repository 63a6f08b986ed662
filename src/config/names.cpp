#include "config/names.hpp"

#include <stdexcept>

namespace resim::config {

namespace {

/// Reverse lookup over an enum-ordered name table.
std::size_t index_of(const std::vector<std::string>& names, const std::string& name,
                     const char* what) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  std::string accepted;
  for (const auto& n : names) {
    if (!accepted.empty()) accepted += '|';
    accepted += n;
  }
  throw std::invalid_argument(std::string(what) + ": unknown value '" + name +
                              "' (accepted: " + accepted + ")");
}

}  // namespace

const std::vector<std::string>& dir_kind_names() {
  static const std::vector<std::string> names = {
      "taken", "nottaken", "bimodal", "gshare", "2lev", "comb", "perfect"};
  return names;
}

const std::vector<std::string>& variant_names() {
  static const std::vector<std::string> names = {"simple", "efficient", "optimized"};
  return names;
}

const std::vector<std::string>& repl_names() {
  static const std::vector<std::string> names = {"lru", "fifo", "random"};
  return names;
}

const std::vector<std::string>& trace_backend_names() {
  static const std::vector<std::string> names = {"memory", "stream"};
  return names;
}

const char* dir_kind_name(bpred::DirKind k) {
  return dir_kind_names()[static_cast<std::size_t>(k)].c_str();
}

const char* repl_name(cache::ReplPolicy p) {
  return repl_names()[static_cast<std::size_t>(p)].c_str();
}

bpred::DirKind dir_kind_of(const std::string& name) {
  return static_cast<bpred::DirKind>(index_of(dir_kind_names(), name, "predictor"));
}

core::PipelineVariant variant_of(const std::string& name) {
  return static_cast<core::PipelineVariant>(
      index_of(variant_names(), name, "pipeline variant"));
}

cache::ReplPolicy repl_of(const std::string& name) {
  return static_cast<cache::ReplPolicy>(
      index_of(repl_names(), name, "replacement policy"));
}

const char* trace_backend_name(core::TraceBackend b) {
  return trace_backend_names()[static_cast<std::size_t>(b)].c_str();
}

core::TraceBackend trace_backend_of(const std::string& name) {
  return static_cast<core::TraceBackend>(
      index_of(trace_backend_names(), name, "trace backend"));
}

const char* memsys_kind_name(const cache::MemSysConfig& m) {
  if (m.perfect) return "perfect";
  return m.with_l2 ? "l2" : "l1";
}

}  // namespace resim::config
