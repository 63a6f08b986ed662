#include "config/config_file.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "config/param_registry.hpp"

namespace resim::config {

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split_list(const std::string& csv, const std::string& what) {
  std::vector<std::string> out;
  std::size_t start = 0;
  // Manual scan rather than getline so a trailing comma yields a
  // detectable empty item instead of vanishing.
  while (true) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        trim(std::string_view(csv).substr(start, comma - start));
    if (item.empty()) {
      throw std::invalid_argument(what + ": empty item in list '" + csv + "'");
    }
    out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::pair<std::string, std::string> split_assignment(const std::string& s,
                                                     const std::string& what) {
  const std::size_t eq = s.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument(what + ": expected key=value, got '" + s + "'");
  }
  std::string key = trim(std::string_view(s).substr(0, eq));
  std::string value = trim(std::string_view(s).substr(eq + 1));
  if (key.empty() || value.empty()) {
    throw std::invalid_argument(what + ": expected key=value, got '" + s + "'");
  }
  return {std::move(key), std::move(value)};
}

namespace {

/// Strips comment + whitespace; returns "" for blank/comment-only lines.
std::string logical_line(const std::string& raw) {
  const std::size_t hash = raw.find('#');
  return trim(std::string_view(raw).substr(0, hash));
}

}  // namespace

void load_config(std::istream& is, core::CoreConfig& cfg, const std::string& what,
                 std::vector<std::string>* assigned) {
  const auto& reg = ParamRegistry::instance();
  std::string raw;
  unsigned lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    const std::string line = logical_line(raw);
    if (line.empty()) continue;
    const std::string where = what + ":" + std::to_string(lineno);
    const auto [key, value] = split_assignment(line, where);
    try {
      reg.set(cfg, key, value);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(where + ": " + e.what());
    }
    if (assigned != nullptr) assigned->push_back(key);
  }
}

void load_config_file(const std::string& path, core::CoreConfig& cfg) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open config file: " + path);
  load_config(f, cfg, path);
}

void save_config(std::ostream& os, const core::CoreConfig& cfg) {
  const auto& reg = ParamRegistry::instance();
  os << "# ReSim configuration (resim_cli --config; grammar: docs/CONFIG.md)\n";
  std::string group;
  for (const auto& p : reg.params()) {
    // Blank line + banner between top-level groups (core / core.fu /
    // pipeline / bp / mem.*) keeps hand-editing pleasant.
    const std::string g = p.path.substr(0, p.path.rfind('.'));
    if (g != group) {
      group = g;
      os << "\n# --- " << group << " ---\n";
    }
    os << p.path << " = " << reg.format(p, cfg);
    os << "  # " << p.doc;
    const std::string c = p.constraint_doc();
    if (!c.empty()) os << " (" << c << ")";
    os << '\n';
  }
}

void save_config_file(const std::string& path, const core::CoreConfig& cfg) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open config file for writing: " + path);
  save_config(f, cfg);
  if (!f) throw std::runtime_error("write failed: " + path);
}

std::string apply_set(core::CoreConfig& cfg, const std::string& assignment) {
  auto [key, value] = split_assignment(assignment, "--set");
  ParamRegistry::instance().set(cfg, key, value);
  return std::move(key);
}

std::vector<std::string> apply_sets(core::CoreConfig& cfg,
                                    const std::vector<std::string>& assignments) {
  std::vector<std::string> keys;
  keys.reserve(assignments.size());
  for (const auto& a : assignments) keys.push_back(apply_set(cfg, a));
  return keys;
}

core::CoreConfig resolve_machine(const std::string& config_text, const std::string& what,
                                 const std::vector<std::string>& sets,
                                 std::vector<std::string>* assigned) {
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  std::istringstream is(config_text);
  load_config(is, cfg, what, assigned);
  (void)apply_sets(cfg, sets);
  return cfg;
}

}  // namespace resim::config
