#include "common/stats.hpp"

#include <iomanip>
#include <sstream>

namespace resim {

Counter& StatsRegistry::counter(std::string_view name) {
  // lower_bound + hinted emplace: one tree descent whether the name
  // exists or not (find-then-emplace paid two on every first use).
  auto it = counters_.lower_bound(name);
  if (it == counters_.end() || it->first != name) {
    it = counters_.emplace_hint(it, std::string(name), Counter{});
  }
  return it->second;
}

Occupancy& StatsRegistry::occupancy(std::string_view name) {
  auto it = occupancies_.lower_bound(name);
  if (it == occupancies_.end() || it->first != name) {
    it = occupancies_.emplace_hint(it, std::string(name), Occupancy{});
  }
  return it->second;
}

std::uint64_t StatsRegistry::value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

bool StatsRegistry::has_counter(std::string_view name) const {
  // Visibility contract: a resolved-but-silent handle is not "a counter"
  // yet, exactly as it was absent under create-on-first-event.
  const auto it = counters_.find(name);
  return it != counters_.end() && it->second.touched();
}

void StatsRegistry::merge(const StatsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    if (c.touched()) counter(name).add(c.value());
  }
  for (const auto& [name, o] : other.occupancies_) {
    if (o.touched()) occupancy(name).merge_from(o);
  }
}

std::string StatsRegistry::report() const {
  std::ostringstream os;
  std::string line_name;  // reused across lines: no per-line allocation churn
  for (const auto& [name, c] : counters_) {
    if (!c.touched()) continue;
    os << std::left << std::setw(34) << name << ' ' << c.value() << '\n';
  }
  for (const auto& [name, o] : occupancies_) {
    if (!o.touched()) continue;
    line_name.assign(name);
    line_name += ".avg";
    os << std::left << std::setw(34) << line_name << ' ' << std::fixed
       << std::setprecision(4) << o.average() << '\n';
    line_name.resize(name.size());
    line_name += ".max";
    os << std::left << std::setw(34) << line_name << ' ' << o.max() << '\n';
  }
  return os.str();
}

}  // namespace resim
