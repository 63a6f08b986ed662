// Canonical spellings of every enumerated configuration value.
//
// One home for the enum <-> string maps that the CLI, the config-file
// plane, the sweep-spec expander and the CSV/JSON exporters all share,
// so a predictor is "2lev" everywhere: on the command line, in a
// config file, in a sweep axis and in an output row.
#ifndef RESIM_CONFIG_NAMES_H
#define RESIM_CONFIG_NAMES_H

#include <string>
#include <vector>

#include "bpred/config.hpp"
#include "cache/cache.hpp"
#include "cache/memsys.hpp"
#include "core/config.hpp"
#include "core/schedule.hpp"

namespace resim::config {

/// Value names in enum-declaration order (so names()[int(kind)] is the
/// spelling of `kind`); the order the ParamRegistry exposes to users.
[[nodiscard]] const std::vector<std::string>& dir_kind_names();
[[nodiscard]] const std::vector<std::string>& variant_names();
[[nodiscard]] const std::vector<std::string>& repl_names();
[[nodiscard]] const std::vector<std::string>& trace_backend_names();

[[nodiscard]] const char* dir_kind_name(bpred::DirKind k);
[[nodiscard]] const char* repl_name(cache::ReplPolicy p);
[[nodiscard]] const char* trace_backend_name(core::TraceBackend b);

// Throwing reverse maps; the error names the offending value and lists
// the accepted spellings.
[[nodiscard]] bpred::DirKind dir_kind_of(const std::string& name);
[[nodiscard]] core::PipelineVariant variant_of(const std::string& name);
[[nodiscard]] cache::ReplPolicy repl_of(const std::string& name);
[[nodiscard]] core::TraceBackend trace_backend_of(const std::string& name);

/// One-word summary of a memory system ("perfect", "l1", "l2").
[[nodiscard]] const char* memsys_kind_name(const cache::MemSysConfig& m);

}  // namespace resim::config

#endif  // RESIM_CONFIG_NAMES_H
