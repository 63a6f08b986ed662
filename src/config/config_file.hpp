// Text config files and --set overrides over the ParamRegistry.
//
// Grammar (docs/CONFIG.md):
//
//   # full-line comment
//   core.rob_size = 32        # inline comment
//   bp.kind       = 2lev
//
// One `path = value` assignment per line; '#' starts a comment
// anywhere; blank lines ignored; keys are ParamRegistry dotted paths.
// Unknown keys and invalid values are rejected with the file, line
// number and the parameter's dotted path in the error. load_config
// applies assignments onto the caller's config (so a partial file is an
// overlay over whatever base the caller chose); save_config writes
// every registry parameter, and the two round-trip exactly.
//
// This header is also the home of the one list/assignment tokenizer the
// CLI and the sweep-spec parser share.
#ifndef RESIM_CONFIG_CONFIG_FILE_H
#define RESIM_CONFIG_CONFIG_FILE_H

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"

namespace resim::config {

/// Copy of `s` without leading/trailing whitespace.
[[nodiscard]] std::string trim(std::string_view s);

/// Comma-separated list -> trimmed items. Empty items (",,", a lone
/// trailing comma, or " , ") are rejected — "gzip, ,vpr" must not
/// silently produce an empty benchmark name. `what` prefixes errors.
[[nodiscard]] std::vector<std::string> split_list(const std::string& csv,
                                                  const std::string& what);

/// "key=value" or "key = value" -> {key, value}, both trimmed and
/// non-empty. Splits on the FIRST '='.
[[nodiscard]] std::pair<std::string, std::string> split_assignment(
    const std::string& s, const std::string& what);

/// Parse config text, applying each assignment to `cfg` through the
/// ParamRegistry. `what` names the source in errors ("file.cfg:3: ...").
/// Does NOT run cfg.validate(): callers validate after the last overlay
/// (--set) has been applied, so cross-field constraints see the final
/// configuration. `assigned`, when non-null, collects the dotted path of
/// every assignment.
void load_config(std::istream& is, core::CoreConfig& cfg, const std::string& what,
                 std::vector<std::string>* assigned = nullptr);
void load_config_file(const std::string& path, core::CoreConfig& cfg);

/// Write every registry parameter as documented `path = value` lines.
/// save -> load reproduces the config exactly; save -> load -> save is
/// byte-identical.
void save_config(std::ostream& os, const core::CoreConfig& cfg);
void save_config_file(const std::string& path, const core::CoreConfig& cfg);

/// Apply one "path=value" override (the CLI's repeatable --set flag);
/// returns the assigned dotted path.
std::string apply_set(core::CoreConfig& cfg, const std::string& assignment);
/// Applies in order (last writer wins); returns the assigned paths.
std::vector<std::string> apply_sets(core::CoreConfig& cfg,
                                    const std::vector<std::string>& assignments);

/// The machine a run names, resolved one way for the CLI and the daemon:
/// paper_4wide_perfect, then `config_text` (a config file's contents,
/// `what` in errors), then each of `sets` in order; nothing is derived.
/// Not validate()d (a sweep validates each grid point instead).
/// `assigned`, when non-null, collects the config text's dotted paths.
[[nodiscard]] core::CoreConfig resolve_machine(const std::string& config_text,
                                               const std::string& what,
                                               const std::vector<std::string>& sets,
                                               std::vector<std::string>* assigned = nullptr);

}  // namespace resim::config

#endif  // RESIM_CONFIG_CONFIG_FILE_H
