// Typed serve requests: parse (strict) and run (byte-identical).
//
// Parsing happens on the session thread, BEFORE a request is queued, so
// a malformed sim/sweep is answered with `bad-request` immediately
// instead of occupying a pending slot; the queued job carries a fully
// resolved CoreConfig / SweepSpec. Parsing is strict the way the JSON
// layer is strict: unknown members are rejected by name (a typoed
// "configs" must not silently run with defaults), and every type or
// range violation names the offending field.
//
// Running reproduces the one-shot CLI byte for byte — the served-vs-CLI
// CI gate cmp's both — because both front ends call the same driver: a
// sim opens and runs its trace through driver::open_trace and
// driver::run_trace (sampled or one window, as `sim` runs it), and a
// sweep streams BatchRunner::run_batches' results, the loop `sweep
// --resume` checkpoints with, through a Sink callback, so a long sweep's
// CSV arrives row by row. The serializers (result_json, csv_header/
// csv_row, config_csv_header/row) are the CLI's.
//
// Config/spec text travels INLINE in the request ("config", "spec" hold
// file contents, not paths), so a client on another machine — or merely
// another working directory — needs no filesystem agreement with the
// daemon beyond the trace containers themselves.
#ifndef RESIM_SERVE_REQUEST_H
#define RESIM_SERVE_REQUEST_H

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/sweep_spec.hpp"
#include "core/config.hpp"
#include "driver/run.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/trace_cache.hpp"

namespace resim::serve {

/// A request the protocol must refuse, with the ErrCode to send back.
class RequestError : public std::runtime_error {
 public:
  RequestError(ErrCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] ErrCode code() const { return code_; }

 private:
  ErrCode code_;
};

/// Bounds on the client-chosen priority ("priority" member; higher runs
/// first, default 0).
inline constexpr int kMinPriority = 0;
inline constexpr int kMaxPriority = 9;

/// `sim` request, resolved. Mirrors `resim_cli sim`: one trace, one
/// configuration, an optional record window or sampling; the response
/// streams the exact bytes `sim --json` writes.
struct SimRequest {
  std::string id;
  int priority = 0;
  std::string trace_path;
  core::CoreConfig config{};  ///< defaults < "config" text < "set" list
  driver::RunSpec run;        ///< "skip", "warmup", "max_records"
};

/// `sweep` response body format, matching the CLI's three exporters.
enum class SweepFormat : std::uint8_t {
  kCsv,      ///< sweep CSV (csv_header/csv_row; the --out bytes)
  kJson,     ///< JSON array (write_json's bytes)
  kCsvFull,  ///< full-configuration CSV (write_config_csv's bytes)
};

/// `sweep` request, resolved. The spec has already been assembled over
/// the request's machine by driver::resolve_sweep, as `sweep --spec` does.
struct SweepRequest {
  std::string id;
  int priority = 0;
  config::SweepSpec spec{};
  std::string trace_path;  ///< optional prepared trace (like --trace)
  SweepFormat format = SweepFormat::kCsv;
};

/// Best-effort "id" of a request payload, for error frames about
/// requests that failed validation ("" when absent or not a string).
[[nodiscard]] std::string request_id_of(const JsonValue& v);

/// Parse + resolve a sim/sweep request object (already known to carry
/// "type":"sim" / "type":"sweep"). Throws RequestError (kBadRequest)
/// naming the offending member.
[[nodiscard]] SimRequest parse_sim_request(const JsonValue& v);
[[nodiscard]] SweepRequest parse_sweep_request(const JsonValue& v);

/// Receives response body bytes in order; concatenating every chunk
/// yields exactly the one-shot CLI's output file.
using Sink = std::function<void(std::string_view)>;

/// Execute a request, streaming output through `sink`. Trace problems
/// and engine throws propagate as std::runtime_error (the daemon
/// answers kRunFailed); the sink is never called again after a throw.
void run_sim(const SimRequest& req, SharedTraceCache& traces, const Sink& sink);
void run_sweep(const SweepRequest& req, unsigned threads, SharedTraceCache& traces,
               const Sink& sink);

}  // namespace resim::serve

#endif  // RESIM_SERVE_REQUEST_H
