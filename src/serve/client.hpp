// Client side of the serve protocol (resim_cli client, tests, CI).
//
// A Client connects, verifies the server's hello (protocol version
// mismatch is an immediate error, not a silent best-effort), then runs
// one request/response exchange at a time: request() sends a payload
// and streams every `data` chunk into an ostream until `done`, so the
// written file is byte-identical to the one-shot CLI output the daemon
// promises. An `error` frame surfaces as ServerError carrying the
// protocol error code string, which the CLI prints verbatim — the CI
// hostile-input leg greps for those names.
#ifndef RESIM_SERVE_CLIENT_H
#define RESIM_SERVE_CLIENT_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace resim::serve {

/// The server answered with an `error` frame.
class ServerError : public std::runtime_error {
 public:
  ServerError(std::string code, const std::string& message)
      : std::runtime_error("server error [" + code + "]: " + message),
        code_(std::move(code)) {}
  /// The ErrCode spelling from the wire ("busy", "bad-request", ...).
  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

class Client {
 public:
  /// Connect to the daemon's Unix socket, then read + verify the hello
  /// frame.
  [[nodiscard]] static Client connect_to_unix(const std::string& path);

  /// Totals reported by the server's `done` frame.
  struct Done {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
  };

  /// Send one request payload and stream its response body into `out`.
  /// Throws ServerError on an `error` frame, std::runtime_error on a
  /// broken connection or malformed server frame.
  Done request(const std::string& payload, std::ostream& out);

  /// Ping; returns once the pong for `id` arrives.
  void ping(const std::string& id);

  /// Send a request without waiting for any response (pipelined
  /// submissions; tests). Pair with read_frame() to collect replies.
  void send_request(const std::string& payload);

  /// Read the next server frame's payload (blocking); std::nullopt on
  /// orderly connection close.
  [[nodiscard]] std::optional<std::string> read_frame();

 private:
  explicit Client(ScopedFd fd);
  void expect_hello();

  ScopedFd fd_;
  FrameDecoder decoder_;
};

// --- request payload builders (CLI + CI share them) ------------------------

struct SimRequestSpec {
  std::string id;
  int priority = 0;
  std::string trace_path;
  std::string config_text;            ///< inline config file contents
  std::vector<std::string> sets;      ///< "path=value" overrides
  std::uint64_t skip = 0;
  std::uint64_t warmup = 0;
  std::optional<std::uint64_t> max_records;
};

struct SweepRequestSpec {
  std::string id;
  int priority = 0;
  std::string spec_text;              ///< inline sweep spec contents
  std::string config_text;
  std::vector<std::string> sets;
  std::string trace_path;
  std::optional<std::uint64_t> insts;
  std::string format;                 ///< "" (= csv), "json", "csv-full"
};

[[nodiscard]] std::string build_sim_request(const SimRequestSpec& spec);
[[nodiscard]] std::string build_sweep_request(const SweepRequestSpec& spec);
[[nodiscard]] std::string build_ping_request(const std::string& id);
[[nodiscard]] std::string build_status_request(const std::string& id);
[[nodiscard]] std::string build_shutdown_request(const std::string& id);

}  // namespace resim::serve

#endif  // RESIM_SERVE_CLIENT_H
