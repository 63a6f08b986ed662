// The serve wire protocol: length-prefixed JSON frames.
//
// `resim_cli serve` speaks a deliberately small protocol over a Unix
// stream socket (full spec: docs/SERVE.md):
//
//   frame   := length payload
//   length  := u32, little-endian (matching the .rsim container's byte
//              order), number of payload bytes; 0 and > kMaxFrameBytes
//              are protocol errors
//   payload := one complete JSON object (UTF-8)
//
// Every payload carries a "type" member naming one of the MsgType
// values below. Requests flow client -> server; the server answers each
// request with zero or more `data` frames (whose "payload" string holds
// a chunk of the exact bytes the one-shot CLI would write) terminated
// by one `done` frame, or one `error` frame carrying an ErrCode. The
// message-type and error-code tables in docs/SERVE.md are GENERATED
// from these enums (`resim_cli serve --protocol-markdown`) and CI
// diffs them, exactly like the docs/CONFIG.md parameter table.
#ifndef RESIM_SERVE_PROTOCOL_H
#define RESIM_SERVE_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace resim::serve {

/// Protocol revision; the server's hello frame carries it and clients
/// refuse to talk across a mismatch.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Hard ceiling on one frame's payload. Requests are small (a config
/// overlay plus a sweep spec is well under a megabyte); a length prefix
/// beyond this is hostile or corrupt and the connection is dropped
/// before any allocation of that size.
inline constexpr std::uint32_t kMaxFrameBytes = 8u << 20;

/// Response payload chunking: one `data` frame carries at most this many
/// output bytes, so a multi-megabyte sweep CSV streams incrementally
/// instead of materializing server-side.
inline constexpr std::size_t kDataChunkBytes = 256u << 10;

/// Every message type on the wire. Order is the wire/spec order; the
/// docs table is generated from this enum via protocol_markdown().
enum class MsgType : std::uint8_t {
  kHello,     ///< server -> client: greeting with the protocol version
  kPing,      ///< client -> server: liveness probe
  kPong,      ///< server -> client: ping acknowledgement
  kSim,       ///< client -> server: one simulation (streams `sim --json` bytes)
  kSweep,     ///< client -> server: a sweep (streams CSV/JSON/full-CSV bytes)
  kStatus,    ///< client -> server: daemon counters as a JSON payload
  kShutdown,  ///< client -> server: drain pending work and exit
  kData,      ///< server -> client: one chunk of a request's output bytes
  kDone,      ///< server -> client: request complete (frame/byte totals)
  kError,     ///< server -> client: request failed (ErrCode + message)
};

/// Error codes an `error` frame can carry, in spec order.
enum class ErrCode : std::uint8_t {
  kBadFrame,      ///< malformed framing (zero length, truncated stream)
  kFrameTooLarge, ///< length prefix beyond kMaxFrameBytes
  kBadJson,       ///< payload is not valid JSON
  kBadRequest,    ///< JSON is valid but fields are missing/invalid
  kUnknownType,   ///< "type" names no known request
  kBusy,          ///< pending queue full (serve.max_pending); retry later
  kShuttingDown,  ///< daemon is draining; no new requests
  kRunFailed,     ///< the simulation/sweep itself threw
};

/// Spellings in enum order (msg_type_names()[int(t)] is t's name).
[[nodiscard]] const std::vector<std::string>& msg_type_names();
[[nodiscard]] const std::vector<std::string>& err_code_names();
[[nodiscard]] const char* msg_type_name(MsgType t);
[[nodiscard]] const char* err_code_name(ErrCode c);
/// Reverse map; std::nullopt for an unknown spelling (the daemon turns
/// that into a kUnknownType error, so this one does not throw).
[[nodiscard]] std::optional<MsgType> msg_type_of(std::string_view name);

/// Which side sends each message type (for the generated docs table).
[[nodiscard]] bool msg_type_is_request(MsgType t);

/// One-line meaning of each message type / error code (docs table).
[[nodiscard]] const char* msg_type_doc(MsgType t);
[[nodiscard]] const char* err_code_doc(ErrCode c);

/// The docs/SERVE.md message-type and error-code tables, generated from
/// the enums above (CI diffs this against the doc, docs/CI.md).
[[nodiscard]] std::string protocol_markdown();

// --- framing ---------------------------------------------------------------

/// 4-byte little-endian length + payload. Throws std::invalid_argument
/// on an empty or over-limit payload (the server must never emit a
/// frame its own decoder would reject).
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder over an arbitrary byte stream. feed()
/// appends received bytes; next() extracts the earliest complete frame.
/// A zero or oversized length prefix throws FrameError immediately —
/// the stream is unsynchronized beyond repair and the connection must
/// close.
class FrameError : public std::runtime_error {
 public:
  FrameError(const std::string& what, ErrCode code)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] ErrCode code() const { return code_; }

 private:
  ErrCode code_;
};

class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n);
  /// Extract the next complete frame's payload into `out`; false when
  /// more bytes are needed. Throws FrameError on a hostile prefix.
  [[nodiscard]] bool next(std::string& out);
  /// Bytes buffered but not yet consumed (tests; truncation detection).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - consumed_; }

 private:
  std::string buf_;
  std::size_t consumed_ = 0;  ///< prefix of buf_ already handed out
};

// --- response frame payloads ----------------------------------------------

/// {"type":"hello","server":"resim","protocol":N}
[[nodiscard]] std::string hello_payload();
/// {"type":"pong","id":ID}
[[nodiscard]] std::string pong_payload(const std::string& id);
/// {"type":"data","id":ID,"payload":CHUNK}
[[nodiscard]] std::string data_payload(const std::string& id, std::string_view chunk);
/// {"type":"done","id":ID,"frames":N,"bytes":M}
[[nodiscard]] std::string done_payload(const std::string& id, std::uint64_t frames,
                                       std::uint64_t bytes);
/// {"type":"error","id":ID,"code":CODE,"message":MSG}
[[nodiscard]] std::string error_payload(const std::string& id, ErrCode code,
                                        const std::string& message);

}  // namespace resim::serve

#endif  // RESIM_SERVE_PROTOCOL_H
