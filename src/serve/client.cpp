#include "serve/client.hpp"

#include <ostream>

#include "driver/result_export.hpp"

namespace resim::serve {

namespace {

/// Server frames are machine-built, but the transport is still a
/// socket: parse defensively and name what was malformed.
JsonValue parse_server_frame(const std::string& payload) {
  JsonValue v = parse_json(payload);
  if (v.kind() != JsonValue::Kind::kObject) {
    throw std::runtime_error("server frame is not a JSON object");
  }
  return v;
}

std::string frame_type(const JsonValue& v) {
  const JsonValue* t = v.find("type");
  if (t == nullptr || t->kind() != JsonValue::Kind::kString) {
    throw std::runtime_error("server frame lacks a string 'type'");
  }
  return t->as_string();
}

std::string member_string(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr || m->kind() != JsonValue::Kind::kString) {
    throw std::runtime_error(std::string("server frame lacks a string '") +
                             key + "'");
  }
  return m->as_string();
}

std::uint64_t member_u64(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (m == nullptr) {
    throw std::runtime_error(std::string("server frame lacks member '") +
                             key + "'");
  }
  return m->as_u64(std::string("server frame member '") + key + "'");
}

}  // namespace

Client::Client(ScopedFd fd) : fd_(std::move(fd)) { expect_hello(); }

Client Client::connect_to_unix(const std::string& path) {
  return Client(connect_unix(path));
}

std::optional<std::string> Client::read_frame() {
  std::string payload;
  if (decoder_.next(payload)) return payload;
  char buf[16 << 10];
  for (;;) {
    const auto n = recv_some(fd_.get(), buf, sizeof(buf));
    if (n < 0) throw std::runtime_error("connection error while reading");
    if (n == 0) {
      if (decoder_.buffered() != 0) {
        throw std::runtime_error("connection closed mid-frame (" +
                                 std::to_string(decoder_.buffered()) +
                                 " bytes of an incomplete frame)");
      }
      return std::nullopt;
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
    if (decoder_.next(payload)) return payload;
  }
}

void Client::expect_hello() {
  const auto payload = read_frame();
  if (!payload) {
    throw std::runtime_error("server closed the connection before hello");
  }
  const JsonValue v = parse_server_frame(*payload);
  if (frame_type(v) != "hello") {
    throw std::runtime_error("expected a hello frame, got '" +
                             frame_type(v) + "'");
  }
  const auto protocol = member_u64(v, "protocol");
  if (protocol != kProtocolVersion) {
    throw std::runtime_error("protocol version mismatch (server speaks " +
                             std::to_string(protocol) + ", this client speaks " +
                             std::to_string(kProtocolVersion) + ")");
  }
}

void Client::send_request(const std::string& payload) {
  if (!send_all(fd_.get(), encode_frame(payload))) {
    throw std::runtime_error("connection error while sending request");
  }
}

Client::Done Client::request(const std::string& payload, std::ostream& out) {
  send_request(payload);
  for (;;) {
    const auto frame = read_frame();
    if (!frame) {
      throw std::runtime_error("connection closed before the response "
                               "completed");
    }
    const JsonValue v = parse_server_frame(*frame);
    const std::string type = frame_type(v);
    if (type == "data") {
      out << member_string(v, "payload");
    } else if (type == "done") {
      Done done;
      done.frames = member_u64(v, "frames");
      done.bytes = member_u64(v, "bytes");
      out.flush();
      if (!out) throw std::runtime_error("writing response body failed");
      return done;
    } else if (type == "error") {
      throw ServerError(member_string(v, "code"), member_string(v, "message"));
    } else {
      throw std::runtime_error("unexpected frame type '" + type +
                               "' inside a response");
    }
  }
}

void Client::ping(const std::string& id) {
  send_request(build_ping_request(id));
  const auto frame = read_frame();
  if (!frame) {
    throw std::runtime_error("connection closed waiting for pong");
  }
  const JsonValue v = parse_server_frame(*frame);
  const std::string type = frame_type(v);
  if (type == "error") {
    throw ServerError(member_string(v, "code"), member_string(v, "message"));
  }
  if (type != "pong" || member_string(v, "id") != id) {
    throw std::runtime_error("expected pong for id '" + id + "'");
  }
}

// --- request payload builders ----------------------------------------------

namespace {

void append_string_member(std::string& out, const char* key, const std::string& v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += driver::json_escape(v);
  out += '"';
}

void append_u64_member(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_sets(std::string& out, const std::vector<std::string>& sets) {
  if (sets.empty()) return;
  out += ",\"set\":[";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += driver::json_escape(sets[i]);
    out += '"';
  }
  out += ']';
}

std::string open_request(const char* type, const std::string& id) {
  std::string out = "{\"type\":\"";
  out += type;
  out += "\",\"id\":\"";
  out += driver::json_escape(id);
  out += '"';
  return out;
}

}  // namespace

std::string build_sim_request(const SimRequestSpec& spec) {
  std::string out = open_request("sim", spec.id);
  if (spec.priority != 0) {
    append_u64_member(out, "priority", static_cast<std::uint64_t>(spec.priority));
  }
  append_string_member(out, "trace", spec.trace_path);
  if (!spec.config_text.empty()) {
    append_string_member(out, "config", spec.config_text);
  }
  append_sets(out, spec.sets);
  if (spec.skip != 0) append_u64_member(out, "skip", spec.skip);
  if (spec.warmup != 0) append_u64_member(out, "warmup", spec.warmup);
  if (spec.max_records) append_u64_member(out, "max_records", *spec.max_records);
  out += '}';
  return out;
}

std::string build_sweep_request(const SweepRequestSpec& spec) {
  std::string out = open_request("sweep", spec.id);
  if (spec.priority != 0) {
    append_u64_member(out, "priority", static_cast<std::uint64_t>(spec.priority));
  }
  append_string_member(out, "spec", spec.spec_text);
  if (!spec.config_text.empty()) {
    append_string_member(out, "config", spec.config_text);
  }
  append_sets(out, spec.sets);
  if (!spec.trace_path.empty()) append_string_member(out, "trace", spec.trace_path);
  if (spec.insts) append_u64_member(out, "insts", *spec.insts);
  if (!spec.format.empty()) append_string_member(out, "format", spec.format);
  out += '}';
  return out;
}

std::string build_ping_request(const std::string& id) {
  return open_request("ping", id) + '}';
}

std::string build_status_request(const std::string& id) {
  return open_request("status", id) + '}';
}

std::string build_shutdown_request(const std::string& id) {
  return open_request("shutdown", id) + '}';
}

}  // namespace resim::serve
