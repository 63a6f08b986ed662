#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>

#include "driver/result_export.hpp"

namespace resim::serve {

namespace {

/// The peer vanished while a response was streaming; the executor
/// abandons the rest of that response and nothing else.
class SessionGone : public std::runtime_error {
 public:
  SessionGone() : std::runtime_error("client disconnected mid-stream") {}
};

[[nodiscard]] std::int64_t monotonic_ns() {
  // Idle-timeout bookkeeping only; a wall-clock read never reaches results.
  return std::chrono::steady_clock::now().time_since_epoch().count();  // resim-lint: allow(nondeterminism)
}

}  // namespace

/// One connection. The fd stays open until the LAST owner lets go —
/// the session thread or an executor job still streaming to it — so a
/// send can never hit a recycled descriptor. `dead` is set only on a
/// send failure: a client that half-closes its write side after
/// submitting a request still receives its full response.
struct Daemon::Session {
  explicit Session(ScopedFd fd_in) : fd(std::move(fd_in)) {}
  ScopedFd fd;
  std::mutex write_mu;
  std::atomic<bool> dead{false};

  /// Frame + send under the write mutex (responses from the session
  /// thread and the executor must never interleave mid-frame). False —
  /// and dead from then on — once the peer is gone.
  [[nodiscard]] bool send_payload(const std::string& payload) {
    if (dead.load()) return false;
    const std::string frame = encode_frame(payload);
    std::lock_guard<std::mutex> lock(write_mu);
    if (!send_all(fd.get(), frame)) {
      dead.store(true);
      return false;
    }
    return true;
  }
};

Daemon::Daemon(ServeOptions opts)
    : opts_(std::move(opts)),
      queue_(std::max(1u, opts_.max_pending)) {}

Daemon::~Daemon() {
  if (started_.load()) {
    request_stop();
    wait();
  }
}

void Daemon::log_line(const std::string& line) const {
  if (opts_.log) opts_.log(line);
}

void Daemon::start() {
  if (opts_.unix_path.empty()) {
    throw std::runtime_error("no listener configured (need a unix socket path)");
  }
  listener_ = listen_unix(opts_.unix_path);
  log_line("serve: listening on unix socket " + opts_.unix_path);
  auto pipe = make_wake_pipe();
  wake_rd_ = std::move(pipe.first);
  wake_wr_ = std::move(pipe.second);
  last_activity_ns_.store(monotonic_ns());
  started_.store(true);
  executor_thread_ = std::thread([this] { executor_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::request_stop() {
  stopping_.store(true);
  if (wake_wr_.valid()) wake(wake_wr_.get());
}

void Daemon::wait() {
  if (!started_.load()) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop closed the queue on its way out; the executor
  // drains every request that was accepted before the shutdown began.
  if (executor_thread_.joinable()) executor_thread_.join();
  // In-flight responses are done; now unblock session threads parked in
  // recv and join them.
  std::vector<SessionThread> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& st : sessions_) {
      // weak_ptr::lock, not a mutex:
      if (const auto live = st.session.lock()) shutdown_fd(live->fd.get());  // resim-lint: allow(lock-discipline)
    }
    sessions.swap(sessions_);
  }
  for (auto& st : sessions) st.thread.join();
  unlink_own_socket(opts_.unix_path, listener_);
  listener_.fd.reset();
  started_.store(false);
  log_line("serve: shut down (" + std::to_string(completed_.load()) +
           " completed, " + std::to_string(failed_.load()) + " failed)");
}

void Daemon::accept_loop() {
  const int fds[2] = {wake_rd_.get(), listener_.fd.get()};

  // Finite poll timeout only when the idle timeout needs a clock edge.
  const int timeout_ms = opts_.idle_timeout_s != 0 ? 500 : -1;
  while (!stopping_.load()) {
    const bool readable = poll_readable(fds, 2, timeout_ms);
    if (stopping_.load()) break;
    if (!readable) {
      // Poll timed out: idle-shutdown check. Idle means no open
      // sessions, nothing queued, nothing executing, and no activity
      // for the configured window.
      const auto idle_ns =
          monotonic_ns() - last_activity_ns_.load();
      if (open_sessions_.load() == 0 && queue_.pending() == 0 &&
          !executing_.load() &&
          idle_ns >= static_cast<std::int64_t>(opts_.idle_timeout_s) * 1'000'000'000) {
        log_line("serve: idle for " + std::to_string(opts_.idle_timeout_s) +
                 "s, shutting down");
        stopping_.store(true);
        break;
      }
      continue;
    }
    drain_fd(wake_rd_.get());
    for (;;) {
      ScopedFd conn = accept_on(listener_.fd.get());
      if (!conn.valid()) break;  // EAGAIN: the listener is drained
      connections_.fetch_add(1);
      last_activity_ns_.store(monotonic_ns());
      auto session = std::make_shared<Session>(std::move(conn));
      open_sessions_.fetch_add(1);
      std::lock_guard<std::mutex> lock(sessions_mu_);
      reap_sessions();
      sessions_.push_back(
          {session, std::thread([this, session]() mutable { session_loop(std::move(session)); })});
    }
  }
  // No new requests can arrive (sessions check stopping_); let the
  // executor drain what was already accepted, then exit.
  queue_.close();
}

void Daemon::reap_sessions() {
  // The thread holds its session until session_loop returns, so an
  // expired session's thread is finishing: the join is immediate, and it
  // frees the thread's stack now rather than at wait().
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->session.expired()) {
      it->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::session_loop(std::shared_ptr<Session> session) {
  Session& s = *session;
  if (s.send_payload(hello_payload())) {
    FrameDecoder decoder;
    std::vector<char> buf(64u << 10);
    std::string payload;
    bool drop = false;
    while (!drop && !s.dead.load()) {
      const auto n = recv_some(s.fd.get(), buf.data(), buf.size());
      if (n <= 0) break;  // EOF or error; half-close still gets its response
      decoder.feed(buf.data(), static_cast<std::size_t>(n));
      try {
        while (decoder.next(payload)) handle_payload(session, payload);
      } catch (const FrameError& e) {
        // The stream is unsynchronized beyond repair: name the problem,
        // then close. (No request id exists at the framing layer.)
        (void)s.send_payload(error_payload("", e.code(), e.what()));
        drop = true;
      }
    }
  }
  open_sessions_.fetch_sub(1);
  last_activity_ns_.store(monotonic_ns());
}

void Daemon::handle_payload(const std::shared_ptr<Session>& session_ptr,
                            const std::string& payload) {
  Session& session = *session_ptr;
  JsonValue v;
  try {
    v = parse_json(payload);
  } catch (const JsonError& e) {
    (void)session.send_payload(error_payload("", ErrCode::kBadJson, e.what()));
    return;
  }
  if (v.kind() != JsonValue::Kind::kObject) {
    (void)session.send_payload(error_payload(
        "", ErrCode::kBadRequest,
        std::string("request payload must be a JSON object, got ") +
            JsonValue::kind_name(v.kind())));
    return;
  }
  const std::string id = request_id_of(v);
  const JsonValue* type = v.find("type");
  if (type == nullptr || type->kind() != JsonValue::Kind::kString) {
    (void)session.send_payload(error_payload(
        id, ErrCode::kBadRequest, "missing required string member 'type'"));
    return;
  }
  const auto mt = msg_type_of(type->as_string());
  if (!mt) {
    (void)session.send_payload(error_payload(
        id, ErrCode::kUnknownType,
        "unknown request type '" + type->as_string() + "'"));
    return;
  }
  if (!msg_type_is_request(*mt)) {
    (void)session.send_payload(error_payload(
        id, ErrCode::kBadRequest,
        "'" + type->as_string() + "' is a server-to-client message"));
    return;
  }

  switch (*mt) {
    case MsgType::kPing:
      (void)session.send_payload(pong_payload(id));
      return;
    case MsgType::kStatus: {
      if (id.empty()) {
        (void)session.send_payload(error_payload(
            id, ErrCode::kBadRequest, "missing required member 'id'"));
        return;
      }
      const std::string body = status_payload_json(id) + '\n';
      if (session.send_payload(data_payload(id, body))) {
        (void)session.send_payload(done_payload(id, 1, body.size()));
      }
      return;
    }
    case MsgType::kShutdown:
      (void)session.send_payload(done_payload(id, 0, 0));
      log_line("serve: shutdown requested" +
               (id.empty() ? std::string() : " (id " + id + ")"));
      request_stop();
      return;
    case MsgType::kSim:
    case MsgType::kSweep:
      break;
    default:
      return;  // unreachable: every request type is handled above
  }

  if (stopping_.load()) {
    rejected_shutdown_.fetch_add(1);
    (void)session.send_payload(error_payload(
        id, ErrCode::kShuttingDown, "daemon is shutting down"));
    return;
  }

  PendingJob job;
  int priority = 0;
  try {
    // Validate BEFORE queueing: a bad request answers immediately and
    // never occupies a pending slot.
    if (*mt == MsgType::kSim) {
      SimRequest req = parse_sim_request(v);
      priority = req.priority;
      job.request = std::move(req);
    } else {
      SweepRequest req = parse_sweep_request(v);
      priority = req.priority;
      job.request = std::move(req);
    }
  } catch (const RequestError& e) {
    (void)session.send_payload(error_payload(id, e.code(), e.what()));
    return;
  }

  // The job holds a shared_ptr to its session, so the connection's fd
  // outlives the session thread if the executor is still streaming.
  job.session = session_ptr;
  if (queue_.try_push(std::move(job), priority)) {
    accepted_.fetch_add(1);
  } else if (queue_.closed()) {
    rejected_shutdown_.fetch_add(1);
    (void)session.send_payload(error_payload(
        id, ErrCode::kShuttingDown, "daemon is shutting down"));
  } else {
    rejected_busy_.fetch_add(1);
    (void)session.send_payload(error_payload(
        id, ErrCode::kBusy,
        "pending queue is full (" + std::to_string(queue_.max_pending()) +
            " requests); retry after a response completes"));
  }
}

void Daemon::executor_loop() {
  for (;;) {
    auto job = queue_.pop();
    if (!job) break;  // closed and drained
    executing_.store(true);
    execute(*job);
    executing_.store(false);
    last_activity_ns_.store(monotonic_ns());
  }
}

void Daemon::execute(PendingJob& job) {
  Session& s = *job.session;
  const std::string id = std::visit([](const auto& r) { return r.id; }, job.request);

  std::string buffer;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  const auto flush = [&] {
    std::size_t off = 0;
    while (off < buffer.size()) {
      const std::size_t n = std::min(buffer.size() - off, kDataChunkBytes);
      if (!s.send_payload(data_payload(id, std::string_view(buffer).substr(off, n)))) {
        throw SessionGone();
      }
      ++frames;
      bytes += n;
      off += n;
    }
    buffer.clear();
  };
  const Sink sink = [&](std::string_view chunk) {
    if (s.dead.load()) throw SessionGone();
    buffer.append(chunk);
    if (buffer.size() >= kDataChunkBytes) flush();
  };

  try {
    if (std::holds_alternative<SimRequest>(job.request)) {
      run_sim(std::get<SimRequest>(job.request), traces_, sink);
    } else {
      run_sweep(std::get<SweepRequest>(job.request), opts_.threads, traces_, sink);
    }
    flush();
    if (!s.send_payload(done_payload(id, frames, bytes))) throw SessionGone();
    completed_.fetch_add(1);
  } catch (const SessionGone&) {
    failed_.fetch_add(1);
    log_line("serve: request " + id + " abandoned (client disconnected)");
  } catch (const std::exception& e) {
    failed_.fetch_add(1);
    (void)s.send_payload(error_payload(id, ErrCode::kRunFailed, e.what()));
  }
}

std::string Daemon::status_payload_json(const std::string& id) const {
  std::string out = "{\"id\":\"" + driver::json_escape(id) + "\"";
  out += ",\"protocol\":" + std::to_string(kProtocolVersion);
  out += ",\"pending\":" + std::to_string(queue_.pending());
  out += ",\"max_pending\":" + std::to_string(queue_.max_pending());
  out += std::string(",\"executing\":") + (executing_.load() ? "true" : "false");
  out += ",\"open_sessions\":" + std::to_string(open_sessions_.load());
  out += ",\"connections\":" + std::to_string(connections_.load());
  out += ",\"accepted\":" + std::to_string(accepted_.load());
  out += ",\"completed\":" + std::to_string(completed_.load());
  out += ",\"failed\":" + std::to_string(failed_.load());
  out += ",\"rejected_busy\":" + std::to_string(rejected_busy_.load());
  out += ",\"rejected_shutdown\":" + std::to_string(rejected_shutdown_.load());
  out += ",\"trace_cache_loads\":" + std::to_string(traces_.loads());
  out += ",\"trace_cache_hits\":" + std::to_string(traces_.hits());
  out += "}";
  return out;
}

}  // namespace resim::serve
