// The resim serve daemon: accept loop, session threads, one executor.
//
// Thread structure (docs/SERVE.md):
//
//   accept thread    poll({listener, wake pipe}); spawns one session
//                    thread per connection; owns idle-timeout detection
//   session threads  read + decode frames, parse and validate requests
//                    (bad ones are refused HERE, before queueing), push
//                    accepted work onto the bounded priority queue
//   executor thread  pops the queue and runs sim/sweep requests one at
//                    a time — each request gets the whole BatchRunner
//                    worker pool, so two sweeps never fight over cores
//                    and results stay in submission order
//
// Backpressure is the queue bound (serve.max_pending): a full queue
// answers `busy` immediately instead of accepting unbounded work.
// Graceful shutdown (a `shutdown` request, request_stop(), or the idle
// timeout) stops accepting connections and new requests, drains what
// was already queued, then joins every thread and removes the socket
// file; in-flight responses complete. A client that disconnects
// mid-stream only loses its own request: sends fail on that session,
// the executor abandons the remaining chunks, and the daemon moves on.
#ifndef RESIM_SERVE_DAEMON_H
#define RESIM_SERVE_DAEMON_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/socket.hpp"
#include "serve/trace_cache.hpp"

namespace resim::serve {

struct ServeOptions {
  std::string unix_path;       ///< Unix socket path (required)
  unsigned threads = 1;        ///< BatchRunner threads per request (0 = all cores)
  unsigned max_pending = 64;   ///< serve.max_pending queue bound
  unsigned idle_timeout_s = 0; ///< serve.idle_timeout_s; 0 = never
  /// Daemon log lines (listen address, shutdown reason). The serve
  /// layer never touches std::cout/cerr itself; the CLI owns output.
  std::function<void(const std::string&)> log;
};

class Daemon {
 public:
  explicit Daemon(ServeOptions opts);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind the socket and launch the accept + executor threads. Throws
  /// std::runtime_error if no socket path is configured or the bind
  /// fails. Returns once the daemon is accepting.
  void start();

  /// Block until the daemon has fully shut down (all threads joined, the
  /// listener closed and its socket file unlinked, unless a successor
  /// daemon has taken the path over). A `shutdown` request,
  /// request_stop(), or the idle timeout ends the wait.
  void wait();

  /// Begin graceful shutdown: refuse new connections/requests, drain
  /// the queue, finish in-flight streams. Safe from any thread and from
  /// a signal handler (one non-blocking pipe write).
  void request_stop();

 private:
  struct Session;
  /// A connection's thread; its session expires once the thread is done
  /// with it and no queued job still streams to it.
  struct SessionThread {
    std::weak_ptr<Session> session;
    std::thread thread;
  };
  struct PendingJob {
    std::shared_ptr<Session> session;
    std::variant<SimRequest, SweepRequest> request;
  };

  void accept_loop();
  void reap_sessions();  ///< caller holds sessions_mu_
  void executor_loop();
  void session_loop(std::shared_ptr<Session> session);
  void handle_payload(const std::shared_ptr<Session>& session_ptr,
                      const std::string& payload);
  void execute(PendingJob& job);
  [[nodiscard]] std::string status_payload_json(const std::string& id) const;
  void log_line(const std::string& line) const;

  ServeOptions opts_;

  UnixListener listener_;
  ScopedFd wake_rd_;
  ScopedFd wake_wr_;

  BoundedPriorityQueue<PendingJob> queue_;
  SharedTraceCache traces_;

  std::thread accept_thread_;
  std::thread executor_thread_;
  std::mutex sessions_mu_;
  std::vector<SessionThread> sessions_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<unsigned> open_sessions_{0};
  std::atomic<bool> executing_{false};

  // status counters
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  /// Monotonic nanosecond stamp of the last accept/completion, for the
  /// idle timeout (0 until start()).
  std::atomic<std::int64_t> last_activity_ns_{0};
};

}  // namespace resim::serve

#endif  // RESIM_SERVE_DAEMON_H
