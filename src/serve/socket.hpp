// Thin POSIX socket wrappers for the serve daemon and client.
//
// Everything the protocol needs and nothing more: RAII ownership of a
// descriptor, bind+listen on a Unix path (and unlink it again at
// shutdown), connect to it, full-buffer send (SIGPIPE suppressed — a client vanishing
// mid-stream must surface as a send error on that session, never kill
// the daemon), and a self-pipe for waking the accept loop out of
// poll(2) from a signal handler or another thread. On platforms
// without these APIs every entry point throws std::runtime_error at
// the call site; nothing else in the serve layer is platform-aware.
#ifndef RESIM_SERVE_SOCKET_H
#define RESIM_SERVE_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace resim::serve {

/// Owns one file descriptor; closes it on destruction.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ScopedFd(ScopedFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  ScopedFd& operator=(ScopedFd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// A listening Unix-domain socket and the identity (device, inode) of
/// the socket file it bound.
struct UnixListener {
  ScopedFd fd;
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
};

/// Bind + listen on a Unix-domain stream socket at `path`, replacing a
/// stale socket file from a previous daemon (any non-socket file at the
/// path is refused, not unlinked). Throws std::runtime_error naming the
/// path on failure.
[[nodiscard]] UnixListener listen_unix(const std::string& path);

/// Unlinks `path` if it still names the socket file `listener` bound; a
/// successor daemon that replaced that file keeps its own socket. Call
/// it before closing the listener, whose open socket holds the inode, so
/// no newer file can have been given the same number.
void unlink_own_socket(const std::string& path, const UnixListener& listener);

[[nodiscard]] ScopedFd connect_unix(const std::string& path);

/// Accept one connection; invalid ScopedFd on transient failure.
[[nodiscard]] ScopedFd accept_on(int listen_fd);

/// Send the whole buffer (retrying short writes and EINTR), SIGPIPE
/// suppressed. False once the peer is gone or the socket broke.
[[nodiscard]] bool send_all(int fd, std::string_view data);

/// One recv, retrying EINTR: >0 bytes read, 0 on orderly shutdown,
/// -1 on error.
[[nodiscard]] std::ptrdiff_t recv_some(int fd, char* buf, std::size_t n);

/// shutdown(2) both directions — unblocks a thread parked in recv on
/// this descriptor without racing the eventual close.
void shutdown_fd(int fd);

/// Self-pipe: {read end, write end}, write end non-blocking so a wake
/// from a signal handler can never itself block.
[[nodiscard]] std::pair<ScopedFd, ScopedFd> make_wake_pipe();

/// Write one byte to the wake pipe (async-signal-safe; a full pipe is
/// fine — the reader only cares that it is readable).
void wake(int write_fd);

/// Poll `fds` (any readable) with `timeout_ms` (-1 = forever). Returns
/// true if any descriptor is readable, false on timeout.
[[nodiscard]] bool poll_readable(const int* fds, std::size_t n, int timeout_ms);

/// Drain and discard whatever is readable on `fd` right now (wake-pipe
/// reset).
void drain_fd(int fd);

}  // namespace resim::serve

#endif  // RESIM_SERVE_SOCKET_H
