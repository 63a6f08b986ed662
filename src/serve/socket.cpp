#include "serve/socket.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define RESIM_SERVE_HAVE_SOCKETS 1
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define RESIM_SERVE_HAVE_SOCKETS 0
#endif

namespace resim::serve {

#if RESIM_SERVE_HAVE_SOCKETS

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// The listener is polled, never blocked on: the accept loop takes
/// connections until EAGAIN, and a peer that left between poll and
/// accept must not hang it.
void set_nonblocking(int fd, const std::string& what) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    fail_errno(what + ": O_NONBLOCK");
  }
}

}  // namespace

void ScopedFd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

UnixListener listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path must be 1.." +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // Replace a stale socket left by a dead daemon, but never unlink a
  // path that is not a socket — "--socket /etc/passwd" must fail, not
  // delete the file.
  struct stat st{};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw std::runtime_error("refusing to replace non-socket file: " + path);
    }
    (void)::unlink(path.c_str());
  }

  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket(AF_UNIX)");
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail_errno("bind " + path);
  }
  if (::listen(fd.get(), 16) != 0) fail_errno("listen " + path);
  set_nonblocking(fd.get(), "listener " + path);
  if (::lstat(path.c_str(), &st) != 0) fail_errno("stat " + path);
  return {std::move(fd), static_cast<std::uint64_t>(st.st_dev),
          static_cast<std::uint64_t>(st.st_ino)};
}

void unlink_own_socket(const std::string& path, const UnixListener& listener) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) == 0 && static_cast<std::uint64_t>(st.st_dev) == listener.dev &&
      static_cast<std::uint64_t>(st.st_ino) == listener.ino) {
    (void)::unlink(path.c_str());
  }
}

ScopedFd connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path must be 1.." +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail_errno("connect " + path);
  }
  return fd;
}

ScopedFd accept_on(int listen_fd) {
  return ScopedFd(::accept(listen_fd, nullptr, nullptr));
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
#if defined(MSG_NOSIGNAL)
    const auto n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
#else
    const auto n = ::send(fd, data.data() + sent, data.size() - sent, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::ptrdiff_t recv_some(int fd, char* buf, std::size_t n) {
  for (;;) {
    const auto r = ::recv(fd, buf, n, 0);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

void shutdown_fd(int fd) { (void)::shutdown(fd, SHUT_RDWR); }

std::pair<ScopedFd, ScopedFd> make_wake_pipe() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) fail_errno("pipe");
  ScopedFd rd(fds[0]);
  ScopedFd wr(fds[1]);
  const int flags = ::fcntl(wr.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(wr.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    fail_errno("pipe O_NONBLOCK");
  }
  return {std::move(rd), std::move(wr)};
}

void wake(int write_fd) {
  const char byte = 1;
  // A full pipe (EAGAIN) already guarantees the reader will wake.
  (void)::write(write_fd, &byte, 1);
}

bool poll_readable(const int* fds, std::size_t n, int timeout_ms) {
  pollfd pfds[8];
  if (n > sizeof(pfds) / sizeof(pfds[0])) {
    throw std::runtime_error("poll_readable supports at most 8 descriptors");
  }
  for (std::size_t i = 0; i < n; ++i) {
    pfds[i].fd = fds[i];
    pfds[i].events = POLLIN;
    pfds[i].revents = 0;
  }
  for (;;) {
    const int r = ::poll(pfds, static_cast<nfds_t>(n), timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    return r > 0;
  }
}

void drain_fd(int fd) {
  char buf[64];
  for (;;) {
    const auto r = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (r > 0) continue;
    if (r < 0 && errno == EINTR) continue;
    // Pipes are not sockets: recv fails with ENOTSOCK there, so fall
    // back to a non-blocking read probe via poll + read.
    if (r < 0 && errno == ENOTSOCK) {
      while (poll_readable(&fd, 1, 0)) {
        if (::read(fd, buf, sizeof(buf)) <= 0) break;
      }
    }
    return;
  }
}

#else  // !RESIM_SERVE_HAVE_SOCKETS

namespace {
[[noreturn]] void unsupported() {
  throw std::runtime_error("stream sockets are not supported on this platform");
}
}  // namespace

void ScopedFd::reset() { fd_ = -1; }
UnixListener listen_unix(const std::string&) { unsupported(); }
void unlink_own_socket(const std::string&, const UnixListener&) {}
ScopedFd connect_unix(const std::string&) { unsupported(); }
ScopedFd accept_on(int) { unsupported(); }
bool send_all(int, std::string_view) { unsupported(); }
std::ptrdiff_t recv_some(int, char*, std::size_t) { unsupported(); }
void shutdown_fd(int) {}
std::pair<ScopedFd, ScopedFd> make_wake_pipe() { unsupported(); }
void wake(int) {}
bool poll_readable(const int*, std::size_t, int) { unsupported(); }
void drain_fd(int) {}

#endif  // RESIM_SERVE_HAVE_SOCKETS

}  // namespace resim::serve
