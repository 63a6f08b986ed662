// SharedTraceCache: the daemon's one resident decoded trace.
//
// The one-shot CLI pays a full container decode per invocation; a
// daemon serving a run of requests against the same prepared trace
// should pay it once. Memory-backend requests borrow a
// shared_ptr<const Trace> from this cache — read-only, so concurrent
// requests share it safely. The cache holds ONE trace, keyed by
// (path, size, mtime) so a container regenerated in place is re-decoded
// instead of served stale, and keeps it between requests: an idle
// daemon costs one decoded trace (~40 B per record). A request for any
// other trace releases the held one before decoding, so with the
// daemon's single executor at most one decoded trace is alive beyond
// in-flight borrowers.
//
// Stream-backend requests do not decode up front, so they bypass this
// cache by design: each request opens and decodes its file itself, its
// cross-request sharing is the OS page cache over the streamed file,
// and its within-request sharing is the
// decode-once trace::SharedBatchCache that BatchRunner builds per
// shared-trace job group.
#ifndef RESIM_SERVE_TRACE_CACHE_H
#define RESIM_SERVE_TRACE_CACHE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "trace/writer.hpp"

namespace resim::serve {

class SharedTraceCache {
 public:
  /// The decoded trace at `path`: the held one while the file keeps the
  /// identity it was loaded with, else a fresh decode that replaces it.
  /// Throws what trace::load_trace throws on a missing/corrupt file.
  [[nodiscard]] std::shared_ptr<const trace::Trace> get(const std::string& path);

  /// Cache-effectiveness counters (status response / tests).
  [[nodiscard]] std::uint64_t loads() const;
  [[nodiscard]] std::uint64_t hits() const;

 private:
  struct Key {
    std::string path;
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;
    [[nodiscard]] bool operator==(const Key& o) const = default;
  };

  mutable std::mutex mu_;
  Key key_;
  std::shared_ptr<const trace::Trace> held_;
  std::uint64_t loads_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace resim::serve

#endif  // RESIM_SERVE_TRACE_CACHE_H
