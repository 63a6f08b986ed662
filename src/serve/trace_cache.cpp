#include "serve/trace_cache.hpp"

#include <chrono>
#include <filesystem>

namespace resim::serve {

std::shared_ptr<const trace::Trace> SharedTraceCache::get(const std::string& path) {
  Key key;
  key.path = path;
  // File identity, not just the name: a container regenerated in place
  // must be re-decoded. A stat failure (file vanished) falls through to
  // load_trace, whose error message names the path.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) key.size = static_cast<std::uint64_t>(size);
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (!ec) key.mtime_ns = static_cast<std::int64_t>(mtime.time_since_epoch().count());

  std::shared_ptr<const trace::Trace> stale;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (held_ && key_ == key) {
      ++hits_;
      return held_;
    }
    stale = std::move(held_);
  }
  // Free the old trace before decoding the new one, so the two are never
  // both resident (unless a borrower still holds the old one), and do
  // both OUTSIDE the lock: a multi-gigabyte load must not block a
  // concurrent request that only wants the held trace. Two racing loads
  // both decode; the later one is held and the other caller keeps its
  // (read-only) private copy until it drops it.
  stale.reset();
  auto loaded = std::make_shared<const trace::Trace>(trace::load_trace(path));

  std::lock_guard<std::mutex> lock(mu_);
  ++loads_;
  key_ = std::move(key);
  held_ = loaded;
  return loaded;
}

std::uint64_t SharedTraceCache::loads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return loads_;
}

std::uint64_t SharedTraceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

}  // namespace resim::serve
