// Bounded priority queue feeding the daemon's executor thread.
//
// Requests carry a client-chosen priority (higher runs first); within a
// priority the queue is FIFO by arrival, so two equal-priority sweeps
// complete in submission order — determinism the served-vs-CLI identity
// gate relies on. The bound is the backpressure mechanism: when
// serve.max_pending requests are already waiting, try_push refuses and
// the daemon answers `busy` instead of buffering without limit.
//
// Header-only and socket-free on purpose: tests/test_serve.cpp exercises
// busy/priority/drain semantics directly, no daemon required.
#ifndef RESIM_SERVE_QUEUE_H
#define RESIM_SERVE_QUEUE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace resim::serve {

template <typename Job>
class BoundedPriorityQueue {
 public:
  explicit BoundedPriorityQueue(std::size_t max_pending)
      : max_pending_(max_pending) {}

  /// Enqueue at `priority` (higher pops first; FIFO within a priority).
  /// False when the queue is full or closed — the caller answers `busy`
  /// or `shutting-down` itself, with more context than we have here.
  [[nodiscard]] bool try_push(Job job, int priority) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= max_pending_) return false;
      // Insert before the first strictly-lower priority: equal-priority
      // items keep arrival order without needing a sequence counter.
      auto it = items_.begin();
      while (it != items_.end() && it->priority >= priority) ++it;
      items_.insert(it, Entry{priority, std::move(job)});
    }
    cv_.notify_one();
    return true;
  }

  /// Block until a job is available or the queue is closed and drained.
  /// std::nullopt means "closed and empty": the executor thread exits.
  [[nodiscard]] std::optional<Job> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    Job job = std::move(items_.front().job);
    items_.pop_front();
    return job;
  }

  /// Stop accepting pushes. pop() keeps draining what is already queued
  /// (graceful shutdown runs accepted work to completion), then returns
  /// std::nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t max_pending() const { return max_pending_; }

 private:
  struct Entry {
    int priority;
    Job job;
  };

  const std::size_t max_pending_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> items_;
  bool closed_ = false;
};

}  // namespace resim::serve

#endif  // RESIM_SERVE_QUEUE_H
