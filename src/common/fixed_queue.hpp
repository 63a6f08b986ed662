// Fixed-capacity circular FIFO modelling hardware queues (IFQ, decouple
// buffer, ...). Capacity is a run-time construction parameter because
// ReSim structures are user-configurable (paper §III: "ReSim is designed
// to be parameterizable").
#ifndef RESIM_COMMON_FIXED_QUEUE_H
#define RESIM_COMMON_FIXED_QUEUE_H

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace resim {

template <typename T>
class FixedQueue {
 public:
  explicit FixedQueue(std::size_t capacity) : buf_(capacity) {
    if (capacity == 0) throw std::invalid_argument("FixedQueue: capacity 0");
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == buf_.size(); }

  void push(const T& v) {
    if (full()) throw std::logic_error("FixedQueue::push on full queue");
    buf_[wrap(head_ + size_)] = v;
    ++size_;
  }

  [[nodiscard]] const T& front() const {
    if (empty()) throw std::logic_error("FixedQueue::front on empty queue");
    return buf_[head_];
  }

  [[nodiscard]] T& front() {
    if (empty()) throw std::logic_error("FixedQueue::front on empty queue");
    return buf_[head_];
  }

  T pop() {
    if (empty()) throw std::logic_error("FixedQueue::pop on empty queue");
    T v = buf_[head_];
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// i mod capacity for i < 2 * capacity, without a division (the IFQ
  /// pushes and pops once per fetched instruction).
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= buf_.size() ? i - buf_.size() : i;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace resim

#endif  // RESIM_COMMON_FIXED_QUEUE_H
