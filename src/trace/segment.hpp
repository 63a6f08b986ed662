// SegmentedTraceSource: window adaptor over any TraceSource
// (docs/SAMPLING.md).
//
// Carves regions out of one pass of the inner source: a sampled run's
// gap → warmup → detailed window → gap → ..., or `sim --skip N
// --max-records M`'s single region (one skip_gap plus one segment). The
// consumer (one long-lived engine) gets a bounded allowance at a time:
//
//   open_segment(n)   grant n more records (kAll: the rest of the
//                     stream); views flow until the allowance is used
//                     up (then EOF)
//   close_segment()   revoke the unused remainder (hard segment end)
//   skip_gap(n)       fast-forward the inner source between segments
//                     (chunk-hopping skip(); nothing is decoded or
//                     counted here)
//
// records_consumed() counts only records handed through segments — gap
// records never appear in the consumer's totals, so an engine run over a
// window reports the region's own trace statistics (and its ViewCursor,
// which reads only segment records, the region's own wire bits).
// inner_position() reports the absolute
// record cursor of the inner source (its records_consumed(), which by
// the TraceSource contract includes skipped records), which is what the
// sampling planner uses to aim skip_gap() at absolute window starts.
#ifndef RESIM_TRACE_SEGMENT_H
#define RESIM_TRACE_SEGMENT_H

#include <cstdint>
#include <stdexcept>

#include "trace/reader.hpp"

namespace resim::trace {

class SegmentedTraceSource final : public TraceSource {
 public:
  /// open_segment(kAll): no limit short of the end of the stream.
  static constexpr std::uint64_t kAll = ~std::uint64_t{0};

  /// Does not own `inner`. Starts with an empty allowance (EOF until the
  /// first open_segment()).
  explicit SegmentedTraceSource(TraceSource& inner) : inner_(inner) {}

  /// Forwards the inner view, truncated at the segment allowance so a
  /// view can never leak records past the segment.
  [[nodiscard]] BatchView fetch_view() override {
    if (remaining_ == 0) return {};
    BatchView v = inner_.fetch_view();
    if (v.count > remaining_) v.count = static_cast<std::size_t>(remaining_);
    last_count_ = v.count;
    return v;
  }

  void consume_view(std::size_t n) override {
    if (n == 0) return;
    check_consume(n, last_count_);
    remaining_ -= n;
    consumed_ += n;
    last_count_ = 0;
    inner_.consume_view(n);
  }

  [[nodiscard]] std::uint64_t records_consumed() const override { return consumed_; }
  [[nodiscard]] std::uint64_t total_records() const override { return inner_.total_records(); }

  // --- segment control (the sampled runner, driver/sampling.cpp) ----------

  /// Grant `n` more records to the consumer.
  void open_segment(std::uint64_t n) { remaining_ += n; }

  /// Revoke the unused allowance; returns how many records were revoked.
  std::uint64_t close_segment() {
    const std::uint64_t unused = remaining_;
    remaining_ = 0;
    last_count_ = 0;
    return unused;
  }

  /// Fast-forward the inner source between segments. Requires a closed
  /// segment (allowance 0) — skipping through an open segment would
  /// silently desynchronize the consumer. Returns records skipped
  /// (fewer than `n` only at end of stream).
  std::uint64_t skip_gap(std::uint64_t n) {
    if (remaining_ != 0) {
      throw std::logic_error("SegmentedTraceSource::skip_gap: segment still open");
    }
    return inner_.skip(n);
  }

  /// Absolute record cursor of the inner source (includes gap records).
  [[nodiscard]] std::uint64_t inner_position() const { return inner_.records_consumed(); }

  [[nodiscard]] std::uint64_t remaining() const { return remaining_; }

 private:
  TraceSource& inner_;
  std::uint64_t remaining_ = 0;  ///< current segment allowance
  std::uint64_t consumed_ = 0;   ///< records handed through segments
  std::size_t last_count_ = 0;   ///< records in the view handed out
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_SEGMENT_H
