// TraceSource: the engine's pull interface to a record stream.
//
// One protocol: a source lends out the TraceRecords it holds as
// BatchViews (batch.hpp) and is told how many the caller used. Nothing
// is copied on the way: a view points at records the source already
// has. The implementations:
//
//   VectorTraceSource     an in-memory Trace (paper §I "traces prepared
//                         off-line"), the rest of it lent in place
//   ChunkCursor           the one cursor over a .rsim container's chunk
//                         sequence: view accounting, chunk-skipping
//                         skip() and rewind(). Its subclasses only supply
//                         chunks: FileTraceSource decodes them from the
//                         file (file_source.hpp), BatchTraceSource
//                         acquires them from a SharedBatchCache
//                         (batch_cache.hpp)
//   SegmentedTraceSource  windows over another source (segment.hpp)
//   StreamingTraceSource  a live trace generator, the on-the-fly
//                         FAST-style coupling of §I/§VI, lending its
//                         staging vector (src/baseline/coupled.hpp)
//
// Which source a run reads is decided once, in driver/run.hpp:
// trace.backend maps to VectorTraceSource (memory) or FileTraceSource
// (stream), and a window or sampled run wraps that in a
// SegmentedTraceSource; the CLI and the daemon construct none.
//
// Sources count records, not wire bits. The trace bandwidth a run used
// (Table 3) is counted once, by the ViewCursor the engine reads every
// record through: one table lookup per record it hands out.
//
// peek()/next() are conveniences built on the views, for callers that
// want one record at a time; ViewCursor does the same for hot loops,
// reporting consumption once per view instead of once per record.
#ifndef RESIM_TRACE_READER_H
#define RESIM_TRACE_READER_H

#include <cstdint>
#include <stdexcept>

#include "trace/batch.hpp"
#include "trace/container.hpp"
#include "trace/format.hpp"
#include "trace/writer.hpp"

namespace resim::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// The run of not-yet-consumed records the source holds; an empty
  /// view means end of stream. A non-empty view stays valid until the
  /// next mutating call; the caller reports the records it used with
  /// consume_view(n <= count) before any other call that advances the
  /// source.
  [[nodiscard]] virtual BatchView fetch_view() = 0;

  /// Consume the first `n` records of the view fetch_view() returned:
  /// records_consumed() grows by n. Throws std::logic_error if `n`
  /// exceeds the view.
  virtual void consume_view(std::size_t n) = 0;

  /// Consume and discard up to `n` records; returns how many were
  /// skipped (fewer only at end of stream). records_consumed() counts
  /// skipped records. The default consumes whole views; ChunkCursor
  /// hops whole container chunks unread.
  virtual std::uint64_t skip(std::uint64_t n);

  /// Records consumed so far.
  [[nodiscard]] virtual std::uint64_t records_consumed() const = 0;

  /// Total records in the underlying stream when known up front (the
  /// container header's record_count; a whole in-memory trace). 0 means
  /// unknown (e.g. a live generator) — planners that need the length
  /// (driver/sampling.hpp uniform plans) must reject such sources.
  [[nodiscard]] virtual std::uint64_t total_records() const { return 0; }

  /// Next record without consuming it; nullptr at end of stream. The
  /// pointer stays valid until the next call on this source.
  [[nodiscard]] const TraceRecord* peek() {
    const BatchView v = fetch_view();
    return v.empty() ? nullptr : v.records;
  }

  /// Consume and return the next record; throws std::out_of_range at
  /// end of stream.
  TraceRecord next();

 protected:
  /// consume_view's contract: throws std::logic_error if `n` exceeds
  /// the `count` records of the view handed out.
  static void check_consume(std::size_t n, std::size_t count) {
    if (n > count) throw std::logic_error("TraceSource::consume_view: more than the view holds");
  }
};

/// Record-at-a-time reader over a source's views that reports what it
/// read in one consume_view() per flush() rather than one per record —
/// the engine's fetch stage reads through one. After flush() the
/// source's counters are exact and the cursor holds no view, so other
/// callers may use (or reposition) the source freely.
///
/// The cursor is the read path's one wire-bit accountant: next() adds
/// each record's format constant to wire_bits(), which the engine
/// reports as SimResult::trace_bits.
class ViewCursor {
 public:
  explicit ViewCursor(TraceSource& src) : src_(src) {}

  /// Next record without consuming it; nullptr at end of stream. Points
  /// into the source's view, so it stays valid until the next flush() —
  /// which peek() itself does once the view is used up.
  [[nodiscard]] const TraceRecord* peek() {
    if (pos_ == view_.count) {
      flush();
      view_ = src_.fetch_view();
      if (view_.empty()) return nullptr;
    }
    return view_.records + pos_;
  }

  /// Consume and return the next record, valid as long as peek()'s;
  /// throws std::out_of_range at end of stream.
  const TraceRecord& next() {
    const TraceRecord* r = peek();
    if (r == nullptr) throw std::out_of_range("ViewCursor::next: past end of stream");
    ++pos_;
    bits_ += format_bits(r->fmt);
    return *r;
  }

  /// Report the records read so far to the source and drop the view.
  void flush() {
    if (pos_ != 0) src_.consume_view(pos_);
    view_ = {};
    pos_ = 0;
  }

  /// Wire bits of every record next() has returned (Table 3).
  [[nodiscard]] std::uint64_t wire_bits() const { return bits_; }

 private:
  TraceSource& src_;
  BatchView view_{};
  std::size_t pos_ = 0;  ///< next unread record in view_
  std::uint64_t bits_ = 0;
};

/// Walks every remaining record of `src` through its views, calling
/// f(const TraceRecord&) on each.
template <class F>
void drain(TraceSource& src, F&& f) {
  for (BatchView v = src.fetch_view(); !v.empty(); v = src.fetch_view()) {
    for (std::size_t i = 0; i < v.count; ++i) f(v.records[i]);
    src.consume_view(v.count);
  }
}

/// In-memory source over a Trace (does not own it). Every view is the
/// rest of the trace, lent in place, so skip() is one view consumed.
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(const Trace& trace) : trace_(trace) {}

  [[nodiscard]] BatchView fetch_view() override {
    return {trace_.records.data() + pos_, trace_.records.size() - pos_};
  }
  void consume_view(std::size_t n) override {
    check_consume(n, trace_.records.size() - pos_);
    pos_ += n;
  }

  [[nodiscard]] std::uint64_t records_consumed() const override { return pos_; }
  [[nodiscard]] std::uint64_t total_records() const override { return trace_.records.size(); }

  void rewind() { pos_ = 0; }

 private:
  const Trace& trace_;
  std::size_t pos_ = 0;  ///< next unconsumed record in trace_
};

/// The one cursor over a .rsim container's chunk sequence. It owns the
/// consumption accounting, the chunk-skipping skip() and rewind();
/// subclasses only hand over chunks, so every container read — private
/// file reader or shared decode — skips and counts identically.
class ChunkCursor : public TraceSource {
 public:
  [[nodiscard]] BatchView fetch_view() final;
  void consume_view(std::size_t n) final;

  /// Records left in the open chunk are consumed as read. Whole chunks
  /// inside the rest of the region are hopped unread — never decoded,
  /// not even inflated. A partial last chunk is decoded and its head
  /// consumed.
  std::uint64_t skip(std::uint64_t n) final;

  /// Restart from the first record, resetting the consumption counters
  /// (sweep workers re-run one file against many configurations).
  void rewind();

  [[nodiscard]] std::uint64_t records_consumed() const final { return consumed_; }
  [[nodiscard]] std::uint64_t total_records() const final { return hdr_.record_count; }

  // --- container metadata (available without decoding any record) ---------
  [[nodiscard]] const std::string& trace_name() const { return hdr_.name; }
  [[nodiscard]] Addr start_pc() const { return hdr_.start_pc; }
  [[nodiscard]] std::uint32_t container_version() const { return hdr_.version; }

  /// Chunks hopped unread by skip() since construction or rewind().
  [[nodiscard]] std::uint64_t chunks_skipped() const { return chunks_skipped_; }
  /// Chunks this cursor loaded (decoded or acquired), rewinds included.
  [[nodiscard]] std::uint64_t chunks_decoded() const { return chunks_decoded_; }
  /// Records in the largest chunk loaded so far: the cursor's decoded
  /// working set, at most the container's chunk_records.
  [[nodiscard]] std::size_t max_batch_records() const { return max_batch_records_; }

 protected:
  explicit ChunkCursor(ContainerHeader hdr) : hdr_(std::move(hdr)) {}
  [[nodiscard]] const ContainerHeader& header() const { return hdr_; }

  /// Decode (or acquire) chunk `idx`, whose first record is `first`.
  /// The batch stays valid until the next load_chunk/hop_chunk/restart.
  virtual const RecordBatch& load_chunk(std::uint64_t idx, std::uint64_t first) = 0;
  /// Move past chunk `idx` (first record `first`) unread.
  virtual void hop_chunk(std::uint64_t idx, std::uint64_t first) = 0;
  /// Reposition before chunk 0.
  virtual void restart() = 0;

 private:
  ContainerHeader hdr_;
  const RecordBatch* batch_ = nullptr;  ///< the open chunk, if any
  std::size_t pos_ = 0;                 ///< next unconsumed record in batch_
  std::uint64_t chunk_ = 0;             ///< next chunk to load or hop
  std::uint64_t loaded_ = 0;            ///< records in chunks loaded or hopped
  std::uint64_t consumed_ = 0;
  std::uint64_t chunks_skipped_ = 0;
  std::uint64_t chunks_decoded_ = 0;
  std::size_t max_batch_records_ = 0;
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_READER_H
