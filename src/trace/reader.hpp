// TraceSource: the engine's pull interface to a record stream.
//
// One protocol: a source lends out decoded records as BatchViews over
// structure-of-arrays RecordBatches (batch.hpp) and is told how many the
// caller used. The implementations:
//
//   VectorTraceSource     an in-memory Trace (paper §I "traces prepared
//                         off-line"), copied a chunk at a time into a
//                         reused batch (CopiedBatch)
//   ChunkCursor           the one cursor over a .rsim container's chunk
//                         sequence: view accounting, chunk-skipping
//                         skip() and rewind(). Its subclasses only supply
//                         chunks: FileTraceSource and MmapTraceSource
//                         decode them from a ByteSource (file_source.hpp,
//                         mmap_source.hpp), BatchTraceSource acquires
//                         them from a SharedBatchCache (batch_cache.hpp)
//   SegmentedTraceSource  windows over another source (segment.hpp)
//   StreamingTraceSource  a live trace generator, the on-the-fly
//                         FAST-style coupling of §I/§VI, through a
//                         CopiedBatch too (src/baseline/coupled.hpp)
//
// Which source a run reads is decided once, in driver/run.hpp:
// trace.backend maps to VectorTraceSource (memory), FileTraceSource
// (stream) or MmapTraceSource (mmap), and a window or sampled run wraps
// that in a SegmentedTraceSource; the CLI and the daemon construct none.
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

  /// The run of not-yet-consumed records the source holds decoded; an
  /// empty view means end of stream. A non-empty view stays valid until
  /// the next mutating call; the caller reports the records it used with
  /// consume_view(n <= count) before any other call that advances the
  /// source.
  [[nodiscard]] virtual BatchView fetch_view() = 0;

  /// Consume the first `n` records of the view fetch_view() returned:
  /// records_consumed() grows by n and bits_consumed() by their wire
  /// bits. Throws std::logic_error if `n` exceeds the view.
  virtual void consume_view(std::size_t n) = 0;

  /// Consume and discard up to `n` records; returns how many were
  /// skipped (fewer only at end of stream). records_consumed() counts
  /// skipped records. The default consumes whole views; ChunkCursor
  /// hops whole container chunks unread, in which case bits_consumed()
  /// counts a hopped chunk as its stored raw payload (byte-aligned).
  virtual std::uint64_t skip(std::uint64_t n);

  /// Wire bits consumed so far (trace-throughput statistic, Table 3).
  [[nodiscard]] virtual std::uint64_t bits_consumed() const = 0;

  /// Records consumed so far.
  [[nodiscard]] virtual std::uint64_t records_consumed() const = 0;

  /// Total records in the underlying stream when known up front (the
  /// container header's record_count; a whole in-memory trace). 0 means
  /// unknown (e.g. a live generator) — planners that need the length
  /// (driver/sampling.hpp uniform plans) must reject such sources.
  [[nodiscard]] virtual std::uint64_t total_records() const { return 0; }

  /// Next record without consuming it; nullptr at end of stream. The
  /// pointer stays valid until the next call on this source.
  [[nodiscard]] const TraceRecord* peek();

  /// Consume and return the next record; throws std::out_of_range at
  /// end of stream.
  TraceRecord next();

 private:
  TraceRecord peeked_{};  ///< peek()'s materialization target
};

/// Record-at-a-time reader over a source's views that reports what it
/// read in one consume_view() per flush() rather than one per record —
/// the engine's fetch stage reads through one. After flush() the
/// source's counters are exact and the cursor holds no view, so other
/// callers may use (or reposition) the source freely.
class ViewCursor {
 public:
  explicit ViewCursor(TraceSource& src) : src_(src) {}

  /// Next record without consuming it; nullptr at end of stream.
  [[nodiscard]] const TraceRecord* peek() {
    if (pos_ == view_.count) {
      flush();
      view_ = src_.fetch_view();
      if (view_.empty()) return nullptr;
    }
    if (mat_ != pos_) {
      view_.batch->get(view_.first + pos_, rec_);
      mat_ = pos_;
    }
    return &rec_;
  }

  /// Consume and return the next record; throws std::out_of_range at
  /// end of stream.
  TraceRecord next() {
    if (peek() == nullptr) throw std::out_of_range("ViewCursor::next: past end of stream");
    ++pos_;
    return rec_;
  }

  /// Report the records read so far to the source and drop the view.
  void flush() {
    if (pos_ != 0) src_.consume_view(pos_);
    view_ = {};
    pos_ = 0;
    mat_ = kNone;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  TraceSource& src_;
  BatchView view_{};
  std::size_t pos_ = 0;     ///< next unread record in view_
  std::size_t mat_ = kNone; ///< pos_ that rec_ holds
  TraceRecord rec_{};
};

/// Walks every remaining record of `src` through its views, calling
/// f(const TraceRecord&) on each.
template <class F>
void drain(TraceSource& src, F&& f) {
  TraceRecord r;
  for (BatchView v = src.fetch_view(); !v.empty(); v = src.fetch_view()) {
    for (std::size_t i = 0; i < v.count; ++i) {
      v.batch->get(v.first + i, r);
      f(r);
    }
    src.consume_view(v.count);
  }
}

/// A reused batch of copies of plain TraceRecords and the view
/// accounting over it: the shared core of VectorTraceSource and the
/// coupled StreamingTraceSource (src/baseline/coupled.hpp), which both
/// fill it kDefaultChunkRecords records at a time.
class CopiedBatch {
 public:
  /// True once every record of the batch is consumed.
  [[nodiscard]] bool drained() const { return pos_ == batch_.size(); }

  /// Replaces the batch with copies of records[0, n).
  void fill(const TraceRecord* records, std::size_t n) {
    batch_.assign(records, n);
    pos_ = 0;
  }

  /// Drops the unconsumed records.
  void clear() { fill(nullptr, 0); }

  /// The unconsumed records.
  [[nodiscard]] BatchView view() const { return {&batch_, pos_, batch_.size() - pos_}; }

  /// Consumes the first `n` records of view() and returns their wire
  /// bits; throws std::logic_error if `n` exceeds the view.
  std::uint64_t consume(std::size_t n) {
    if (n > batch_.size() - pos_) {
      throw std::logic_error("TraceSource::consume_view: more than the view holds");
    }
    const std::uint64_t bits = batch_.bits_in(pos_, n);
    pos_ += n;
    return bits;
  }

 private:
  RecordBatch batch_;
  std::size_t pos_ = 0;  ///< next unconsumed record in batch_
};

/// In-memory source over a Trace (does not own it), lent out through a
/// CopiedBatch.
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(const Trace& trace) : trace_(trace) {}

  [[nodiscard]] BatchView fetch_view() override;
  void consume_view(std::size_t n) override;

  /// Index-bump seek: the same records/bits accounting as consuming the
  /// records, without copying them into a batch.
  std::uint64_t skip(std::uint64_t n) override;

  [[nodiscard]] std::uint64_t bits_consumed() const override { return bits_; }
  [[nodiscard]] std::uint64_t records_consumed() const override { return pos_; }
  [[nodiscard]] std::uint64_t total_records() const override { return trace_.records.size(); }

  void rewind();

 private:
  const Trace& trace_;
  CopiedBatch batch_;    ///< copies of the records from pos_ on
  std::size_t pos_ = 0;  ///< next unconsumed record in trace_
  std::uint64_t bits_ = 0;
};

/// The one cursor over a .rsim container's chunk sequence. It owns the
/// consumption accounting, the chunk-skipping skip() and rewind();
/// subclasses only hand over chunks, so every container read — stream,
/// mmap or shared decode — skips and counts identically.
class ChunkCursor : public TraceSource {
 public:
  [[nodiscard]] BatchView fetch_view() final;
  void consume_view(std::size_t n) final;

  /// Records left in the open chunk are consumed as read. Whole chunks
  /// inside the rest of the region are hopped unread — never decoded,
  /// not even inflated — and count raw_bytes * 8 bits each, so raw and
  /// compressed containers agree on bits_consumed(). A partial last
  /// chunk is decoded and its head consumed. A v1 payload has no chunk
  /// framing to hop by, so its pieces are decoded and consumed.
  std::uint64_t skip(std::uint64_t n) final;

  /// Restart from the first record, resetting the consumption counters
  /// (sweep workers re-run one file against many configurations).
  void rewind();

  [[nodiscard]] std::uint64_t bits_consumed() const final { return bits_; }
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
  /// Move past chunk `idx` (first record `first`) unread; returns its
  /// raw_bytes. Never called on a v1 container.
  virtual std::uint64_t hop_chunk(std::uint64_t idx, std::uint64_t first) = 0;
  /// Reposition before chunk 0.
  virtual void restart() = 0;

 private:
  ContainerHeader hdr_;
  const RecordBatch* batch_ = nullptr;  ///< the open chunk, if any
  std::size_t pos_ = 0;                 ///< next unconsumed record in batch_
  std::uint64_t chunk_ = 0;             ///< next chunk to load or hop
  std::uint64_t loaded_ = 0;            ///< records in chunks loaded or hopped
  std::uint64_t consumed_ = 0;
  std::uint64_t bits_ = 0;
  std::uint64_t chunks_skipped_ = 0;
  std::uint64_t chunks_decoded_ = 0;
  std::size_t max_batch_records_ = 0;
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_READER_H
