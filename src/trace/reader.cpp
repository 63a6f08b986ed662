#include "trace/reader.hpp"

#include <algorithm>

namespace resim::trace {

// --- TraceSource -------------------------------------------------------------

std::uint64_t TraceSource::skip(std::uint64_t n) {
  std::uint64_t done = 0;
  while (done < n) {
    const BatchView v = fetch_view();
    if (v.empty()) break;
    const auto k = static_cast<std::size_t>(std::min<std::uint64_t>(v.count, n - done));
    consume_view(k);
    done += k;
  }
  return done;
}

const TraceRecord* TraceSource::peek() {
  const BatchView v = fetch_view();
  if (v.empty()) return nullptr;
  v.batch->get(v.first, peeked_);
  return &peeked_;
}

TraceRecord TraceSource::next() {
  const TraceRecord* r = peek();
  if (r == nullptr) throw std::out_of_range("TraceSource::next: past end of stream");
  const TraceRecord out = *r;
  consume_view(1);
  return out;
}

// --- VectorTraceSource ---------------------------------------------------------

BatchView VectorTraceSource::fetch_view() {
  if (batch_.drained()) {
    batch_.fill(trace_.records.data() + pos_,
                std::min<std::size_t>(kDefaultChunkRecords, trace_.records.size() - pos_));
  }
  return batch_.view();
}

void VectorTraceSource::consume_view(std::size_t n) {
  bits_ += batch_.consume(n);
  pos_ += n;
}

std::uint64_t VectorTraceSource::skip(std::uint64_t n) {
  const std::size_t k =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, trace_.records.size() - pos_));
  for (std::size_t i = 0; i < k; ++i) bits_ += encoded_bits(trace_.records[pos_ + i]);
  pos_ += k;
  batch_.clear();
  return k;
}

void VectorTraceSource::rewind() {
  batch_.clear();
  pos_ = 0;
  bits_ = 0;
}

// --- ChunkCursor ---------------------------------------------------------------

BatchView ChunkCursor::fetch_view() {
  if (batch_ == nullptr || pos_ == batch_->size()) {
    if (loaded_ == hdr_.record_count) return {};
    batch_ = nullptr;  // a load that throws must not leave a stale view behind
    batch_ = &load_chunk(chunk_, loaded_);
    pos_ = 0;
    ++chunk_;
    loaded_ += batch_->size();
    ++chunks_decoded_;
    max_batch_records_ = std::max(max_batch_records_, batch_->size());
  }
  return {batch_, pos_, batch_->size() - pos_};
}

void ChunkCursor::consume_view(std::size_t n) {
  if (n == 0) return;
  if (batch_ == nullptr || n > batch_->size() - pos_) {
    throw std::logic_error("ChunkCursor::consume_view: more than the view holds");
  }
  bits_ += batch_->bits_in(pos_, n);
  consumed_ += n;
  pos_ += n;
}

std::uint64_t ChunkCursor::skip(std::uint64_t n) {
  const std::uint64_t open = batch_ == nullptr ? 0 : batch_->size() - pos_;
  std::uint64_t done = std::min(n, open);
  consume_view(static_cast<std::size_t>(done));
  while (hdr_.version != kContainerV1 && done < n && loaded_ < hdr_.record_count) {
    const std::uint64_t len =
        std::min<std::uint64_t>(hdr_.record_count - loaded_, hdr_.chunk_records);
    if (n - done < len) break;
    batch_ = nullptr;
    const std::uint64_t raw_bytes = hop_chunk(chunk_, loaded_);
    ++chunk_;
    loaded_ += len;
    consumed_ += len;
    bits_ += raw_bytes * 8;
    done += len;
    ++chunks_skipped_;
  }
  return done + TraceSource::skip(n - done);
}

void ChunkCursor::rewind() {
  batch_ = nullptr;
  pos_ = 0;
  chunk_ = 0;
  loaded_ = 0;
  consumed_ = 0;
  bits_ = 0;
  chunks_skipped_ = 0;
  restart();
}

}  // namespace resim::trace
