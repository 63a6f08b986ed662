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

TraceRecord TraceSource::next() {
  const TraceRecord* r = peek();
  if (r == nullptr) throw std::out_of_range("TraceSource::next: past end of stream");
  const TraceRecord out = *r;
  consume_view(1);
  return out;
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
  return {batch_->data() + pos_, batch_->size() - pos_};
}

void ChunkCursor::consume_view(std::size_t n) {
  if (n == 0) return;
  check_consume(n, batch_ == nullptr ? 0 : batch_->size() - pos_);
  consumed_ += n;
  pos_ += n;
}

std::uint64_t ChunkCursor::skip(std::uint64_t n) {
  const std::uint64_t open = batch_ == nullptr ? 0 : batch_->size() - pos_;
  std::uint64_t done = std::min(n, open);
  consume_view(static_cast<std::size_t>(done));
  while (done < n && loaded_ < hdr_.record_count) {
    const std::uint64_t len =
        std::min<std::uint64_t>(hdr_.record_count - loaded_, hdr_.chunk_records);
    if (n - done < len) break;
    batch_ = nullptr;
    hop_chunk(chunk_, loaded_);
    ++chunk_;
    loaded_ += len;
    consumed_ += len;
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
  chunks_skipped_ = 0;
  restart();
}

}  // namespace resim::trace
