#include "trace/batch_cache.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace resim::trace {

namespace {

/// Position a finished (or not-yet-registered) consumer can never hold;
/// min_position_locked() returns it for an empty position set, making
/// every cached chunk evictable.
constexpr std::uint64_t kNoPosition = std::numeric_limits<std::uint64_t>::max();

}  // namespace

SharedBatchCache::SharedBatchCache(std::string path, std::size_t expected_consumers,
                                   std::size_t capacity)
    : path_(std::move(path)),
      expected_(expected_consumers == 0 ? 1 : expected_consumers),
      capacity_(capacity == 0 ? 1 : capacity),
      bytes_(path_),
      decoder_(path_),
      decoded_ctr_(stats_.counter("cache.chunks_decoded")),
      hits_ctr_(stats_.counter("cache.hits")),
      evictions_ctr_(stats_.counter("cache.evictions")) {
  hdr_ = read_container_header(bytes_);

  // Scan the chunk directory once: every header is validated exactly as
  // a private source would, but payloads are seeked past unread.
  chunks_.reserve(hdr_.chunk_count);
  std::uint64_t first = 0;
  for (std::uint32_t i = 0; i < hdr_.chunk_count; ++i) {
    const ChunkHeader ch = read_chunk_header(bytes_, hdr_, hdr_.record_count - first);
    chunks_.push_back({ch, bytes_.pos(), first});
    first += ch.record_count;
    bytes_.seek(bytes_.pos() + ch.payload_bytes);
  }
  if (bytes_.pos() != bytes_.size()) {
    throw std::runtime_error("load_trace: trailing garbage after last chunk in " + path_);
  }
}

std::size_t SharedBatchCache::register_consumer() {
  const std::lock_guard<std::mutex> lk(mu_);
  const std::size_t id = next_id_++;
  positions_[id] = 0;
  ++started_;
  cv_.notify_all();
  return id;
}

void SharedBatchCache::deregister_consumer(std::size_t id) {
  const std::lock_guard<std::mutex> lk(mu_);
  positions_.erase(id);
  cv_.notify_all();
}

void SharedBatchCache::update_position(std::size_t id, std::uint64_t chunk_idx) {
  const std::lock_guard<std::mutex> lk(mu_);
  positions_[id] = chunk_idx;
  cv_.notify_all();
}

std::uint64_t SharedBatchCache::min_position_locked() const {
  std::uint64_t m = kNoPosition;
  for (const auto& [id, pos] : positions_) {
    if (pos < m) m = pos;
  }
  return m;
}

bool SharedBatchCache::eviction_candidate_locked(std::uint64_t* victim) const {
  // Registration gate: before the expected consumer count has ever been
  // reached, keep everything — a late joiner starts at chunk 0. The
  // pressure valve (2x capacity) bounds memory when the expected
  // consumers never materialize.
  if (started_ < expected_ && cache_.size() < 2 * capacity_) return false;
  const std::uint64_t min_pos = min_position_locked();
  bool found = false;
  std::uint64_t lru_use = 0;
  for (const auto& [idx, entry] : cache_) {
    if (idx >= min_pos) break;  // std::map iterates in index order
    if (!found || entry.last_use < lru_use) {
      found = true;
      lru_use = entry.last_use;
      *victim = idx;
    }
  }
  return found;
}

bool SharedBatchCache::try_evict_locked() {
  std::uint64_t victim = 0;
  if (!eviction_candidate_locked(&victim)) return false;
  cache_.erase(victim);
  evictions_ctr_.add();
  return true;
}

std::shared_ptr<const RecordBatch> SharedBatchCache::acquire(std::size_t chunk_idx,
                                                             std::size_t id) {
  const std::uint64_t idx = chunk_idx;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (positions_[id] != idx) {
        positions_[id] = idx;
        cv_.notify_all();  // a position advance may unblock eviction
      }
      if (const auto it = cache_.find(idx); it != cache_.end()) {
        it->second.last_use = ++use_clock_;
        hits_ctr_.add();
        return it->second.batch;
      }
      if (producing_) {
        // Someone is decoding (maybe this very chunk): wait for the
        // producer slot or for the batch to appear.
        cv_.wait(lk, [&] { return cache_.count(idx) != 0 || !producing_; });
        continue;
      }
      if (cache_.size() >= capacity_ && !try_evict_locked() &&
          idx != min_position_locked()) {
        // Backpressure: the cache window is full of chunks trailing
        // consumers still need. Only the trailing consumer may push on
        // (its insert overshoots capacity by at most one batch, and its
        // progress is what makes older chunks evictable).
        cv_.wait(lk, [&] {
          if (cache_.count(idx) != 0) return true;
          if (producing_) return false;
          std::uint64_t victim = 0;
          return cache_.size() < capacity_ || idx == min_position_locked() ||
                 eviction_candidate_locked(&victim);
        });
        continue;
      }
      producing_ = true;
    }

    // Decode outside the lock: cache hits and position updates proceed
    // while this thread bit-unpacks. producing_ serializes use of the
    // stream and scratch buffers across producers.
    std::shared_ptr<const RecordBatch> batch;
    try {
      batch = produce(chunk_idx);
    } catch (...) {
      const std::lock_guard<std::mutex> lk(mu_);
      producing_ = false;
      cv_.notify_all();
      throw;
    }

    {
      const std::lock_guard<std::mutex> lk(mu_);
      producing_ = false;
      decoded_ctr_.add();
      while (cache_.size() >= capacity_ && try_evict_locked()) {
      }
      cache_[idx] = Entry{batch, ++use_clock_};
      cv_.notify_all();
    }
    return batch;
  }
}

std::shared_ptr<const RecordBatch> SharedBatchCache::produce(std::size_t idx) {
  const ChunkInfo& info = chunks_[idx];
  bytes_.seek(info.payload_offset);
  auto batch = std::make_shared<RecordBatch>();
  decoder_.decode(bytes_.take(info.header.payload_bytes), info.header, idx, info.first_record,
                  *batch);
  return batch;
}

std::uint64_t SharedBatchCache::chunks_decoded() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return decoded_ctr_.value();
}

std::uint64_t SharedBatchCache::hits() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return hits_ctr_.value();
}

std::uint64_t SharedBatchCache::evictions() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return evictions_ctr_.value();
}

// --- BatchTraceSource ------------------------------------------------------

namespace {

const ContainerHeader& header_of(const std::shared_ptr<SharedBatchCache>& cache) {
  if (!cache) throw std::invalid_argument("BatchTraceSource: null cache");
  return cache->header();
}

}  // namespace

BatchTraceSource::BatchTraceSource(std::shared_ptr<SharedBatchCache> cache)
    : ChunkCursor(header_of(cache)), cache_(std::move(cache)), id_(cache_->register_consumer()) {}

BatchTraceSource::~BatchTraceSource() { cache_->deregister_consumer(id_); }

const RecordBatch& BatchTraceSource::load_chunk(std::uint64_t idx, std::uint64_t /*first*/) {
  batch_.reset();
  batch_ = cache_->acquire(idx, id_);
  return *batch_;
}

void BatchTraceSource::hop_chunk(std::uint64_t idx, std::uint64_t /*first*/) {
  // Moving the position past the hopped chunk lets the others evict it.
  batch_.reset();
  cache_->update_position(id_, idx + 1);
}

void BatchTraceSource::restart() {
  batch_.reset();
  cache_->update_position(id_, 0);
}

}  // namespace resim::trace
