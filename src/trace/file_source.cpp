#include "trace/file_source.hpp"

#include <stdexcept>
#include <utility>

namespace resim::trace {

FileTraceSource::FileTraceSource(const std::string& path) : FileTraceSource(ByteSource(path)) {}

FileTraceSource::FileTraceSource(ByteSource&& bytes)
    : ChunkCursor(read_container_header(bytes)),
      bytes_(std::move(bytes)),
      decoder_(bytes_.path()) {
  check_end(0);  // an empty trace must end right after its header
}

const RecordBatch& FileTraceSource::load_chunk(std::uint64_t idx, std::uint64_t first) {
  const ChunkHeader ch = read_chunk_header(bytes_, header(), header().record_count - first);
  decoder_.decode(bytes_.take(ch.payload_bytes), ch, idx, first, batch_);
  check_end(idx + 1);
  return batch_;
}

void FileTraceSource::hop_chunk(std::uint64_t idx, std::uint64_t first) {
  const ChunkHeader ch = read_chunk_header(bytes_, header(), header().record_count - first);
  bytes_.seek(bytes_.pos() + ch.payload_bytes);
  check_end(idx + 1);
}

void FileTraceSource::restart() { bytes_.seek(header().payload_start); }

void FileTraceSource::check_end(std::uint64_t idx) const {
  if (idx == header().chunk_count && bytes_.pos() != bytes_.size()) {
    throw std::runtime_error("load_trace: trailing garbage after last chunk in " +
                             bytes_.path());
  }
}

}  // namespace resim::trace
