// FileTraceSource: constant-memory TraceSource over a .rsim file.
//
// The chunk cursor (reader.hpp) over chunks decoded from the container's
// ByteSource: each chunk's header is validated, its payload read through
// the one buffered file reader and decoded by the one chunk decoder
// (container.hpp) into a reused batch, so peak decoded memory is one
// chunk, not the trace — the property that lets billion-record traces
// and parallel sweep workers (each owning a cheap private source) run in
// flat host memory.
#ifndef RESIM_TRACE_FILE_SOURCE_H
#define RESIM_TRACE_FILE_SOURCE_H

#include <cstdint>
#include <string>

#include "trace/batch.hpp"
#include "trace/container.hpp"
#include "trace/reader.hpp"

namespace resim::trace {

class FileTraceSource final : public ChunkCursor {
 public:
  /// Opens and validates the container header; throws std::runtime_error
  /// on a missing or corrupt file.
  explicit FileTraceSource(const std::string& path);

 private:
  /// The cursor's header is read before the reader becomes a member.
  explicit FileTraceSource(ByteSource&& bytes);

  const RecordBatch& load_chunk(std::uint64_t idx, std::uint64_t first) override;
  void hop_chunk(std::uint64_t idx, std::uint64_t first) override;
  void restart() override;
  /// Rejects bytes after the last chunk once chunk `idx` is passed.
  void check_end(std::uint64_t idx) const;

  ByteSource bytes_;
  ChunkDecoder decoder_;
  RecordBatch batch_;  ///< the open chunk, decoded
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_FILE_SOURCE_H
