// FileTraceSource: constant-memory TraceSource over a .rsim file.
//
// The chunk cursor (reader.hpp) over chunks decoded from a ByteSource:
// each chunk's header is validated, its payload handed over by the
// ByteSource and decoded by the one chunk decoder (container.hpp) into a
// reused batch, so peak decoded memory is one chunk, not the trace — the
// property that lets billion-record traces and parallel sweep workers
// (each owning a cheap private source) run in flat host memory. This
// class reads through a buffered file stream; MmapTraceSource
// (mmap_source.hpp) is the same reader over a mapping.
//
// A legacy v1 container's monolithic payload is its single chunk: it is
// held encoded (read whole, or mapped) and decoded kDefaultChunkRecords
// records at a time, so a v1 trace too keeps one piece decoded.
#ifndef RESIM_TRACE_FILE_SOURCE_H
#define RESIM_TRACE_FILE_SOURCE_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/batch.hpp"
#include "trace/container.hpp"
#include "trace/reader.hpp"

namespace resim::trace {

class FileTraceSource : public ChunkCursor {
 public:
  /// Opens and validates the container header; throws std::runtime_error
  /// on a missing or corrupt file.
  explicit FileTraceSource(const std::string& path);

 protected:
  /// Reads the container through `bytes` (the mmap backend).
  explicit FileTraceSource(std::unique_ptr<ByteSource> bytes);

 private:
  const RecordBatch& load_chunk(std::uint64_t idx, std::uint64_t first) override;
  void hop_chunk(std::uint64_t idx, std::uint64_t first) override;
  void restart() override;
  /// Rejects bytes after the last chunk once chunk `idx` is passed.
  void check_end(std::uint64_t idx) const;

  std::unique_ptr<ByteSource> bytes_;
  ChunkDecoder decoder_;
  RecordBatch batch_;  ///< the open chunk (v1: piece), decoded
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_FILE_SOURCE_H
