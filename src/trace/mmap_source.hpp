// MmapTraceSource: FileTraceSource over a read-only memory mapping.
//
// Maps the whole container once; the chunk cursor and decoder are
// FileTraceSource's, only the ByteSource differs. Raw chunks (all of v2,
// uncompressed v3/v4 chunks) are bit-decoded straight out of the
// mapping, never copied, and compressed chunks inflate into one reused
// chunk-sized scratch buffer, so the encoded bytes are the page cache's
// problem, shared across every worker mapping the same file — what makes
// fan-out sweeps over one long prepared trace cheap (trace.backend =
// mmap, docs/CONFIG.md).
#ifndef RESIM_TRACE_MMAP_SOURCE_H
#define RESIM_TRACE_MMAP_SOURCE_H

#include <string>

#include "trace/file_source.hpp"

namespace resim::trace {

class MmapTraceSource final : public FileTraceSource {
 public:
  /// Maps and validates the container header; throws std::runtime_error
  /// on a missing or corrupt file (or on platforms without mmap).
  explicit MmapTraceSource(const std::string& path);
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_MMAP_SOURCE_H
