// Trace container and writer.
//
// A Trace owns the record stream for a benchmark run, both as decoded
// records (fast in-memory simulation) and, on demand, in the encoded
// wire format (file exchange, throughput accounting — paper Table 3).
#ifndef RESIM_TRACE_WRITER_H
#define RESIM_TRACE_WRITER_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/container.hpp"
#include "trace/format.hpp"
#include "trace/record.hpp"

namespace resim::trace {

struct Trace {
  std::string name;       ///< benchmark name
  Addr start_pc = 0;      ///< first correct-path PC
  std::vector<TraceRecord> records;

  [[nodiscard]] std::uint64_t size() const { return records.size(); }

  /// Exact wire size in bits of the whole stream.
  [[nodiscard]] std::uint64_t total_bits() const {
    std::uint64_t bits = 0;
    for (const auto& r : records) bits += encoded_bits(r);
    return bits;
  }

  /// Encode to the wire format (byte-aligned at the end only); the
  /// inverse is ChunkDecoder (container.hpp).
  [[nodiscard]] std::vector<std::uint8_t> encode_payload() const;
};

/// Writes the chunked container format (see docs/TRACE_FORMAT.md):
/// little-endian framing, `chunk_records` records per chunk so readers
/// can stream or skip chunks without decoding the whole payload.
/// `compress` selects container v3 with per-chunk LZ compression
/// (common/lz.hpp); chunks that don't shrink are stored raw inside the
/// v3 framing. `prefilter` (requires `compress`; throws
/// std::invalid_argument otherwise) selects container v4 and adds the
/// DeltaCodec pre-filter as a per-chunk candidate: each chunk stores the
/// smallest of {raw, LZ, delta+LZ}, with plain LZ winning ties so the
/// delta bit only ever buys bytes. The default stays the bit-stable v2
/// output.
void save_trace(const Trace& t, const std::string& path,
                std::uint32_t chunk_records = kDefaultChunkRecords,
                bool compress = false, bool prefilter = false);

/// Reads container v2 through v4. Every header field is validated
/// against the file size before use; corrupt files throw
/// std::runtime_error naming the offending field.
[[nodiscard]] Trace load_trace(const std::string& path);

}  // namespace resim::trace

#endif  // RESIM_TRACE_WRITER_H
