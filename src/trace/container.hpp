// .rsim container layout: explicit little-endian framing around the
// bit-packed record payload of trace/format.hpp. Every version is one
// header plus framed chunks, each independently decodable.
//
// Version 2 (default output of save_trace):
//   magic "RSIM" | u32 version=2 | u32 name_len | name bytes
//   | u64 start_pc | u64 record_count | u32 chunk_records | u32 chunk_count
//   then chunk_count times:
//     u32 record_count | u32 payload_bytes | payload
// Every chunk holds exactly chunk_records records except the last, and
// every chunk payload is independently byte-aligned, so a reader can
// skip a chunk by seeking payload_bytes without decoding it — the basis
// of the constant-memory chunk cursor (reader.hpp).
//
// Version 3 (written by save_trace with compression requested): same
// header as v2 but version=3, and each chunk header grows to
//     u32 record_count | u32 flags | u32 raw_bytes | u32 compressed_bytes
//     | payload[compressed_bytes]
// flags bit 0 set means the payload is the chunk's bit-packed record
// bytes compressed with the in-tree LZ codec (common/lz.hpp) and
// raw_bytes is the decompressed size; flags 0 means the payload is
// stored raw and compressed_bytes == raw_bytes. Compression is decided
// per chunk (incompressible chunks stay raw), and chunk-skipping seek
// still works unread: the stored size is always compressed_bytes.
// All integers little-endian.
//
// Version 4 (written by save_trace with the delta pre-filter requested):
// identical framing to v3, plus flags bit 1 (kChunkFlagDelta) meaning
// the chunk's records were delta-filtered (DeltaCodec below) before
// bit-packing: B-record PCs are stored relative to the previous branch
// PC, targets relative to their own PC, and M-record addresses relative
// to the previous address, all mod 2^32, with the filter state reset at
// every chunk boundary so chunk-skipping seek still works unread. Field
// widths are unchanged, so raw_bytes is identical to the unfiltered
// encoding. The delta bit is only legal on version-4 chunks that are
// also compressed — the filter exists to feed the LZ matcher, and a
// delta-only chunk is something the writer never emits. The writer
// keeps the per-chunk best of {raw, LZ, delta+LZ}.
//
// Full bit-exact specification: docs/TRACE_FORMAT.md.
#ifndef RESIM_TRACE_CONTAINER_H
#define RESIM_TRACE_CONTAINER_H

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "trace/batch.hpp"
#include "trace/record.hpp"

namespace resim::trace {

inline constexpr char kContainerMagic[4] = {'R', 'S', 'I', 'M'};
inline constexpr std::uint32_t kContainerV2 = 2;
inline constexpr std::uint32_t kContainerV3 = 3;
inline constexpr std::uint32_t kContainerV4 = 4;

/// v3+ chunk flags. Bits a version does not define are rejected as
/// corruption — a v3 chunk carrying the delta bit is corrupt even though
/// a v4 chunk may carry it.
inline constexpr std::uint32_t kChunkFlagCompressed = 1u << 0;
inline constexpr std::uint32_t kChunkFlagDelta = 1u << 1;  ///< v4 only

/// Records per full chunk written by save_trace. 4096 records is at most
/// ~42 KiB of encoded payload (all-branch worst case), so a streaming
/// reader's working set stays well under one L2 cache.
inline constexpr std::uint32_t kDefaultChunkRecords = 4096;

/// Upper bounds accepted from the wire; anything larger is corruption,
/// not a plausible trace.
inline constexpr std::uint32_t kMaxNameLen = 4096;
inline constexpr std::uint32_t kMaxChunkRecords = 1u << 20;

/// Everything before the first chunk header.
struct ContainerHeader {
  std::uint32_t version = kContainerV2;
  std::string name;
  Addr start_pc = 0;
  std::uint64_t record_count = 0;
  std::uint32_t chunk_records = 0;     ///< records per full chunk
  std::uint32_t chunk_count = 0;
  std::uint64_t payload_start = 0;     ///< file offset just past this header
};

/// Per-chunk framing, normalized across versions: a v2 chunk reads as
/// flags == 0 with raw_bytes == payload_bytes, so consumers only ever
/// branch on the flags.
struct ChunkHeader {
  std::uint64_t record_count = 0;
  std::uint32_t flags = 0;          ///< v3+ only on the wire; 0 for v2
  std::uint64_t raw_bytes = 0;      ///< decoded (bit-packed) payload bytes
  std::uint64_t payload_bytes = 0;  ///< bytes stored in the file
  [[nodiscard]] bool compressed() const { return (flags & kChunkFlagCompressed) != 0; }
  [[nodiscard]] bool delta_filtered() const { return (flags & kChunkFlagDelta) != 0; }
};

/// The v4 delta pre-filter (kChunkFlagDelta): a stateful, exactly
/// invertible transform over the address-bearing record fields that
/// turns the strided PC/address streams into small repeating deltas the
/// LZ matcher can fold. Field widths are unchanged (all arithmetic is
/// mod 2^32, the wire width), so a filtered chunk's raw_bytes equals the
/// unfiltered encoding's. State resets at every chunk boundary, keeping
/// chunks independently decodable for the chunk-skipping seek.
struct DeltaCodec {
  std::uint64_t prev_pc = 0;    ///< last real branch PC seen (32-bit value)
  std::uint64_t prev_addr = 0;  ///< last real memory address seen

  static constexpr std::uint64_t kMask = 0xFFFF'FFFFULL;  ///< wire width

  /// Real record -> filtered record (writer side).
  void filter(TraceRecord& r) {
    if (r.fmt == RecFormat::kBranch) {
      const std::uint64_t pc = r.pc & kMask;
      r.target = (r.target - r.pc) & kMask;
      r.pc = (r.pc - prev_pc) & kMask;
      prev_pc = pc;
    } else if (r.fmt == RecFormat::kMem) {
      const std::uint64_t addr = r.addr & kMask;
      r.addr = (r.addr - prev_addr) & kMask;
      prev_addr = addr;
    }
  }

  /// Filtered record -> real record (reader side, exact inverse).
  void unfilter(TraceRecord& r) {
    if (r.fmt == RecFormat::kBranch) {
      r.pc = (r.pc + prev_pc) & kMask;
      r.target = (r.target + r.pc) & kMask;
      prev_pc = r.pc;
    } else if (r.fmt == RecFormat::kMem) {
      r.addr = (r.addr + prev_addr) & kMask;
      prev_addr = r.addr;
    }
  }
};

/// On-disk size of a chunk header for container version `version`.
[[nodiscard]] constexpr std::uint64_t chunk_header_bytes(std::uint32_t version) {
  return version >= kContainerV3 ? 16 : 8;
}

// --- the byte reader -------------------------------------------------------
// Every container read goes through this one buffered, sequential file
// reader: the header parsers, the chunk cursor (file_source.hpp) and the
// shared cache's producer (batch_cache.hpp).

class ByteSource {
 public:
  /// Throws std::runtime_error "load_trace: cannot open <path>".
  explicit ByteSource(std::string path);

  /// Reads exactly `n` bytes into `dst` or throws std::runtime_error
  /// "load_trace: truncated field <field>".
  void read(void* dst, std::size_t n, const char* field);
  /// The next `n` payload bytes, in a reused buffer sized exactly `n`;
  /// valid until the next call. Throws std::runtime_error
  /// "load_trace: truncated chunk" on a short read.
  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n);
  /// Moves to absolute offset `pos` without reading (chunk-skipping
  /// seek, rewind). May land exactly at the end; read() and take()
  /// treat any overshoot as truncation.
  void seek(std::uint64_t pos);
  /// Bytes consumed since the start of the container.
  [[nodiscard]] std::uint64_t pos() const { return pos_; }

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ifstream is_;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
  std::vector<std::uint8_t> buf_;  ///< take()'s reused buffer
};

// --- little-endian primitives (byte-shift, no reinterpret_cast) ------------

void write_u32le(std::ostream& os, std::uint32_t v);
void write_u64le(std::ostream& os, std::uint64_t v);
[[nodiscard]] std::uint32_t read_u32le(ByteSource& src, const char* field);
[[nodiscard]] std::uint64_t read_u64le(ByteSource& src, const char* field);

/// Reads and validates the magic, version and per-version header fields.
/// Every length/count is checked against the container size before any
/// allocation sized from it. Throws std::runtime_error naming the
/// offending field.
[[nodiscard]] ContainerHeader read_container_header(ByteSource& src);

/// Reads and validates the header of the next chunk. `records_remaining`
/// is the count of records the container still owes; the chunk must
/// deliver min(records_remaining, hdr.chunk_records) of them, its
/// raw_bytes must fit the record count, and its stored payload must fit
/// the container. For v3+, flag bits the container version does not
/// define are rejected (the delta bit is v4-only, and only legal
/// together with the compressed bit), a compressed chunk's
/// compressed_bytes must be non-zero and smaller than raw_bytes, and a
/// raw chunk's compressed_bytes must equal raw_bytes.
[[nodiscard]] ChunkHeader read_chunk_header(ByteSource& src, const ContainerHeader& hdr,
                                            std::uint64_t records_remaining);

/// Inclusive wire-size bounds for `records` byte-aligned records
/// (all-Other vs all-Branch); used to reject impossible payload lengths.
[[nodiscard]] std::uint64_t min_payload_bytes(std::uint64_t records);
[[nodiscard]] std::uint64_t max_payload_bytes(std::uint64_t records);

/// The one chunk decoder: one call turns a chunk's stored payload into
/// its records. An LZ-compressed payload is inflated into a reused
/// scratch buffer (a raw one is bit-decoded where it lies), the records
/// are bit-decoded with the v4 delta pre-filter inverted, and more than
/// alignment padding after the last record is rejected. Every
/// corruption throws std::runtime_error "load_trace: ... in <path>".
class ChunkDecoder {
 public:
  explicit ChunkDecoder(std::string path) : path_(std::move(path)) {}

  /// Replaces `out` with the records of chunk `idx`, whose header is
  /// `ch` and whose first global record index is `first_record` (both
  /// only name things in errors).
  void decode(std::span<const std::uint8_t> payload, const ChunkHeader& ch, std::uint64_t idx,
              std::uint64_t first_record, RecordBatch& out);

 private:
  std::string path_;
  std::vector<std::uint8_t> scratch_;  ///< LZ inflate buffer (reused)
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_CONTAINER_H
