#include "trace/container.hpp"

#include <array>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/bitstream.hpp"
#include "common/lz.hpp"
#include "trace/format.hpp"

namespace resim::trace {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("load_trace: " + what + " in " + path);
}

}  // namespace

ByteSource::ByteSource(std::string path)
    : path_(std::move(path)), is_(path_, std::ios::binary) {
  if (!is_) throw std::runtime_error("load_trace: cannot open " + path_);
  is_.seekg(0, std::ios::end);
  size_ = static_cast<std::uint64_t>(is_.tellg());
  is_.seekg(0, std::ios::beg);
}

void ByteSource::read(void* dst, std::size_t n, const char* field) {
  is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!is_) throw std::runtime_error(std::string("load_trace: truncated field ") + field);
  pos_ += n;
}

std::span<const std::uint8_t> ByteSource::take(std::size_t n) {
  buf_.resize(n);
  is_.read(reinterpret_cast<char*>(buf_.data()), static_cast<std::streamsize>(n));
  if (!is_) fail(path_, "truncated chunk");
  pos_ += n;
  return buf_;
}

void ByteSource::seek(std::uint64_t pos) {
  is_.clear();
  is_.seekg(static_cast<std::streamoff>(pos));
  if (!is_) fail(path_, "seek to offset " + std::to_string(pos) + " failed");
  pos_ = pos;
}

void write_u32le(std::ostream& os, std::uint32_t v) {
  std::array<char, 4> b;
  for (unsigned i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(b.data(), b.size());
}

void write_u64le(std::ostream& os, std::uint64_t v) {
  std::array<char, 8> b;
  for (unsigned i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(b.data(), b.size());
}

std::uint32_t read_u32le(ByteSource& src, const char* field) {
  std::array<unsigned char, 4> b;
  src.read(b.data(), b.size(), field);
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t read_u64le(ByteSource& src, const char* field) {
  std::array<unsigned char, 8> b;
  src.read(b.data(), b.size(), field);
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t min_payload_bytes(std::uint64_t records) {
  return (records * kOtherBits + 7) / 8;
}

std::uint64_t max_payload_bytes(std::uint64_t records) {
  return (records * kBranchBits + 7) / 8;
}

void ChunkDecoder::decode(std::span<const std::uint8_t> payload, const ChunkHeader& ch,
                          std::uint64_t idx, std::uint64_t first_record, RecordBatch& out) {
  if (ch.compressed()) {
    scratch_.resize(ch.raw_bytes);
    try {
      lz::decompress(payload, scratch_);
    } catch (const std::runtime_error& e) {
      fail(path_, "corrupt compressed payload in chunk " + std::to_string(idx) + " (" +
                      e.what() + ")");
    }
    payload = scratch_;
  }
  BitReader br(payload);
  DeltaCodec delta;  // v4 filter state is chunk-local
  const bool delta_filtered = ch.delta_filtered();
  const auto n = static_cast<std::size_t>(ch.record_count);
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      out[i] = trace::decode(br);
    } catch (const std::out_of_range&) {
      fail(path_, "truncated payload at record " + std::to_string(first_record + i));
    }
    if (delta_filtered) delta.unfilter(out[i]);
  }
  // Only byte-alignment padding may follow the last record.
  if (br.bits_remaining() >= 8) {
    fail(path_, "trailing garbage in chunk " + std::to_string(idx));
  }
}

ContainerHeader read_container_header(ByteSource& src) {
  const std::string& path = src.path();
  const std::uint64_t file_size = src.size();
  char magic[4];
  src.read(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kContainerMagic, sizeof magic) != 0) {
    fail(path, "bad magic");
  }

  ContainerHeader h;
  h.version = read_u32le(src, "version");
  if (h.version < kContainerV2 || h.version > kContainerV4) {
    fail(path, "unsupported version " + std::to_string(h.version));
  }

  const std::uint32_t name_len = read_u32le(src, "name_len");
  if (name_len > kMaxNameLen || name_len > file_size) {
    fail(path, "name_len " + std::to_string(name_len) + " out of range");
  }
  h.name.resize(name_len);
  src.read(h.name.data(), name_len, "name");

  h.start_pc = read_u64le(src, "start_pc");
  h.record_count = read_u64le(src, "count");

  h.chunk_records = read_u32le(src, "chunk_records");
  h.chunk_count = read_u32le(src, "chunk_count");
  h.payload_start = src.pos();
  if (h.chunk_records == 0 || h.chunk_records > kMaxChunkRecords) {
    fail(path, "chunk_records " + std::to_string(h.chunk_records) + " out of range");
  }
  // Rounded up without forming record_count + chunk_records - 1, which
  // wraps for a count near 2^64 and would pass a chunk_count of 0.
  const std::uint64_t expect_chunks =
      h.record_count / h.chunk_records + (h.record_count % h.chunk_records != 0 ? 1 : 0);
  if (h.chunk_count != expect_chunks) {
    fail(path, "chunk_count " + std::to_string(h.chunk_count) +
                   " inconsistent with count " + std::to_string(h.record_count));
  }
  // Cheap whole-file lower bound before any chunk is read. v2 chunks
  // carry at least min_payload_bytes of records; v3 chunks may be
  // LZ-compressed, whose floor is one payload byte per non-empty chunk.
  const std::uint64_t hdr_bytes = chunk_header_bytes(h.version);
  const std::uint64_t body = file_size - h.payload_start;
  const std::uint64_t min_body =
      h.chunk_count * hdr_bytes + (h.version == kContainerV2
                                       ? min_payload_bytes(h.record_count)
                                       : std::uint64_t{h.chunk_count});
  if (body < min_body) {
    fail(path, "count " + std::to_string(h.record_count) + " exceeds file size " +
                   std::to_string(file_size));
  }
  return h;
}

ChunkHeader read_chunk_header(ByteSource& src, const ContainerHeader& hdr,
                              std::uint64_t records_remaining) {
  const std::string& path = src.path();
  ChunkHeader c;
  c.record_count = read_u32le(src, "chunk record_count");
  const std::uint64_t expected =
      records_remaining < hdr.chunk_records ? records_remaining : hdr.chunk_records;
  if (c.record_count != expected) {
    fail(path, "chunk record_count " + std::to_string(c.record_count) +
                   " (expected " + std::to_string(expected) + ")");
  }

  if (hdr.version >= kContainerV3) {
    c.flags = read_u32le(src, "chunk flags");
    c.raw_bytes = read_u32le(src, "chunk raw_bytes");
    c.payload_bytes = read_u32le(src, "chunk compressed_bytes");
    // The legal flag set is per-version: the delta bit a v4 writer may
    // set is corruption inside a v3 container.
    const std::uint32_t known = hdr.version >= kContainerV4
                                    ? kChunkFlagCompressed | kChunkFlagDelta
                                    : kChunkFlagCompressed;
    if ((c.flags & ~known) != 0) {
      fail(path, "chunk flags " + std::to_string(c.flags) + " has unknown bits");
    }
    if (c.delta_filtered() && !c.compressed()) {
      // The writer only delta-filters to feed the LZ matcher; a delta
      // bit on a stored-raw chunk is something no writer emits.
      fail(path, "chunk flags " + std::to_string(c.flags) +
                     " has the delta bit without the compressed bit");
    }
    if (c.raw_bytes < min_payload_bytes(c.record_count) ||
        c.raw_bytes > max_payload_bytes(c.record_count)) {
      fail(path, "chunk raw_bytes " + std::to_string(c.raw_bytes) +
                     " inconsistent with its record_count " +
                     std::to_string(c.record_count));
    }
    if (c.compressed()) {
      // The writer stores compressed bytes only when strictly smaller;
      // an equal-or-larger value is corruption (oversized), zero is a
      // payload that cannot exist (truncated at write time).
      if (c.payload_bytes == 0 || c.payload_bytes >= c.raw_bytes) {
        fail(path, "chunk compressed_bytes " + std::to_string(c.payload_bytes) +
                       " inconsistent with raw_bytes " + std::to_string(c.raw_bytes));
      }
    } else if (c.payload_bytes != c.raw_bytes) {
      fail(path, "chunk compressed_bytes " + std::to_string(c.payload_bytes) +
                     " != raw_bytes " + std::to_string(c.raw_bytes) +
                     " on an uncompressed chunk");
    }
  } else {
    c.payload_bytes = read_u32le(src, "chunk payload_bytes");
    c.raw_bytes = c.payload_bytes;
    if (c.payload_bytes < min_payload_bytes(c.record_count) ||
        c.payload_bytes > max_payload_bytes(c.record_count)) {
      fail(path, "chunk payload_bytes " + std::to_string(c.payload_bytes) +
                     " inconsistent with its record_count " +
                     std::to_string(c.record_count));
    }
  }

  const char* size_field =
      hdr.version >= kContainerV3 ? "chunk compressed_bytes " : "chunk payload_bytes ";
  if (c.payload_bytes > src.size() - src.pos()) {
    fail(path, size_field + std::to_string(c.payload_bytes) + " exceeds file size " +
                   std::to_string(src.size()));
  }
  return c;
}

}  // namespace resim::trace
