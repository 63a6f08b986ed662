// Bit-granular serialization used by the trace codec.
//
// ReSim's trace records are variable-length bit strings (paper §V.A:
// "Three formats are used: Branch (B), Memory (M) and Other (O), each
// with its own fields and length"). BitWriter/BitReader pack fields
// LSB-first into a byte buffer; the writer reports exact bit counts so
// the bits-per-instruction statistic of Table 3 falls out of the codec.
//
// The reader works a 64-bit little-endian window at a time: window()
// hands over the bits at the current position in one word, and the
// record decoder (trace/format.hpp) checks a record's length with one
// bounds-checked advance(), then slices every field out of that word.
// Bytes are assembled with shifts, so the layout does not depend on
// host byte order.
#ifndef RESIM_COMMON_BITSTREAM_H
#define RESIM_COMMON_BITSTREAM_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace resim {

class BitWriter {
 public:
  /// Append the low `bits` bits of `value` (bits in [0,64]).
  void put(std::uint64_t value, unsigned bits);

  void put_bool(bool b) { put(b ? 1 : 0, 1); }

  /// Pad with zero bits to the next byte boundary.
  void align_byte();

  [[nodiscard]] std::uint64_t bit_count() const { return bit_count_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() &&;

  void clear();

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t bit_count_ = 0;
};

class BitReader {
 public:
  /// Bits a window() holds wherever it starts: 64 less the up-to-7-bit
  /// offset of its first bit into the first byte.
  static constexpr unsigned kWindowBits = 57;

  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// The bits from `offset` bits past the current position on, LSB-first,
  /// without advancing: at least kWindowBits of them, with bits past the
  /// end of the data reading as zero. Never reads a byte past the end.
  [[nodiscard]] std::uint64_t window(unsigned offset = 0) const {
    const std::uint64_t pos = bit_pos_ + offset;
    const auto byte = static_cast<std::size_t>(pos / 8);
    std::uint64_t v = 0;
    if (byte + 8 <= data_.size()) {
      // Spelled out so the compiler folds it into one unaligned load.
      const std::uint8_t* p = data_.data() + byte;
      v = std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 | std::uint64_t{p[2]} << 16 |
          std::uint64_t{p[3]} << 24 | std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
          std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
    } else {
      for (std::size_t i = byte; i < data_.size(); ++i) {
        v |= static_cast<std::uint64_t>(data_[i]) << (8 * (i - byte));
      }
    }
    return v >> (pos % 8);
  }

  /// Moves past `bits` bits; throws std::out_of_range past the end.
  void advance(std::uint64_t bits) {
    if (bits > bits_remaining()) throw_past_end();
    bit_pos_ += bits;
  }

  /// Read `bits` bits (in [0,64]); throws std::out_of_range past the end.
  [[nodiscard]] std::uint64_t get(unsigned bits);

  /// Skip to the next byte boundary.
  void align_byte();

  [[nodiscard]] std::uint64_t bits_remaining() const {
    return data_.size() * 8 - bit_pos_;
  }
  [[nodiscard]] bool exhausted() const { return bits_remaining() == 0; }

 private:
  [[noreturn]] static void throw_past_end();

  std::span<const std::uint8_t> data_;
  std::uint64_t bit_pos_ = 0;
};

}  // namespace resim

#endif  // RESIM_COMMON_BITSTREAM_H
