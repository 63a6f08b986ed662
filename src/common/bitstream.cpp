#include "common/bitstream.hpp"

#include <stdexcept>

#include "common/numeric.hpp"

namespace resim {

void BitWriter::put(std::uint64_t value, unsigned bits) {
  if (bits > 64) throw std::invalid_argument("BitWriter::put: bits > 64");
  value &= low_mask(bits);
  // The first new bit lands `shift` bits into byte `first`, which is the
  // partly filled last byte unless the count is byte-aligned; each byte
  // from there on takes its eight bits of value << shift in one step.
  const auto first = static_cast<std::size_t>(bit_count_ / 8);
  const auto shift = static_cast<unsigned>(bit_count_ % 8);
  bit_count_ += bits;
  bytes_.resize(static_cast<std::size_t>((bit_count_ + 7) / 8));
  for (std::size_t i = first; i < bytes_.size(); ++i) {
    const auto at = static_cast<unsigned>(i - first) * 8;
    bytes_[i] |= static_cast<std::uint8_t>(at == 0 ? value << shift : value >> (at - shift));
  }
}

void BitWriter::align_byte() {
  const unsigned rem = static_cast<unsigned>(bit_count_ % 8);
  if (rem != 0) put(0, 8 - rem);
}

std::vector<std::uint8_t> BitWriter::take() && {
  bit_count_ = 0;
  return std::move(bytes_);
}

void BitWriter::clear() {
  bytes_.clear();
  bit_count_ = 0;
}

std::uint64_t BitReader::get(unsigned bits) {
  if (bits > 64) throw std::invalid_argument("BitReader::get: bits > 64");
  // A field wider than one window takes its high half from a second.
  std::uint64_t v = window();
  if (bits > kWindowBits) v = (v & low_mask(32)) | window(32) << 32;
  advance(bits);
  return v & low_mask(bits);
}

void BitReader::throw_past_end() { throw std::out_of_range("BitReader: read past end"); }

void BitReader::align_byte() {
  const unsigned rem = static_cast<unsigned>(bit_pos_ % 8);
  if (rem != 0) bit_pos_ += 8 - rem;
}

}  // namespace resim
