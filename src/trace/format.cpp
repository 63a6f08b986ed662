#include "trace/format.hpp"

#include <stdexcept>
#include <string>

namespace resim::trace {

namespace {
std::uint64_t reg_to_wire(Reg r) { return r == kNoReg ? kRegNone : r; }

/// `v` cut to a `bits`-wide field and moved to bit `at` of its word.
std::uint64_t field(std::uint64_t v, unsigned bits, unsigned at) {
  return (v & low_mask(bits)) << at;
}

std::uint64_t reg_field(Reg r, unsigned at) { return field(reg_to_wire(r), kRegBits, at); }
}  // namespace

namespace detail {
void throw_reserved_tag() { throw std::runtime_error("decode: reserved record format tag 3"); }

void throw_bad_register(std::uint64_t v) {
  throw std::runtime_error("decode: register field " + std::to_string(v) + " out of range");
}
}  // namespace detail

unsigned encoded_bits(const TraceRecord& r) {
  switch (r.fmt) {
    case RecFormat::kOther: return kOtherBits;
    case RecFormat::kMem: return kMemBits;
    case RecFormat::kBranch: return kBranchBits;
  }
  throw std::invalid_argument("encoded_bits: bad format");
}

void encode(const TraceRecord& r, BitWriter& w) {
  namespace at = field_at;
  const std::uint64_t head =
      field(static_cast<std::uint64_t>(r.fmt), 2, 0) | field(r.wrong_path, 1, at::kTag);
  switch (r.fmt) {
    case RecFormat::kOther:
      w.put(head | field(static_cast<std::uint64_t>(r.fu), 2, at::kOtherFu) |
                reg_field(r.out, at::kOtherOut) | reg_field(r.in1, at::kOtherIn1) |
                reg_field(r.in2, at::kOtherIn2),
            kOtherBits);
      return;
    case RecFormat::kMem:
      w.put(head | field(r.is_store, 1, at::kMemStore) | reg_field(r.out, at::kMemOut) |
                reg_field(r.in1, at::kMemIn1) | reg_field(r.in2, at::kMemIn2) |
                field(r.addr, 32, at::kMemAddr),
            kMemBits);
      return;
    case RecFormat::kBranch:
      // The 2-bit wire field maps kCond..kRet to 0..3; kNone has no
      // encoding and would wrap to 2^64-1 and round-trip as kRet.
      if (r.ctrl == isa::CtrlType::kNone) {
        throw std::invalid_argument("encode: branch record with ctrl == kNone");
      }
      w.put(head | field(static_cast<std::uint64_t>(r.ctrl) - 1, 2, at::kBrCtrl) |
                field(r.taken, 1, at::kBrTaken) | reg_field(r.in1, at::kBrIn1) |
                reg_field(r.in2, at::kBrIn2) | field(r.pc, 32, at::kBrPc),
            at::kBrTarget);
      w.put(r.target, 32);
      return;
  }
  throw std::invalid_argument("encode: bad format");
}

}  // namespace resim::trace
