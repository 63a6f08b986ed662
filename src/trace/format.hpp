// Bit-level wire format of trace records.
//
// Field layout (LSB-first on the wire):
//   O: fmt(2) tag(1) fu(2)    out(6) in1(6) in2(6)                  = 23 bits
//   M: fmt(2) tag(1) store(1) out(6) in1(6) in2(6) addr(32)         = 54 bits
//   B: fmt(2) tag(1) ctrl(2) taken(1)      in1(6) in2(6)
//      pc(32) target(32)                                            = 82 bits
//
// A call's link-register destination is implied by ctrl==kCall and not
// transmitted. With SPEC-like instruction mixes this format averages
// ~40-46 bits per dynamic instruction, matching the paper's Table 3
// (41.16-47.14, average 43.44).
//
// Both directions move a record as whole words: encode() builds an O or
// M record in one 64-bit word and a B record in two (bits 0-49, then the
// target), and decode() slices every field out of one BitReader window
// (two for B: the target sits past the 57 bits a window guarantees).
#ifndef RESIM_TRACE_FORMAT_H
#define RESIM_TRACE_FORMAT_H

#include <cstdint>

#include "common/bitstream.hpp"
#include "common/numeric.hpp"
#include "trace/record.hpp"

namespace resim::trace {

inline constexpr unsigned kOtherBits = 23;
inline constexpr unsigned kMemBits = 54;
inline constexpr unsigned kBranchBits = 82;

/// Bit offset of each field within its record (the layout above).
namespace field_at {
inline constexpr unsigned kTag = 2;
inline constexpr unsigned kOtherFu = 3, kOtherOut = 5, kOtherIn1 = 11, kOtherIn2 = 17;
inline constexpr unsigned kMemStore = 3, kMemOut = 4, kMemIn1 = 10, kMemIn2 = 16, kMemAddr = 22;
inline constexpr unsigned kBrCtrl = 3, kBrTaken = 5, kBrIn1 = 6, kBrIn2 = 12, kBrPc = 18,
                          kBrTarget = 50;
}  // namespace field_at

inline constexpr unsigned kRegBits = 6;
inline constexpr std::uint64_t kRegNone = 63;  ///< wire encoding of kNoReg

/// Exact encoded size of a record in bits.
[[nodiscard]] unsigned encoded_bits(const TraceRecord& r);

/// encoded_bits() of a decoded record's format, by table lookup: the
/// read path's per-record count (ViewCursor, reader.hpp), where the
/// format sequence is data and a branch on it would mispredict. Index 3
/// is the reserved tag, which decode() rejects.
[[nodiscard]] inline unsigned format_bits(RecFormat fmt) {
  static constexpr std::uint8_t kBits[4] = {kOtherBits, kMemBits, kBranchBits, kOtherBits};
  return kBits[static_cast<std::uint8_t>(fmt) & 3];
}

/// Encodes one record; throws std::invalid_argument on a branch record
/// with ctrl == kNone (the 2-bit ctrl field has no encoding for it).
void encode(const TraceRecord& r, BitWriter& w);

namespace detail {
[[noreturn]] void throw_reserved_tag();
[[noreturn]] void throw_bad_register(std::uint64_t v);

/// The register field at bit `at` of `w`. The 6-bit field also holds
/// 32..62, which name no register; rejecting them here, at decode, lets
/// the engine index its rename table unchecked.
inline Reg reg_at(std::uint64_t w, unsigned at) {
  const std::uint64_t v = (w >> at) & low_mask(kRegBits);
  if (v == kRegNone) return kNoReg;
  if (v >= kNumArchRegs) throw_bad_register(v);
  return static_cast<Reg>(v);
}
}  // namespace detail

/// Decodes one record; throws std::out_of_range on a truncated stream
/// and std::runtime_error on the reserved format tag 3 or a register
/// field naming no architectural register (32..62). The record's length
/// is checked against the bits left before any field is taken, and the
/// window reads never touch a byte past the reader's span.
[[nodiscard]] inline TraceRecord decode(BitReader& br) {
  using detail::reg_at;
  namespace at = field_at;
  const std::uint64_t w = br.window();
  const std::uint64_t fmt_tag = w & 3;
  if (fmt_tag > static_cast<std::uint64_t>(RecFormat::kBranch)) detail::throw_reserved_tag();
  TraceRecord r;
  r.fmt = static_cast<RecFormat>(fmt_tag);
  r.wrong_path = ((w >> at::kTag) & 1) != 0;
  switch (r.fmt) {
    case RecFormat::kOther:
      br.advance(kOtherBits);
      r.fu = static_cast<OtherFu>((w >> at::kOtherFu) & 3);
      r.out = reg_at(w, at::kOtherOut);
      r.in1 = reg_at(w, at::kOtherIn1);
      r.in2 = reg_at(w, at::kOtherIn2);
      break;
    case RecFormat::kMem:
      br.advance(kMemBits);
      r.is_store = ((w >> at::kMemStore) & 1) != 0;
      r.out = reg_at(w, at::kMemOut);
      r.in1 = reg_at(w, at::kMemIn1);
      r.in2 = reg_at(w, at::kMemIn2);
      r.addr = (w >> at::kMemAddr) & low_mask(32);
      break;
    case RecFormat::kBranch: {
      const std::uint64_t target = br.window(at::kBrTarget);
      br.advance(kBranchBits);
      r.ctrl = static_cast<isa::CtrlType>(((w >> at::kBrCtrl) & 3) + 1);  // 0..3 -> kCond..kRet
      r.taken = ((w >> at::kBrTaken) & 1) != 0;
      r.in1 = reg_at(w, at::kBrIn1);
      r.in2 = reg_at(w, at::kBrIn2);
      r.pc = (w >> at::kBrPc) & low_mask(32);
      r.target = target & low_mask(32);
      // A call's link destination travels implicitly.
      r.out = r.ctrl == isa::CtrlType::kCall ? kLinkReg : kNoReg;
      break;
    }
  }
  return r;
}

}  // namespace resim::trace

#endif  // RESIM_TRACE_FORMAT_H
