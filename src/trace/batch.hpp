// RecordBatch: one decoded container chunk in structure-of-arrays form.
//
// Every TraceSource lends out its records as views into RecordBatches
// (reader.hpp), and the one chunk decoder (container.hpp) writes them.
// Keeping the decoded form columnar instead of vector<TraceRecord> does
// two things:
//
//  * the engine's fetch stage walks a batch linearly through a
//    BatchView — one virtual fetch_view() per batch instead of a
//    virtual call per record — materializing records with an inlined
//    column gather;
//  * a resident batch costs 29 bytes/record instead of
//    sizeof(TraceRecord), so the shared cache's LRU window
//    (batch_cache.hpp) holds more chunks in the same budget.
//
// Exactness contract: get() must reproduce the decoded TraceRecord
// bit-for-bit (the byte-identity guarantee of the shared-decode path
// rests on it). Every field the codec can populate has a column; the
// two per-format enum fields share the aux column because decode()
// leaves fu at its default for non-O records and ctrl at its default
// for non-B records (trace/format.hpp), which get() restores.
#ifndef RESIM_TRACE_BATCH_H
#define RESIM_TRACE_BATCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "trace/format.hpp"
#include "trace/record.hpp"

namespace resim::trace {

class RecordBatch {
 public:
  [[nodiscard]] std::size_t size() const { return kind_.size(); }
  [[nodiscard]] bool empty() const { return kind_.empty(); }

  /// Resizes to `n` records; set() fills the new ones.
  void resize(std::size_t n) {
    kind_.resize(n);
    aux_.resize(n);
    out_.resize(n);
    in1_.resize(n);
    in2_.resize(n);
    pc_.resize(n);
    target_.resize(n);
    addr_.resize(n);
  }

  /// Replaces the contents with copies of records[0, n).
  void assign(const TraceRecord* records, std::size_t n) {
    resize(n);
    for (std::size_t i = 0; i < n; ++i) set(i, records[i]);
  }

  /// Stores `r` as record `i` (< size()).
  void set(std::size_t i, const TraceRecord& r) {
    std::uint8_t k = static_cast<std::uint8_t>(r.fmt);
    if (r.wrong_path) k |= kWrongPathBit;
    if (r.is_store) k |= kIsStoreBit;
    if (r.taken) k |= kTakenBit;
    kind_[i] = k;
    aux_[i] = r.fmt == RecFormat::kOther    ? static_cast<std::uint8_t>(r.fu)
              : r.fmt == RecFormat::kBranch ? static_cast<std::uint8_t>(r.ctrl)
                                            : std::uint8_t{0};
    out_[i] = r.out;
    in1_[i] = r.in1;
    in2_[i] = r.in2;
    pc_[i] = r.pc;
    target_[i] = r.target;
    addr_[i] = r.addr;
  }

  /// Materializes record `i` exactly as the chunk decoder produced it.
  void get(std::size_t i, TraceRecord& r) const {
    const std::uint8_t k = kind_[i];
    const auto fmt = static_cast<RecFormat>(k & kFmtMask);
    r.fmt = fmt;
    r.wrong_path = (k & kWrongPathBit) != 0;
    r.out = out_[i];
    r.in1 = in1_[i];
    r.in2 = in2_[i];
    r.fu = fmt == RecFormat::kOther ? static_cast<OtherFu>(aux_[i]) : OtherFu::kAlu;
    r.is_store = (k & kIsStoreBit) != 0;
    r.addr = addr_[i];
    r.ctrl = fmt == RecFormat::kBranch ? static_cast<isa::CtrlType>(aux_[i])
                                       : isa::CtrlType::kNone;
    r.taken = (k & kTakenBit) != 0;
    r.pc = pc_[i];
    r.target = target_[i];
  }

  /// Wire size of record `i` — the format constant, so consuming through
  /// a view accounts bits exactly like encoded_bits() per record. A table
  /// lookup, not a branch: the format sequence is data, and mispredicts
  /// otherwise dominate a view's bit count.
  [[nodiscard]] unsigned bits_at(std::size_t i) const { return kBitsByFmt[kind_[i] & kFmtMask]; }

  /// Sum of bits_at over [first, first + n).
  [[nodiscard]] std::uint64_t bits_in(std::size_t first, std::size_t n) const {
    std::uint64_t bits = 0;
    for (std::size_t i = first; i < first + n; ++i) bits += bits_at(i);
    return bits;
  }

 private:
  static constexpr std::uint8_t kFmtMask = 0x03;
  static constexpr std::uint8_t kWrongPathBit = 0x04;
  static constexpr std::uint8_t kIsStoreBit = 0x08;
  static constexpr std::uint8_t kTakenBit = 0x10;
  /// Indexed by fmt; the reserved value 3 never occurs.
  static constexpr std::uint8_t kBitsByFmt[4] = {kOtherBits, kMemBits, kBranchBits, kOtherBits};

  std::vector<std::uint8_t> kind_;  ///< fmt (2 bits) | wrong_path | is_store | taken
  std::vector<std::uint8_t> aux_;   ///< O: fu; B: ctrl; M: 0
  std::vector<Reg> out_;
  std::vector<Reg> in1_;
  std::vector<Reg> in2_;
  std::vector<Addr> pc_;
  std::vector<Addr> target_;
  std::vector<Addr> addr_;
};

/// A borrowed run of not-yet-consumed records inside a RecordBatch.
/// Returned by TraceSource::fetch_view(); valid until the next mutating
/// call on the source that produced it. Empty means end of stream.
struct BatchView {
  const RecordBatch* batch = nullptr;
  std::size_t first = 0;  ///< index of the first unconsumed record
  std::size_t count = 0;  ///< records available from `first`
  [[nodiscard]] bool empty() const { return count == 0; }
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_BATCH_H
