// Instruction window: the Reorder Buffer and the Instruction Fetch
// Queue as one ring of rob_size + ifq_size slots, the IFQ being the run
// just behind the ROB's tail. Fetch fills an instruction in place in the
// next free slot (ifq_push), Dispatch makes the IFQ front the ROB's new
// tail by moving one boundary (allocate), Commit releases from the head
// and a squash empties both halves (clear). So an instruction is written
// once, into the slot it commits from (paper §III: "Dispatch allocates
// Load/Store Queue (LSQ) and Reorder Buffer (RB) entries").
//
// Each slot is split in two parallel arrays. RobEntry is the small hot
// scheduling state every stage reads each cycle; FetchedInst is the
// cold instruction record. allocate() resets only the hot part.
#ifndef RESIM_CORE_ROB_H
#define RESIM_CORE_ROB_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bpred/unit.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"

namespace resim::core {

/// An instruction as it left Fetch: the pre-decoded record plus the
/// fetch-time prediction state. Fetch writes every field: the slot
/// Rob::ifq_push() hands out still holds its previous occupant's.
struct FetchedInst {
  trace::TraceRecord rec{};
  Addr pc = 0;
  InstSeq seq = 0;
  Cycle fetched_at = 0;
  bpred::Prediction pred{};
  bpred::Outcome outcome = bpred::Outcome::kCorrect;

  [[nodiscard]] bool wrong_path() const { return rec.wrong_path; }
};

/// Hot scheduling state of one ROB slot; the instruction itself is the
/// slot's FetchedInst (Rob::inst).
struct RobEntry {
  // Dataflow: up to two register sources, tracked as producing ROB slots.
  int src_rob[2] = {-1, -1};
  unsigned src_pending = 0;

  // Consumer list (event-driven wakeup): this entry's not-yet-woken
  // dependents as a chain of links, link = consumer_slot * 2 + operand.
  // `consumers` heads the chain; a consumer's next_consumer[k] continues
  // the chain its operand k sits on. -1 ends a chain.
  int consumers = -1;
  int next_consumer[2] = {-1, -1};

  int lsq_slot = -1;        ///< -1 for non-memory instructions
  Cycle dispatched_at = 0;
  Cycle complete_at = 0;    ///< valid when issued

  // Execution state.
  bool issued = false;      ///< FU op (or load memory access) scheduled
  bool agen_issued = false; ///< memory ops: address generation scheduled
  bool completed = false;   ///< result written back / store done

  // Decoded class, copied from the record at dispatch.
  trace::RecFormat fmt = trace::RecFormat::kOther;
  bool store = false;                       ///< memory op that is a store
  trace::OtherFu fu = trace::OtherFu::kAlu; ///< FU an FU op binds (ALU for branches)

  [[nodiscard]] bool is_mem() const { return fmt == trace::RecFormat::kMem; }
  [[nodiscard]] bool is_load() const { return is_mem() && !store; }
  [[nodiscard]] bool is_store() const { return store; }
  [[nodiscard]] bool is_branch() const { return fmt == trace::RecFormat::kBranch; }
};

class Rob {
 public:
  Rob(unsigned capacity, unsigned ifq_capacity);

  // --- the ROB half ---------------------------------------------------------
  [[nodiscard]] unsigned size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ == rob_cap_; }

  // --- the IFQ half -----------------------------------------------------------
  [[nodiscard]] unsigned ifq_size() const { return ifq_count_; }
  [[nodiscard]] bool ifq_empty() const { return ifq_count_ == 0; }
  [[nodiscard]] bool ifq_full() const { return ifq_count_ == cap_ - rob_cap_; }

  /// Ring slots, the ROB's capacity plus the IFQ's: every physical slot
  /// number is below this.
  [[nodiscard]] unsigned slots() const { return cap_; }

  /// Append an instruction to the IFQ: the cold record of the next free
  /// slot, for Fetch to fill in place. Precondition: !ifq_full().
  FetchedInst& ifq_push() {
    if (ifq_full()) throw std::logic_error("Rob::ifq_push on full IFQ");
    const unsigned slot = wrap(head_ + count_ + ifq_count_);
    ++ifq_count_;
    return insts_[slot];
  }

  /// The oldest IFQ instruction, next to dispatch. Precondition: !ifq_empty().
  [[nodiscard]] const FetchedInst& ifq_front() const {
    if (ifq_empty()) throw std::logic_error("Rob::ifq_front on empty IFQ");
    return insts_[wrap(head_ + count_)];
  }

  /// Dispatch the IFQ front: its slot becomes the ROB's newest entry,
  /// the record stays where Fetch wrote it, and only the hot state is
  /// reset. Returns the physical slot. Precondition: !full() && !ifq_empty().
  int allocate() {
    if (full() || ifq_empty()) throw std::logic_error("Rob::allocate on full ROB or empty IFQ");
    const unsigned slot = wrap(head_ + count_);
    ++count_;
    --ifq_count_;
    entries_[slot] = RobEntry{};
    return static_cast<int>(slot);
  }

  /// Physical slot of the i-th oldest instruction in the window (0 ==
  /// head): ROB entries first, then the IFQ. Off the cycle loop's path
  /// (the engine keeps slot sets instead), so it stays checked.
  [[nodiscard]] int slot_at(unsigned age_index) const {
    if (age_index >= count_ + ifq_count_) throw std::out_of_range("Rob::slot_at");
    return static_cast<int>(wrap(head_ + age_index));
  }

  /// Hot scheduling state of a physical slot (unchecked).
  [[nodiscard]] RobEntry& entry(int slot) { return entries_[static_cast<std::size_t>(slot)]; }
  [[nodiscard]] const RobEntry& entry(int slot) const {
    return entries_[static_cast<std::size_t>(slot)];
  }

  /// Cold instruction record of a physical slot (unchecked).
  [[nodiscard]] FetchedInst& inst(int slot) { return insts_[static_cast<std::size_t>(slot)]; }
  [[nodiscard]] const FetchedInst& inst(int slot) const {
    return insts_[static_cast<std::size_t>(slot)];
  }

  /// Slot of the oldest entry; where the next allocation goes when empty.
  [[nodiscard]] int head_slot() const { return static_cast<int>(head_); }

  /// Release the head entry (commit). Precondition: !empty().
  void pop_head() {
    if (empty()) throw std::logic_error("Rob::pop_head on empty ROB");
    head_ = wrap(head_ + 1);
    --count_;
  }

  /// Squash: drop every ROB entry and every IFQ instruction
  /// (mis-speculation recovery).
  void clear() {
    head_ = 0;
    count_ = 0;
    ifq_count_ = 0;
  }

 private:
  /// i mod slots() for i < 2 * slots(): a compare and a subtract.
  [[nodiscard]] unsigned wrap(unsigned i) const { return i >= cap_ ? i - cap_ : i; }

  std::vector<RobEntry> entries_;
  std::vector<FetchedInst> insts_;
  unsigned rob_cap_;
  unsigned cap_;             ///< ring slots: ROB plus IFQ capacity
  unsigned head_ = 0;
  unsigned count_ = 0;       ///< ROB entries, from head_
  unsigned ifq_count_ = 0;   ///< IFQ instructions, behind the ROB's tail
};

/// A set of window slots as a bitset, visited oldest-first from the ROB
/// head with count-trailing-zeros. The engine keeps two: the ready set
/// Issue selects from and the in-flight set Writeback selects from. A
/// walk costs one step per 64 slots plus one per member, not one per
/// ROB entry.
class SlotSet {
 public:
  explicit SlotSet(unsigned capacity) : words_((capacity + 63) / 64, 0) {}

  void insert(int slot) { words_[word_of(slot)] |= bit_of(slot); }
  void erase(int slot) { words_[word_of(slot)] &= ~bit_of(slot); }
  [[nodiscard]] bool contains(int slot) const {
    return (words_[word_of(slot)] & bit_of(slot)) != 0;
  }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Call f(slot) for every member in the age order of a circular window
  /// whose oldest slot is `head` (slots head..capacity-1, then
  /// 0..head-1), until f returns false. f may erase the slot it is given.
  template <typename F>
  void for_each_from(int head, F&& f) const {
    const std::size_t n = words_.size();
    const std::size_t hw = word_of(head);
    const std::uint64_t from_head = ~std::uint64_t{0} << (static_cast<unsigned>(head) & 63u);
    std::uint64_t bits = words_[hw] & from_head;
    for (std::size_t w = hw;;) {
      for (; bits != 0; bits &= bits - 1) {
        if (!f(static_cast<int>(w * 64 + static_cast<unsigned>(std::countr_zero(bits))))) return;
      }
      if (++w == n) break;
      bits = words_[w];
    }
    for (std::size_t w = 0; w <= hw; ++w) {
      bits = w == hw ? words_[w] & ~from_head : words_[w];
      for (; bits != 0; bits &= bits - 1) {
        if (!f(static_cast<int>(w * 64 + static_cast<unsigned>(std::countr_zero(bits))))) return;
      }
    }
  }

 private:
  static std::size_t word_of(int slot) { return static_cast<std::size_t>(slot) >> 6; }
  static std::uint64_t bit_of(int slot) {
    return std::uint64_t{1} << (static_cast<unsigned>(slot) & 63u);
  }

  std::vector<std::uint64_t> words_;
};

}  // namespace resim::core

#endif  // RESIM_CORE_ROB_H
