// Memory-system façade: either the paper's "perfect memory system"
// (every access hits in one cycle) or split 32 KB L1 instruction and
// data caches (paper §V.C configurations (i) and (ii)).
#ifndef RESIM_CACHE_MEMSYS_H
#define RESIM_CACHE_MEMSYS_H

#include <memory>
#include <optional>

#include "cache/cache.hpp"

namespace resim::cache {

struct MemSysConfig {
  bool perfect = true;          ///< configuration (i): perfect memory
  CacheConfig l1i{};            ///< used when !perfect
  CacheConfig l1d{};
  /// Optional explicit unified L2 behind the L1s (extension; by default
  /// the L1 miss latency models an L2-hit-class fill, DESIGN.md).
  bool with_l2 = false;
  CacheConfig l2{};

  [[nodiscard]] static MemSysConfig perfect_memory() { return MemSysConfig{}; }

  /// Configuration (ii): "32KByte L1 Instruction and Data Cache, with
  /// associativity of 8 and block size 64 bytes" (Table 1 caption).
  [[nodiscard]] static MemSysConfig paper_l1() {
    MemSysConfig m;
    m.perfect = false;
    m.l1i = CacheConfig{};
    m.l1d = CacheConfig{};
    return m;
  }

  /// L1s backed by an explicit 512 KB 8-way unified L2.
  [[nodiscard]] static MemSysConfig with_unified_l2() {
    MemSysConfig m = paper_l1();
    m.with_l2 = true;
    m.l2.size_bytes = 512 * 1024;
    m.l2.assoc = 8;
    m.l2.block_bytes = 64;
    m.l2.hit_latency = 8;
    m.l2.miss_latency = 60;
    return m;
  }

  void validate() const {
    if (!perfect) {
      l1i.validate();
      l1d.validate();
      if (with_l2) {
        l2.validate();
        require(l2.size_bytes >= l1d.size_bytes, "MemSysConfig: L2 smaller than L1D");
        require(l2.size_bytes >= l1i.size_bytes, "MemSysConfig: L2 smaller than L1I");
      }
    }
  }
};

class MemorySystem {
 public:
  explicit MemorySystem(const MemSysConfig& cfg);

  /// Instruction fetch of the block containing `pc`. Inline: Fetch and
  /// functional warm-up call it once per instruction.
  AccessResult ifetch(Addr pc) {
    if (cfg_.perfect) return {true, 1};
    const auto r = icache_->access(pc, AccessKind::kFetch);
    return r.hit ? r : refill_through_l2(r, pc, AccessKind::kFetch);
  }

  /// Data read (load issue) / write (store commit).
  AccessResult dread(Addr addr);
  AccessResult dwrite(Addr addr);

  /// Publish L1 cache statistics into `reg` (il1.* / dl1.*). The L2, an
  /// extension the paper's report format predates, intentionally stays
  /// out so reports remain byte-compatible across configurations.
  void export_stats(StatsRegistry& reg) const;

  [[nodiscard]] bool perfect() const { return cfg_.perfect; }
  [[nodiscard]] const TagCache* icache() const { return icache_.get(); }
  [[nodiscard]] const TagCache* dcache() const { return dcache_.get(); }
  [[nodiscard]] const TagCache* l2cache() const { return l2_.get(); }
  [[nodiscard]] const MemSysConfig& config() const { return cfg_; }

 private:
  AccessResult refill_through_l2(const AccessResult& l1_miss, Addr addr, AccessKind kind);

  MemSysConfig cfg_;
  std::unique_ptr<TagCache> icache_;
  std::unique_ptr<TagCache> dcache_;
  std::unique_ptr<TagCache> l2_;
};

}  // namespace resim::cache

#endif  // RESIM_CACHE_MEMSYS_H
