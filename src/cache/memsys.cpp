#include "cache/memsys.hpp"

namespace resim::cache {

MemorySystem::MemorySystem(const MemSysConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  if (!cfg_.perfect) {
    icache_ = std::make_unique<TagCache>("il1", cfg_.l1i);
    dcache_ = std::make_unique<TagCache>("dl1", cfg_.l1d);
    if (cfg_.with_l2) l2_ = std::make_unique<TagCache>("ul2", cfg_.l2);
  }
}

void MemorySystem::export_stats(StatsRegistry& reg) const {
  if (icache_) icache_->export_stats(reg);
  if (dcache_) dcache_->export_stats(reg);
  // No l2_: the paper-era report format carries only L1 statistics, and
  // byte-compatibility of reports is a contract (docs/STATS.md).
}

AccessResult MemorySystem::refill_through_l2(const AccessResult& l1_miss, Addr addr,
                                             AccessKind kind) {
  if (l2_ == nullptr) return l1_miss;
  // L1 miss: the fill is serviced by the L2 (hit) or by memory (miss);
  // the probe of the L1 that missed costs one of its hit latencies.
  const auto l2 = l2_->access(addr, kind);
  const CacheConfig& l1 = kind == AccessKind::kFetch ? cfg_.l1i : cfg_.l1d;
  return {false, l1.hit_latency + l2.latency};
}

AccessResult MemorySystem::dread(Addr addr) {
  if (cfg_.perfect) return {true, 1};
  const auto r = dcache_->access(addr, AccessKind::kRead);
  return r.hit ? r : refill_through_l2(r, addr, AccessKind::kRead);
}

AccessResult MemorySystem::dwrite(Addr addr) {
  if (cfg_.perfect) return {true, 1};
  const auto r = dcache_->access(addr, AccessKind::kWrite);
  return r.hit ? r : refill_through_l2(r, addr, AccessKind::kWrite);
}

}  // namespace resim::cache
