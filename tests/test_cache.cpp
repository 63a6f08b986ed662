// Tag-only cache timing model and the memory-system façade.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cache/memsys.hpp"
#include "common/rng.hpp"

namespace resim::cache {
namespace {

CacheConfig small_cfg(std::uint32_t size = 1024, std::uint32_t assoc = 2,
                      std::uint32_t block = 64) {
  CacheConfig c;
  c.size_bytes = size;
  c.assoc = assoc;
  c.block_bytes = block;
  c.hit_latency = 1;
  c.miss_latency = 20;
  return c;
}

TEST(CacheConfig, PaperL1Geometry) {
  const CacheConfig c{};  // defaults = paper Table 1 right caption
  EXPECT_EQ(c.size_bytes, 32u * 1024);
  EXPECT_EQ(c.assoc, 8u);
  EXPECT_EQ(c.block_bytes, 64u);
  EXPECT_EQ(c.sets(), 64u);
  EXPECT_NO_THROW(c.validate());
}

TEST(CacheConfig, ValidationRejectsBadShapes) {
  auto c = small_cfg(1000);  // not pow2
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_cfg();
  c.miss_latency = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_cfg(64, 2, 64);  // size < assoc*block
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(TagCache, ColdMissThenHit) {
  TagCache c("t", small_cfg());
  const auto m = c.access(0x1000, AccessKind::kRead);
  EXPECT_FALSE(m.hit);
  EXPECT_EQ(m.latency, 20u);
  const auto h = c.access(0x1000, AccessKind::kRead);
  EXPECT_TRUE(h.hit);
  EXPECT_EQ(h.latency, 1u);
}

TEST(TagCache, SpatialLocalityWithinBlock) {
  TagCache c("t", small_cfg());
  (void)c.access(0x1000, AccessKind::kRead);
  EXPECT_TRUE(c.access(0x1038, AccessKind::kRead).hit);  // same 64B block
  EXPECT_FALSE(c.access(0x1040, AccessKind::kRead).hit); // next block
}

TEST(TagCache, DirectMappedConflict) {
  TagCache c("t", small_cfg(1024, 1, 64));  // 16 sets
  const Addr a = 0x0;
  const Addr b = a + 16 * 64;  // same set
  (void)c.access(a, AccessKind::kRead);
  (void)c.access(b, AccessKind::kRead);
  EXPECT_FALSE(c.access(a, AccessKind::kRead).hit);  // evicted
}

TEST(TagCache, TwoWayHoldsConflictPair) {
  TagCache c("t", small_cfg(1024, 2, 64));  // 8 sets
  const Addr a = 0x0, b = a + 8 * 64;
  (void)c.access(a, AccessKind::kRead);
  (void)c.access(b, AccessKind::kRead);
  EXPECT_TRUE(c.access(a, AccessKind::kRead).hit);
  EXPECT_TRUE(c.access(b, AccessKind::kRead).hit);
}

TEST(TagCache, LruReplacement) {
  TagCache c("t", small_cfg(1024, 2, 64));  // 8 sets x 2 ways
  const Addr a = 0x0, b = a + 8 * 64, d = a + 16 * 64;
  (void)c.access(a, AccessKind::kRead);
  (void)c.access(b, AccessKind::kRead);
  (void)c.access(a, AccessKind::kRead);  // a most recent
  (void)c.access(d, AccessKind::kRead);  // evicts b
  EXPECT_TRUE(c.access(a, AccessKind::kRead).hit);
  EXPECT_FALSE(c.access(b, AccessKind::kRead).hit);
}

TEST(TagCache, FifoIgnoresRecency) {
  auto cfg = small_cfg(1024, 2, 64);
  cfg.repl = ReplPolicy::kFifo;
  TagCache c("t", cfg);
  const Addr a = 0x0, b = a + 8 * 64, d = a + 16 * 64;
  (void)c.access(a, AccessKind::kRead);
  (void)c.access(b, AccessKind::kRead);
  (void)c.access(a, AccessKind::kRead);  // does NOT refresh under FIFO
  (void)c.access(d, AccessKind::kRead);  // evicts a (oldest fill)
  // Probe without allocating: a is gone, b survived.
  EXPECT_FALSE(c.contains(a));
  EXPECT_TRUE(c.contains(b));
}

TEST(TagCache, WriteNoAllocateGoesAround) {
  auto cfg = small_cfg();
  cfg.write_allocate = false;
  TagCache c("t", cfg);
  (void)c.access(0x1000, AccessKind::kWrite);
  EXPECT_FALSE(c.contains(0x1000));
  // Reads still allocate.
  (void)c.access(0x2000, AccessKind::kRead);
  EXPECT_TRUE(c.contains(0x2000));
}

TEST(TagCache, StatsAndMissRate) {
  TagCache c("t", small_cfg());
  (void)c.access(0x0, AccessKind::kRead);
  (void)c.access(0x0, AccessKind::kRead);
  (void)c.access(0x0, AccessKind::kRead);
  (void)c.access(0x4000, AccessKind::kRead);
  EXPECT_EQ(c.accesses(), 4u);
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_DOUBLE_EQ(c.miss_rate(), 0.5);
}

TEST(TagCache, SequentialStreamMissRateMatchesBlockSize) {
  TagCache c("t", small_cfg(32 * 1024, 8, 64));
  int misses = 0;
  for (Addr a = 0; a < 16 * 1024; a += 8) {
    misses += !c.access(a, AccessKind::kRead).hit;
  }
  // One miss per 64B block: 8 accesses per block -> 12.5% miss rate.
  EXPECT_EQ(misses, 16 * 1024 / 64);
}

TEST(TagCache, CapacityThrashOnOversizedLoop) {
  TagCache c("t", small_cfg(1024, 2, 64));
  // Loop over 4x the capacity with LRU -> everything misses in steady state.
  int misses = 0;
  const int kRounds = 4;
  for (int r = 0; r < kRounds; ++r) {
    for (Addr a = 0; a < 4096; a += 64) misses += !c.access(a, AccessKind::kRead).hit;
  }
  EXPECT_EQ(misses, kRounds * 64);
}

TEST(TagCache, InvalidateAllColdRestart) {
  TagCache c("t", small_cfg());
  (void)c.access(0x1000, AccessKind::kRead);
  c.invalidate_all();
  EXPECT_FALSE(c.contains(0x1000));
  // The repeat-block marker went with the lines.
  EXPECT_FALSE(c.access(0x1008, AccessKind::kRead).hit);
}

// ---- repeat-block hit against a reference model ----------------------------

/// The tag-cache model written plainly, without the repeat-block hit:
/// every access ticks and searches its set, an LRU hit restamps its
/// line, and a fill reports the block it evicted. The random policy
/// draws from an Rng seeded as TagCache's is.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& c) : c_(c), ways_(c.sets() * c.assoc) {}

  struct Result {
    bool hit = false;
    std::optional<Addr> evicted;  ///< block number a fill displaced
  };

  Result access(Addr addr, AccessKind kind) {
    ++tick_;
    const Addr block = addr / c_.block_bytes;
    Way* row = &ways_[(block % c_.sets()) * c_.assoc];
    for (std::uint32_t w = 0; w < c_.assoc; ++w) {
      if (row[w].valid && row[w].block == block) {
        if (c_.repl == ReplPolicy::kLru) row[w].stamp = tick_;
        return {true, std::nullopt};
      }
    }
    if (kind == AccessKind::kWrite && !c_.write_allocate) return {false, std::nullopt};
    std::uint32_t victim = c_.assoc;
    for (std::uint32_t w = 0; w < c_.assoc && victim == c_.assoc; ++w) {
      if (!row[w].valid) victim = w;
    }
    if (victim == c_.assoc) {
      if (c_.repl == ReplPolicy::kRandom) {
        victim = static_cast<std::uint32_t>(rng_.below(c_.assoc));
      } else {
        victim = 0;
        for (std::uint32_t w = 1; w < c_.assoc; ++w) {
          if (row[w].stamp < row[victim].stamp) victim = w;
        }
      }
    }
    Result r;
    if (row[victim].valid) r.evicted = row[victim].block;
    row[victim] = Way{true, block, tick_};
    return r;
  }

  [[nodiscard]] bool contains(Addr addr) const {
    const Addr block = addr / c_.block_bytes;
    const Way* row = &ways_[(block % c_.sets()) * c_.assoc];
    for (std::uint32_t w = 0; w < c_.assoc; ++w) {
      if (row[w].valid && row[w].block == block) return true;
    }
    return false;
  }

  void invalidate_all() { ways_.assign(ways_.size(), Way{}); }

 private:
  struct Way {
    bool valid = false;
    Addr block = 0;
    std::uint64_t stamp = 0;
  };
  CacheConfig c_;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
  Rng rng_{0xCACEu};
};

/// Seeded streams of long runs inside one block (the repeat-block hit's
/// case), jumps across a working set three times the cache's size
/// (misses and evictions), writes, and an occasional invalidate_all().
/// After every access the two models must agree on hit or miss and on
/// every working-set block of the accessed set (contains(); only that
/// set can change), and the reference's evicted block must be gone.
/// Every block is probed after each invalidate_all() and every 64 runs.
void replay_against_reference(const CacheConfig& cfg, std::uint64_t seed) {
  TagCache cache("t", cfg);
  ReferenceCache ref(cfg);
  Rng rng(seed);
  const std::uint64_t sets = cfg.sets();
  const std::uint64_t blocks = 3ull * cfg.size_bytes / cfg.block_bytes;
  const Addr base = 0x40000;  // block-aligned: block b sits in set b % sets
  const auto probe = [&](std::uint64_t from, std::uint64_t step, int op) {
    for (std::uint64_t b = from; b < blocks; b += step) {
      const Addr a = base + b * cfg.block_bytes;
      if (cache.contains(a) != ref.contains(a)) {
        ADD_FAILURE() << "op " << op << ": contains(block " << b << ") is " << cache.contains(a);
        return false;
      }
    }
    return true;
  };
  std::uint64_t hits = 0;
  std::uint64_t accesses = 0;
  Addr block = 0;
  for (int op = 0; op < 4000; ++op) {
    if (rng.below(500) == 0) {
      cache.invalidate_all();
      ref.invalidate_all();
      if (!probe(0, 1, op)) return;
    }
    // Half the time stay in the current block, for a run of accesses.
    if (rng.below(2) == 0) block = rng.below(blocks);
    const auto run = 1 + rng.below(12);
    for (std::uint64_t i = 0; i < run; ++i) {
      const Addr addr = base + block * cfg.block_bytes + rng.below(cfg.block_bytes);
      const auto pick = rng.below(8);
      const AccessKind kind = pick == 0   ? AccessKind::kWrite
                              : pick == 1 ? AccessKind::kFetch
                                          : AccessKind::kRead;
      const bool hit = cache.access(addr, kind).hit;
      const ReferenceCache::Result want = ref.access(addr, kind);
      ++accesses;
      hits += want.hit ? 1 : 0;
      ASSERT_EQ(hit, want.hit) << "op " << op << " addr 0x" << std::hex << addr;
      if (want.evicted) {
        ASSERT_FALSE(cache.contains(*want.evicted * cfg.block_bytes))
            << "op " << op << ": evicted block still held";
      }
      if (!probe(block % sets, sets, op)) return;
    }
    if (op % 64 == 0 && !probe(0, 1, op)) return;
  }
  EXPECT_EQ(cache.accesses(), accesses);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), accesses - hits);
}

TEST(TagCache, RepeatBlockHitMatchesReferenceModel) {
  for (const ReplPolicy repl : {ReplPolicy::kLru, ReplPolicy::kFifo, ReplPolicy::kRandom}) {
    for (const bool write_allocate : {true, false}) {
      for (const std::uint32_t assoc : {1u, 2u, 4u}) {
        CacheConfig cfg = small_cfg(1024, assoc, 64);
        cfg.repl = repl;
        cfg.write_allocate = write_allocate;
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
          SCOPED_TRACE("repl " + std::to_string(static_cast<int>(repl)) + " write_allocate " +
                       std::to_string(write_allocate) + " assoc " + std::to_string(assoc) +
                       " seed " + std::to_string(seed));
          replay_against_reference(cfg, seed);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(TagCache, TagStorageBitsSane) {
  TagCache c("t", small_cfg(32 * 1024, 8, 64));
  // 512 blocks x (tag + valid); tag = 32 - 6 (block) - 6 (sets) = 20.
  EXPECT_EQ(c.tag_storage_bits(), 512u * 21);
}

TEST(MemorySystem, PerfectAlwaysHitsInOneCycle) {
  MemorySystem m(MemSysConfig::perfect_memory());
  EXPECT_TRUE(m.perfect());
  EXPECT_EQ(m.icache(), nullptr);
  for (Addr a = 0; a < 1 << 16; a += 4096) {
    EXPECT_TRUE(m.ifetch(a).hit);
    EXPECT_EQ(m.dread(a).latency, 1u);
    EXPECT_TRUE(m.dwrite(a).hit);
  }
}

TEST(MemorySystem, UnifiedL2ServicesL1Misses) {
  MemorySystem m(MemSysConfig::with_unified_l2());
  ASSERT_NE(m.l2cache(), nullptr);
  // Cold access: L1 miss + L2 miss -> long fill.
  const auto cold = m.dread(0x100000);
  EXPECT_FALSE(cold.hit);
  EXPECT_GE(cold.latency, 60u);
  // L1 hit after the fill.
  EXPECT_TRUE(m.dread(0x100000).hit);
  EXPECT_EQ(m.l2cache()->accesses(), 1u);
}

TEST(MemorySystem, L2HitFasterThanMemory) {
  auto cfg = MemSysConfig::with_unified_l2();
  MemorySystem m(cfg);
  // Touch enough distinct lines to evict from the 32K L1 but stay in the
  // 512K L2, then re-touch: L1 misses should hit in L2 at L2-hit latency.
  for (Addr a = 0; a < 128 * 1024; a += 64) (void)m.dread(a);
  const auto r = m.dread(0);  // evicted from L1, resident in L2
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.latency, cfg.l1d.hit_latency + cfg.l2.hit_latency);
}

TEST(MemorySystem, L2ValidationRejectsSmallerThanL1) {
  auto cfg = MemSysConfig::with_unified_l2();
  cfg.l2.size_bytes = 16 * 1024;  // smaller than the 32K L1
  EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument);
}

TEST(MemorySystem, L2RefillChargesTheMissingL1sHitLatency) {
  auto cfg = MemSysConfig::with_unified_l2();
  cfg.l1i.hit_latency = 2;
  cfg.l1d.hit_latency = 1;
  MemorySystem m(cfg);
  // Cold fetch: the I-cache probe (2) plus the L2's cold miss, not the
  // D-cache's hit latency.
  const auto fetch = m.ifetch(0x400000);
  EXPECT_FALSE(fetch.hit);
  EXPECT_EQ(fetch.latency, 2u + cfg.l2.miss_latency);
  const auto load = m.dread(0x100000);
  EXPECT_EQ(load.latency, 1u + cfg.l2.miss_latency);
}

TEST(MemorySystem, L2ValidationRejectsSmallerThanL1I) {
  auto cfg = MemSysConfig::with_unified_l2();
  cfg.l1d.size_bytes = 16 * 1024;
  cfg.l2.size_bytes = 16 * 1024;  // holds the L1D, smaller than the 32K L1I
  EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument);
  cfg.l1i.size_bytes = 16 * 1024;
  EXPECT_NO_THROW(MemorySystem{cfg});
}

TEST(MemorySystem, L2ImprovesEngineVisibleLatency) {
  // Same access pattern with and without an L2 behind identical L1s:
  // the L2 version can never be slower on re-references.
  auto no_l2 = MemSysConfig::paper_l1();
  no_l2.l1d.miss_latency = 60;  // straight to memory
  auto with_l2 = MemSysConfig::with_unified_l2();
  MemorySystem a(no_l2), b(with_l2);
  std::uint64_t lat_a = 0, lat_b = 0;
  for (int round = 0; round < 3; ++round) {
    for (Addr addr = 0; addr < 64 * 1024; addr += 64) {
      lat_a += a.dread(addr).latency;
      lat_b += b.dread(addr).latency;
    }
  }
  EXPECT_LT(lat_b, lat_a);
}

TEST(MemorySystem, PaperL1SplitsInstructionAndData) {
  MemorySystem m(MemSysConfig::paper_l1());
  ASSERT_NE(m.icache(), nullptr);
  ASSERT_NE(m.dcache(), nullptr);
  (void)m.ifetch(0x400000);
  (void)m.dread(0x10000000);
  EXPECT_EQ(m.icache()->accesses(), 1u);
  EXPECT_EQ(m.dcache()->accesses(), 1u);
}

}  // namespace
}  // namespace resim::cache
