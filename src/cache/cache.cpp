#include "cache/cache.hpp"

namespace resim::cache {

TagCache::TagCache(std::string name, const CacheConfig& cfg)
    : name_(std::move(name)), cfg_(cfg), lines_(cfg.sets() * cfg.assoc) {
  cfg_.validate();
  block_shift_ = ceil_log2(cfg_.block_bytes);
  tag_shift_ = block_shift_ + ceil_log2(cfg_.sets());
  set_mask_ = cfg_.sets() - 1;
}

void TagCache::export_stats(StatsRegistry& reg) const {
  // add() publishes the names even at zero, matching the report contract:
  // a constructed cache always shows its three counters.
  std::string key = name_;
  key += ".accesses";
  reg.counter(key).add(accesses_);
  key.resize(name_.size());
  key += ".hits";
  reg.counter(key).add(hits_);
  key.resize(name_.size());
  key += ".misses";
  reg.counter(key).add(misses());
}

void TagCache::fill(std::size_t base, Addr tag, Addr block) {
  std::size_t victim = base;
  bool found_invalid = false;
  for (std::size_t w = 0; w < cfg_.assoc; ++w) {
    if (!lines_[base + w].valid) {
      victim = base + w;
      found_invalid = true;
      break;
    }
  }
  if (!found_invalid) {
    switch (cfg_.repl) {
      case ReplPolicy::kLru:
      case ReplPolicy::kFifo:
        for (std::size_t w = 1; w < cfg_.assoc; ++w) {
          if (lines_[base + w].stamp < lines_[victim].stamp) victim = base + w;
        }
        break;
      case ReplPolicy::kRandom:
        victim = base + static_cast<std::size_t>(rng_.below(cfg_.assoc));
        break;
    }
  }
  lines_[victim] = Line{true, tag, tick_};
  last_block_ = block;
}

bool TagCache::contains(Addr addr) const {
  const std::size_t base = set_of(addr) * cfg_.assoc;
  const Addr tag = tag_of(addr);
  for (std::size_t w = 0; w < cfg_.assoc; ++w) {
    const Line& l = lines_[base + w];
    if (l.valid && l.tag == tag) return true;
  }
  return false;
}

void TagCache::invalidate_all() {
  for (Line& l : lines_) l = Line{};
  last_block_ = kNoBlock;
}

std::uint64_t TagCache::tag_storage_bits() const {
  const unsigned tag_bits =
      32 - ceil_log2(cfg_.block_bytes) - ceil_log2(cfg_.sets());
  return static_cast<std::uint64_t>(lines_.size()) * (tag_bits + 1);
}

}  // namespace resim::cache
