// Simulated data memory for the functional simulator.
//
// The image is a lazily-materialized 64-bit word store over a power-of-two
// data region. Unwritten locations read as a deterministic seeded hash of
// their address, so a workload's data-dependent branches and address
// streams are reproducible from (program, seed) alone — the functional
// equivalent of running the same SPEC input deterministically.
#ifndef RESIM_FUNCSIM_MEMORY_IMAGE_H
#define RESIM_FUNCSIM_MEMORY_IMAGE_H

#include <cstdint>
#include <unordered_map>

#include "common/numeric.hpp"
#include "common/types.hpp"

namespace resim::funcsim {

class MemoryImage {
 public:
  /// Conventional base of the data segment; workloads load it with li().
  static constexpr Addr kDataBase = 0x1000'0000;

  MemoryImage(std::uint64_t size_bytes, std::uint64_t seed)
      : size_(size_bytes), seed_(seed) {
    require(is_pow2(size_bytes) && size_bytes >= 64, "MemoryImage: size must be pow2 >= 64");
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Map an arbitrary computed address into the data region (8-byte aligned).
  [[nodiscard]] Addr normalize(Addr addr) const {
    return kDataBase + ((addr - kDataBase) & (size_ - 1) & ~Addr{7});
  }

  [[nodiscard]] std::uint64_t load(Addr addr) const {
    const Addr a = normalize(addr);
    const auto it = written_.find(a);
    return it != written_.end() ? it->second : background(a);
  }

  void store(Addr addr, std::uint64_t value) { written_[normalize(addr)] = value; }

  void reset() { written_.clear(); }

 private:
  /// splitmix64 of (address, seed): the deterministic "initial contents".
  [[nodiscard]] std::uint64_t background(Addr a) const {
    std::uint64_t z = a * 0x9E3779B97f4A7C15ULL + seed_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::uint64_t size_;
  std::uint64_t seed_;
  std::unordered_map<Addr, std::uint64_t> written_;
};

}  // namespace resim::funcsim

#endif  // RESIM_FUNCSIM_MEMORY_IMAGE_H
