// StatsRegistry, Rng and numeric helpers.
#include <gtest/gtest.h>

#include "common/numeric.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace resim {
namespace {

// ---- numeric -----------------------------------------------------------------

TEST(Numeric, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(512), 9u);
  EXPECT_EQ(ceil_log2(513), 10u);
}

TEST(Numeric, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
}

TEST(Numeric, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(3), 0x7u);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(Numeric, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2u);
  EXPECT_EQ(ceil_div(11, 5), 3u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
}

TEST(Numeric, RequireThrows) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), std::invalid_argument);
}

// ---- StatsRegistry -------------------------------------------------------------

TEST(Stats, CountersStartAtZeroAndAccumulate) {
  StatsRegistry s;
  EXPECT_EQ(s.value("x"), 0u);
  s.counter("x").add();
  s.counter("x").add(41);
  EXPECT_EQ(s.value("x"), 42u);
  EXPECT_TRUE(s.has_counter("x"));
  EXPECT_FALSE(s.has_counter("y"));
}

TEST(Stats, OccupancyAverageAndMax) {
  StatsRegistry s;
  auto& o = s.occupancy("rob");
  o.sample(4);
  o.sample(8);
  o.sample(12);
  EXPECT_DOUBLE_EQ(o.average(), 8.0);
  EXPECT_EQ(o.max(), 12u);
  EXPECT_EQ(o.samples(), 3u);
}

TEST(Stats, ReportContainsEntries) {
  StatsRegistry s;
  s.counter("fetch.insts").add(123);
  const auto rep = s.report();
  EXPECT_NE(rep.find("fetch.insts"), std::string::npos);
  EXPECT_NE(rep.find("123"), std::string::npos);
}

// ---- Rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsBounded) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(1, 4);
  EXPECT_NEAR(hits, 2500, 200);
}

}  // namespace
}  // namespace resim
