#include "hash/universal_hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <vector>

#include "hash/multiply_shift.h"
#include "util/bit_stream.h"

namespace l1hh {
namespace {

TEST(UniversalHashTest, InRange) {
  Rng rng(1);
  for (uint64_t range : {2ull, 7ull, 100ull, 1ull << 20}) {
    const UniversalHash h = UniversalHash::Draw(rng, range);
    for (uint64_t x = 0; x < 1000; ++x) {
      EXPECT_LT(h(x), range);
    }
  }
}

TEST(UniversalHashTest, Deterministic) {
  Rng rng(2);
  const UniversalHash h = UniversalHash::Draw(rng, 1 << 16);
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h(x), h(x));
  }
}

// Definition 2: Pr[h(a) = h(b)] ~ 1/range for a != b.
TEST(UniversalHashTest, PairwiseCollisionProbability) {
  Rng rng(3);
  const uint64_t range = 64;
  const int draws = 40000;
  int collisions = 0;
  for (int i = 0; i < draws; ++i) {
    const UniversalHash h = UniversalHash::Draw(rng, range);
    if (h(12345) == h(67890)) ++collisions;
  }
  const double expected = static_cast<double>(draws) / range;
  EXPECT_NEAR(collisions, expected, 6 * std::sqrt(expected));
}

// Lemma 2: with range >= |S|^2/delta, a fixed S has no collisions whp.
TEST(UniversalHashTest, Lemma2CollisionFreeOnSmallSets) {
  Rng rng(4);
  const size_t s = 100;
  const double delta = 0.1;
  const uint64_t range = static_cast<uint64_t>(s * s / delta);
  int failures = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const UniversalHash h = UniversalHash::Draw(rng, range);
    std::unordered_set<uint64_t> seen;
    bool collided = false;
    for (size_t x = 0; x < s; ++x) {
      if (!seen.insert(h(x * 7919 + 13)).second) collided = true;
    }
    if (collided) ++failures;
  }
  // Expected failure rate <= delta = 10%; allow generous margin.
  EXPECT_LT(failures, static_cast<int>(trials * 2 * delta));
}

TEST(UniversalHashTest, ExtremeInputsStayInRange) {
  Rng rng(99);
  const UniversalHash h = UniversalHash::Draw(rng, 1000);
  // Inputs above the Mersenne prime exercise the pre-reduction path.
  for (const uint64_t x :
       {UINT64_MAX, UINT64_MAX - 1, UniversalHash::kPrime,
        UniversalHash::kPrime + 1, uint64_t{1} << 63}) {
    EXPECT_LT(h(x), 1000u);
    EXPECT_EQ(h(x), h(x));
  }
  // The prime reduction wraps: x and x + p collide by construction — they
  // are the same field element.  Universality is over [p], as in the paper.
  EXPECT_EQ(h(5), h(5 + UniversalHash::kPrime));
}

TEST(UniversalHashTest, SerializeRoundTrip) {
  Rng rng(5);
  const UniversalHash h = UniversalHash::Draw(rng, 12345);
  BitWriter w;
  h.Serialize(w);
  BitReader r(w);
  const UniversalHash h2 = UniversalHash::Deserialize(r);
  EXPECT_EQ(h, h2);
  for (uint64_t x = 0; x < 100; ++x) EXPECT_EQ(h(x), h2(x));
}

TEST(UniversalHashTest, SeedBitsIsOLogN) {
  Rng rng(6);
  const UniversalHash h = UniversalHash::Draw(rng, 1000);
  EXPECT_LE(h.SeedBits(), 2 * 61 + 64);
  EXPECT_GE(h.SeedBits(), 2 * 61);
}

TEST(MultiplyShiftTest, InRangeAndDeterministic) {
  Rng rng(7);
  const MultiplyShiftHash h = MultiplyShiftHash::Draw(rng, 10);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h(x), 1024u);
    EXPECT_EQ(h(x), h(x));
  }
}

TEST(MultiplyShiftTest, CollisionProbability) {
  Rng rng(8);
  const int log2r = 6;  // range 64
  const int draws = 40000;
  int collisions = 0;
  for (int i = 0; i < draws; ++i) {
    const MultiplyShiftHash h = MultiplyShiftHash::Draw(rng, log2r);
    if (h(555) == h(999)) ++collisions;
  }
  const double expected = static_cast<double>(draws) / 64;
  // 2-universal guarantee is <= 2/range for plain multiply-shift; the
  // add-shift variant used here achieves ~1/range.
  EXPECT_LT(collisions, 2.5 * expected);
}

TEST(MultiplyShiftTest, SerializeRoundTrip) {
  Rng rng(9);
  const MultiplyShiftHash h = MultiplyShiftHash::Draw(rng, 12);
  BitWriter w;
  h.Serialize(w);
  BitReader r(w);
  const MultiplyShiftHash h2 = MultiplyShiftHash::Deserialize(r);
  for (uint64_t x = 0; x < 200; ++x) EXPECT_EQ(h(x), h2(x));
}

// Property sweep: collision rates near 1/range across ranges.
class HashRangeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashRangeSweep, CollisionRateMatchesUniversality) {
  const uint64_t range = GetParam();
  Rng rng(100 + range);
  const int draws = 20000;
  int collisions = 0;
  for (int i = 0; i < draws; ++i) {
    const UniversalHash h = UniversalHash::Draw(rng, range);
    if (h(42) == h(43 + range)) ++collisions;
  }
  const double expected = static_cast<double>(draws) / range;
  EXPECT_NEAR(collisions, expected, 6 * std::sqrt(expected) + 3);
}

INSTANTIATE_TEST_SUITE_P(Ranges, HashRangeSweep,
                         ::testing::Values(2, 3, 16, 101, 1024, 65536));

}  // namespace
}  // namespace l1hh
