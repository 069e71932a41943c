#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sampling/coin_flip_sampler.h"
#include "sampling/geometric_skip.h"

namespace l1hh {
namespace {

TEST(CoinFlipSamplerTest, AcceptanceRateMatchesExponent) {
  // Lemma 1: accept with probability exactly 2^-k.
  Rng rng(1);
  for (int k : {1, 4, 7}) {
    const auto s = CoinFlipSampler::FromExponent(k);
    const int n = 400000;
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (s.Sample(rng)) ++hits;
    }
    const double expected = std::ldexp(n, -k);
    EXPECT_NEAR(hits, expected, 6 * std::sqrt(expected));
  }
}

TEST(CoinFlipSamplerTest, FromProbabilityRoundsDownToPow2) {
  // Footnote 3: probability 0.3 becomes 1/4.
  const auto s = CoinFlipSampler::FromProbability(0.3);
  EXPECT_EQ(s.exponent(), 2);
  EXPECT_DOUBLE_EQ(s.probability(), 0.25);
}

TEST(CoinFlipSamplerTest, SpaceIsLogLog) {
  // Proposition 2: the sampler state is the exponent, O(log k) bits, i.e.
  // O(log log m) for p = 1/m.
  const auto s = CoinFlipSampler::FromProbability(1.0 / (1 << 30));
  EXPECT_EQ(s.exponent(), 30);
  EXPECT_LE(s.SpaceBits(), 6);
}

TEST(CoinFlipSamplerTest, RandomnessBudget) {
  // One trial at probability 2^-k consumes at most ceil(k/64) words.
  Rng rng(2);
  const auto s = CoinFlipSampler::FromExponent(10);
  const uint64_t before = rng.words_drawn();
  s.Sample(rng);
  EXPECT_LE(rng.words_drawn() - before, 1u);
}

TEST(CoinFlipSamplerTest, SerializeRoundTrip) {
  const auto s = CoinFlipSampler::FromExponent(13);
  BitWriter w;
  s.Serialize(w);
  BitReader r(w);
  CoinFlipSampler s2;
  s2.Deserialize(r);
  EXPECT_EQ(s2.exponent(), 13);
}

TEST(GeometricSkipTest, LongRunRateMatchesProbability) {
  Rng rng(3);
  for (int k : {1, 3, 6}) {
    auto s = GeometricSkipSampler::FromExponent(k, rng);
    const int n = 400000;
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (s.Offer(rng)) ++hits;
    }
    const double expected = std::ldexp(n, -k);
    EXPECT_NEAR(hits, expected, 6 * std::sqrt(expected));
  }
}

TEST(GeometricSkipTest, GapsAreGeometric) {
  Rng rng(4);
  auto s = GeometricSkipSampler::FromExponent(4, rng);  // p = 1/16
  std::vector<int> gaps;
  int gap = 0;
  for (int i = 0; i < 200000; ++i) {
    if (s.Offer(rng)) {
      gaps.push_back(gap);
      gap = 0;
    } else {
      ++gap;
    }
  }
  double mean = 0;
  for (const int g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  // E[failures between successes] = (1-p)/p = 15.
  EXPECT_NEAR(mean, 15.0, 0.5);
}

TEST(GeometricSkipTest, ProbabilityOneSamplesEverything) {
  Rng rng(5);
  auto s = GeometricSkipSampler::FromProbability(1.0, rng);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(s.Offer(rng));
}

TEST(GeometricSkipTest, SerializeRoundTripPreservesSkip) {
  Rng rng(6);
  auto s = GeometricSkipSampler::FromExponent(5, rng);
  for (int i = 0; i < 17; ++i) s.Offer(rng);
  BitWriter w;
  s.Serialize(w);
  BitReader r(w);
  GeometricSkipSampler s2;
  s2.Deserialize(r);
  EXPECT_EQ(s2.exponent(), s.exponent());
  // Both must agree on the next accepted offer position.
  Rng rng_a(7), rng_b(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(s.Offer(rng_a), s2.Offer(rng_b));
  }
}

// Parameterized acceptance-rate sweep for the geometric-skip sampler.
class SkipRateSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkipRateSweep, RateWithinTolerance) {
  const int k = GetParam();
  Rng rng(100 + k);
  auto s = GeometricSkipSampler::FromExponent(k, rng);
  const int n = 1 << 19;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (s.Offer(rng)) ++hits;
  }
  const double expected = std::ldexp(n, -k);
  EXPECT_NEAR(hits, expected, 6 * std::sqrt(expected) + 2);
}

INSTANTIATE_TEST_SUITE_P(Exponents, SkipRateSweep,
                         ::testing::Values(0, 1, 2, 4, 8, 12));

}  // namespace
}  // namespace l1hh
