#include "summary/count_sketch.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "util/random.h"

namespace l1hh {
namespace {

TEST(CountSketchTest, ApproximatelyUnbiased) {
  // Mean estimate over independent sketches should approach the truth.
  const uint64_t target = 77;
  const int trials = 300;
  double sum = 0;
  for (int t = 0; t < trials; ++t) {
    CountSketch cs(64, 1, 1000 + t);  // single row: exactly unbiased
    Rng rng(t);
    for (int i = 0; i < 2000; ++i) cs.Insert(rng.UniformU64(500));
    for (int i = 0; i < 100; ++i) cs.Insert(target);
    sum += static_cast<double>(cs.Estimate(target));
  }
  const double mean = sum / trials;
  // Noise per row ~ ||f||_2/sqrt(64) ~ 2000/ (big margin below).
  EXPECT_NEAR(mean, 100.0, 30.0);
}

TEST(CountSketchTest, MedianReducesError) {
  ExactCounter exact;
  const auto stream = MakeZipfStream(1 << 14, 1.2, 50000, 3);
  CountSketch shallow(256, 1, 5);
  CountSketch deep(256, 9, 5);
  for (const uint64_t x : stream) {
    shallow.Insert(x);
    deep.Insert(x);
    exact.Insert(x);
  }
  double err_shallow = 0, err_deep = 0;
  for (uint64_t x = 0; x < 2000; ++x) {
    const double t = static_cast<double>(exact.Count(x));
    err_shallow += std::abs(static_cast<double>(shallow.Estimate(x)) - t);
    err_deep += std::abs(static_cast<double>(deep.Estimate(x)) - t);
  }
  EXPECT_LE(err_deep, err_shallow * 1.05);
}

TEST(CountSketchTest, HeavyItemsRecoverable) {
  const PlantedSpec spec{{0.3, 0.15}, 1 << 16, 40000};
  const PlantedStream s = MakePlantedStream(spec, 9);
  CountSketch cs = CountSketch::ForError(0.05, 0.01, 21);
  for (const uint64_t x : s.items) cs.Insert(x);
  for (size_t i = 0; i < s.planted_ids.size(); ++i) {
    const double est = static_cast<double>(cs.Estimate(s.planted_ids[i]));
    EXPECT_NEAR(est, static_cast<double>(s.planted_counts[i]),
                0.05 * 40000);
  }
}

TEST(CountSketchTest, SupportsDeletions) {
  // CountSketch is a linear sketch; insert then delete cancels.  Depth 41
  // takes Estimate's heap path (beyond its stack buffer).
  for (const size_t depth : {5, 41}) {
    CountSketch cs(128, depth, 33);
    for (int i = 0; i < 100; ++i) cs.Insert(7, 1);
    EXPECT_EQ(cs.Estimate(7), 100);
    for (int i = 0; i < 100; ++i) cs.Insert(7, -1);
    EXPECT_EQ(cs.Estimate(7), 0);
  }
}

TEST(CountSketchTest, DepthForcedOdd) {
  CountSketch cs(64, 4, 1);
  EXPECT_EQ(cs.depth() % 2, 1u);
}

TEST(CountSketchTest, SerializeRoundTrip) {
  Rng rng(4);
  CountSketch cs(128, 5, 19);
  for (int i = 0; i < 20000; ++i) cs.Insert(rng.UniformU64(700));
  BitWriter w;
  cs.Serialize(w);
  BitReader r(w);
  const CountSketch cs2 = CountSketch::Deserialize(r);
  for (uint64_t x = 0; x < 700; ++x) {
    EXPECT_EQ(cs2.Estimate(x), cs.Estimate(x));
  }
}

}  // namespace
}  // namespace l1hh
