#include "core/bdw_optimal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "core/bdw_simple.h"
#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "summary/misra_gries.h"
#include "util/bit_util.h"

namespace l1hh {
namespace {

BdwOptimal::Options MakeOptions(double eps, double phi, uint64_t m,
                                uint64_t n = uint64_t{1} << 24) {
  BdwOptimal::Options opt;
  opt.epsilon = eps;
  opt.phi = phi;
  opt.delta = 0.1;
  opt.universe_size = n;
  opt.stream_length = m;
  return opt;
}

TEST(BdwOptimalTest, StructureMatchesFormulas) {
  const BdwOptimal sketch(MakeOptions(0.01, 0.1, 1 << 20), 1);
  // R = Theta(log(1/phi)), odd.
  EXPECT_EQ(sketch.repetitions() % 2, 1u);
  EXPECT_GE(sketch.repetitions(), 5u);
  // rows = Theta(1/eps).
  EXPECT_GE(sketch.rows(), 100u);
  EXPECT_LE(sketch.rows(), 6400u);
}

TEST(BdwOptimalTest, HeavyHitterContractOnPlantedStream) {
  const double eps = 0.02, phi = 0.1;
  const uint64_t m = 60000;
  int failures = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const PlantedSpec spec{{2 * phi, phi, phi - 2 * eps}, 1 << 24, m};
    const PlantedStream s = MakePlantedStream(spec, 300 + t);
    BdwOptimal sketch(MakeOptions(eps, phi, m), 700 + t);
    ExactCounter exact;
    for (const uint64_t x : s.items) {
      sketch.Insert(x);
      exact.Insert(x);
    }
    bool ok = true;
    std::unordered_set<uint64_t> reported;
    for (const auto& hh : sketch.Report()) {
      reported.insert(hh.item);
      if (exact.Count(hh.item) <= static_cast<uint64_t>((phi - eps) * m)) {
        ok = false;  // false positive
      }
      if (std::abs(hh.estimated_count -
                   static_cast<double>(exact.Count(hh.item))) >
          eps * static_cast<double>(m)) {
        ok = false;  // estimate out of tolerance
      }
    }
    if (reported.count(s.planted_ids[0]) == 0) ok = false;
    if (reported.count(s.planted_ids[1]) == 0) ok = false;
    if (!ok) ++failures;
  }
  EXPECT_LE(failures, 3);
}

TEST(BdwOptimalTest, AccuracyOnZipfStream) {
  const double eps = 0.02, phi = 0.08;
  const uint64_t m = 80000;
  const auto stream = MakeZipfStream(1 << 16, 1.3, m, 5);
  BdwOptimal sketch(MakeOptions(eps, phi, m), 7);
  ExactCounter exact;
  for (const uint64_t x : stream) {
    sketch.Insert(x);
    exact.Insert(x);
  }
  // The head of the Zipf distribution must be reported accurately.
  const auto truth = exact.SortedByCountDesc();
  std::unordered_set<uint64_t> reported;
  double max_err = 0;
  for (const auto& hh : sketch.Report()) {
    reported.insert(hh.item);
    max_err = std::max(max_err,
                       std::abs(hh.estimated_count -
                                static_cast<double>(exact.Count(hh.item))));
  }
  for (const auto& e : truth) {
    if (e.count >= static_cast<uint64_t>((phi + eps) * m)) {
      EXPECT_TRUE(reported.count(e.item) == 1) << "missing head item";
    }
  }
  EXPECT_LE(max_err, 1.5 * eps * m);
}

TEST(BdwOptimalTest, EstimateCountNearTruthForHeavies) {
  const uint64_t m = 60000;
  BdwOptimal sketch(MakeOptions(0.02, 0.2, m), 11);
  for (uint64_t i = 0; i < m; ++i) sketch.Insert(i % 3);
  for (uint64_t x = 0; x < 3; ++x) {
    EXPECT_NEAR(sketch.EstimateCount(x), m / 3.0, 0.04 * m);
  }
}

TEST(BdwOptimalTest, TopKOrderedAndBounded) {
  const uint64_t m = 40000;
  const PlantedSpec spec{{0.3, 0.2, 0.1}, 1 << 24, m};
  const PlantedStream s = MakePlantedStream(spec, 41);
  BdwOptimal sketch(MakeOptions(0.02, 0.08, m), 43);
  for (const uint64_t x : s.items) sketch.Insert(x);
  const auto top3 = sketch.TopK(3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].item, s.planted_ids[0]);
  EXPECT_EQ(top3[1].item, s.planted_ids[1]);
  EXPECT_EQ(top3[2].item, s.planted_ids[2]);
  EXPECT_GE(top3[0].estimated_count, top3[1].estimated_count);
  EXPECT_GE(top3[1].estimated_count, top3[2].estimated_count);
}

TEST(BdwOptimalTest, NoFalsePositivesOnUniform) {
  const uint64_t m = 40000;
  const auto stream = MakeUniformStream(2000, m, 13);
  BdwOptimal sketch(MakeOptions(0.05, 0.25, m), 17);
  for (const uint64_t x : stream) sketch.Insert(x);
  EXPECT_TRUE(sketch.Report().empty());
}

TEST(BdwOptimalTest, SerializeRoundTripAndResume) {
  const uint64_t m = 30000;
  BdwOptimal alice(MakeOptions(0.05, 0.25, m), 19);
  for (uint64_t i = 0; i < m / 2; ++i) alice.Insert(7);
  BitWriter w;
  alice.Serialize(w);
  BitReader r(w);
  BdwOptimal bob = BdwOptimal::Deserialize(r, 23);
  EXPECT_EQ(bob.samples_taken(), alice.samples_taken());
  for (uint64_t i = 0; i < m / 2; ++i) bob.Insert(7);
  const auto report = bob.Report();
  ASSERT_GE(report.size(), 1u);
  EXPECT_EQ(report[0].item, 7u);
}

// The headline claim of Table 1, in its laptop-measurable form: as log n
// grows, Misra-Gries pays eps^-1 additional bits per unit of log n (it
// stores ids in every one of its eps^-1 slots), while Algorithm 2 pays
// only phi^-1 (ids live only in the small T1 candidate table).  With
// eps^-1 / phi^-1 = 64 the slope ratio must be large.  (The absolute
// crossover needs log n + log m to exceed Algorithm 2's leading constant,
// i.e. astronomically long streams — EXPERIMENTS.md discusses this.)
TEST(BdwOptimalTest, SpaceSlopeInLogNBeatsMisraGries) {
  const double eps = 1.0 / 256, phi = 0.25;
  const uint64_t m = 1 << 18;
  const uint64_t n_small = uint64_t{1} << 20;
  const uint64_t n_large = uint64_t{1} << 60;

  auto measure = [&](uint64_t n, uint64_t seed) {
    BdwOptimal optimal(MakeOptions(eps, phi, m, n), seed);
    MisraGries mg(static_cast<size_t>(1.0 / eps), UniverseBits(n));
    Rng rng(seed + 1);
    for (uint64_t i = 0; i < m; ++i) {
      const uint64_t x = rng.UniformU64(n);
      optimal.Insert(x);
      mg.Insert(x);
    }
    return std::make_pair(optimal.SpaceBits(), mg.SpaceBits());
  };
  const auto [opt_small, mg_small] = measure(n_small, 29);
  const auto [opt_large, mg_large] = measure(n_large, 37);
  const double opt_slope =
      static_cast<double>(opt_large) - static_cast<double>(opt_small);
  const double mg_slope =
      static_cast<double>(mg_large) - static_cast<double>(mg_small);
  EXPECT_GT(mg_slope, 8 * std::max(opt_slope, 1.0));
}

// The merge-enabling property of the epoch scheme: the epoch is a pure
// function of (Options, samples taken) — identical across instances with
// the same options, monotone in the sample position, and clamped to
// [0, max_epoch].  (Per-instance state like the hash draws must not leak
// into it; that is what makes shard epochs reconcilable.)
TEST(BdwOptimalTest, EpochScheduleIsSharedDeterministicAndMonotone) {
  const uint64_t m = 60000;
  const BdwOptimal a(MakeOptions(0.02, 0.1, m), 1);
  const BdwOptimal b(MakeOptions(0.02, 0.1, m), 999);  // different seed
  int prev = -1;
  for (uint64_t s = 0; s <= m; s += 997) {
    const int t = a.EpochAtSample(s);
    EXPECT_EQ(t, b.EpochAtSample(s)) << "schedule depends on the seed";
    EXPECT_GE(t, prev) << "schedule not monotone at s=" << s;
    EXPECT_GE(t, 0);
    EXPECT_LE(t, a.max_epoch());
    prev = t;
  }
  // The schedule leaves epoch 0 once eps*phi*s clears the scale, so a
  // full-length run must actually exercise several epochs.
  EXPECT_GT(a.EpochAtSample(m), 2);
}

// current_epoch() tracks the schedule during ingestion: with these
// options the sampler keeps everything (l > m), so samples == inserts.
TEST(BdwOptimalTest, CurrentEpochFollowsScheduleDuringIngest) {
  const uint64_t m = 50000;
  BdwOptimal sketch(MakeOptions(0.02, 0.1, m), 5);
  for (uint64_t i = 0; i < m; ++i) {
    sketch.Insert(i % 100);
    if (i % 5000 == 0) {
      EXPECT_EQ(sketch.current_epoch(),
                sketch.EpochAtSample(sketch.samples_taken()));
    }
  }
  EXPECT_EQ(sketch.samples_taken(), m);
  EXPECT_EQ(sketch.current_epoch(), sketch.EpochAtSample(m));
}

// Once the epoch reaches eps_exp the T3 coin has probability 1: every
// repetition of every sampled item must be counted, none skipped by the
// bit-parallel coin loop.
TEST(BdwOptimalTest, T3CountsEveryRepetitionOnceTheCoinIsCertain) {
  const double eps = 0.005;
  BdwOptimal sketch(MakeOptions(eps, 0.02, 100000), 3);
  const int eps_exp = ProbabilityToPow2Exponent(eps);
  ASSERT_EQ(eps_exp, 8);
  ASSERT_GE(sketch.max_epoch(), eps_exp);
  sketch.FastForwardToEpoch(eps_exp);
  ASSERT_EQ(sketch.current_epoch(), eps_exp);
  for (uint64_t x = 0; x < 2000; ++x) {
    const uint64_t t3_before = sketch.t3_total();
    const uint64_t sampled_before = sketch.samples_taken();
    sketch.Insert(x % 37);
    ASSERT_EQ(sketch.t3_total() - t3_before,
              (sketch.samples_taken() - sampled_before) *
                  sketch.repetitions());
  }
  EXPECT_GT(sketch.samples_taken(), 0u);
}

// In epoch 0 both coins fire with probability 2^-eps_exp, independently
// per (sampled item, repetition): each table's total is Binomial(N R, p).
TEST(BdwOptimalTest, EpochZeroCoinRatesMatchLemmaOne) {
  const double eps = 0.01;
  const uint64_t m = 10000;
  BdwOptimal sketch(MakeOptions(eps, 0.05, m), 29);
  for (uint64_t x = 0; x < m; ++x) sketch.Insert(x);
  ASSERT_EQ(sketch.current_epoch(), 0);
  ASSERT_EQ(ProbabilityToPow2Exponent(eps), 7);
  const double trials = static_cast<double>(sketch.samples_taken()) *
                        static_cast<double>(sketch.repetitions());
  const double p = std::ldexp(1.0, -7);
  const double mean = trials * p;
  const double sigma = std::sqrt(trials * p * (1 - p));
  EXPECT_NEAR(static_cast<double>(sketch.t2_total()), mean, 5 * sigma);
  EXPECT_NEAR(static_cast<double>(sketch.t3_total()), mean, 5 * sigma);
}

// R = 129 spans three 64-repetition coin words (64 + 64 + 1): the block
// loop must still find the heavies and replay exactly after a restore.
TEST(BdwOptimalTest, MultiBlockRepetitionsReportAndResumeExactly) {
  const double eps = 0.02, phi = 0.1;
  const uint64_t m = 60000;
  BdwOptimal::Options opt = MakeOptions(eps, phi, m);
  opt.constants.opt_min_reps = 129;
  const uint64_t seed = 41;
  const PlantedSpec spec{{2 * phi, 1.5 * phi}, 1 << 24, m};
  const PlantedStream s = MakePlantedStream(spec, 43);

  BdwOptimal live(opt, seed);
  ASSERT_EQ(live.repetitions(), 129u);
  const size_t half = s.items.size() / 2;
  for (size_t i = 0; i < half; ++i) live.Insert(s.items[i]);
  BitWriter saved;
  live.SerializeSparse(saved);
  live.SerializeRngState(saved);
  BitReader r(saved);
  BdwOptimal restored = BdwOptimal::DeserializeSparse(r, seed);
  restored.DeserializeRngState(r);
  ASSERT_FALSE(r.overflow());
  for (size_t i = half; i < s.items.size(); ++i) {
    live.Insert(s.items[i]);
    restored.Insert(s.items[i]);
  }

  BitWriter a, b;
  live.Serialize(a);
  live.SerializeRngState(a);
  restored.Serialize(b);
  restored.SerializeRngState(b);
  EXPECT_EQ(a.size_bits(), b.size_bits());
  EXPECT_EQ(a.words(), b.words());

  std::unordered_set<uint64_t> reported;
  for (const auto& hh : restored.Report()) reported.insert(hh.item);
  EXPECT_EQ(reported.count(s.planted_ids[0]), 1u);
  EXPECT_EQ(reported.count(s.planted_ids[1]), 1u);
}

class BdwOptimalGrid
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BdwOptimalGrid, RecallHolds) {
  const auto [eps, phi] = GetParam();
  const uint64_t m = 40000;
  int failures = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const PlantedSpec spec{{phi * 1.5, phi * 1.1}, 1 << 24, m};
    const PlantedStream s = MakePlantedStream(spec, 5000 + t);
    BdwOptimal sketch(MakeOptions(eps, phi, m), 6000 + t);
    for (const uint64_t x : s.items) sketch.Insert(x);
    std::unordered_set<uint64_t> reported;
    for (const auto& hh : sketch.Report()) reported.insert(hh.item);
    if (reported.count(s.planted_ids[0]) == 0 ||
        reported.count(s.planted_ids[1]) == 0) {
      ++failures;
    }
  }
  EXPECT_LE(failures, 2);
}

// phi < ~0.35 keeps the two planted items (2.6*phi total) satisfiable.
INSTANTIATE_TEST_SUITE_P(Grid, BdwOptimalGrid,
                         ::testing::Values(std::make_pair(0.02, 0.1),
                                           std::make_pair(0.05, 0.2),
                                           std::make_pair(0.1, 0.3),
                                           std::make_pair(0.03, 0.15)));

}  // namespace
}  // namespace l1hh
