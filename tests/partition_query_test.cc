// Differential battery for the engine's partition-aware queries: with
// the universe hash-partitioned over K shards, HeavyHitters is the union
// of the shards' partition reports (each thresholded against the global
// totals) and Estimate/EstimateBatch ask the owning shard alone — no
// merge.  For every registered structure, plus the windowed misra_gries
// and bdw_optimal containers, at K in {1, 2, 4, 8}:
//   * the report and the batched estimates meet Definition 1 against
//     exact counts of the stream suffix the engine covers;
//   * every item appears in the union at most once;
//   * `exact` answers element-wise like a one-shot MergedView;
//   * a K = 8 engine whose stream has fewer distinct keys than shards
//     (most shards empty), and one with no items at all, answer with
//     finite numbers.
// The K shards are K independent delta-failure trials, so a randomized
// structure's run may fail with probability at most K*delta; the budget
// below is binomial in that bound (deterministic structures get none).
// A structure that normalises a shard's estimates by its own sample
// count instead of the global one is inflated ~K-fold and fails every
// K > 1 run.
//
// ctest label: engine-conformance (selected by `-L engine` and by
// `-L conformance`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "engine/sharded_engine.h"
#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

constexpr double kEpsilon = 0.02;
constexpr double kPhi = 0.06;
constexpr double kDelta = 0.01;
constexpr uint64_t kUniverse = uint64_t{1} << 18;
constexpr uint64_t kStreamLength = 40000;
constexpr uint64_t kWindow = 16384;
constexpr uint64_t kBuckets = 32;  // windowed slack 1/B
constexpr int kRuns = 4;
// Same calibration as guarantee_conformance_test: sampling-based
// estimators carry constant-factor noise at any fixed seed.
constexpr double kEstimateSlack = 1.5;

bool IsDeterministic(const std::string& name) {
  return name == "misra_gries" || name == "space_saving" ||
         name == "lossy_counting" || name == "exact" ||
         name == "windowed:misra_gries";
}

int AllowedFailures(int runs, double delta) {
  const double mean = runs * delta;
  const double sigma = std::sqrt(runs * delta * (1.0 - delta));
  return static_cast<int>(std::ceil(mean + 3.0 * sigma));
}

SummaryOptions Options(const std::string& name, uint64_t stream_length,
                       uint64_t seed) {
  SummaryOptions options;
  options.epsilon = kEpsilon;
  options.phi = kPhi;
  options.delta = kDelta;
  options.universe_size = kUniverse;
  options.stream_length = stream_length;
  options.seed = seed;
  if (IsWindowedSummaryName(name)) {
    options.window_size = kWindow;
    options.window_buckets = kBuckets;
  }
  return options;
}

// The contract's additive error: eps, plus one bucket for a window.
double ErrorFraction(const std::string& name) {
  return IsWindowedSummaryName(name)
             ? kEpsilon + 1.0 / static_cast<double>(kBuckets)
             : kEpsilon;
}

std::unique_ptr<ShardedEngine> MakeEngine(const std::string& name,
                                          const SummaryOptions& options,
                                          size_t shards) {
  ShardedEngineOptions engine_options;
  engine_options.algorithm = name;
  engine_options.summary = options;
  engine_options.num_shards = shards;
  engine_options.num_threads = std::min<size_t>(shards, 2);
  engine_options.queue_capacity = size_t{1} << 12;
  return ShardedEngine::Create(engine_options);
}

// The instantiations below keep their historical "Mergeable" prefix; the
// battery covers every registered structure, mergeable or not.
std::vector<std::string> BatteryNames() {
  std::vector<std::string> names = RegisteredSummaryNames();
  names.push_back("windowed:misra_gries");
  names.push_back("windowed:bdw_optimal");
  return names;
}

struct Verdict {
  bool ok = true;
  std::string detail;
};

void Check(Verdict& v, bool condition, const std::string& detail) {
  if (!condition && v.ok) {
    v.ok = false;
    v.detail = detail;
  }
}

/// One engine run over a planted stream, checked against exact counts of
/// the suffix the engine covers (the whole stream, or the window).
Verdict RunOnce(const std::string& name, size_t shards, uint64_t seed) {
  PlantedSpec spec;
  // Two clear heavies, one just above phi, one below phi - eps.
  spec.planted_fractions = {0.15, 0.1, kPhi + 0.012,
                            kPhi - kEpsilon - 0.005};
  spec.universe_size = kUniverse;
  spec.stream_length = kStreamLength;
  const std::vector<uint64_t> stream = MakePlantedStream(spec, seed).items;

  Verdict v;
  auto engine = MakeEngine(name, Options(name, kStreamLength, seed + 1),
                           shards);
  Check(v, engine != nullptr, "engine refused " + name);
  if (engine == nullptr) return v;
  engine->UpdateBatch(stream);

  const uint64_t covered =
      std::min<uint64_t>(engine->CoveredItems(), stream.size());
  ExactCounter exact;
  for (size_t i = stream.size() - covered; i < stream.size(); ++i) {
    exact.Insert(stream[i]);
  }
  const double m = static_cast<double>(covered);
  const double err = ErrorFraction(name);
  const auto report = engine->HeavyHitters(kPhi);

  std::set<uint64_t> seen;
  for (const auto& e : report) {
    Check(v, seen.insert(e.item).second,
          "item " + std::to_string(e.item) + " reported twice");
    // Soundness (the -1 absorbs the ceil at the threshold boundary).
    const auto f = static_cast<double>(exact.Count(e.item));
    Check(v, f >= (kPhi - err) * m - 1.0,
          "reported light item " + std::to_string(e.item) + " with f=" +
              std::to_string(f));
  }
  std::vector<uint64_t> keys(seen.begin(), seen.end());
  for (const auto& t :
       exact.HeavyHitters(static_cast<uint64_t>(kPhi * m) + 1)) {
    Check(v, seen.count(t.item) == 1,
          "missed heavy item " + std::to_string(t.item) + " with f=" +
              std::to_string(t.count));
    if (seen.count(t.item) == 0) keys.push_back(t.item);
  }
  const std::vector<double> estimates = engine->EstimateBatch(keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto f = static_cast<double>(exact.Count(keys[i]));
    Check(v, std::abs(estimates[i] - f) <= kEstimateSlack * err * m,
          "estimate " + std::to_string(estimates[i]) + " for item " +
              std::to_string(keys[i]) + " off from f=" + std::to_string(f));
  }
  return v;
}

using Param = std::tuple<std::string, size_t>;

class PartitionQueryTest : public testing::TestWithParam<Param> {};

TEST_P(PartitionQueryTest, DefinitionOneAgainstExactCounts) {
  const auto& [name, shards] = GetParam();
  const double failure = std::min(1.0, static_cast<double>(shards) * kDelta);
  const int budget =
      IsDeterministic(name) ? 0 : AllowedFailures(kRuns, failure);
  ASSERT_LT(budget, kRuns) << "a budget of every run checks nothing";
  int failures = 0;
  std::string details;
  for (int run = 0; run < kRuns; ++run) {
    const uint64_t seed = 3000 + 31 * static_cast<uint64_t>(run);
    const Verdict v = RunOnce(name, shards, seed);
    if (!v.ok) {
      ++failures;
      details += "\n  seed " + std::to_string(seed) + ": " + v.detail;
    }
  }
  EXPECT_LE(failures, budget)
      << name << " at K=" << shards << ": " << failures << " of " << kRuns
      << " runs violated the (eps, phi) contract (budget " << budget << ")"
      << details;
}

class SparsePartitionTest : public testing::TestWithParam<std::string> {};

TEST_P(SparsePartitionTest, FewerHotKeysThanShardsStaysFinite) {
  const std::string& name = GetParam();
  const size_t shards = 8;
  // Three distinct keys over eight shards: at least five shards never see
  // an item, so their totals are zero.  Interleaved 3:2:1 and longer than
  // the window, so every suffix (a window's covered one too) holds the
  // keys in that proportion.
  const std::vector<uint64_t> keys = {11, 22, 33};
  std::vector<uint64_t> stream;
  for (uint64_t i = 0; i < 3 * kWindow / 2; i += 6) {
    for (const size_t k : {0, 0, 0, 1, 1, 2}) stream.push_back(keys[k]);
  }
  auto engine = MakeEngine(name, Options(name, stream.size(), 7), shards);
  ASSERT_NE(engine, nullptr);

  // Before any item: nothing to report, nothing to divide by.
  EXPECT_TRUE(engine->HeavyHitters(kPhi).empty());
  for (const double e : engine->EstimateBatch({keys[0], 99})) {
    EXPECT_TRUE(std::isfinite(e));
    EXPECT_EQ(e, 0.0);
  }

  engine->UpdateBatch(stream);
  const uint64_t covered = engine->CoveredItems();
  ASSERT_LE(covered, stream.size());
  ExactCounter exact;
  for (size_t i = stream.size() - covered; i < stream.size(); ++i) {
    exact.Insert(stream[i]);
  }
  const double m = static_cast<double>(covered);
  const auto report = engine->HeavyHitters(kPhi);
  ASSERT_EQ(report.size(), keys.size()) << name;
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(report[i].item, keys[i]) << name;
    EXPECT_TRUE(std::isfinite(report[i].estimate)) << name;
  }
  const auto estimates = engine->EstimateBatch({keys[0], keys[1], keys[2]});
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto f = static_cast<double>(exact.Count(keys[i]));
    EXPECT_TRUE(std::isfinite(estimates[i])) << name;
    EXPECT_LE(std::abs(estimates[i] - f),
              kEstimateSlack * ErrorFraction(name) * m)
        << name << " key " << keys[i];
  }
}

TEST(PartitionExactTest, MatchesOneShotMergedView) {
  const std::string name = "exact";
  const std::vector<uint64_t> stream =
      MakeZipfStream(kUniverse, /*alpha=*/1.2, kStreamLength, /*seed=*/5);
  std::vector<uint64_t> keys(stream.begin(), stream.begin() + 200);
  keys.push_back(kUniverse + 1);  // never seen
  for (const size_t shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("K=" + std::to_string(shards));
    auto engine = MakeEngine(name, Options(name, kStreamLength, 5), shards);
    ASSERT_NE(engine, nullptr);
    engine->UpdateBatch(stream);
    for (const double phi : {0.002, 0.01, kPhi, 0.2}) {
      const auto report = engine->HeavyHitters(phi);
      const auto merged = engine->MergedView().HeavyHitters(phi);
      ASSERT_EQ(report.size(), merged.size()) << "phi=" << phi;
      for (size_t i = 0; i < report.size(); ++i) {
        EXPECT_EQ(report[i].item, merged[i].item) << "phi=" << phi;
        EXPECT_EQ(report[i].estimate, merged[i].estimate) << "phi=" << phi;
      }
    }
    const auto estimates = engine->EstimateBatch(keys);
    const Summary& merged = engine->MergedView();
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(estimates[i], merged.Estimate(keys[i])) << keys[i];
    }
    EXPECT_EQ(engine->CoveredItems(), merged.CoveredItems());
  }
}

std::string ParamName(const testing::TestParamInfo<Param>& info) {
  std::string name = std::get<0>(info.param);
  std::replace(name.begin(), name.end(), ':', '_');
  return name + "_K" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Mergeable, PartitionQueryTest,
    testing::Combine(testing::ValuesIn(BatteryNames()),
                     testing::Values(size_t{1}, size_t{2}, size_t{4},
                                     size_t{8})),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    Mergeable, SparsePartitionTest, testing::ValuesIn(BatteryNames()),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), ':', '_');
      return name;
    });

}  // namespace
}  // namespace l1hh
