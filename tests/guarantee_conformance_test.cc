// Statistical guarantee-conformance suite (ISSUE 2): every registered
// summary is run over R independent seeds on Zipf and adversarial planted
// workloads, and each run is checked against the paper's Definition 1
// ((eps, phi)-List l1-heavy hitters) contract:
//   * recall     — every item with f(x) > phi*m is reported;
//   * soundness  — nothing reported has f(x) < (phi - eps)*m;
//   * estimates  — reported/heavy items are estimated within ~eps*m.
// Randomized structures are allowed to fail whole runs with probability
// delta, so the suite asserts the observed failure count stays within a
// binomial tolerance (mean + 3 sigma) of R*delta; deterministic
// structures must never fail.  Seeds are fixed, so the verdicts are
// reproducible bit-for-bit.  Every structure additionally runs the same
// battery through a 4-shard ShardedEngine (sharding must not cost any
// part of the contract; see the second suite below).
//
// ctest labels: slow, conformance (run under ASan/UBSan in CI's
// sanitizer job; excluded from nothing — the suite is sized to stay
// tier-1 fast).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

constexpr double kEpsilon = 0.02;
constexpr double kPhi = 0.05;
constexpr double kDelta = 0.05;
constexpr uint64_t kUniverse = uint64_t{1} << 18;
constexpr uint64_t kStreamLength = 40000;
constexpr int kRuns = 10;  // independent seeds per workload

// Estimation slack beyond eps*m: the sampling-based estimators
// (bdw_simple, bdw_optimal, count_sketch) carry constant-factor noise at
// any fixed seed; 1.5x matches the repo's interface-test calibration.
constexpr double kEstimateSlack = 1.5;

/// Binomial failure budget: with per-run failure probability delta, the
/// observed failures over R runs stay below mean + 3*sigma except with
/// probability < ~1e-3 — loose enough to keep the suite deterministic-
/// green at fixed seeds, tight enough to catch a broken guarantee (which
/// fails most runs, not three).
int AllowedFailures(int runs, double delta) {
  const double mean = runs * delta;
  const double sigma = std::sqrt(runs * delta * (1.0 - delta));
  return static_cast<int>(std::ceil(mean + 3.0 * sigma));
}

/// Structures whose Definition-1 contract is deterministic: every run
/// must pass, no failure budget.
bool IsDeterministic(const std::string& name) {
  return name == "misra_gries" || name == "space_saving" ||
         name == "lossy_counting" || name == "exact";
}

struct Workload {
  const char* name;
  std::vector<uint64_t> items;
};

/// Zipf(1.2) — the canonical skewed draw — and an adversarial planted
/// stream: exact frequencies straddling the contract's thresholds, with
/// all heavy occurrences at the END of the stream (the paper makes no
/// ordering assumption; tail-loaded heavies are the worst case for
/// sampling/bucket schemes that commit early).
std::vector<Workload> MakeWorkloads(uint64_t seed) {
  std::vector<Workload> workloads;
  workloads.push_back(
      {"zipf", MakeZipfStream(kUniverse, /*alpha=*/1.2, kStreamLength,
                              seed)});
  PlantedSpec spec;
  // Two clear heavies, one just above phi, one just below (phi - eps):
  // the last must never be reported, the first three always.
  spec.planted_fractions = {0.12, 0.08, kPhi + 0.006, kPhi - kEpsilon -
                                                          0.005};
  spec.universe_size = kUniverse;
  spec.stream_length = kStreamLength;
  spec.order = StreamOrder::kHeaviesLast;
  workloads.push_back(
      {"adversarial", MakePlantedStream(spec, seed).items});
  return workloads;
}

struct RunVerdict {
  bool ok = true;
  std::string detail;  // first violation, for the failure message
};

/// Runs one workload through the summary (shards == 1) or through a
/// ShardedEngine (shards > 1: hash-partitioned ingest, global answers from
/// the owning shards' partition reports, no merge) and checks the
/// Definition 1 contract either way.  Sharding must not cost any part of
/// the guarantee — that is the engine's correctness claim.
RunVerdict CheckDefinitionOneContract(const std::string& algorithm,
                                      const std::vector<uint64_t>& stream,
                                      uint64_t seed, size_t shards = 1) {
  SummaryOptions options;
  options.epsilon = kEpsilon;
  options.phi = kPhi;
  options.delta = kDelta;
  options.universe_size = kUniverse;
  options.stream_length = stream.size();
  options.seed = seed;

  std::unique_ptr<Summary> summary;
  std::unique_ptr<ShardedEngine> engine;
  if (shards == 1) {
    summary = MakeSummary(algorithm, options);
    if (summary == nullptr) return {false, "factory returned nullptr"};
    summary->UpdateBatch(stream);
  } else {
    ShardedEngineOptions engine_options;
    engine_options.algorithm = algorithm;
    engine_options.summary = options;
    engine_options.num_shards = shards;
    engine = ShardedEngine::Create(engine_options);
    if (engine == nullptr) return {false, "engine refused the algorithm"};
    engine->UpdateBatch(stream);
  }
  auto estimate = [&](uint64_t item) {
    return engine != nullptr ? engine->Estimate(item)
                             : summary->Estimate(item);
  };

  ExactCounter exact;
  for (const uint64_t x : stream) exact.Insert(x);
  const double m = static_cast<double>(stream.size());
  const auto report = engine != nullptr ? engine->HeavyHitters(kPhi)
                                        : summary->HeavyHitters(kPhi);
  RunVerdict verdict;
  auto fail = [&verdict](std::string detail) {
    if (verdict.ok) {
      verdict.ok = false;
      verdict.detail = std::move(detail);
    }
  };

  // Recall: every f > phi*m item is in the report.
  for (const auto& t :
       exact.HeavyHitters(static_cast<uint64_t>(kPhi * m) + 1)) {
    const bool reported = std::any_of(
        report.begin(), report.end(),
        [&t](const ItemEstimate& e) { return e.item == t.item; });
    if (!reported) {
      fail("missed heavy item " + std::to_string(t.item) + " with f=" +
           std::to_string(t.count));
    }
    // Estimates of true heavies within the contract's additive error.
    const double est = estimate(t.item);
    if (std::abs(est - static_cast<double>(t.count)) >
        kEstimateSlack * kEpsilon * m) {
      fail("estimate " + std::to_string(est) + " for heavy item " +
           std::to_string(t.item) + " off from f=" +
           std::to_string(t.count));
    }
  }
  // Soundness: nothing below (phi - eps)*m is reported (the -1 absorbs
  // the ceil at the threshold boundary).
  for (const auto& r : report) {
    const auto f = static_cast<double>(exact.Count(r.item));
    if (f < (kPhi - kEpsilon) * m - 1.0) {
      fail("reported light item " + std::to_string(r.item) + " with f=" +
           std::to_string(static_cast<uint64_t>(f)));
    }
  }
  return verdict;
}

class GuaranteeConformanceTest
    : public testing::TestWithParam<std::string> {};

TEST_P(GuaranteeConformanceTest, DefinitionOneContractHoldsOverSeeds) {
  const std::string& algorithm = GetParam();
  const int budget =
      IsDeterministic(algorithm) ? 0 : AllowedFailures(kRuns, kDelta);

  std::map<std::string, int> failures;
  std::map<std::string, std::string> details;
  for (int run = 0; run < kRuns; ++run) {
    // Stream seed and summary seed both vary per run (independent
    // trials); all fixed, so reruns are identical.
    const uint64_t seed = 1000 + 17 * static_cast<uint64_t>(run);
    for (auto& workload : MakeWorkloads(seed)) {
      const RunVerdict verdict = CheckDefinitionOneContract(
          algorithm, workload.items, /*summary seed=*/seed + 1);
      if (!verdict.ok) {
        ++failures[workload.name];
        details[workload.name] += "\n  seed " + std::to_string(seed) +
                                  ": " + verdict.detail;
      }
    }
  }
  for (const char* workload_name : {"zipf", "adversarial"}) {
    EXPECT_LE(failures[workload_name], budget)
        << algorithm << " on " << workload_name << ": "
        << failures[workload_name] << " of " << kRuns
        << " runs violated the (eps, phi) contract (budget " << budget
        << ")" << details[workload_name];
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, GuaranteeConformanceTest,
    testing::ValuesIn(RegisteredSummaryNames()),
    [](const testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The same battery, ingested through a 4-shard ShardedEngine instead of a
// single summary: hash-partitioned substreams, one same-seed instance per
// shard, answers from the owning shards.  Definition 1's error is additive
// in m and each shard sees every occurrence of the items it owns, so every
// registered structure — mergeable or not — must keep the contract under
// the SAME failure budget.  (The instantiation keeps its historical
// "AllMergeable" prefix.)
class ShardedGuaranteeConformanceTest
    : public testing::TestWithParam<std::string> {};

TEST_P(ShardedGuaranteeConformanceTest,
       ShardThenMergePreservesDefinitionOneOverSeeds) {
  const std::string& algorithm = GetParam();
  const int budget =
      IsDeterministic(algorithm) ? 0 : AllowedFailures(kRuns, kDelta);

  std::map<std::string, int> failures;
  std::map<std::string, std::string> details;
  for (int run = 0; run < kRuns; ++run) {
    const uint64_t seed = 1000 + 17 * static_cast<uint64_t>(run);
    for (auto& workload : MakeWorkloads(seed)) {
      const RunVerdict verdict = CheckDefinitionOneContract(
          algorithm, workload.items, /*summary seed=*/seed + 1,
          /*shards=*/4);
      if (!verdict.ok) {
        ++failures[workload.name];
        details[workload.name] += "\n  seed " + std::to_string(seed) +
                                  ": " + verdict.detail;
      }
    }
  }
  for (const char* workload_name : {"zipf", "adversarial"}) {
    EXPECT_LE(failures[workload_name], budget)
        << algorithm << " sharded on " << workload_name << ": "
        << failures[workload_name] << " of " << kRuns
        << " runs violated the (eps, phi) contract (budget " << budget
        << ")" << details[workload_name];
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMergeable, ShardedGuaranteeConformanceTest,
    testing::ValuesIn(RegisteredSummaryNames()),
    [](const testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace l1hh
