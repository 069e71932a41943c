// Parameterized contract test: every structure registered in the Summary
// factory is driven through the same Zipf-stream harness and must satisfy
// the (eps, phi)-List heavy hitters contract (Definition 1 of the paper):
//   * recall  — every item with f > phi*m appears in HeavyHitters(phi);
//   * precision — nothing reported has f < (phi - eps)*m;
//   * estimates of true heavy items are within ~eps*m of the truth;
// plus the interface's own invariants (batch==loop, weighted==repeated,
// merge-where-supported, memory accounting).
//
// Everything runs with fixed seeds, so the randomized structures are
// deterministic here; the probabilistic guarantees themselves are
// exercised over trial batteries in the accuracy benches.
#include "summary/summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "stream/stream_generator.h"
#include "summary/exact_counter.h"

namespace l1hh {
namespace {

constexpr double kEpsilon = 0.02;
constexpr double kPhi = 0.05;
constexpr uint64_t kUniverse = uint64_t{1} << 20;
constexpr uint64_t kStreamLength = 100000;

class SummaryInterfaceTest : public testing::TestWithParam<std::string> {
 protected:
  static SummaryOptions Options(uint64_t stream_length = kStreamLength) {
    SummaryOptions opt;
    opt.epsilon = kEpsilon;
    opt.phi = kPhi;
    opt.delta = 0.05;
    opt.universe_size = kUniverse;
    opt.stream_length = stream_length;
    opt.seed = 7;
    return opt;
  }

  static std::unique_ptr<Summary> Make(uint64_t stream_length = kStreamLength) {
    auto summary = MakeSummary(GetParam(), Options(stream_length));
    EXPECT_NE(summary, nullptr) << GetParam();
    return summary;
  }

  static const std::vector<uint64_t>& Stream() {
    static const std::vector<uint64_t>* stream = new std::vector<uint64_t>(
        MakeZipfStream(kUniverse, /*alpha=*/1.3, kStreamLength, /*seed=*/3));
    return *stream;
  }

  static const ExactCounter& Truth() {
    static const ExactCounter* exact = [] {
      auto* e = new ExactCounter();
      for (const uint64_t x : Stream()) e->Insert(x);
      return e;
    }();
    return *exact;
  }

  static bool Reported(const std::vector<ItemEstimate>& report,
                       uint64_t item) {
    return std::any_of(
        report.begin(), report.end(),
        [item](const ItemEstimate& e) { return e.item == item; });
  }
};

TEST_P(SummaryInterfaceTest, FactoryReportsItsOwnName) {
  auto summary = Make();
  EXPECT_EQ(summary->Name(), GetParam());
}

TEST_P(SummaryInterfaceTest, RecallAndPrecisionOnZipfStream) {
  auto summary = Make();
  summary->UpdateBatch(Stream());
  EXPECT_EQ(summary->ItemsProcessed(), kStreamLength);

  const double m = static_cast<double>(kStreamLength);
  const auto report = summary->HeavyHitters(kPhi);

  // Recall: every true phi-heavy item is reported.
  for (const auto& t : Truth().HeavyHitters(
           static_cast<uint64_t>(kPhi * m) + 1)) {
    EXPECT_TRUE(Reported(report, t.item))
        << GetParam() << " missed item " << t.item << " with f=" << t.count;
  }
  // Precision: nothing below (phi - eps)*m is reported.
  for (const auto& r : report) {
    EXPECT_GE(static_cast<double>(Truth().Count(r.item)),
              (kPhi - kEpsilon) * m - 1.0)
        << GetParam() << " reported light item " << r.item;
  }
}

TEST_P(SummaryInterfaceTest, EstimatesOfHeavyItemsWithinContract) {
  auto summary = Make();
  summary->UpdateBatch(Stream());
  const double m = static_cast<double>(kStreamLength);
  for (const auto& t : Truth().HeavyHitters(
           static_cast<uint64_t>(kPhi * m) + 1)) {
    // The per-structure contracts are all "within eps*m" (some w.h.p.);
    // allow 1.5x for the sampling-based estimators' fixed-seed noise.
    EXPECT_NEAR(summary->Estimate(t.item), static_cast<double>(t.count),
                1.5 * kEpsilon * m)
        << GetParam() << " item " << t.item;
  }
}

TEST_P(SummaryInterfaceTest, UpdateBatchMatchesUpdateLoop) {
  auto batched = Make();
  auto looped = Make();
  batched->UpdateBatch(Stream());
  for (const uint64_t x : Stream()) looped->Update(x);

  EXPECT_EQ(batched->ItemsProcessed(), looped->ItemsProcessed());
  const auto a = batched->HeavyHitters(kPhi);
  const auto b = looped->HeavyHitters(kPhi);
  ASSERT_EQ(a.size(), b.size()) << GetParam();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << GetParam();
    EXPECT_DOUBLE_EQ(a[i].estimate, b[i].estimate) << GetParam();
  }
}

TEST_P(SummaryInterfaceTest, WeightedUpdateMatchesRepeatedUpdate) {
  const uint64_t kWeight = 5;
  const uint64_t kItem = 42;
  auto weighted = Make(2 * kWeight);
  auto repeated = Make(2 * kWeight);
  weighted->Update(kItem, kWeight);
  for (uint64_t i = 0; i < kWeight; ++i) repeated->Update(kItem);
  EXPECT_EQ(weighted->ItemsProcessed(), repeated->ItemsProcessed())
      << GetParam();
  EXPECT_DOUBLE_EQ(weighted->Estimate(kItem), repeated->Estimate(kItem))
      << GetParam();
}

// A phi past 1 asks for items above the whole stream: none.  A threshold
// of phi * m past u64 must saturate, not wrap into "report everything".
TEST_P(SummaryInterfaceTest, HugePhiReportsNothing) {
  auto summary = Make();
  summary->UpdateBatch(Stream());
  EXPECT_TRUE(summary->HeavyHitters(1e30).empty()) << GetParam();
}

TEST_P(SummaryInterfaceTest, MemoryUsageIsPositiveAndSublinearIshForSketches) {
  auto summary = Make();
  summary->UpdateBatch(Stream());
  EXPECT_GT(summary->MemoryUsageBytes(), 0u) << GetParam();
}

TEST_P(SummaryInterfaceTest, MergeCombinesDisjointHalves) {
  auto summary = Make();
  if (!summary->SupportsMerge()) {
    GTEST_SKIP() << GetParam() << " does not support Merge";
  }
  auto left = Make();
  auto right = Make();
  const auto& stream = Stream();
  const size_t half = stream.size() / 2;
  left->UpdateBatch({stream.data(), half});
  right->UpdateBatch({stream.data() + half, stream.size() - half});
  ASSERT_TRUE(left->Merge(*right).ok()) << GetParam();

  const double m = static_cast<double>(kStreamLength);
  const auto report = left->HeavyHitters(kPhi);
  for (const auto& t : Truth().HeavyHitters(
           static_cast<uint64_t>(kPhi * m) + 1)) {
    EXPECT_TRUE(Reported(report, t.item))
        << GetParam() << " merge missed item " << t.item;
  }
}

TEST_P(SummaryInterfaceTest, MergeWithDifferentStructureFails) {
  auto summary = Make();
  if (!summary->SupportsMerge()) {
    GTEST_SKIP() << GetParam() << " does not support Merge";
  }
  // Any registered structure of a different type is incompatible.
  const std::string other_name =
      GetParam() == "misra_gries" ? "space_saving" : "misra_gries";
  auto other = MakeSummary(other_name, Options());
  ASSERT_NE(other, nullptr);
  EXPECT_FALSE(summary->Merge(*other).ok()) << GetParam();
}

// Same structure but different accuracy options must be rejected: merging
// a k=100 table into a k=10 contract would silently loosen eps.
TEST(SummaryMergeCompatTest, MismatchedOptionsRejected) {
  for (const char* name : {"misra_gries", "space_saving", "bdw_optimal"}) {
    SummaryOptions tight;
    tight.epsilon = 0.01;
    tight.stream_length = kStreamLength;
    SummaryOptions loose;
    loose.epsilon = 0.1;
    loose.stream_length = kStreamLength;
    auto a = MakeSummary(name, tight);
    auto b = MakeSummary(name, loose);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(a->Merge(*b).ok()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, SummaryInterfaceTest,
    testing::ValuesIn(RegisteredSummaryNames()),
    [](const testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace l1hh
