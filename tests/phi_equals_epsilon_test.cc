// Algorithms 1 and 2 built with phi == epsilon round-trip through every
// way shard state leaves and re-enters a process: a snapshot
// (SaveSummary -> LoadSummary), a checkpoint directory (Checkpoint ->
// Restore), and a replica's cold round (CaptureFrames -> FromFrames).
// The constructors accept phi == epsilon, so the payload decoders must
// too; a decoder that rewrote phi would rebuild a differently shaped
// table and refuse (or misread) the payload.  The snapshot case also
// runs at phi < epsilon, which the constructors accept as well.
// ctest label: io.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

constexpr uint64_t kStreamLength = 100000;

SummaryOptions EqualOptions(double phi = 0.05) {
  SummaryOptions options;
  options.epsilon = 0.05;
  options.phi = phi;
  options.delta = 0.05;
  options.universe_size = uint64_t{1} << 20;
  options.stream_length = kStreamLength;
  options.seed = 17;
  return options;
}

ShardedEngineOptions EngineOptions(const std::string& name) {
  ShardedEngineOptions options;
  options.algorithm = name;
  options.summary = EqualOptions();
  options.num_shards = 2;
  return options;
}

std::vector<uint64_t> Stream() {
  return MakeZipfStream(uint64_t{1} << 20, 1.2, kStreamLength, 5);
}

// Two engines answer alike: same report, same estimates, same clocks.
void ExpectSameAnswers(ShardedEngine& got, ShardedEngine& want,
                       const std::vector<uint64_t>& probes) {
  EXPECT_EQ(got.ShardItemCounts(), want.ShardItemCounts());
  const auto got_report = got.HeavyHitters(0.05);
  const auto want_report = want.HeavyHitters(0.05);
  ASSERT_EQ(got_report.size(), want_report.size());
  for (size_t i = 0; i < got_report.size(); ++i) {
    EXPECT_EQ(got_report[i].item, want_report[i].item);
    EXPECT_EQ(got_report[i].estimate, want_report[i].estimate);
  }
  EXPECT_EQ(got.EstimateBatch(probes), want.EstimateBatch(probes));
}

class PhiEqualsEpsilonTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PhiEqualsEpsilonTest, SnapshotRoundTrips) {
  for (const double phi : {0.05, 0.01}) {
    SCOPED_TRACE(phi);
    Status status;
    auto summary = MakeSummary(GetParam(), EqualOptions(phi), &status);
    ASSERT_NE(summary, nullptr) << status.ToString();
    summary->UpdateBatch(Stream());
    std::vector<uint8_t> saved;
    ASSERT_TRUE(SaveSummary(*summary, &saved).ok());
    auto loaded = LoadSummary(saved, &status);
    ASSERT_NE(loaded, nullptr) << status.ToString();
    EXPECT_EQ(loaded->Options(), summary->Options());
    std::vector<uint8_t> resaved;
    ASSERT_TRUE(SaveSummary(*loaded, &resaved).ok());
    EXPECT_EQ(resaved, saved);
  }
}

TEST_P(PhiEqualsEpsilonTest, CheckpointRestores) {
  const std::string dir =
      testing::TempDir() + "/phi_equals_epsilon_" + GetParam();
  std::filesystem::remove_all(dir);
  Status status;
  auto primary = ShardedEngine::Create(EngineOptions(GetParam()), &status);
  ASSERT_NE(primary, nullptr) << status.ToString();
  const auto items = Stream();
  primary->UpdateBatch(items);
  ASSERT_TRUE(primary->Checkpoint(dir).ok());
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  ExpectSameAnswers(*restored, *primary,
                    std::vector<uint64_t>(items.begin(), items.begin() + 64));
  std::filesystem::remove_all(dir);
}

TEST_P(PhiEqualsEpsilonTest, ColdRoundBuildsAReplica) {
  Status status;
  auto primary = ShardedEngine::Create(EngineOptions(GetParam()), &status);
  ASSERT_NE(primary, nullptr) << status.ToString();
  const auto items = Stream();
  primary->UpdateBatch(items);
  std::vector<ShardFrame> frames;
  ASSERT_TRUE(primary->CaptureFrames({}, 0, &frames, nullptr).ok());
  auto replica =
      ShardedEngine::FromFrames(frames, 2, ShardedEngineOptions{}, &status);
  ASSERT_NE(replica, nullptr) << status.ToString();
  ExpectSameAnswers(*replica, *primary,
                    std::vector<uint64_t>(items.begin(), items.begin() + 64));
}

INSTANTIATE_TEST_SUITE_P(Bdw, PhiEqualsEpsilonTest,
                         ::testing::Values("bdw_simple", "bdw_optimal"));

}  // namespace
}  // namespace l1hh
