// The engine has one way to answer and one way to take in shard state.
//   * K = 1: a lone shard is its own only partition, so a one-shard
//     engine answers through the partition hooks exactly as a lone
//     summary fed the same stream answers by itself — HeavyHitters at
//     several phi and EstimateBatch over a probe list, element-wise.
//   * Frames: FromFrames is Create + ApplyFrames, so a K = 4 replica
//     built from a cold round (and, for windowed structures, from a full
//     frame plus a delta per shard) holds byte-identical shard state to
//     its primary, and keeps holding it after both ingest the same
//     further items (clocks and window rotation carried over, not just
//     the summaries).  Structures whose snapshots list a hash table in
//     table order are held instead to their frames reloaded one by one
//     and fed the same items.
// Every registered structure, plus the windowed misra_gries and
// bdw_optimal containers.  ctest label: engine.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

constexpr uint64_t kUniverse = uint64_t{1} << 18;
constexpr uint64_t kStreamLength = 30000;
constexpr uint64_t kFurtherItems = 10000;

std::vector<std::string> PathNames() {
  std::vector<std::string> names = RegisteredSummaryNames();
  names.push_back("windowed:misra_gries");
  names.push_back("windowed:bdw_optimal");
  return names;
}

SummaryOptions Options(const std::string& name) {
  SummaryOptions options;
  options.epsilon = 0.02;
  options.phi = 0.05;
  options.delta = 0.05;
  options.universe_size = kUniverse;
  options.stream_length = kStreamLength + kFurtherItems;
  options.seed = 9;
  if (IsWindowedSummaryName(name)) {
    // 1024-item buckets: the delta rounds below cross a few rotations,
    // well inside the 8-bucket ring.
    options.window_size = 8192;
    options.window_buckets = 8;
  }
  return options;
}

ShardedEngineOptions EngineOptions(const std::string& name, size_t shards) {
  ShardedEngineOptions options;
  options.algorithm = name;
  options.summary = Options(name);
  options.num_shards = shards;
  options.num_threads = 2;
  return options;
}

std::vector<uint64_t> Stream(uint64_t m, uint64_t seed) {
  return MakeZipfStream(kUniverse, 1.1, m, seed);
}

// Every shard's saved bytes, in shard order (a cold capture is one full
// snapshot per shard).
std::vector<std::vector<uint8_t>> ShardBytes(ShardedEngine& engine) {
  std::vector<ShardFrame> frames;
  EXPECT_TRUE(engine.CaptureFrames({}, 0, &frames, nullptr).ok());
  std::vector<std::vector<uint8_t>> bytes;
  for (ShardFrame& frame : frames) bytes.push_back(std::move(frame.bytes));
  return bytes;
}

// CaptureFrames against `*baselines`, which then advance to the round.
std::vector<ShardFrame> Capture(ShardedEngine& engine,
                                std::vector<ShardBaseline>* baselines) {
  std::vector<ShardFrame> frames;
  EXPECT_TRUE(engine
                  .CaptureFrames(*baselines, ShardedEngine::kMaxDeltaChain,
                                 &frames, nullptr)
                  .ok());
  baselines->resize(engine.num_shards());
  for (const ShardFrame& frame : frames) {
    ShardBaseline& baseline = (*baselines)[frame.shard];
    baseline.chain = frame.delta ? baseline.chain + 1 : 0;
    baseline.valid = true;
    baseline.applied = frame.applied;
    baseline.rotations = frame.rotations;
  }
  return frames;
}

// Hash-ordered tables save their entries in table order, which a reload
// does not reproduce, so a replica's bytes differ from its primary's even
// though it holds the same state; they are held to Reloaded below instead.
bool HashOrdered(const std::string& name) {
  return name == "count_min" || name == "count_sketch" ||
         name == "lossy_counting" || name == "sticky_sampling";
}

// What a replica built from the cold `frames` holds after `items`: each
// frame loaded on its own and fed its shard's items, then saved.  (Not
// for windowed structures, whose engine rotates on the global position.)
std::vector<std::vector<uint8_t>> Reloaded(
    const std::vector<ShardFrame>& frames, const ShardedEngine& primary,
    const std::vector<uint64_t>& items) {
  std::vector<std::vector<uint8_t>> bytes(frames.size());
  for (const ShardFrame& frame : frames) {
    Status status;
    auto shard = LoadSummary(frame.bytes, &status);
    EXPECT_NE(shard, nullptr) << status.ToString();
    if (shard == nullptr) return {};
    for (const uint64_t item : items) {
      if (primary.ShardOf(item) == frame.shard) shard->Update(item);
    }
    EXPECT_TRUE(SaveSummary(*shard, &bytes[frame.shard]).ok());
  }
  return bytes;
}

// The replica built from the cold round `cold` holds its primary's shard
// state now and after both take the same further items: byte for byte,
// and (for a plain structure) exactly its frames plus its items.
void ExpectReplicaTracksPrimary(const std::string& name,
                                ShardedEngine& replica,
                                ShardedEngine& primary,
                                const std::vector<ShardFrame>& cold) {
  const std::vector<uint64_t> further = Stream(kFurtherItems, 31);
  for (const bool fed : {false, true}) {
    SCOPED_TRACE(fed ? "after further items" : "as built");
    if (fed) {
      primary.UpdateBatch(further);
      replica.UpdateBatch(further);
      primary.Flush();
      replica.Flush();
    }
    const auto bytes = ShardBytes(replica);
    if (!HashOrdered(name)) {
      EXPECT_EQ(bytes, ShardBytes(primary));
    }
    if (!IsWindowedSummaryName(name)) {
      EXPECT_EQ(bytes, Reloaded(cold, primary,
                                fed ? further : std::vector<uint64_t>{}));
    }
    EXPECT_EQ(replica.ShardItemCounts(), primary.ShardItemCounts());
  }
}

class EnginePathsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EnginePathsTest, OneShardAnswersLikeALoneSummary) {
  const std::string& name = GetParam();
  Status status;
  auto engine = ShardedEngine::Create(EngineOptions(name, 1), &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  auto lone = MakeSummary(name, Options(name), &status);
  ASSERT_NE(lone, nullptr) << status.ToString();
  const auto items = Stream(kStreamLength, 17);
  engine->UpdateBatch(items);
  lone->UpdateBatch(items);

  for (const double phi : {0.02, 0.05, 0.1}) {
    SCOPED_TRACE(phi);
    const auto got = engine->HeavyHitters(phi);
    auto want = lone->HeavyHitters(phi);
    SortByEstimateDesc(want);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].item, want[i].item);
      EXPECT_EQ(got[i].estimate, want[i].estimate);
    }
  }
  // Stream items and ids the stream may never have drawn.
  std::vector<uint64_t> probes(items.begin(), items.begin() + 100);
  for (uint64_t i = 0; i < 100; ++i) probes.push_back(kUniverse - 1 - 977 * i);
  std::vector<double> want;
  for (const uint64_t item : probes) want.push_back(lone->Estimate(item));
  EXPECT_EQ(engine->EstimateBatch(probes), want);
}

TEST_P(EnginePathsTest, ColdRoundReplicaHoldsThePrimarysBytes) {
  const std::string& name = GetParam();
  Status status;
  auto primary = ShardedEngine::Create(EngineOptions(name, 4), &status);
  ASSERT_NE(primary, nullptr) << status.ToString();
  primary->UpdateBatch(Stream(kStreamLength, 19));
  std::vector<ShardBaseline> baselines;
  const std::vector<ShardFrame> cold = Capture(*primary, &baselines);
  // The exec options lend only their execution knobs.
  auto replica = ShardedEngine::FromFrames(cold, 4, EngineOptions("exact", 1),
                                           &status);
  ASSERT_NE(replica, nullptr) << status.ToString();
  EXPECT_EQ(replica->algorithm(), name);
  EXPECT_EQ(replica->num_shards(), 4u);
  ExpectReplicaTracksPrimary(name, *replica, *primary, cold);
}

// Delta frames exist only for windowed structures.
class WindowedEnginePathsTest : public EnginePathsTest {};

TEST_P(WindowedEnginePathsTest, FullPlusDeltaChainHoldsThePrimarysBytes) {
  const std::string& name = GetParam();
  Status status;
  auto primary = ShardedEngine::Create(EngineOptions(name, 4), &status);
  ASSERT_NE(primary, nullptr) << status.ToString();
  const auto items = Stream(kStreamLength, 23);
  primary->UpdateBatch({items.data(), kStreamLength - 3000});
  std::vector<ShardBaseline> baselines;
  std::vector<ShardFrame> chain = Capture(*primary, &baselines);
  primary->UpdateBatch({items.data() + kStreamLength - 3000, 3000});
  for (ShardFrame& frame : Capture(*primary, &baselines)) {
    ASSERT_TRUE(frame.delta);
    chain.push_back(std::move(frame));
  }
  auto replica = ShardedEngine::FromFrames(chain, 4, ShardedEngineOptions{},
                                           &status);
  ASSERT_NE(replica, nullptr) << status.ToString();
  ExpectReplicaTracksPrimary(name, *replica, *primary, {});
}

// A plain structure's empty shard would pass every shard-set check, so a
// cold round that skips a shard, or opens one with a delta, is refused on
// the frames alone, before an engine exists.
TEST(EnginePathsRefusalTest, ColdRoundMustOpenEveryShardWithAFullFrame) {
  Status status;
  auto primary =
      ShardedEngine::Create(EngineOptions("misra_gries", 4), &status);
  ASSERT_NE(primary, nullptr) << status.ToString();
  primary->UpdateBatch(Stream(kStreamLength, 29));
  std::vector<ShardBaseline> baselines;
  std::vector<ShardFrame> frames = Capture(*primary, &baselines);
  ASSERT_EQ(frames.size(), 4u);
  frames.erase(frames.begin() + 2);
  EXPECT_EQ(ShardedEngine::FromFrames(frames, 4, ShardedEngineOptions{},
                                      &status),
            nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  frames.push_back(frames.back());
  frames.back().shard = 2;
  frames.back().delta = true;
  EXPECT_EQ(ShardedEngine::FromFrames(frames, 4, ShardedEngineOptions{},
                                      &status),
            nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

std::string TestName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == ':') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllStructures, EnginePathsTest,
                         ::testing::ValuesIn(PathNames()), TestName);
INSTANTIATE_TEST_SUITE_P(Windowed, WindowedEnginePathsTest,
                         ::testing::Values("windowed:misra_gries",
                                           "windowed:bdw_optimal"),
                         TestName);

}  // namespace
}  // namespace l1hh
