// The engine's per-shard query work runs on the parked shard workers
// (ShardedEngine::ShardTask): each worker encodes its own shards' frames,
// or reports its own shards' partitions, and the query thread joins the
// results by shard.  What a caller sees must be what a serial pass over
// the shards would give:
//   * CaptureFrames: frame k is shard k's SaveSummary bytes (or, for a
//     windowed shard within its chain bound, its SaveSummaryDelta bytes
//     against the caller's baseline), in shard order, with clean shards
//     skipped.  The reference is a shadow of the engine's partition: one
//     standalone summary per shard fed the items ShardOf routes to it,
//     rotated (windowed) at the same global bucket boundaries.  Covered
//     at K = 1, K = 4 and K = 5 on 2 worker threads, where one worker
//     owns three shards and the other two.
//   * HeavyHitters is the SortByEstimateDesc union of every shard's
//     PartitionHeavyHitters, computed on reloaded copies of the shards
//     against their summed PartitionTotals.
//   * Checkpoint -> Restore still round-trips.
//   * Producers racing heavy, sync and estimate stay clean (the TSan
//     leg runs this file: ctest label engine).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/sharded_engine.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"
#include "window/sliding_window_summary.h"

namespace l1hh {
namespace {

constexpr uint64_t kUniverse = uint64_t{1} << 16;

SummaryOptions Options(const std::string& name) {
  SummaryOptions options;
  options.epsilon = 0.02;
  options.phi = 0.05;
  options.delta = 0.05;
  options.universe_size = kUniverse;
  options.stream_length = 60000;
  options.seed = 5;
  if (IsWindowedSummaryName(name)) {
    // 1024-item buckets in an 8-bucket ring.
    options.window_size = 8192;
    options.window_buckets = 8;
  }
  return options;
}

struct Shape {
  size_t shards;
  size_t threads;  // 0 = one per shard
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << "K=" << shape.shards << " threads=" << shape.threads;
}

std::unique_ptr<ShardedEngine> MakeEngine(const std::string& name,
                                          Shape shape) {
  ShardedEngineOptions options;
  options.algorithm = name;
  options.summary = Options(name);
  options.num_shards = shape.shards;
  options.num_threads = shape.threads;
  options.max_producers = 3;
  return ShardedEngine::Create(options);
}

std::vector<uint64_t> Stream(uint64_t m, uint64_t seed) {
  return MakeZipfStream(kUniverse, 1.1, m, seed);
}

// The engine's partition, rebuilt outside it: shard s is a standalone
// summary fed, in stream order, the items ShardOf routes to s.  Windowed
// shards rotate together before the first item of every global bucket
// after the first, exactly where the engine's producers rotate them.
class ShadowShards {
 public:
  ShadowShards(const ShardedEngine& engine, const std::string& name)
      : engine_(engine) {
    for (size_t s = 0; s < engine.num_shards(); ++s) {
      shards_.push_back(MakeSummary(name, Options(name)));
      auto* window = dynamic_cast<SlidingWindowSummary*>(shards_[s].get());
      if (window != nullptr) {
        window->set_external_rotation(true);
        windows_.push_back(window);
      }
    }
  }

  void Feed(const std::vector<uint64_t>& items) {
    for (const uint64_t item : items) {
      if (!windows_.empty() && position_ != 0 &&
          position_ % windows_[0]->bucket_width() == 0) {
        for (SlidingWindowSummary* window : windows_) window->Rotate();
      }
      ++position_;
      shards_[engine_.ShardOf(item)]->Update(item);
    }
  }

  std::vector<uint8_t> Full(size_t s) const {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(SaveSummary(*shards_[s], &bytes).ok());
    return bytes;
  }

  std::vector<uint8_t> Delta(size_t s, const ShardBaseline& base) const {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(
        SaveSummaryDelta(*shards_[s], base.rotations, base.applied, &bytes)
            .ok());
    return bytes;
  }

  uint64_t applied(size_t s) const { return shards_[s]->ItemsProcessed(); }
  uint64_t rotations() const {
    return windows_.empty() ? 0 : windows_[0]->rotations();
  }

 private:
  const ShardedEngine& engine_;
  std::vector<std::unique_ptr<Summary>> shards_;
  std::vector<SlidingWindowSummary*> windows_;
  uint64_t position_ = 0;
};

// Captures against `*baselines` and checks every frame against the
// shadow: shard order, clean shards skipped, the clocks, and the bytes of
// a full or delta frame.  Then advances the baselines to the round.
void ExpectCaptureMatchesShadow(ShardedEngine& engine,
                                const ShadowShards& shadow, bool windowed,
                                std::vector<ShardBaseline>* baselines) {
  std::vector<ShardFrame> frames;
  uint64_t total = 0;
  ASSERT_TRUE(engine.CaptureFrames(*baselines, ShardedEngine::kMaxDeltaChain,
                                   &frames, &total)
                  .ok());
  EXPECT_EQ(total, engine.ItemsProcessed());
  baselines->resize(engine.num_shards());
  size_t next = 0;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ShardBaseline& base = (*baselines)[s];
    const bool clean = base.valid && base.applied == shadow.applied(s) &&
                       base.rotations == shadow.rotations();
    if (clean) {
      // A clean shard ships nothing, so the next frame is a later shard.
      EXPECT_TRUE(next == frames.size() || frames[next].shard > s);
      continue;
    }
    ASSERT_LT(next, frames.size());
    const ShardFrame& frame = frames[next++];
    EXPECT_EQ(frame.shard, s);
    EXPECT_EQ(frame.applied, shadow.applied(s));
    EXPECT_EQ(frame.rotations, shadow.rotations());
    EXPECT_EQ(frame.delta, windowed && base.valid);
    EXPECT_EQ(frame.bytes,
              frame.delta ? shadow.Delta(s, base) : shadow.Full(s));
    base.valid = true;
    base.applied = frame.applied;
    base.rotations = frame.rotations;
    base.chain = frame.delta ? base.chain + 1 : 0;
  }
  EXPECT_EQ(next, frames.size());
}

// Items only shards 0 and 1 own: after them every other shard is clean.
std::vector<uint64_t> ItemsOfFirstTwoShards(const ShardedEngine& engine,
                                            size_t n, uint64_t seed) {
  std::vector<uint64_t> items;
  for (const uint64_t item : Stream(4 * n, seed)) {
    if (engine.ShardOf(item) < 2 && items.size() < n) items.push_back(item);
  }
  return items;
}

class ParkedClosureTest
    : public testing::TestWithParam<std::tuple<std::string, Shape>> {};

TEST_P(ParkedClosureTest, CaptureFramesEqualEachShardsBytes) {
  const auto& [name, shape] = GetParam();
  const bool windowed = IsWindowedSummaryName(name);
  auto engine = MakeEngine(name, shape);
  ASSERT_NE(engine, nullptr);
  ShadowShards shadow(*engine, name);
  std::vector<ShardBaseline> baselines;

  // A cold round, then rounds that cross window rotations (every shard
  // dirty), then a round that touches shards 0 and 1 only and crosses no
  // bucket boundary, so shards 2.. are clean.
  uint64_t seed = 11;
  for (const uint64_t n : {20000, 1500, 3000}) {
    const auto items = Stream(n, seed++);
    engine->UpdateBatch(items);
    shadow.Feed(items);
    ExpectCaptureMatchesShadow(*engine, shadow, windowed, &baselines);
  }
  // 24,500 items so far: 50 more stay inside the bucket ending at 24,576.
  const auto few = ItemsOfFirstTwoShards(*engine, 50, seed++);
  engine->UpdateBatch(few);
  shadow.Feed(few);
  ExpectCaptureMatchesShadow(*engine, shadow, windowed, &baselines);
  // Nothing new: every shard is clean and the round is empty.
  std::vector<ShardFrame> frames;
  ASSERT_TRUE(engine->CaptureFrames(baselines, ShardedEngine::kMaxDeltaChain,
                                    &frames, nullptr)
                  .ok());
  EXPECT_TRUE(frames.empty());
}

TEST_P(ParkedClosureTest, HeavyHittersIsTheUnionOfShardReports) {
  const auto& [name, shape] = GetParam();
  auto engine = MakeEngine(name, shape);
  ASSERT_NE(engine, nullptr);
  engine->UpdateBatch(Stream(30000, 21));
  std::vector<ShardFrame> frames;
  ASSERT_TRUE(engine->CaptureFrames({}, 0, &frames, nullptr).ok());
  ASSERT_EQ(frames.size(), engine->num_shards());
  std::vector<std::unique_ptr<Summary>> copies;
  PartitionTotals totals;
  for (const ShardFrame& frame : frames) {
    Status status;
    copies.push_back(LoadSummary(frame.bytes, &status));
    ASSERT_TRUE(status.ok()) << status.ToString();
    totals.covered_items += copies.back()->CoveredItems();
    totals.samples += copies.back()->PartitionSamples();
  }
  EXPECT_EQ(engine->CoveredItems(), totals.covered_items);
  for (const double phi : {0.02, 0.05, 0.2}) {
    std::vector<ItemEstimate> expected;
    for (const auto& copy : copies) {
      const auto part = copy->PartitionHeavyHitters(phi, totals);
      expected.insert(expected.end(), part.begin(), part.end());
    }
    SortByEstimateDesc(expected);
    const std::vector<ItemEstimate> got = engine->HeavyHitters(phi);
    ASSERT_EQ(got.size(), expected.size()) << "phi " << phi;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].item, expected[i].item) << "phi " << phi;
      EXPECT_EQ(got[i].estimate, expected[i].estimate) << "phi " << phi;
    }
    for (const ItemEstimate& entry : got) {
      EXPECT_EQ(engine->Estimate(entry.item),
                copies[engine->ShardOf(entry.item)]->PartitionEstimate(
                    entry.item, totals));
    }
  }
}

TEST_P(ParkedClosureTest, CheckpointRestoreRoundTrips) {
  const auto& [name, shape] = GetParam();
  const std::string dir = testing::TempDir() + "/parked_closure_ckpt_" +
                          std::to_string(shape.shards) + "_" +
                          std::to_string(shape.threads) +
                          (IsWindowedSummaryName(name) ? "_w" : "");
  std::filesystem::remove_all(dir);
  auto engine = MakeEngine(name, shape);
  ASSERT_NE(engine, nullptr);
  engine->UpdateBatch(Stream(12000, 31));
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  engine->UpdateBatch(Stream(3000, 32));
  ASSERT_TRUE(engine->CheckpointDelta(dir).ok());

  Status status;
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->ItemsProcessed(), engine->ItemsProcessed());
  EXPECT_EQ(restored->ShardItemCounts(), engine->ShardItemCounts());
  const auto want = engine->HeavyHitters(0.05);
  const auto got = restored->HeavyHitters(0.05);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item);
    EXPECT_EQ(got[i].estimate, want[i].estimate);
  }
  std::vector<ShardFrame> a, b;
  ASSERT_TRUE(engine->CaptureFrames({}, 0, &a, nullptr).ok());
  ASSERT_TRUE(restored->CaptureFrames({}, 0, &b, nullptr).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) EXPECT_EQ(a[s].bytes, b[s].bytes);
  std::filesystem::remove_all(dir);
}

// Two producer handles ingest while the query thread keeps asking for
// heavy, sync (captures against advancing baselines) and estimates; at
// the end the engine holds every item and still matches its frames.
TEST_P(ParkedClosureTest, ProducersRacingQueriesStayClean) {
  const auto& [name, shape] = GetParam();
  auto engine = MakeEngine(name, shape);
  ASSERT_NE(engine, nullptr);
  constexpr size_t kProducers = 2;
  constexpr uint64_t kPerProducer = 20000;
  std::atomic<bool> start{false};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto handle = engine->RegisterProducer();
      ASSERT_NE(handle, nullptr);
      const auto items = Stream(kPerProducer, 40 + p);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < items.size(); i += 500) {
        handle->UpdateBatch(std::span<const uint64_t>(items).subspan(
            i, std::min<size_t>(500, items.size() - i)));
      }
    });
  }
  start.store(true, std::memory_order_release);
  std::vector<ShardBaseline> baselines;
  uint64_t last_total = 0;
  for (int round = 0; round < 12; ++round) {
    const auto report = engine->HeavyHitters(0.05);
    for (size_t i = 1; i < report.size(); ++i) {
      EXPECT_GE(report[i - 1].estimate, report[i].estimate);
    }
    std::vector<ShardFrame> frames;
    uint64_t total = 0;
    ASSERT_TRUE(engine->CaptureFrames(baselines, ShardedEngine::kMaxDeltaChain,
                                      &frames, &total)
                    .ok());
    EXPECT_GE(total, last_total);
    last_total = total;
    baselines.resize(engine->num_shards());
    for (size_t i = 0; i < frames.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(frames[i - 1].shard, frames[i].shard);
      }
      ShardBaseline& base = baselines[frames[i].shard];
      base.valid = true;
      base.applied = frames[i].applied;
      base.rotations = frames[i].rotations;
      base.chain = frames[i].delta ? base.chain + 1 : 0;
    }
    std::vector<uint64_t> probes;
    for (const ItemEstimate& entry : report) probes.push_back(entry.item);
    EXPECT_EQ(engine->EstimateBatch(probes).size(), probes.size());
  }
  for (std::thread& producer : producers) producer.join();
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), kProducers * kPerProducer);
  if (!IsWindowedSummaryName(name)) {
    EXPECT_EQ(engine->CoveredItems(), kProducers * kPerProducer);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParkedClosureTest,
    testing::Combine(testing::Values(std::string("bdw_optimal"),
                                     std::string("windowed:bdw_optimal"),
                                     std::string("misra_gries")),
                     testing::Values(Shape{1, 0}, Shape{4, 0}, Shape{5, 2})),
    [](const testing::TestParamInfo<ParkedClosureTest::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      const Shape shape = std::get<1>(info.param);
      return name + "_K" + std::to_string(shape.shards) + "_T" +
             std::to_string(shape.threads);
    });

}  // namespace
}  // namespace l1hh
