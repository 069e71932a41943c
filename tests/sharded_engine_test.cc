// ShardedEngine correctness: routing, quiescence, merged-view semantics,
// backpressure under a tiny ring, construction rules, and non-mergeable
// structures sharding and replicating like any other.  These are the
// concurrency tests CI also runs under ASan+UBSan (ctest label: engine).
#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/spsc_ring.h"
#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

ShardedEngineOptions EngineOptions(const std::string& algorithm,
                                   size_t shards, uint64_t stream_length) {
  ShardedEngineOptions o;
  o.algorithm = algorithm;
  o.num_shards = shards;
  o.summary.epsilon = 0.02;
  o.summary.phi = 0.05;
  o.summary.delta = 0.05;
  o.summary.universe_size = uint64_t{1} << 20;
  o.summary.stream_length = stream_length;
  o.summary.seed = 7;
  return o;
}

PlantedStream TestStream(uint64_t m = 60000,
                         StreamOrder order = StreamOrder::kShuffled) {
  PlantedSpec spec;
  spec.planted_fractions = {0.20, 0.12, 0.08};
  spec.universe_size = uint64_t{1} << 20;
  spec.stream_length = m;
  spec.order = order;
  return MakePlantedStream(spec, /*seed=*/11);
}

bool Reported(const std::vector<ItemEstimate>& report, uint64_t item) {
  return std::any_of(report.begin(), report.end(),
                     [item](const ItemEstimate& e) { return e.item == item; });
}

// --------------------------------------------------------------------------
// SpscRing basics (single-threaded edge cases; the engine tests below
// exercise the cross-thread path).

TEST(SpscRingTest, PushPopRoundTripWithWraparound) {
  SpscRing<uint64_t> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  uint64_t out[8];
  for (uint64_t round = 0; round < 10; ++round) {
    // Fill to capacity, then one more push must fail.
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(ring.TryPush(round * 100 + i));
    }
    EXPECT_FALSE(ring.TryPush(999));
    EXPECT_EQ(ring.ApproxSize(), 8u);
    // Drain in two batches, preserving order.
    EXPECT_EQ(ring.PopBatch(out, 5), 5u);
    for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], round * 100 + i);
    EXPECT_EQ(ring.PopBatch(out, 8), 3u);
    for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(out[i], round * 100 + 5 + i);
    EXPECT_EQ(ring.PopBatch(out, 8), 0u);
  }
}

TEST(SpscRingTest, PushSomeAcceptsPartialBatches) {
  SpscRing<uint64_t> ring(4);
  const uint64_t data[6] = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.PushSome(data, 6), 4u);  // only capacity fits
  uint64_t out[6];
  EXPECT_EQ(ring.PopBatch(out, 2), 2u);
  EXPECT_EQ(ring.PushSome(data + 4, 2), 2u);  // room again after the pop
  EXPECT_EQ(ring.PopBatch(out, 6), 4u);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[3], 6u);
}

// --------------------------------------------------------------------------
// Engine construction rules.

TEST(ShardedEngineTest, RejectsUnknownAlgorithmAndZeroShards) {
  Status status;
  EXPECT_EQ(ShardedEngine::Create(EngineOptions("no_such_algo", 2, 1000),
                                  &status),
            nullptr);
  EXPECT_FALSE(status.ok());
  auto opts = EngineOptions("misra_gries", 1, 1000);
  opts.num_shards = 0;
  EXPECT_EQ(ShardedEngine::Create(opts, &status), nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(ShardedEngineTest, RefusesShardCountsAboveTheCap) {
  // Only cap + 1: it is refused before any ring or worker exists, while an
  // engine near the cap would start that many threads.
  const size_t over = ShardedEngine::kMaxShards + 1;
  Status status;
  auto opts = EngineOptions("misra_gries", over, 1000);
  EXPECT_EQ(ShardedEngine::Create(opts, &status), nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(ShardedEngine::FromFrames({}, over, opts, &status), nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(ShardedEngineTest, NonMergeableShardsRoundTripThroughFrames) {
  // No engine path merges, so a K > 1 state of a structure without Merge
  // is captured, rebuilt (FromFrames) and replaced (ApplyFrames) like any
  // other, and the replica answers exactly as the primary.
  const auto planted = TestStream();
  const size_t half = planted.items.size() / 2;
  for (const char* name : {"lossy_counting", "sticky_sampling"}) {
    SCOPED_TRACE(name);
    Status status;
    auto primary = ShardedEngine::Create(
        EngineOptions(name, 4, planted.items.size()), &status);
    ASSERT_NE(primary, nullptr) << status.ToString();
    primary->UpdateBatch({planted.items.data(), half});
    std::vector<ShardFrame> frames;
    ASSERT_TRUE(primary->CaptureFrames({}, 0, &frames, nullptr).ok());
    auto replica = ShardedEngine::FromFrames(frames, 4,
                                             ShardedEngineOptions{}, &status);
    ASSERT_NE(replica, nullptr) << status.ToString();

    primary->UpdateBatch({planted.items.data() + half,
                          planted.items.size() - half});
    frames.clear();
    ASSERT_TRUE(primary->CaptureFrames({}, 0, &frames, nullptr).ok());
    ASSERT_TRUE(replica->ApplyFrames(frames).ok());
    EXPECT_EQ(replica->ItemsProcessed(), planted.items.size());
    const auto expected = primary->HeavyHitters(0.05);
    const auto got = replica->HeavyHitters(0.05);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].item, expected[i].item);
      EXPECT_EQ(got[i].estimate, expected[i].estimate);
    }
    for (const uint64_t id : planted.planted_ids) {
      EXPECT_TRUE(Reported(got, id)) << "missed " << id;
    }
  }
}

TEST(ShardedEngineTest, ZeroDrainBatchIsClampedNotHung) {
  auto opts = EngineOptions("exact", 2, 100);
  opts.drain_batch = 0;  // would spin forever if taken literally
  auto engine = ShardedEngine::Create(opts);
  ASSERT_NE(engine, nullptr);
  engine->Update(1);
  engine->Update(1);
  engine->Flush();
  EXPECT_EQ(engine->Estimate(1), 2.0);
}

TEST(ShardedEngineTest, ThreadCountIsClampedToShardCount) {
  auto opts = EngineOptions("misra_gries", 3, 1000);
  opts.num_threads = 16;
  auto engine = ShardedEngine::Create(opts);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->num_shards(), 3u);
  EXPECT_EQ(engine->num_threads(), 3u);
}

// --------------------------------------------------------------------------
// Routing and quiescence.

TEST(ShardedEngineTest, RoutingIsStableAndCountsAddUp) {
  const auto planted = TestStream();
  auto engine = ShardedEngine::Create(
      EngineOptions("exact", 4, planted.items.size()));
  ASSERT_NE(engine, nullptr);
  engine->UpdateBatch(planted.items);
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), planted.items.size());

  const auto counts = engine->ShardItemCounts();
  ASSERT_EQ(counts.size(), 4u);
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  EXPECT_EQ(total, planted.items.size());
  // Every occurrence of an item must land on the same shard.
  for (const uint64_t id : planted.planted_ids) {
    EXPECT_EQ(engine->ShardOf(id), engine->ShardOf(id));
    EXPECT_LT(engine->ShardOf(id), 4u);
  }
}

// Update is a one-item column and UpdateColumn partitions whole slices;
// both must put every item on ShardOf(item).  K = 3 takes the modulo
// sweep, K = 4 the mask sweep.  One item id at a time, so a misrouted
// item shows up as the wrong shard's count moving.
TEST(ShardedEngineTest, UpdateAndUpdateColumnLandOnShardOf) {
  const auto planted = TestStream(6000);
  for (const size_t shards : {size_t{3}, size_t{4}}) {
    auto engine = ShardedEngine::Create(
        EngineOptions("exact", shards, planted.items.size()));
    ASSERT_NE(engine, nullptr);
    std::vector<uint64_t> expected(shards, 0);
    for (size_t i = 0; i < 300; ++i) {
      const uint64_t x = planted.items[i];
      const uint64_t pair[2] = {x, x};
      engine->Update(x);
      engine->UpdateColumn(pair, 2);  // n > 1: the partition sweep
      engine->Flush();
      expected[engine->ShardOf(x)] += 3;
      ASSERT_EQ(engine->ShardItemCounts(), expected)
          << "K=" << shards << " item " << x;
    }
  }
}

TEST(ShardedEngineTest, ExactShardingMatchesGroundTruth) {
  const auto planted = TestStream();
  auto engine = ShardedEngine::Create(
      EngineOptions("exact", 4, planted.items.size()));
  ASSERT_NE(engine, nullptr);
  engine->UpdateBatch(planted.items);

  ExactCounter truth;
  for (const uint64_t x : planted.items) truth.Insert(x);

  // Point queries: exact sharded counting is exact counting.
  for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
    EXPECT_EQ(engine->Estimate(planted.planted_ids[i]),
              static_cast<double>(planted.planted_counts[i]));
  }
  // The merged report equals the ground-truth report element-wise.
  const double m = static_cast<double>(planted.items.size());
  const auto report = engine->HeavyHitters(0.05);
  const auto expected =
      truth.HeavyHitters(static_cast<uint64_t>(0.05 * m) + 1);
  ASSERT_EQ(report.size(), expected.size());
  for (size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(report[i].item, expected[i].item);
    EXPECT_EQ(report[i].estimate, static_cast<double>(expected[i].count));
  }
}

TEST(ShardedEngineTest, MisraGriesShardingKeepsTheContract) {
  for (const StreamOrder order :
       {StreamOrder::kShuffled, StreamOrder::kHeaviesLast,
        StreamOrder::kBursty}) {
    const auto planted = TestStream(60000, order);
    auto engine = ShardedEngine::Create(
        EngineOptions("misra_gries", 4, planted.items.size()));
    ASSERT_NE(engine, nullptr);
    engine->UpdateBatch(planted.items);

    const double m = static_cast<double>(planted.items.size());
    const auto report = engine->HeavyHitters(0.05);
    for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
      EXPECT_TRUE(Reported(report, planted.planted_ids[i]))
          << "order " << static_cast<int>(order) << " missed planted item "
          << planted.planted_ids[i];
      // MG undercounts by <= eps*m on the merged stream.
      EXPECT_NEAR(engine->Estimate(planted.planted_ids[i]),
                  static_cast<double>(planted.planted_counts[i]),
                  0.02 * m + 1.0);
    }
  }
}

// The flagship configuration ISSUE 3 unlocks: the paper's space-optimal
// Algorithm 2 across 4 shards.  Every shard walks the shared epoch
// schedule over its own substream; the merged view must keep the
// (eps, phi) contract across stream orders, including heavies-last
// (shards park at different epochs, so reconciliation really fires).
TEST(ShardedEngineTest, BdwOptimalShardingKeepsTheContract) {
  for (const StreamOrder order :
       {StreamOrder::kShuffled, StreamOrder::kHeaviesLast,
        StreamOrder::kBursty}) {
    const auto planted = TestStream(60000, order);
    auto engine = ShardedEngine::Create(
        EngineOptions("bdw_optimal", 4, planted.items.size()));
    ASSERT_NE(engine, nullptr)
        << "engine refused bdw_optimal at K > 1 (order "
        << static_cast<int>(order) << ")";
    engine->UpdateBatch(planted.items);

    const double m = static_cast<double>(planted.items.size());
    const auto report = engine->HeavyHitters(0.05);
    for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
      EXPECT_TRUE(Reported(report, planted.planted_ids[i]))
          << "order " << static_cast<int>(order) << " missed planted item "
          << planted.planted_ids[i];
      // Sharded accelerated counters sit lower on the epoch schedule than
      // a single instance, so allow 1.5x the single-instance tolerance.
      EXPECT_NEAR(engine->Estimate(planted.planted_ids[i]),
                  static_cast<double>(planted.planted_counts[i]),
                  1.5 * 0.02 * m);
    }
  }
}

TEST(ShardedEngineTest, BackpressureOnTinyRingsLosesNothing) {
  const auto planted = TestStream(120000);
  auto opts = EngineOptions("exact", 4, planted.items.size());
  opts.queue_capacity = 64;  // force constant ring-full stalls
  opts.drain_batch = 16;
  opts.num_threads = 2;  // two shards per worker
  auto engine = ShardedEngine::Create(opts);
  ASSERT_NE(engine, nullptr);
  // Mix per-item and batched ingestion across many small chunks.
  const auto& items = planted.items;
  size_t i = 0;
  while (i < items.size()) {
    const size_t chunk = std::min<size_t>(1009, items.size() - i);
    if (i % 3 == 0) {
      for (size_t j = 0; j < chunk; ++j) engine->Update(items[i + j]);
    } else {
      engine->UpdateBatch({items.data() + i, chunk});
    }
    i += chunk;
  }
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), items.size());
  for (size_t p = 0; p < planted.planted_ids.size(); ++p) {
    EXPECT_EQ(engine->Estimate(planted.planted_ids[p]),
              static_cast<double>(planted.planted_counts[p]));
  }
}

TEST(ShardedEngineTest, WeightedUpdateMatchesRepeated) {
  auto engine = ShardedEngine::Create(EngineOptions("exact", 2, 100));
  ASSERT_NE(engine, nullptr);
  engine->Update(5, 7);
  engine->Update(9);
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), 8u);
  EXPECT_EQ(engine->Estimate(5), 7.0);
  EXPECT_EQ(engine->Estimate(9), 1.0);
}

// --------------------------------------------------------------------------
// Merged view (a one-shot merge, rebuilt on every call).

TEST(ShardedEngineTest, MergedViewReflectsNewItemsAfterCacheHit) {
  auto engine = ShardedEngine::Create(EngineOptions("exact", 4, 1000));
  ASSERT_NE(engine, nullptr);
  std::vector<uint64_t> first(300, 42);
  engine->UpdateBatch(first);
  EXPECT_EQ(engine->HeavyHitters(0.05).size(), 1u);
  // No new items: the engine refills the same view object.
  const Summary& view1 = engine->MergedView();
  const Summary& view2 = engine->MergedView();
  EXPECT_EQ(&view1, &view2);
  EXPECT_EQ(view1.ItemsProcessed(), 300u);
  // New items must show up in the next merge.
  std::vector<uint64_t> second(700, 43);
  engine->UpdateBatch(second);
  const Summary& view3 = engine->MergedView();
  EXPECT_EQ(view3.ItemsProcessed(), 1000u);
  const auto report = engine->HeavyHitters(0.05);
  EXPECT_TRUE(Reported(report, 42));
  EXPECT_TRUE(Reported(report, 43));
}

TEST(ShardedEngineTest, SingleShardServesAnyAlgorithmWithoutMerge) {
  const auto planted = TestStream();
  for (const char* name : {"lossy_counting", "bdw_optimal"}) {
    auto engine = ShardedEngine::Create(
        EngineOptions(name, 1, planted.items.size()));
    ASSERT_NE(engine, nullptr) << name;
    engine->UpdateBatch(planted.items);
    const auto report = engine->HeavyHitters(0.05);
    for (const uint64_t id : planted.planted_ids) {
      EXPECT_TRUE(Reported(report, id)) << name << " missed " << id;
    }
  }
}

TEST(ShardedEngineTest, MemoryUsageCountsShardsAndRings) {
  auto engine = ShardedEngine::Create(EngineOptions("misra_gries", 4, 1000));
  ASSERT_NE(engine, nullptr);
  auto single = MakeSummary("misra_gries", EngineOptions("misra_gries", 4,
                                                         1000)
                                               .summary);
  ASSERT_NE(single, nullptr);
  // Four shard summaries + four rings must dominate one bare summary.
  EXPECT_GT(engine->MemoryUsageBytes(), single->MemoryUsageBytes());
}

// --------------------------------------------------------------------------
// K x P ring grid: multi-producer variants of the suites above, so the
// grid inherits the same contracts the single-producer controller met.

TEST(ShardedEngineTest, MemoryUsageCountsTheFullProducerGrid) {
  auto narrow_opts = EngineOptions("misra_gries", 4, 1000);
  auto wide_opts = narrow_opts;
  wide_opts.max_producers = 5;
  auto narrow = ShardedEngine::Create(narrow_opts);
  auto wide = ShardedEngine::Create(wide_opts);
  ASSERT_NE(narrow, nullptr);
  ASSERT_NE(wide, nullptr);
  // Five producer slots mean 5 rings per shard instead of 1; the
  // accounting must charge for the whole K x P grid, not just column 0.
  EXPECT_GT(wide->MemoryUsageBytes(), narrow->MemoryUsageBytes());
  EXPECT_EQ(wide->max_producers(), 5u);
  EXPECT_EQ(narrow->max_producers(), 1u);
}

// The flagship configuration under concurrent ingest: the paper's
// space-optimal Algorithm 2 across 4 shards fed by 4 racing producers.
// Shard routing is by item hash, so each shard receives the same item
// MULTISET as in the single-producer run — only the within-shard order
// changes — and the (eps, phi) contract is order-insensitive.
TEST(ShardedEngineTest, BdwOptimalGridKeepsTheContractUnderFourProducers) {
  const auto planted = TestStream();
  auto opts = EngineOptions("bdw_optimal", 4, planted.items.size());
  opts.max_producers = 5;  // 4 external + slot 0
  opts.num_threads = 2;
  Status status;
  auto engine = ShardedEngine::Create(opts, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const auto& items = planted.items;
  std::vector<std::thread> threads;
  for (size_t p = 0; p < 4; ++p) {
    auto producer = engine->RegisterProducer(&status);
    ASSERT_NE(producer, nullptr) << status.ToString();
    const size_t begin = p * items.size() / 4;
    const size_t end = (p + 1) * items.size() / 4;
    threads.emplace_back(
        [&items, begin, end, producer = std::move(producer)]() mutable {
          size_t i = begin;
          while (i < end) {
            const size_t chunk = std::min<size_t>(1009, end - i);
            producer->UpdateBatch({items.data() + i, chunk});
            i += chunk;
          }
          producer.reset();
        });
  }
  for (auto& thread : threads) thread.join();
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), items.size());
  EXPECT_EQ(engine->active_producers(), 0u);

  const double m = static_cast<double>(items.size());
  const auto report = engine->HeavyHitters(0.05);
  for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
    EXPECT_TRUE(Reported(report, planted.planted_ids[i]))
        << "grid run missed planted item " << planted.planted_ids[i];
    EXPECT_NEAR(engine->Estimate(planted.planted_ids[i]),
                static_cast<double>(planted.planted_counts[i]),
                1.5 * 0.02 * m);
  }
}

// Backpressure on the grid: tiny rings, three producers racing the
// controller slot, exact structure — nothing may be dropped and the
// final counts must be exact despite constant ring-full stalls on every
// column of the grid.
TEST(ShardedEngineTest, TinyRingGridBackpressureLosesNothing) {
  const auto planted = TestStream(90000);
  auto opts = EngineOptions("exact", 4, planted.items.size());
  opts.queue_capacity = 64;
  opts.drain_batch = 16;
  opts.num_threads = 2;
  opts.max_producers = 4;  // 3 external + slot 0
  Status status;
  auto engine = ShardedEngine::Create(opts, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const auto& items = planted.items;
  const size_t third = items.size() / 3;
  std::vector<std::thread> threads;
  for (size_t p = 0; p < 3; ++p) {
    auto producer = engine->RegisterProducer(&status);
    ASSERT_NE(producer, nullptr) << status.ToString();
    const size_t begin = p * third;
    const size_t end = p == 2 ? items.size() : (p + 1) * third;
    threads.emplace_back(
        [&items, begin, end, producer = std::move(producer)]() mutable {
          // Mix per-item and batched pushes, like the single-producer
          // backpressure test above.
          size_t i = begin;
          while (i < end) {
            const size_t chunk = std::min<size_t>(509, end - i);
            if (i % 2 == 0) {
              for (size_t j = 0; j < chunk; ++j) {
                producer->Update(items[i + j]);
              }
            } else {
              producer->UpdateBatch({items.data() + i, chunk});
            }
            i += chunk;
          }
          producer.reset();
        });
  }
  for (auto& thread : threads) thread.join();
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), items.size());
  for (size_t p = 0; p < planted.planted_ids.size(); ++p) {
    EXPECT_EQ(engine->Estimate(planted.planted_ids[p]),
              static_cast<double>(planted.planted_counts[p]));
  }
}

}  // namespace
}  // namespace l1hh
