// The K x P ring grid's concurrency battery (ctest label: engine; CI
// also runs it under TSan, where it is the main event).  Properties:
//
//   * P producers ingesting a DISJOINT ITEM PARTITION of a stream are
//     equivalent to one producer ingesting the whole stream — exactly
//     (report-identical) for the exact structure, within the (eps, phi)
//     contract for every mergeable sketch (each shard receives the same
//     multiset either way; only the interleaving differs).
//   * Producer handles can be registered and released mid-stream, slots
//     are recycled, and exhaustion is a clean FailedPrecondition.
//   * Flush and queries from a non-producer thread during live ingest
//     see quiescent, monotone state (snapshot isolation).
//   * Tiny rings with P > 1 producers exercise backpressure on every
//     push without losing or duplicating a single item.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "stream/stream_generator.h"
#include "summary/evaluation.h"
#include "summary/exact_counter.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

ShardedEngineOptions GridOptions(const std::string& algorithm, size_t shards,
                                 size_t producers, uint64_t stream_length) {
  ShardedEngineOptions o;
  o.algorithm = algorithm;
  o.num_shards = shards;
  o.max_producers = producers + 1;  // + the engine's own slot 0
  o.summary.epsilon = 0.02;
  o.summary.phi = 0.05;
  o.summary.delta = 0.05;
  o.summary.universe_size = uint64_t{1} << 20;
  o.summary.stream_length = stream_length;
  o.summary.seed = 7;
  return o;
}

PlantedStream TestStream(uint64_t m = 60000) {
  PlantedSpec spec;
  spec.planted_fractions = {0.20, 0.12, 0.08};
  spec.universe_size = uint64_t{1} << 20;
  spec.stream_length = m;
  spec.order = StreamOrder::kShuffled;
  return MakePlantedStream(spec, /*seed=*/11);
}

bool Reported(const std::vector<ItemEstimate>& report, uint64_t item) {
  return std::any_of(report.begin(), report.end(),
                     [item](const ItemEstimate& e) { return e.item == item; });
}

// Splits a stream into P substreams by ITEM IDENTITY (id mod P), so no
// two producers ever ingest occurrences of the same item and each item's
// occurrence order is preserved within its producer.
std::vector<std::vector<uint64_t>> PartitionByItem(
    const std::vector<uint64_t>& stream, size_t parts) {
  std::vector<std::vector<uint64_t>> partition(parts);
  for (const uint64_t item : stream) {
    partition[static_cast<size_t>(item % parts)].push_back(item);
  }
  return partition;
}

// Runs `partition.size()` concurrent producers, one per substream.
void IngestConcurrently(ShardedEngine& engine,
                        const std::vector<std::vector<uint64_t>>& partition) {
  std::vector<std::thread> threads;
  threads.reserve(partition.size());
  for (const auto& chunk : partition) {
    Status status;
    auto producer = engine.RegisterProducer(&status);
    ASSERT_NE(producer, nullptr) << status.ToString();
    threads.emplace_back(
        [&chunk, producer = std::move(producer)]() mutable {
          // Mix per-item and batched pushes so both fast paths race.
          const size_t half = chunk.size() / 2;
          for (size_t i = 0; i < half; ++i) producer->Update(chunk[i]);
          producer->UpdateBatch(
              {chunk.data() + half, chunk.size() - half});
          producer.reset();
        });
  }
  for (auto& t : threads) t.join();
}

// --------------------------------------------------------------------------
// Equivalence: P producers over a disjoint item partition == 1 producer
// == 1 summary.

TEST(MultiProducerTest, DisjointPartitionMatchesSingleProducerExactly) {
  const auto planted = TestStream();
  const auto partition = PartitionByItem(planted.items, 4);

  auto grid = ShardedEngine::Create(
      GridOptions("exact", 4, 4, planted.items.size()));
  ASSERT_NE(grid, nullptr);
  IngestConcurrently(*grid, partition);
  grid->Flush();
  ASSERT_EQ(grid->ItemsProcessed(), planted.items.size());

  // Reference 1: the same engine shape fed by the single controller.
  auto single = ShardedEngine::Create(
      GridOptions("exact", 4, 0, planted.items.size()));
  ASSERT_NE(single, nullptr);
  single->UpdateBatch(planted.items);

  // Reference 2: one bare summary, no engine at all.
  ExactCounter truth;
  for (const uint64_t x : planted.items) truth.Insert(x);

  const auto report = grid->HeavyHitters(0.05);
  const auto report_single = single->HeavyHitters(0.05);
  const auto report_truth = truth.HeavyHitters(
      static_cast<uint64_t>(0.05 * static_cast<double>(planted.items.size())) +
      1);
  ASSERT_EQ(report.size(), report_single.size());
  ASSERT_EQ(report.size(), report_truth.size());
  for (size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(report[i].item, report_single[i].item);
    EXPECT_EQ(report[i].estimate, report_single[i].estimate);
    EXPECT_EQ(report[i].item, report_truth[i].item);
    EXPECT_EQ(report[i].estimate,
              static_cast<double>(report_truth[i].count));
  }
  // Point queries are exact too.
  for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
    EXPECT_EQ(grid->Estimate(planted.planted_ids[i]),
              static_cast<double>(planted.planted_counts[i]));
  }
}

TEST(MultiProducerTest, EveryMergeableSketchKeepsTheContractUnderP4) {
  const auto planted = TestStream();
  const double m = static_cast<double>(planted.items.size());
  const auto options =
      GridOptions("exact", 4, 4, planted.items.size()).summary;
  // Every registered structure shards (the test name predates that).
  for (const std::string& name : RegisteredSummaryNames()) {
    const SummaryRunResult r = RunMultiProducerSummary(
        name, options, planted.items, /*phi=*/0.05, /*num_shards=*/4,
        /*num_producers=*/4);
    ASSERT_TRUE(r.ok) << name << ": " << r.error;
    // Definition 1: every planted (phi + eps)-heavy item is recalled and
    // nothing lighter than (phi - eps) m is reported.
    EXPECT_EQ(r.recalled, r.true_heavies) << name;
    EXPECT_EQ(r.precision, 1.0) << name;
    // Estimates stay within the merged-summary error budget (1.5x covers
    // bdw_optimal's sharded epoch schedule, as in sharded_engine_test).
    EXPECT_LE(r.max_abs_err, 1.5 * 0.02 * m + 1.0) << name;
  }
}

// --------------------------------------------------------------------------
// Slot lifecycle.

TEST(MultiProducerTest, RegisterUnregisterMidStreamRecyclesSlots) {
  auto engine = ShardedEngine::Create(GridOptions("exact", 2, 2, 10000));
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->max_producers(), 3u);
  EXPECT_EQ(engine->active_producers(), 0u);

  Status status;
  auto a = engine->RegisterProducer(&status);
  ASSERT_NE(a, nullptr);
  auto b = engine->RegisterProducer(&status);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(engine->active_producers(), 2u);

  // Both slots live: the next claim must fail cleanly...
  EXPECT_EQ(engine->RegisterProducer(&status), nullptr);
  EXPECT_FALSE(status.ok());

  a->Update(1, 10);
  b->Update(2, 20);
  a.reset();  // ...until a handle is released mid-stream.
  EXPECT_EQ(engine->active_producers(), 1u);
  auto c = engine->RegisterProducer(&status);
  ASSERT_NE(c, nullptr) << status.ToString();
  c->Update(3, 30);
  // The controller's slot 0 keeps working alongside live handles.
  engine->Update(4, 40);
  b.reset();
  c.reset();

  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), 100u);
  EXPECT_EQ(engine->Estimate(1), 10.0);
  EXPECT_EQ(engine->Estimate(2), 20.0);
  EXPECT_EQ(engine->Estimate(3), 30.0);
  EXPECT_EQ(engine->Estimate(4), 40.0);
}

TEST(MultiProducerTest, DefaultEngineHasNoExternalSlots) {
  auto engine = ShardedEngine::Create(
      GridOptions("exact", 2, /*producers=*/0, 1000));
  ASSERT_NE(engine, nullptr);
  Status status;
  EXPECT_EQ(engine->RegisterProducer(&status), nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(MultiProducerTest, RejectsZeroAndAbsurdMaxProducers) {
  auto opts = GridOptions("exact", 2, 0, 1000);
  opts.max_producers = 0;
  Status status;
  EXPECT_EQ(ShardedEngine::Create(opts, &status), nullptr);
  EXPECT_FALSE(status.ok());
  opts.max_producers = size_t{1} << 20;  // would be 2^20 rings per shard
  EXPECT_EQ(ShardedEngine::Create(opts, &status), nullptr);
  EXPECT_FALSE(status.ok());
}

// --------------------------------------------------------------------------
// Flush / query quiescence during live ingest (the TSan centerpiece:
// queries from a non-producer thread race two producer threads).

TEST(MultiProducerTest, FlushDuringIngestSeesQuiescentMonotoneState) {
  constexpr uint64_t kPerProducer = 40000;
  auto engine = ShardedEngine::Create(
      GridOptions("exact", 4, 2, 2 * kPerProducer));
  ASSERT_NE(engine, nullptr);

  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < 2; ++p) {
    Status status;
    auto producer = engine->RegisterProducer(&status);
    ASSERT_NE(producer, nullptr) << status.ToString();
    producers.emplace_back(
        [p, producer = std::move(producer)]() mutable {
          // Producer p ingests items {2p, 2p+1}: known final counts.
          for (uint64_t i = 0; i < kPerProducer; ++i) {
            producer->Update(2 * p + (i & 1));
          }
          producer.reset();
        });
  }

  // Meanwhile, hammer the read side from this (non-producer) thread.
  uint64_t last_seen = 0;
  while (!done.load(std::memory_order_relaxed)) {
    engine->Flush();
    const uint64_t now = engine->ItemsProcessed();
    EXPECT_GE(now, last_seen);  // applied count is monotone
    last_seen = now;
    // A report taken mid-ingest must be internally consistent: only the
    // four planted items can ever appear, with sane partial counts.
    for (const auto& hh : engine->HeavyHitters(0.05)) {
      EXPECT_LT(hh.item, 4u);
      EXPECT_LE(hh.estimate, static_cast<double>(kPerProducer));
    }
    if (now >= 2 * kPerProducer) done.store(true);
  }
  for (auto& t : producers) t.join();

  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), 2 * kPerProducer);
  for (uint64_t item = 0; item < 4; ++item) {
    EXPECT_EQ(engine->Estimate(item), kPerProducer / 2.0);
  }
}

// --------------------------------------------------------------------------
// Backpressure: tiny rings, P > 1.

TEST(MultiProducerTest, TinyRingBackpressureWithThreeProducersLosesNothing) {
  const auto planted = TestStream(90000);
  auto opts = GridOptions("exact", 4, 3, planted.items.size());
  opts.queue_capacity = 64;  // force constant ring-full stalls on 12 rings
  opts.drain_batch = 16;
  opts.num_threads = 2;
  auto engine = ShardedEngine::Create(opts);
  ASSERT_NE(engine, nullptr);

  // Contiguous thirds (NOT item-disjoint): heavies race into the same
  // shard ring set from all three producers at once.
  std::vector<std::vector<uint64_t>> thirds(3);
  const size_t chunk = planted.items.size() / 3;
  for (size_t p = 0; p < 3; ++p) {
    const size_t first = p * chunk;
    const size_t last = p == 2 ? planted.items.size() : first + chunk;
    thirds[p].assign(planted.items.begin() + static_cast<long>(first),
                     planted.items.begin() + static_cast<long>(last));
  }
  IngestConcurrently(*engine, thirds);

  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), planted.items.size());
  for (size_t p = 0; p < planted.planted_ids.size(); ++p) {
    EXPECT_EQ(engine->Estimate(planted.planted_ids[p]),
              static_cast<double>(planted.planted_counts[p]));
  }
  EXPECT_TRUE(Reported(engine->HeavyHitters(0.05), planted.planted_ids[0]));
}

// --------------------------------------------------------------------------
// Restore honors exec.max_producers (the checkpoint clock test lives in
// sharded_engine_test; here only the slot plumbing).

TEST(MultiProducerTest, RestoreGrantsProducerSlotsFromExecOptions) {
  const std::string dir =
      testing::TempDir() + "/multi_producer_restore_ckpt";
  {
    auto engine = ShardedEngine::Create(GridOptions("exact", 2, 1, 1000));
    ASSERT_NE(engine, nullptr);
    engine->Update(9, 5);
    ASSERT_TRUE(engine->Checkpoint(dir).ok());
  }
  ShardedEngineOptions exec;
  exec.max_producers = 3;  // two external slots, regardless of the source
  Status status;
  auto restored = ShardedEngine::Restore(dir, exec, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->max_producers(), 3u);
  auto a = restored->RegisterProducer(&status);
  ASSERT_NE(a, nullptr);
  auto b = restored->RegisterProducer(&status);
  ASSERT_NE(b, nullptr);
  a->Update(9, 2);
  b->Update(9, 3);
  a.reset();
  b.reset();
  restored->Flush();
  EXPECT_EQ(restored->Estimate(9), 10.0);
}

}  // namespace
}  // namespace l1hh
