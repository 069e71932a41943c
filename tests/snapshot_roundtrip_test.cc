// Snapshot subsystem contract (ctest label `io`):
//   * save -> load preserves Estimate / HeavyHitters / MemoryUsageBytes
//     EXACTLY for every registered algorithm;
//   * save -> load -> continue ingesting is bit-identical to an
//     uninterrupted run (PRNG state travels with the snapshot);
//   * merging loaded snapshots == merging the in-memory summaries;
//   * ShardedEngine::Checkpoint -> Restore -> continue == uninterrupted;
//   * corrupted / truncated / version-bumped containers are rejected with
//     a clean Status — never a crash (run under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/sharded_engine.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary_test_util.h"
#include "util/crc32.h"
#include "util/random.h"

namespace l1hh {
namespace {

SummaryOptions Options() {
  SummaryOptions o;
  o.epsilon = 0.02;
  o.phi = 0.05;
  o.delta = 0.1;
  o.universe_size = uint64_t{1} << 20;
  o.stream_length = 40000;
  o.seed = 11;
  return o;
}

std::vector<uint64_t> TestStream() {
  return MakeZipfStream(Options().universe_size, 1.2,
                        Options().stream_length, /*seed=*/5);
}

std::vector<uint64_t> ProbeIds(const std::vector<uint64_t>& stream) {
  std::vector<uint64_t> probes(stream.begin(),
                               stream.begin() + std::min<size_t>(
                                                    stream.size(), 64));
  probes.push_back(0);
  probes.push_back(Options().universe_size - 1);  // absent ids too
  return probes;
}

void ExpectSameAnswers(const Summary& a, const Summary& b,
                       const std::vector<uint64_t>& probes) {
  EXPECT_EQ(a.ItemsProcessed(), b.ItemsProcessed());
  EXPECT_EQ(a.MemoryUsageBytes(), b.MemoryUsageBytes());
  for (const uint64_t id : probes) {
    EXPECT_EQ(a.Estimate(id), b.Estimate(id)) << "item " << id;
  }
  const auto ha = a.HeavyHitters(Options().phi);
  const auto hb = b.HeavyHitters(Options().phi);
  ASSERT_EQ(ha.size(), hb.size());
  for (size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].item, hb[i].item);
    EXPECT_EQ(ha[i].estimate, hb[i].estimate);
  }
}

class SnapshotRoundTripTest : public testing::TestWithParam<std::string> {};

TEST_P(SnapshotRoundTripTest, EveryAdapterSupportsSnapshots) {
  auto summary = MakeSummary(GetParam(), Options());
  ASSERT_NE(summary, nullptr);
  EXPECT_TRUE(summary->SupportsSnapshot()) << GetParam();
}

// Regression: a PRISTINE (zero-item) state must round-trip too.  The
// counter-groups family used to apply the bits-per-element plausibility
// clamp to its capacity field — a shape declaration, not stream content
// — so an empty misra_gries/space_saving/hashed_misra_gries snapshot
// (or any windowed ring of them, which a warm standby full-syncs from an
// idle primary) was spuriously rejected as Corruption.
TEST_P(SnapshotRoundTripTest, PristineStateRoundTrips) {
  const std::string names[] = {GetParam(), "windowed:" + GetParam()};
  for (const std::string& name : names) {
    SummaryOptions opt = Options();
    opt.window_size = 4096;
    opt.window_buckets = 8;
    auto pristine = MakeSummary(name, opt);
    if (pristine == nullptr) continue;  // non-mergeable: no windowed form
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(SaveSummary(*pristine, &bytes).ok()) << name;
    Status status;
    auto loaded = LoadSummary(bytes, &status);
    ASSERT_NE(loaded, nullptr) << name << ": " << status.ToString();
    EXPECT_EQ(loaded->ItemsProcessed(), 0u) << name;
    EXPECT_EQ(loaded->Estimate(7), 0.0) << name;
    // The restored instance must be fully usable, not just loadable.
    loaded->Update(7, 1);
    EXPECT_EQ(loaded->ItemsProcessed(), 1u) << name;
  }
}

TEST_P(SnapshotRoundTripTest, SaveLoadPreservesAnswersExactly) {
  const auto stream = TestStream();
  auto original = MakeSummary(GetParam(), Options());
  ASSERT_NE(original, nullptr);
  original->UpdateBatch(stream);

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*original, &bytes).ok());
  Status status;
  auto loaded = LoadSummary(bytes, &status);
  ASSERT_NE(loaded, nullptr) << status.ToString();
  EXPECT_EQ(loaded->Name(), GetParam());
  ExpectSameAnswers(*original, *loaded, ProbeIds(stream));
}

TEST_P(SnapshotRoundTripTest, ContinueAfterRestoreMatchesUninterrupted) {
  const auto stream = TestStream();
  const size_t half = stream.size() / 2;
  auto uninterrupted = MakeSummary(GetParam(), Options());
  ASSERT_NE(uninterrupted, nullptr);
  uninterrupted->UpdateBatch({stream.data(), half});

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*uninterrupted, &bytes).ok());
  Status status;
  auto restored = LoadSummary(bytes, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();

  // Both continue over the second half; the restored one must track the
  // uninterrupted one bit for bit (PRNG state included).
  uninterrupted->UpdateBatch({stream.data() + half, stream.size() - half});
  restored->UpdateBatch({stream.data() + half, stream.size() - half});
  ExpectSameAnswers(*uninterrupted, *restored, ProbeIds(stream));
}

TEST_P(SnapshotRoundTripTest, SnapshotInfoEchoesConstruction) {
  const auto stream = TestStream();
  auto summary = MakeSummary(GetParam(), Options());
  ASSERT_NE(summary, nullptr);
  summary->UpdateBatch(stream);

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*summary, &bytes).ok());
  SnapshotInfo info;
  ASSERT_TRUE(ReadSnapshotInfo(bytes, &info).ok());
  EXPECT_EQ(info.algorithm, GetParam());
  EXPECT_EQ(info.options.epsilon, Options().epsilon);
  EXPECT_EQ(info.options.phi, Options().phi);
  EXPECT_EQ(info.options.delta, Options().delta);
  EXPECT_EQ(info.options.universe_size, Options().universe_size);
  EXPECT_EQ(info.options.stream_length, Options().stream_length);
  EXPECT_EQ(info.options.seed, Options().seed);
  EXPECT_EQ(info.items_processed, stream.size());
  EXPECT_EQ(info.total_bytes, bytes.size());
  EXPECT_GT(info.payload_bits, 0u);
}

TEST_P(SnapshotRoundTripTest, FileRoundTrip) {
  const auto stream = TestStream();
  auto summary = MakeSummary(GetParam(), Options());
  ASSERT_NE(summary, nullptr);
  summary->UpdateBatch(stream);

  const std::string path =
      testing::TempDir() + "/snap_" + GetParam() + ".l1hh";
  ASSERT_TRUE(SaveSummaryToFile(*summary, path).ok());
  Status status;
  auto loaded = LoadSummaryFromFile(path, &status);
  ASSERT_NE(loaded, nullptr) << status.ToString();
  ExpectSameAnswers(*summary, *loaded, ProbeIds(stream));
  std::filesystem::remove(path);
}

// Fuzz-ish hostility battery: every truncation and random multi-bit
// corruption of a valid snapshot must be rejected with a clean error.
TEST_P(SnapshotRoundTripTest, CorruptInputIsRejectedCleanly) {
  const auto stream = TestStream();
  auto summary = MakeSummary(GetParam(), Options());
  ASSERT_NE(summary, nullptr);
  summary->UpdateBatch({stream.data(), stream.size() / 4});

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*summary, &bytes).ok());

  Rng rng(GetParam().size() * 1000003 + 17);
  std::vector<size_t> truncations = {0, 1, 7, 8, 11, 12, 19, 20, 23, 24,
                                     bytes.size() - 4, bytes.size() - 1};
  for (int t = 0; t < 24; ++t) {
    truncations.push_back(rng.UniformU64(bytes.size()));
  }
  for (const size_t cut : truncations) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    Status status;
    auto broken = LoadSummary(truncated, &status);
    EXPECT_EQ(broken, nullptr) << "cut=" << cut;
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
  }

  for (int t = 0; t < 48; ++t) {
    std::vector<uint8_t> flipped = bytes;
    const size_t byte = rng.UniformU64(flipped.size());
    flipped[byte] ^= static_cast<uint8_t>(1u << rng.UniformU64(8));
    Status status;
    auto broken = LoadSummary(flipped, &status);
    // A single bit flip is always caught (CRC-32 detects all 1-bit
    // errors, and flips inside the trailer mismatch the intact body).
    EXPECT_EQ(broken, nullptr) << "flip in byte " << byte;
    EXPECT_FALSE(status.ok());
  }

  // Over-long input: appending bytes breaks the length/CRC consistency.
  std::vector<uint8_t> padded = bytes;
  padded.insert(padded.end(), {0xAB, 0xCD});
  Status status;
  EXPECT_EQ(LoadSummary(padded, &status), nullptr);
  EXPECT_FALSE(status.ok());

  // And the untouched container still loads (the battery above would be
  // vacuous otherwise).
  EXPECT_NE(LoadSummary(bytes, &status), nullptr) << status.ToString();
}

TEST_P(SnapshotRoundTripTest, VersionBumpIsRejectedWithVersionError) {
  auto summary = MakeSummary(GetParam(), Options());
  ASSERT_NE(summary, nullptr);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*summary, &bytes).ok());
  // Bump the version field and re-seal the CRC so ONLY the version check
  // can reject it.
  bytes[8] = static_cast<uint8_t>(kSnapshotFormatVersion + 1);
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
  Status status;
  EXPECT_EQ(LoadSummary(bytes, &status), nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("version"), std::string::npos)
      << status.ToString();
}

TEST_P(SnapshotRoundTripTest, ResealedHeaderTamperIsSafe) {
  // An adversary who can recompute the CRC gets past the integrity check;
  // the remaining defense is the header/payload consistency checks in the
  // adapters.  Flip bits inside the embedded options block (the bit
  // stream maps LSB-first to bytes, so the options start at byte
  // 20 + 1 + name length) and re-seal: the loader must either reject with
  // a clean Status or produce a summary that answers queries without UB.
  auto summary = MakeSummary(GetParam(), Options());
  ASSERT_NE(summary, nullptr);
  const auto stream = TestStream();
  summary->UpdateBatch({stream.data(), stream.size() / 4});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*summary, &bytes).ok());

  const size_t options_start = 20 + 1 + GetParam().size();
  Rng rng(GetParam().size() * 7919 + 3);
  for (int t = 0; t < 16; ++t) {
    std::vector<uint8_t> tampered = bytes;
    const size_t byte = options_start + rng.UniformU64(6 * 8);
    tampered[byte] ^= static_cast<uint8_t>(1u << rng.UniformU64(8));
    const uint32_t crc = Crc32(tampered.data(), tampered.size() - 4);
    for (int i = 0; i < 4; ++i) {
      tampered[tampered.size() - 4 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(crc >> (8 * i));
    }
    Status status;
    auto loaded = LoadSummary(tampered, &status);
    if (loaded != nullptr) {
      (void)loaded->HeavyHitters(Options().phi);  // usable, no UB
    } else {
      EXPECT_FALSE(status.ok());
    }
  }
}

TEST_P(SnapshotRoundTripTest, HostileHeaderEpsilonIsRejectedNotUB) {
  // A CRC-resealed container whose epsilon is a denormal / NaN / negative
  // must come back as Corruption — the adapter constructors divide by it
  // and cast the result, so letting it through would be a length_error or
  // float-cast UB, not a Status.
  auto summary = MakeSummary(GetParam(), Options());
  ASSERT_NE(summary, nullptr);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*summary, &bytes).ok());
  const size_t epsilon_offset = 20 + 1 + GetParam().size();
  for (const double hostile :
       {5e-324, 0.0, -0.25, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    std::vector<uint8_t> tampered = bytes;
    uint64_t pattern;
    std::memcpy(&pattern, &hostile, sizeof(pattern));
    for (int i = 0; i < 8; ++i) {
      tampered[epsilon_offset + static_cast<size_t>(i)] =
          static_cast<uint8_t>(pattern >> (8 * i));
    }
    const uint32_t crc = Crc32(tampered.data(), tampered.size() - 4);
    for (int i = 0; i < 4; ++i) {
      tampered[tampered.size() - 4 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(crc >> (8 * i));
    }
    Status status;
    EXPECT_EQ(LoadSummary(tampered, &status), nullptr)
        << "epsilon=" << hostile;
    EXPECT_FALSE(status.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SnapshotRoundTripTest,
                         testing::ValuesIn(RegisteredSummaryNames()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Merge-of-loaded-snapshots == in-memory merge, for every mergeable
// algorithm (same split discipline as merge_property_test: disjoint
// position ranges of one stream, combined length == options.stream_length).

class SnapshotMergeTest : public testing::TestWithParam<std::string> {};

TEST_P(SnapshotMergeTest, MergeOfLoadedSnapshotsEqualsInMemoryMerge) {
  const auto stream = TestStream();
  const size_t half = stream.size() / 2;
  auto a = MakeSummary(GetParam(), Options());
  auto b = MakeSummary(GetParam(), Options());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a->UpdateBatch({stream.data(), half});
  b->UpdateBatch({stream.data() + half, stream.size() - half});

  std::vector<uint8_t> bytes_a, bytes_b;
  ASSERT_TRUE(SaveSummary(*a, &bytes_a).ok());
  ASSERT_TRUE(SaveSummary(*b, &bytes_b).ok());
  Status status;
  auto loaded_a = LoadSummary(bytes_a, &status);
  ASSERT_NE(loaded_a, nullptr) << status.ToString();
  auto loaded_b = LoadSummary(bytes_b, &status);
  ASSERT_NE(loaded_b, nullptr) << status.ToString();

  ASSERT_TRUE(a->Merge(*b).ok());
  ASSERT_TRUE(loaded_a->Merge(*loaded_b).ok());
  ExpectSameAnswers(*a, *loaded_a, ProbeIds(stream));
}

INSTANTIATE_TEST_SUITE_P(Mergeable, SnapshotMergeTest,
                         testing::ValuesIn(MergeableSummaryNames(Options())),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Engine checkpoint / restore.

class EngineCheckpointTest : public testing::TestWithParam<std::string> {};

TEST_P(EngineCheckpointTest, CheckpointRestoreContinueEqualsUninterrupted) {
  const auto stream = TestStream();
  const size_t half = stream.size() / 2;
  ShardedEngineOptions opt;
  opt.algorithm = GetParam();
  opt.summary = Options();
  opt.num_shards = 4;
  opt.num_threads = 2;
  Status status;
  auto uninterrupted = ShardedEngine::Create(opt, &status);
  ASSERT_NE(uninterrupted, nullptr) << status.ToString();
  uninterrupted->UpdateBatch({stream.data(), half});

  const std::string dir =
      testing::TempDir() + "/ckpt_" + GetParam();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(uninterrupted->Checkpoint(dir).ok());

  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->algorithm(), GetParam());
  EXPECT_EQ(restored->num_shards(), 4u);
  EXPECT_EQ(restored->ItemsProcessed(), half);

  uninterrupted->UpdateBatch({stream.data() + half, stream.size() - half});
  restored->UpdateBatch({stream.data() + half, stream.size() - half});
  // ItemsProcessed is only exact after a Flush (it reads the applied
  // counters, which lag ingestion while the workers drain).
  uninterrupted->Flush();
  restored->Flush();
  EXPECT_EQ(uninterrupted->ItemsProcessed(), restored->ItemsProcessed());
  EXPECT_EQ(uninterrupted->ItemsProcessed(), stream.size());
  for (const uint64_t id : ProbeIds(stream)) {
    EXPECT_EQ(uninterrupted->Estimate(id), restored->Estimate(id));
  }
  const auto hu = uninterrupted->HeavyHitters(Options().phi);
  const auto hr = restored->HeavyHitters(Options().phi);
  ASSERT_EQ(hu.size(), hr.size());
  for (size_t i = 0; i < hu.size(); ++i) {
    EXPECT_EQ(hu[i].item, hr[i].item);
    EXPECT_EQ(hu[i].estimate, hr[i].estimate);
  }
  std::filesystem::remove_all(dir);
}

// Every registered structure shards, so every one must checkpoint and
// restore a K = 4 engine (the prefix "Mergeable" is historical).
INSTANTIATE_TEST_SUITE_P(Mergeable, EngineCheckpointTest,
                         testing::ValuesIn(RegisteredSummaryNames()),
                         [](const auto& info) { return info.param; });

TEST(EngineCheckpointEdgeTest, SingleShardNonMergeableRoundTrips) {
  // The degenerate K=1 engine of a non-mergeable structure must
  // checkpoint and restore exactly too — including its PRNG state.
  const auto stream = TestStream();
  const size_t half = stream.size() / 2;
  ShardedEngineOptions opt;
  opt.algorithm = "sticky_sampling";
  opt.summary = Options();
  opt.num_shards = 1;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  engine->UpdateBatch({stream.data(), half});

  const std::string dir = testing::TempDir() + "/ckpt_sticky_k1";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();

  engine->UpdateBatch({stream.data() + half, stream.size() - half});
  restored->UpdateBatch({stream.data() + half, stream.size() - half});
  for (const uint64_t id : ProbeIds(stream)) {
    EXPECT_EQ(engine->Estimate(id), restored->Estimate(id));
  }
  std::filesystem::remove_all(dir);
}

TEST(EngineCheckpointEdgeTest, RestoreRejectsMissingAndCorruptCheckpoints) {
  Status status;
  EXPECT_EQ(ShardedEngine::Restore(testing::TempDir() + "/no_such_ckpt",
                                   &status),
            nullptr);
  EXPECT_FALSE(status.ok());

  // Manifest present but a shard file corrupted: refused, not UB.
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "misra_gries";
  opt.summary = Options();
  opt.num_shards = 2;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr);
  engine->UpdateBatch(stream);
  const std::string dir = testing::TempDir() + "/ckpt_corrupt";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  // A fresh directory's first checkpoint is generation 1.
  {
    std::ofstream shard(dir + "/shard-0001.g000001.l1hh",
                        std::ios::binary | std::ios::trunc);
    shard << "garbage";
  }
  EXPECT_EQ(ShardedEngine::Restore(dir, &status), nullptr);
  EXPECT_FALSE(status.ok());

  // Unknown manifest keys are future versions, not noise to skip.
  {
    std::ofstream manifest(dir + "/MANIFEST.000001", std::ios::app);
    manifest << "compression=zstd\n";
  }
  EXPECT_EQ(ShardedEngine::Restore(dir, &status), nullptr);
  EXPECT_FALSE(status.ok());

  // A manifest whose shard records repeat an index would double-count
  // that shard's items; records must appear in index order.
  {
    std::ofstream manifest(dir + "/MANIFEST.000001", std::ios::trunc);
    manifest << "l1hh-checkpoint v2\n"
             << "algorithm=misra_gries\n"
             << "num_shards=2\n"
             << "generation=1\n"
             << "shard=0 10 0 shard-0000.g000001.l1hh\n"
             << "shard=0 10 0 shard-0000.g000001.l1hh\n";
  }
  EXPECT_EQ(ShardedEngine::Restore(dir, &status), nullptr);
  EXPECT_FALSE(status.ok());
  std::filesystem::remove_all(dir);
}

TEST(EngineCheckpointEdgeTest, RecheckpointIntoSameDirRestoresLatestState) {
  // Checkpointing over an old checkpoint must supersede it: the new
  // generation's manifest outranks the old one at Restore.
  const auto stream = TestStream();
  const size_t half = stream.size() / 2;
  ShardedEngineOptions opt;
  opt.algorithm = "space_saving";
  opt.summary = Options();
  opt.num_shards = 2;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr);
  const std::string dir = testing::TempDir() + "/ckpt_twice";
  std::filesystem::remove_all(dir);

  engine->UpdateBatch({stream.data(), half});
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  engine->UpdateBatch({stream.data() + half, stream.size() - half});
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->ItemsProcessed(), stream.size());
  std::filesystem::remove_all(dir);
}

TEST(EngineCheckpointEdgeTest, ForeignSeedShardFileIsRefusedAtRestore) {
  // A shard file spliced in from a checkpoint taken with a different seed
  // must fail Restore with a Status — not pass and abort on the first
  // query when the merged view discovers the incompatibility.
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "count_min";
  opt.summary = Options();
  opt.num_shards = 2;
  Status status;
  auto engine_a = ShardedEngine::Create(opt, &status);
  opt.summary.seed = Options().seed + 1;
  auto engine_b = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine_a, nullptr);
  ASSERT_NE(engine_b, nullptr);
  engine_a->UpdateBatch(stream);
  engine_b->UpdateBatch(stream);

  const std::string dir_a = testing::TempDir() + "/ckpt_splice_a";
  const std::string dir_b = testing::TempDir() + "/ckpt_splice_b";
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
  ASSERT_TRUE(engine_a->Checkpoint(dir_a).ok());
  ASSERT_TRUE(engine_b->Checkpoint(dir_b).ok());
  std::filesystem::copy_file(dir_b + "/shard-0001.g000001.l1hh",
                             dir_a + "/shard-0001.g000001.l1hh",
                             std::filesystem::copy_options::overwrite_existing);

  EXPECT_EQ(ShardedEngine::Restore(dir_a, &status), nullptr);
  EXPECT_FALSE(status.ok());
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

// ---------------------------------------------------------------------------
// The end-to-end distributed workflow at library level: N workers, each
// over a disjoint item partition of one stream, snapshots merged by a
// coordinator — the merged report must obey Definition 1 against the FULL
// stream, and bit-match the single-process run for the structures whose
// merge is exact under item-disjoint partitions.

TEST(DistributedSnapshotFlowTest, TwoWorkerMergeIsDefinitionOneConformant) {
  const auto stream = TestStream();
  for (const std::string name : {"bdw_optimal", "bdw_simple", "count_min",
                                 "misra_gries", "exact"}) {
    auto worker_a = MakeSummary(name, Options());
    auto worker_b = MakeSummary(name, Options());
    auto single = MakeSummary(name, Options());
    ASSERT_NE(worker_a, nullptr);
    // Item-disjoint partition: every occurrence of an id goes to the same
    // worker, like the engine's hash partitioning.
    for (const uint64_t x : stream) {
      (x % 2 == 0 ? worker_a : worker_b)->Update(x);
      single->Update(x);
    }
    std::vector<uint8_t> bytes_a, bytes_b;
    ASSERT_TRUE(SaveSummary(*worker_a, &bytes_a).ok()) << name;
    ASSERT_TRUE(SaveSummary(*worker_b, &bytes_b).ok()) << name;
    Status status;
    auto merged = LoadSummary(bytes_a, &status);
    ASSERT_NE(merged, nullptr) << name << ": " << status.ToString();
    auto other = LoadSummary(bytes_b, &status);
    ASSERT_NE(other, nullptr) << name << ": " << status.ToString();
    ASSERT_TRUE(merged->Merge(*other).ok()) << name;

    // Definition 1 against exact counts of the full stream.
    std::unordered_map<uint64_t, uint64_t> exact;
    for (const uint64_t x : stream) ++exact[x];
    const double m = static_cast<double>(stream.size());
    const auto report = merged->HeavyHitters(Options().phi);
    for (const auto& [item, f] : exact) {
      if (static_cast<double>(f) > Options().phi * m) {
        EXPECT_TRUE(std::any_of(report.begin(), report.end(),
                                [item = item](const ItemEstimate& e) {
                                  return e.item == item;
                                }))
            << name << " missed heavy item " << item;
      }
    }
    for (const auto& e : report) {
      EXPECT_GE(static_cast<double>(exact[e.item]),
                (Options().phi - Options().epsilon) * m - 1.0)
          << name << " reported light item " << e.item;
    }

    // Structures whose merge is exact under item-disjoint partitions must
    // match the single-process run element-wise ("exact" trivially;
    // count_min because the sketch is linear and every candidate
    // qualifies no later on a worker than in the single run).
    if (name == "exact" || name == "count_min") {
      const auto single_report = single->HeavyHitters(Options().phi);
      ASSERT_EQ(report.size(), single_report.size()) << name;
      for (size_t i = 0; i < report.size(); ++i) {
        EXPECT_EQ(report[i].item, single_report[i].item) << name;
        EXPECT_EQ(report[i].estimate, single_report[i].estimate) << name;
      }
    }
  }
}

}  // namespace
}  // namespace l1hh
