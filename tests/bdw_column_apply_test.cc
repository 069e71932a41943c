// Algorithm 2's column apply (BdwOptimal::InsertColumn) walks a slice in
// tiles and defers each tile's T3 increments into per-item, per-repetition
// counts that are added once per distinct item.  That is only sound if the
// result is byte-for-byte what the one-item-at-a-time apply produced, so
// every case below pins a digest and size of the save bytes recorded from
// the item-at-a-time apply that preceded the tiled one:
//   * SaveSummary of the registry "bdw_optimal" over 2^19 zipf items, far
//     enough that the schedule passes eps_exp (every repetition's T3 coin
//     fires), fed in slices that are smaller than, equal to, one past and
//     several times the tile, and as one whole-stream column;
//   * the same stream with slices cut to straddle the epoch changes, so a
//     tile's deferred counts must be flushed at the epoch they were drawn
//     in, not the epoch the tile ends in;
//   * a stream longer than 150/eps^2, where the sampler skips items;
//   * more than 64 repetitions (two coin words per item);
//   * "windowed:bdw_optimal", a grouped "bdw_optimal", and the per-shard
//     frames of a K = 4 engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/bdw_optimal.h"
#include "engine/sharded_engine.h"
#include "group/grouped_summary.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"
#include "util/bit_stream.h"
#include "util/bit_util.h"

namespace l1hh {
namespace {

struct Digest {
  size_t bytes = 0;
  uint64_t fnv = 0;

  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.bytes << ", 0x" << std::hex << d.fnv << std::dec
            << "}";
}

Digest DigestOf(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return {bytes.size(), h};
}

Digest SaveDigest(const Summary& summary) {
  std::vector<uint8_t> bytes;
  const Status s = SaveSummary(summary, &bytes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return DigestOf(bytes);
}

// The direct BdwOptimal snapshot: what the registry adapter's SaveTo
// writes, without the container around it.
Digest SketchDigest(const BdwOptimal& sketch) {
  BitWriter out;
  sketch.SerializeSparse(out);
  sketch.SerializeRngState(out);
  std::vector<uint8_t> bytes;
  for (const uint64_t w : out.words()) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<uint8_t>(w >> (8 * i)));
    }
  }
  bytes.resize((out.size_bits() + 7) / 8);
  return DigestOf(bytes);
}

constexpr uint64_t kUniverse = uint64_t{1} << 22;
constexpr uint64_t kLong = uint64_t{1} << 19;

SummaryOptions Options(double eps, double phi, uint64_t m) {
  SummaryOptions o;
  o.epsilon = eps;
  o.phi = phi;
  o.delta = 0.1;
  o.universe_size = kUniverse;
  o.stream_length = m;
  o.seed = 29;
  return o;
}

BdwOptimal::Options SketchOptions(const SummaryOptions& o) {
  BdwOptimal::Options opt;
  opt.epsilon = o.epsilon;
  opt.phi = o.phi;
  opt.delta = o.delta;
  opt.universe_size = o.universe_size;
  opt.stream_length = o.stream_length;
  return opt;
}

// Feeds `stream` through `column(items, n)` in consecutive slices: the
// sizes in `cuts` are used once each, in order, then `tail` repeats.
template <typename Column>
void FeedSlices(const std::vector<uint64_t>& stream,
                const std::vector<size_t>& cuts, size_t tail,
                Column&& column) {
  size_t offset = 0;
  for (const size_t cut : cuts) {
    const size_t take = std::min(cut, stream.size() - offset);
    column(stream.data() + offset, take);
    offset += take;
  }
  while (offset < stream.size()) {
    const size_t take = std::min(tail, stream.size() - offset);
    column(stream.data() + offset, take);
    offset += take;
  }
}

Digest RegistryDigest(const std::string& name, const SummaryOptions& o,
                      const std::vector<uint64_t>& stream,
                      const std::vector<size_t>& cuts, size_t tail) {
  Status status;
  std::unique_ptr<Summary> s = MakeSummary(name, o, &status);
  EXPECT_NE(s, nullptr) << status.ToString();
  if (s == nullptr) return {};
  FeedSlices(stream, cuts, tail, [&](const uint64_t* items, size_t n) {
    s->UpdateColumn(items, n);
  });
  EXPECT_EQ(s->ItemsProcessed(), stream.size());
  return SaveDigest(*s);
}

// eps 0.01, phi 0.05 over 2^19 items: every item is sampled and the
// schedule ends at epoch 10, past eps_exp = 7.
constexpr Digest kPastEpsExp = {198360, 0xebefbb6cf1f7b161};

const std::vector<uint64_t>& LongStream() {
  static const std::vector<uint64_t> stream =
      MakeZipfStream(kUniverse, 1.1, kLong, /*seed=*/17);
  return stream;
}

TEST(BdwColumnApplyTest, ScheduleReachesEveryRepetitionFiring) {
  const SummaryOptions o = Options(0.01, 0.05, kLong);
  BdwOptimal sketch(SketchOptions(o), o.seed);
  // Past eps_exp the T3 coin min(eps 2^t, 1) is 1 for every repetition.
  EXPECT_GT(sketch.EpochAtSample(kLong),
            ProbabilityToPow2Exponent(o.epsilon));
}

TEST(BdwColumnApplyTest, EverySliceSizeKeepsTheBytes) {
  const SummaryOptions o = Options(0.01, 0.05, kLong);
  for (const size_t slice : {size_t{1}, size_t{7}, size_t{1023}, size_t{1024},
                             size_t{1025}, size_t{4096}, size_t{kLong}}) {
    SCOPED_TRACE(slice);
    EXPECT_EQ(RegistryDigest("bdw_optimal", o, LongStream(), {}, slice),
              kPastEpsExp);
  }
}

TEST(BdwColumnApplyTest, SlicesStraddlingEpochChangesKeepTheBytes) {
  const SummaryOptions o = Options(0.01, 0.05, kLong);
  const BdwOptimal probe(SketchOptions(o), o.seed);
  // Every item is sampled here, so sample s is stream position s.
  std::vector<uint64_t> changes;
  for (uint64_t s = 2; s <= kLong; ++s) {
    if (probe.EpochAtSample(s) != probe.EpochAtSample(s - 1)) {
      changes.push_back(s);
    }
  }
  ASSERT_GE(changes.size(), 4u);
  // Slice A: cut 3 items before each change and take 7, so one short
  // slice holds each change.  Slice B: one 1024-item slice centred on
  // each change, so a full tile holds it.
  for (const size_t around : {size_t{7}, size_t{1024}}) {
    SCOPED_TRACE(around);
    std::vector<size_t> cuts;
    uint64_t at = 0;
    for (const uint64_t change : changes) {
      const uint64_t start =
          change - 1 - std::min<uint64_t>(around / 2, change - 1);
      if (start < at) continue;
      cuts.push_back(start - at);
      cuts.push_back(around);
      at = start + around;
    }
    EXPECT_EQ(RegistryDigest("bdw_optimal", o, LongStream(), cuts, 4096),
              kPastEpsExp);
  }
}

TEST(BdwColumnApplyTest, SkippingSamplerKeepsTheBytes) {
  // 150 / 0.05^2 = 60,000 expected samples out of 2^18 items.
  const SummaryOptions o = Options(0.05, 0.1, uint64_t{1} << 18);
  const std::vector<uint64_t> stream =
      MakeZipfStream(kUniverse, 1.1, o.stream_length, /*seed=*/23);
  const Digest golden = {27704, 0x68a12f3e0978c5ab};
  for (const size_t slice : {size_t{1}, size_t{1000}, size_t{1025},
                             size_t{o.stream_length}}) {
    SCOPED_TRACE(slice);
    EXPECT_EQ(RegistryDigest("bdw_optimal", o, stream, {}, slice), golden);
  }
}

TEST(BdwColumnApplyTest, MoreThanSixtyFourRepetitionsKeepTheBytes) {
  const SummaryOptions o = Options(0.02, 0.05, uint64_t{1} << 17);
  BdwOptimal::Options opt = SketchOptions(o);
  opt.constants.opt_min_reps = 70;
  const std::vector<uint64_t> stream =
      MakeZipfStream(kUniverse, 1.1, o.stream_length, /*seed=*/31);
  const Digest golden = {214276, 0xcd21ec2e6ff96e2b};
  for (const size_t slice : {size_t{1}, size_t{1024}, size_t{1500},
                             size_t{o.stream_length}}) {
    SCOPED_TRACE(slice);
    BdwOptimal sketch(opt, o.seed);
    ASSERT_GT(sketch.repetitions(), 64u);
    FeedSlices(stream, {}, slice, [&](const uint64_t* items, size_t n) {
      sketch.InsertColumn(items, n);
    });
    EXPECT_GT(sketch.current_epoch(), ProbabilityToPow2Exponent(o.epsilon));
    EXPECT_EQ(SketchDigest(sketch), golden);
  }
}

TEST(BdwColumnApplyTest, WindowedBdwOptimalKeepsTheBytes) {
  SummaryOptions o = Options(0.01, 0.05, kLong);
  o.window_size = kLong / 4;
  o.window_buckets = 4;
  const Digest golden = {45728, 0xe2f1471ad9ed48b7};
  for (const size_t slice : {size_t{1}, size_t{1025}, size_t{kLong}}) {
    SCOPED_TRACE(slice);
    EXPECT_EQ(RegistryDigest("windowed:bdw_optimal", o, LongStream(), {},
                             slice),
              golden);
  }
}

TEST(BdwColumnApplyTest, GroupedBdwOptimalKeepsTheBytes) {
  // Four tenants of 2^17 items each, arriving in runs of 1,500 rows, so
  // each run reaches the tenant's summary as one column of two tiles.
  GroupedSummaryOptions go;
  go.algorithm = "bdw_optimal";
  go.summary = Options(0.01, 0.05, kLong / 4);
  const std::vector<uint64_t>& items = LongStream();
  std::vector<uint64_t> groups(items.size());
  for (size_t i = 0; i < groups.size(); ++i) groups[i] = 100 + (i / 1500) % 4;
  const Digest golden = {257040, 0x79e7bdc5a7dbcc5b};
  for (const size_t slice : {size_t{1}, size_t{4096}, size_t{kLong}}) {
    SCOPED_TRACE(slice);
    auto grouped = GroupedSummary::Create(go);
    ASSERT_NE(grouped, nullptr);
    for (size_t offset = 0; offset < items.size(); offset += slice) {
      const size_t take = std::min(slice, items.size() - offset);
      grouped->UpdateColumn(groups.data() + offset, items.data() + offset,
                            take);
    }
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(SaveGrouped(*grouped, &bytes).ok());
    EXPECT_EQ(DigestOf(bytes), golden);
  }
}

TEST(BdwColumnApplyTest, EngineShardFramesKeepTheBytes) {
  ShardedEngineOptions eo;
  eo.algorithm = "bdw_optimal";
  eo.summary = Options(0.01, 0.05, kLong);
  eo.num_shards = 4;
  eo.num_threads = 2;
  const Digest golden[] = {{80008, 0x95aaee1465e27704},
                            {42296, 0xa9ba0d7d7e2be05a},
                            {53184, 0x67ab0e53f2de06ce},
                            {56680, 0x2a0535db83cf19d7}};
  Status status;
  auto engine = ShardedEngine::Create(eo, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  engine->UpdateBatch(LongStream());
  engine->Flush();
  std::vector<ShardFrame> frames;
  uint64_t applied = 0;
  ASSERT_TRUE(engine->CaptureFrames({}, 0, &frames, &applied).ok());
  EXPECT_EQ(applied, kLong);
  ASSERT_EQ(frames.size(), 4u);
  for (const ShardFrame& frame : frames) {
    SCOPED_TRACE(frame.shard);
    EXPECT_FALSE(frame.delta);
    EXPECT_EQ(DigestOf(frame.bytes), golden[frame.shard]);
  }
}

}  // namespace
}  // namespace l1hh
