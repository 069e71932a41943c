// Pins what the counter tables answer through the registry, so a change to
// how they share entry types, report order or adapters is held to the
// exact bytes and orders the tables gave before it.  For misra_gries,
// space_saving, hashed_misra_gries, lossy_counting and sticky_sampling,
// over one zipf stream with planted count ties:
//   * HeavyHitters at phi 0.02, 0.05 and 0.1, in report order;
//   * Estimate over 200 probes;
//   * MemoryUsageBytes;
//   * the Merge statuses against siblings built with another epsilon,
//     another seed, and another registry name;
//   * the LoadFrom statuses for a truncated payload and for a payload
//     saved under other options;
//   * a K = 4 engine's partition report and EstimateBatch.
// Plus a digest of SpaceSaving::Merge at k = 1000 over two zipf halves.
// Every expected value below was recorded from the tables as they stood
// before the counter structures shared one entry type.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "stream/stream_generator.h"
#include "summary/space_saving.h"
#include "summary/summary.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {
namespace {

struct Digest {
  size_t size = 0;
  uint64_t fnv = 0;

  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.size << ", 0x" << std::hex << d.fnv << std::dec
            << "}";
}

// FNV-1a 64 over little-endian words.
class Fnv {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

Digest ReportDigest(const std::vector<ItemEstimate>& report) {
  Fnv fnv;
  for (const ItemEstimate& e : report) {
    fnv.Add(e.item);
    fnv.Add(std::bit_cast<uint64_t>(e.estimate));
  }
  return {report.size(), fnv.value()};
}

Digest EstimatesDigest(const std::vector<double>& estimates) {
  Fnv fnv;
  for (const double e : estimates) fnv.Add(std::bit_cast<uint64_t>(e));
  return {estimates.size(), fnv.value()};
}

Digest WriterDigest(const BitWriter& out) {
  Fnv fnv;
  for (const uint64_t w : out.words()) fnv.Add(w);
  return {out.size_bits(), fnv.value()};
}

constexpr uint64_t kUniverse = uint64_t{1} << 16;
constexpr uint64_t kZipfItems = uint64_t{1} << 17;
constexpr uint64_t kPlanted = 6;
constexpr uint64_t kPlantedCount = 4000;
constexpr double kPhis[] = {0.02, 0.05, 0.1};

SummaryOptions Options(double eps, uint64_t seed) {
  SummaryOptions o;
  o.epsilon = eps;
  o.phi = 0.02;
  o.delta = 0.05;
  o.universe_size = kUniverse;
  o.stream_length = kZipfItems + kPlanted * kPlantedCount;
  o.seed = seed;
  return o;
}

// Zipf(1.1) draws with kPlanted ids outside the zipf head each inserted
// exactly kPlantedCount times, round-robin at even spacing, so they reach
// the reports with equal (or nearly equal) counts and the id tie-break
// decides their order.
const std::vector<uint64_t>& PinStream() {
  static const std::vector<uint64_t> stream = [] {
    const std::vector<uint64_t> zipf =
        MakeZipfStream(kUniverse, 1.1, kZipfItems, 30);
    const uint64_t planted_total = kPlanted * kPlantedCount;
    const uint64_t every = kZipfItems / planted_total;
    std::vector<uint64_t> out;
    out.reserve(kZipfItems + planted_total);
    uint64_t placed = 0;
    for (uint64_t i = 0; i < zipf.size(); ++i) {
      out.push_back(zipf[i]);
      if (i % every == every - 1 && placed < planted_total) {
        out.push_back(kUniverse - 1 - placed % kPlanted);
        ++placed;
      }
    }
    for (; placed < planted_total; ++placed) {
      out.push_back(kUniverse - 1 - placed % kPlanted);
    }
    return out;
  }();
  return stream;
}

// The planted ids, the first zipf ranks, and ids spread over the universe.
std::vector<uint64_t> Probes() {
  std::vector<uint64_t> probes;
  for (uint64_t i = 0; i < kPlanted; ++i) probes.push_back(kUniverse - 1 - i);
  for (uint64_t i = 0; i < 94; ++i) probes.push_back(i);
  Rng rng(77);
  while (probes.size() < 200) probes.push_back(rng.UniformU64(kUniverse));
  return probes;
}

std::unique_ptr<Summary> Build(const std::string& name,
                               const SummaryOptions& o, bool feed) {
  Status status;
  std::unique_ptr<Summary> s = MakeSummary(name, o, &status);
  EXPECT_NE(s, nullptr) << status.ToString();
  if (s != nullptr && feed) s->UpdateBatch(PinStream());
  return s;
}

struct Pin {
  const char* name;
  std::array<Digest, 3> heavy;  // at kPhis
  Digest estimates;
  size_t memory_bytes;
  const char* merge_other_eps;
  const char* merge_other_seed;
  const char* merge_other_name;
  Digest merged_save;  // SaveTo after the three merges
  const char* load_truncated;
  const char* load_foreign;  // saved with eps 0.02 and seed 2
  std::array<Digest, 3> engine_heavy;
  Digest engine_estimates;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << p.name;
}

class CounterTablePinTest : public ::testing::TestWithParam<Pin> {};

TEST_P(CounterTablePinTest, ReportsEstimatesAndSpace) {
  const Pin& pin = GetParam();
  auto s = Build(pin.name, Options(0.01, 1), true);
  ASSERT_NE(s, nullptr);
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(kPhis[i]);
    EXPECT_EQ(ReportDigest(s->HeavyHitters(kPhis[i])), pin.heavy[i]);
  }
  std::vector<double> estimates;
  for (const uint64_t item : Probes()) estimates.push_back(s->Estimate(item));
  EXPECT_EQ(EstimatesDigest(estimates), pin.estimates);
  EXPECT_EQ(s->MemoryUsageBytes(), pin.memory_bytes);
}

TEST_P(CounterTablePinTest, MergeStatuses) {
  const Pin& pin = GetParam();
  auto s = Build(pin.name, Options(0.01, 1), true);
  auto other_eps = Build(pin.name, Options(0.02, 1), true);
  auto other_seed = Build(pin.name, Options(0.01, 2), true);
  auto other_name = Build("exact", Options(0.01, 1), true);
  ASSERT_TRUE(s && other_eps && other_seed && other_name);
  EXPECT_EQ(s->Merge(*other_eps).ToString(), pin.merge_other_eps);
  EXPECT_EQ(s->Merge(*other_seed).ToString(), pin.merge_other_seed);
  EXPECT_EQ(s->Merge(*other_name).ToString(), pin.merge_other_name);
  BitWriter merged;
  ASSERT_TRUE(s->SaveTo(merged).ok());
  EXPECT_EQ(WriterDigest(merged), pin.merged_save);
}

TEST_P(CounterTablePinTest, BadPayloadStatuses) {
  const Pin& pin = GetParam();
  auto s = Build(pin.name, Options(0.01, 1), true);
  ASSERT_NE(s, nullptr);
  BitWriter saved;
  ASSERT_TRUE(s->SaveTo(saved).ok());
  BitReader truncated(saved.words().data(), saved.words().size(),
                      saved.size_bits() / 2);
  auto target = Build(pin.name, Options(0.01, 1), false);
  EXPECT_EQ(target->LoadFrom(truncated).ToString(), pin.load_truncated);

  auto foreign = Build(pin.name, Options(0.02, 2), true);
  BitWriter foreign_saved;
  ASSERT_TRUE(foreign->SaveTo(foreign_saved).ok());
  BitReader foreign_in(foreign_saved);
  auto fresh = Build(pin.name, Options(0.01, 1), false);
  EXPECT_EQ(fresh->LoadFrom(foreign_in).ToString(), pin.load_foreign);
}

TEST_P(CounterTablePinTest, FourShardPartitionReport) {
  const Pin& pin = GetParam();
  ShardedEngineOptions eo;
  eo.algorithm = pin.name;
  eo.summary = Options(0.01, 1);
  eo.num_shards = 4;
  eo.num_threads = 2;
  Status status;
  auto engine = ShardedEngine::Create(eo, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  engine->UpdateBatch(PinStream());
  engine->Flush();
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(kPhis[i]);
    EXPECT_EQ(ReportDigest(engine->HeavyHitters(kPhis[i])),
              pin.engine_heavy[i]);
  }
  EXPECT_EQ(EstimatesDigest(engine->EstimateBatch(Probes())),
            pin.engine_estimates);
}

constexpr char kOk[] = "OK";
constexpr char kMgRefused[] =
    "InvalidArgument: Merge requires another 'misra_gries' built with the "
    "same options and seed";
constexpr char kSsRefused[] =
    "InvalidArgument: Merge requires another 'space_saving' built with the "
    "same options and seed";
constexpr char kHmgRefused[] =
    "InvalidArgument: Merge requires another 'hashed_misra_gries' built "
    "with the same options and seed";
constexpr char kLcNoMerge[] =
    "FailedPrecondition: lossy_counting does not support Merge";
constexpr char kSsNoMerge[] =
    "FailedPrecondition: sticky_sampling does not support Merge";

INSTANTIATE_TEST_SUITE_P(
    CounterTables, CounterTablePinTest,
    ::testing::Values(
        Pin{"misra_gries",
            {{{11, 0xc9dcdd6fff9ead30},
              {2, 0xe977022f622b3d60},
              {1, 0x5f1132a69040f19a}}},
            {200, 0x79c3600c3c40fbb5},
            391,
            kMgRefused,
            kOk,
            kMgRefused,
            {3497, 0xd3307b5f1e01a1ed},
            "Corruption: bit stream overflow: read past the end at bit 1658 "
            "of 1711",
            "Corruption: 'misra_gries' snapshot payload does not match the "
            "shape implied by the header options",
            {{{14, 0x204e32ff338b6f0b},
              {2, 0xca1372624dd63d70},
              {1, 0xb2eea5a2c844a6da}}},
            {200, 0x3574fc3265ce3f54}},
        Pin{"space_saving",
            {{{10, 0x7a658a4fe665b7fe},
              {2, 0xc12700989d9fdb96},
              {1, 0xc6fc32a63b32a15d}}},
            {200, 0x7f2e656edbd293ba},
            390,
            kSsRefused,
            kOk,
            kSsRefused,
            {8648, 0xe511925efda9df66},
            "Corruption: bit stream overflow: read past the end at bit 4220 "
            "of 4223",
            "Corruption: 'space_saving' snapshot payload does not match the "
            "shape implied by the header options",
            {{{10, 0x7a658a4fe665b7fe},
              {2, 0xc12700989d9fdb96},
              {1, 0xc6fc32a63b32a15d}}},
            {200, 0x639c74379f544d16}},
        Pin{"hashed_misra_gries",
            {{{13, 0x750106337e955e44},
              {2, 0xeb25efccc4b17120},
              {1, 0xaa1f45b974117778}}},
            {200, 0x44e66decd27f756d},
            1524,
            kOk,
            kHmgRefused,
            kHmgRefused,
            {14260, 0x23dbc0538ff30558},
            "Corruption: bit stream overflow: read past the end at bit 7074 "
            "of 7107",
            "Corruption: 'hashed_misra_gries' snapshot payload does not "
            "match the shape implied by the header options",
            {{{14, 0xa909a89f6a7f8c26},
              {2, 0x606d19450dbc59e2},
              {1, 0xd3d867a24a839c9c}}},
            {200, 0xdc3784e3b4680b7b}},
        Pin{"lossy_counting",
            {{{10, 0x7a658a4fe665b7fe},
              {2, 0xc12700989d9fdb96},
              {1, 0xc6fc32a63b32a15d}}},
            {200, 0x9d85b78eaac7bab1},
            471,
            kLcNoMerge,
            kLcNoMerge,
            kLcNoMerge,
            {5961, 0x5ddb29b27422e550},
            "Corruption: bit stream overflow: read past the end at bit 2980 "
            "of 2980",
            "Corruption: 'lossy_counting' snapshot payload does not match "
            "the shape implied by the header options",
            {{{10, 0x7a658a4fe665b7fe},
              {2, 0xc12700989d9fdb96},
              {1, 0xc6fc32a63b32a15d}}},
            {200, 0x352c2aa05b84e4e4}},
        // Sticky Sampling restores its dynamic state into the constructed
        // configuration, so a payload saved under other options loads.
        Pin{"sticky_sampling",
            {{{15, 0xd1545d01b6dbe6e6},
              {2, 0x61eae46f12ddaf1},
              {1, 0x230d25cc72981216}}},
            {200, 0x8e9638f344ee1e11},
            2689,
            kSsNoMerge,
            kSsNoMerge,
            kSsNoMerge,
            {50417, 0xaaa543bad3bac4c0},
            "Corruption: bit stream overflow: read past the end at bit 25167 "
            "of 25208",
            kOk,
            {{{11, 0xab6458d644d1ce2b},
              {2, 0xff6379d8dfcfbb5d},
              {1, 0x4ed9c2cd1b7280c9}}},
            {200, 0x2b20907f1837af14}}),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(info.param.name);
    });

// SpaceSaving::Merge at k = 1000 over two zipf halves: the merged
// serialization and its entries in report order.
TEST(CounterTableMergePinTest, SpaceSavingAtK1000) {
  SpaceSaving a(1000, 20);
  SpaceSaving b(1000, 20);
  for (const uint64_t x : MakeZipfStream(uint64_t{1} << 20, 1.05, 200000, 3)) {
    a.Insert(x);
  }
  for (const uint64_t x : MakeZipfStream(uint64_t{1} << 20, 1.05, 200000, 4)) {
    b.Insert(x);
  }
  const SpaceSaving merged = SpaceSaving::Merge(a, b);
  BitWriter out;
  merged.Serialize(out);
  EXPECT_EQ(WriterDigest(out), (Digest{79636, 0xec81e68d1c6a68c8}));
  Fnv fnv;
  const auto entries = merged.Entries();
  for (const auto& e : entries) {
    fnv.Add(e.item);
    fnv.Add(e.count);
  }
  EXPECT_EQ((Digest{entries.size(), fnv.value()}),
            (Digest{1000, 0x244c77ed151f7c3}));
}

}  // namespace
}  // namespace l1hh
