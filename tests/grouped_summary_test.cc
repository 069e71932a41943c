// GroupedSummary battery: per-group Definition-1 conformance on planted
// multi-tenant streams, columnar/scalar state equality, LRU + budget
// eviction accounting, "L1HHGRUP" save -> load -> continue-ingesting
// bit-equivalence (per-group PRNG seeds must re-derive exactly), and the
// hostile-container fuzz the other snapshot formats already pass:
// truncation, bit flips, version bumps, CRC-resealed header tampering,
// and hand-forged payloads with broken group framing.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "group/grouped_summary.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"
#include "util/bit_stream.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/status.h"

namespace l1hh {
namespace {

struct Row {
  uint64_t group;
  uint64_t item;
};

SummaryOptions BaseOptions() {
  SummaryOptions o;
  o.epsilon = 0.02;
  o.phi = 0.05;
  o.delta = 0.05;
  o.universe_size = uint64_t{1} << 16;
  // Every per-group summary is constructed from these options, so the
  // planted tenants below all carry kPerTenantItems items — the bdw
  // adapters size their thresholds from stream_length.
  o.stream_length = 8192;
  o.seed = 9;
  o.window_size = 8192;
  o.window_buckets = 4;
  return o;
}

GroupedSummaryOptions GroupedOptions(const std::string& algorithm) {
  GroupedSummaryOptions o;
  o.algorithm = algorithm;
  o.summary = BaseOptions();
  return o;
}

constexpr uint64_t kPerTenantItems = 8192;  // == BaseOptions stream_length

// A multi-tenant stream: each tenant gets its own Zipf stream (distinct
// seed, so per-group heavy sets differ), rows then interleaved
// round-robin so no group arrives as one contiguous run.
std::vector<Row> MultiTenantStream(const std::vector<uint64_t>& tenants,
                                   uint64_t per_tenant_items,
                                   uint64_t stream_seed) {
  std::vector<std::vector<uint64_t>> streams;
  for (size_t t = 0; t < tenants.size(); ++t) {
    streams.push_back(MakeZipfStream(/*n=*/4096, 1.2, per_tenant_items,
                                     stream_seed + t * 101));
  }
  std::vector<Row> rows;
  std::vector<size_t> cursor(tenants.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t t = 0; t < tenants.size(); ++t) {
      for (int k = 0; k < 3 && cursor[t] < streams[t].size(); ++k) {
        rows.push_back({tenants[t], streams[t][cursor[t]++]});
        progressed = true;
      }
    }
  }
  return rows;
}

std::vector<uint8_t> MustSave(const GroupedSummary& grouped) {
  std::vector<uint8_t> bytes;
  const Status s = SaveGrouped(grouped, &bytes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return bytes;
}

void Reseal(std::vector<uint8_t>& bytes) {
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
}

// ---- Conformance ------------------------------------------------------

TEST(GroupedSummaryTest, PerGroupDefinitionOneConformance) {
  // Definition 1, per tenant: every item with frequency > phi * m_g in
  // group g's OWN substream must be reported for g, and nothing reported
  // may fall below (phi - eps) * m_g.  Cross-tenant traffic must not
  // bleed: tenant 1's elephant is invisible to tenant 2.
  const std::vector<uint64_t> tenants = {3, 17, 4242, 900001};
  const auto rows = MultiTenantStream(tenants, kPerTenantItems, 1);
  for (const std::string algorithm :
       {"space_saving", "misra_gries", "count_min", "bdw_optimal"}) {
    SCOPED_TRACE(algorithm);
    auto grouped = GroupedSummary::Create(GroupedOptions(algorithm));
    ASSERT_NE(grouped, nullptr);
    std::map<uint64_t, std::map<uint64_t, uint64_t>> truth;
    std::map<uint64_t, uint64_t> totals;
    for (const Row& r : rows) {
      grouped->Update(r.group, r.item);
      ++truth[r.group][r.item];
      ++totals[r.group];
    }
    EXPECT_EQ(grouped->ItemsProcessed(), rows.size());
    EXPECT_EQ(grouped->group_count(), tenants.size());

    const double phi = BaseOptions().phi;
    const double eps = BaseOptions().epsilon;
    for (const uint64_t g : tenants) {
      const double m = static_cast<double>(totals[g]);
      const auto reported = grouped->HeavyHitters(g, phi);
      std::map<uint64_t, double> reported_by_item;
      for (const auto& e : reported) reported_by_item[e.item] = e.estimate;
      for (const auto& [item, count] : truth[g]) {
        if (static_cast<double>(count) > phi * m) {
          EXPECT_TRUE(reported_by_item.count(item))
              << "group " << g << " missed heavy item " << item;
        }
      }
      for (const auto& e : reported) {
        const auto it = truth[g].find(e.item);
        const double true_count =
            it == truth[g].end() ? 0.0 : static_cast<double>(it->second);
        EXPECT_GE(true_count, (phi - eps) * m - 1e-9)
            << "group " << g << " reported light item " << e.item;
      }
    }
    // Unknown groups answer empty, not garbage.
    EXPECT_EQ(grouped->Find(55555), nullptr);
    EXPECT_EQ(grouped->Estimate(55555, 0), 0.0);
    EXPECT_TRUE(grouped->HeavyHitters(55555, phi).empty());
  }
}

TEST(GroupedSummaryTest, ColumnarMatchesScalarBitForBit) {
  // Same differential contract as tests/columnar_differential_test.cc,
  // lifted to (group, item) pairs: the run-detecting UpdateColumn must be
  // state-identical to the scalar Update loop, PRNG draws included.
  const std::vector<uint64_t> tenants = {1, 2, 3, 4, 5, 6, 7};
  const auto rows = MultiTenantStream(tenants, 2048, 2);
  std::vector<uint64_t> groups, items;
  for (const Row& r : rows) {
    groups.push_back(r.group);
    items.push_back(r.item);
  }
  for (const std::string algorithm :
       {"space_saving", "sticky_sampling", "count_min", "bdw_simple",
        "bdw_optimal", "windowed:misra_gries"}) {
    SCOPED_TRACE(algorithm);
    auto scalar = GroupedSummary::Create(GroupedOptions(algorithm));
    auto columnar = GroupedSummary::Create(GroupedOptions(algorithm));
    ASSERT_NE(scalar, nullptr);
    ASSERT_NE(columnar, nullptr);
    for (const Row& r : rows) scalar->Update(r.group, r.item);
    size_t offset = 0;
    const size_t sizes[] = {1, 7, 0, 333, 4096};
    size_t s = 0;
    while (offset < rows.size()) {
      const size_t take =
          std::min(sizes[s++ % 5], rows.size() - offset);
      columnar->UpdateColumn(groups.data() + offset, items.data() + offset,
                             take);
      offset += take;
    }
    EXPECT_EQ(scalar->ItemsProcessed(), columnar->ItemsProcessed());
    EXPECT_EQ(scalar->GroupKeys(), columnar->GroupKeys());
    EXPECT_EQ(MustSave(*scalar), MustSave(*columnar))
        << algorithm << ": grouped UpdateColumn diverged from Update";
  }
}

TEST(GroupedSummaryTest, TopGroupsOrdersByItemsThenKey) {
  auto grouped = GroupedSummary::Create(GroupedOptions("exact"));
  ASSERT_NE(grouped, nullptr);
  // Loads: group 10 -> 50 items, 20 -> 80, 30 -> 50, 40 -> 10.
  const std::vector<std::pair<uint64_t, int>> loads = {
      {10, 50}, {20, 80}, {30, 50}, {40, 10}};
  for (const auto& [g, n] : loads) {
    for (int i = 0; i < n; ++i) grouped->Update(g, static_cast<uint64_t>(i));
  }
  const auto all = grouped->TopGroups(0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].group, 20u);
  EXPECT_EQ(all[0].items, 80u);
  // 50-item tie breaks by key ascending.
  EXPECT_EQ(all[1].group, 10u);
  EXPECT_EQ(all[2].group, 30u);
  EXPECT_EQ(all[3].group, 40u);
  const auto top2 = grouped->TopGroups(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].group, 20u);
  EXPECT_EQ(top2[1].group, 10u);
  EXPECT_EQ(grouped->GroupKeys(),
            (std::vector<uint64_t>{10, 20, 30, 40}));
}

// ---- Eviction ---------------------------------------------------------

TEST(GroupedSummaryTest, MaxGroupsEvictsLeastRecentlyUpdated) {
  GroupedSummaryOptions options = GroupedOptions("space_saving");
  options.max_groups = 3;
  auto grouped = GroupedSummary::Create(options);
  ASSERT_NE(grouped, nullptr);
  for (uint64_t g = 1; g <= 3; ++g) {
    for (int i = 0; i < 10; ++i) grouped->Update(g, 7);
  }
  // Recency now 3 > 2 > 1; refresh group 1 so 2 becomes the LRU tail.
  grouped->Update(1, 7);
  grouped->Update(4, 7);  // 4th group -> evict group 2
  EXPECT_EQ(grouped->group_count(), 3u);
  EXPECT_EQ(grouped->Find(2), nullptr);
  EXPECT_NE(grouped->Find(1), nullptr);
  EXPECT_NE(grouped->Find(3), nullptr);
  EXPECT_NE(grouped->Find(4), nullptr);
  EXPECT_EQ(grouped->evicted_groups(), 1u);
  EXPECT_EQ(grouped->evicted_items(), 10u);
  // ItemsProcessed stays monotonic across the eviction.
  EXPECT_EQ(grouped->ItemsProcessed(), 32u);

  // An evicted key that returns starts from scratch as the MRU.
  grouped->Update(2, 7);
  EXPECT_EQ(grouped->group_count(), 3u);
  EXPECT_EQ(grouped->evicted_groups(), 2u);  // group 3 was the tail
  EXPECT_EQ(grouped->Find(3), nullptr);
  ASSERT_NE(grouped->Find(2), nullptr);
  EXPECT_EQ(grouped->Find(2)->ItemsProcessed(), 1u);
}

TEST(GroupedSummaryTest, MemoryBudgetEvictsUntilUnderOrOneGroup) {
  GroupedSummaryOptions options = GroupedOptions("space_saving");
  // Roughly two groups' worth of charge: entry overhead + a small
  // structure.  The exact constant doesn't matter, only that feeding many
  // groups forces evictions and charged_bytes() converges under budget.
  auto probe = GroupedSummary::Create(options);
  ASSERT_NE(probe, nullptr);
  probe->Update(1, 1);
  const size_t one_group = probe->charged_bytes();
  ASSERT_GT(one_group, 0u);
  options.memory_budget_bytes = one_group * 5 / 2;

  auto grouped = GroupedSummary::Create(options);
  ASSERT_NE(grouped, nullptr);
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    grouped->Update(rng.UniformU64(64), rng.UniformU64(1000));
  }
  EXPECT_GT(grouped->evicted_groups(), 0u);
  EXPECT_GE(grouped->group_count(), 1u);
  EXPECT_LE(grouped->charged_bytes(), options.memory_budget_bytes);
  EXPECT_GE(grouped->MemoryUsageBytes(), grouped->charged_bytes());
  // Totals still account for every ingested item, evicted or not.
  EXPECT_EQ(grouped->ItemsProcessed(), 5000u);
}

TEST(GroupedSummaryTest, ChurnKeepsFootprintBounded) {
  // Every key is new, so every update past the 8th evicts: the footprint
  // must track the live groups, not the keys ever seen.
  GroupedSummaryOptions options = GroupedOptions("space_saving");
  options.max_groups = 8;
  auto grouped = GroupedSummary::Create(options);
  ASSERT_NE(grouped, nullptr);
  constexpr uint64_t kKeys = 100000;
  size_t footprint_at_capacity = 0;
  for (uint64_t key = 0; key < kKeys; ++key) {
    grouped->Update(key, key);
    if (key == 7) footprint_at_capacity = grouped->MemoryUsageBytes();
    if (key >= 7) {
      ASSERT_LE(grouped->MemoryUsageBytes(), 2 * footprint_at_capacity)
          << "after key " << key;
    }
  }
  EXPECT_EQ(grouped->group_count(), 8u);
  EXPECT_EQ(grouped->evicted_groups(), kKeys - 8);
  EXPECT_EQ(grouped->Find(0), nullptr);
  for (uint64_t key = kKeys - 8; key < kKeys; ++key) {
    EXPECT_NE(grouped->Find(key), nullptr) << "key " << key;
  }
}

// ---- Snapshots --------------------------------------------------------

TEST(GroupedSummaryTest, SaveLoadContinueIsBitExact) {
  // The strongest statement a reload can make: ingesting the second half
  // after a save/load produces the same bytes as never having saved.
  // This only holds if per-group seeds re-derive exactly (bdw_optimal's
  // PRNG replays) and MRU->LRU order survives the trip.
  //
  // Byte-level comparisons apply only to canonically-serialized
  // algorithms: sticky_sampling and count_min's candidate set write a
  // std::unordered_map in iteration order, and a reloaded map's bucket
  // history legitimately differs from the incrementally-grown original,
  // so those re-saves permute entries while answering identically.  The
  // kByteExact flag switches between the bit-level and the
  // answer-level equivalence claim per algorithm.
  const std::vector<uint64_t> tenants = {11, 22, 33, 44, 55};
  const auto rows = MultiTenantStream(tenants, 2048, 3);
  const size_t half = rows.size() / 2;
  const std::vector<std::pair<std::string, bool>> cases = {
      {"space_saving", true},
      {"bdw_optimal", true},
      {"sticky_sampling", false},
      {"windowed:count_min", false}};
  for (const auto& [algorithm, byte_exact] : cases) {
    SCOPED_TRACE(algorithm);
    GroupedSummaryOptions options = GroupedOptions(algorithm);
    options.max_groups = 4;  // one tenant gets evicted along the way
    auto straight = GroupedSummary::Create(options);
    auto reloaded_src = GroupedSummary::Create(options);
    ASSERT_NE(straight, nullptr);
    ASSERT_NE(reloaded_src, nullptr);
    for (size_t i = 0; i < half; ++i) {
      straight->Update(rows[i].group, rows[i].item);
      reloaded_src->Update(rows[i].group, rows[i].item);
    }
    const std::vector<uint8_t> mid = MustSave(*reloaded_src);
    Status status;
    auto reloaded = LoadGrouped(mid, &status);
    ASSERT_NE(reloaded, nullptr) << status.ToString();
    EXPECT_EQ(reloaded->ItemsProcessed(), straight->ItemsProcessed());
    EXPECT_EQ(reloaded->GroupKeys(), straight->GroupKeys());
    if (byte_exact) {
      EXPECT_EQ(MustSave(*reloaded), mid) << "immediate re-save differs";
    }

    for (size_t i = half; i < rows.size(); ++i) {
      straight->Update(rows[i].group, rows[i].item);
      reloaded->Update(rows[i].group, rows[i].item);
    }
    if (byte_exact) {
      EXPECT_EQ(MustSave(*straight), MustSave(*reloaded))
          << algorithm << ": post-reload ingest diverged from never-saved";
    }
    // The answer-level claim holds for every algorithm: same groups,
    // same recency totals, and identical per-group reports (canonical
    // order), item estimates included.
    EXPECT_EQ(straight->GroupKeys(), reloaded->GroupKeys());
    EXPECT_EQ(straight->evicted_groups(), reloaded->evicted_groups());
    EXPECT_EQ(straight->evicted_items(), reloaded->evicted_items());
    for (const uint64_t g : straight->GroupKeys()) {
      const auto a = straight->HeavyHitters(g, options.summary.phi);
      const auto b = reloaded->HeavyHitters(g, options.summary.phi);
      ASSERT_EQ(a.size(), b.size()) << "group " << g;
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].item, b[k].item) << "group " << g;
        EXPECT_EQ(a[k].estimate, b[k].estimate) << "group " << g;
      }
    }
  }
}

// ---- Hostile containers ----------------------------------------------

class GroupedHostileTest : public testing::Test {
 protected:
  void SetUp() override {
    GroupedSummaryOptions options = GroupedOptions("space_saving");
    auto grouped = GroupedSummary::Create(options);
    ASSERT_NE(grouped, nullptr);
    const auto rows = MultiTenantStream({5, 6, 7}, 512, 4);
    for (const Row& r : rows) grouped->Update(r.group, r.item);
    bytes_ = MustSave(*grouped);
    ASSERT_GT(bytes_.size(), 24u);
  }

  std::vector<uint8_t> bytes_;
};

TEST_F(GroupedHostileTest, TruncationAlwaysErrorsNeverUB) {
  std::vector<size_t> cuts = {0, 1, 7, 8, 11, 12, 19, 20, 23, 24,
                              bytes_.size() - 4, bytes_.size() - 1};
  Rng rng(41);
  for (int i = 0; i < 24; ++i) cuts.push_back(rng.UniformU64(bytes_.size()));
  for (const size_t cut : cuts) {
    const std::vector<uint8_t> trunc(bytes_.begin(),
                                     bytes_.begin() + cut);
    Status status;
    EXPECT_EQ(LoadGrouped(trunc, &status), nullptr) << "cut=" << cut;
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
  }
  // Over-long input must fail the length consistency check too.
  std::vector<uint8_t> padded = bytes_;
  padded.resize(padded.size() + 16, 0);
  Status status;
  EXPECT_EQ(LoadGrouped(padded, &status), nullptr);
  EXPECT_FALSE(status.ok());
}

TEST_F(GroupedHostileTest, BitFlipsAreCaughtByCrc) {
  Rng rng(43);
  for (int t = 0; t < 48; ++t) {
    std::vector<uint8_t> flipped = bytes_;
    const size_t byte = rng.UniformU64(flipped.size());
    flipped[byte] ^= static_cast<uint8_t>(1u << rng.UniformU64(8));
    Status status;
    EXPECT_EQ(LoadGrouped(flipped, &status), nullptr) << "byte=" << byte;
    EXPECT_FALSE(status.ok());
  }
  // Untouched bytes still load, so the fuzz above is not vacuous.
  Status status;
  EXPECT_NE(LoadGrouped(bytes_, &status), nullptr) << status.ToString();
}

TEST_F(GroupedHostileTest, VersionBumpIsRejectedWithVersionError) {
  std::vector<uint8_t> bumped = bytes_;
  bumped[8] = static_cast<uint8_t>(kGroupedFormatVersion + 1);
  Reseal(bumped);
  Status status;
  EXPECT_EQ(LoadGrouped(bumped, &status), nullptr);
  EXPECT_NE(status.ToString().find("version"), std::string::npos)
      << status.ToString();
}

TEST_F(GroupedHostileTest, ResealedHostileEpsilonIsRejected) {
  // Past the CRC, domain validation must still hold: epsilon lives right
  // after the 1-byte name length + name chars in the bit stream.
  const size_t epsilon_offset = 20 + 1 + std::strlen("space_saving");
  for (const double hostile :
       {5e-324, 0.0, -0.25, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    std::vector<uint8_t> tampered = bytes_;
    uint64_t pattern;
    std::memcpy(&pattern, &hostile, sizeof(pattern));
    for (int i = 0; i < 8; ++i) {
      tampered[epsilon_offset + static_cast<size_t>(i)] =
          static_cast<uint8_t>(pattern >> (8 * i));
    }
    Reseal(tampered);
    Status status;
    EXPECT_EQ(LoadGrouped(tampered, &status), nullptr)
        << "epsilon=" << hostile;
    EXPECT_FALSE(status.ok());
  }
}

TEST_F(GroupedHostileTest, ResealedRandomHeaderTamperIsSafe) {
  const size_t options_start = 20 + 1 + std::strlen("space_saving");
  Rng rng(47);
  for (int t = 0; t < 16; ++t) {
    std::vector<uint8_t> tampered = bytes_;
    const size_t byte = options_start + rng.UniformU64(8 * 8);
    tampered[byte] ^= static_cast<uint8_t>(1u << rng.UniformU64(8));
    Reseal(tampered);
    Status status;
    auto loaded = LoadGrouped(tampered, &status);
    if (loaded != nullptr) {
      // Usable without UB is the bar; answers may legitimately differ.
      (void)loaded->TopGroups(0);
      for (const uint64_t g : loaded->GroupKeys()) {
        (void)loaded->HeavyHitters(g, 0.05);
      }
    } else {
      EXPECT_FALSE(status.ok());
    }
  }
}

// Forges a complete "L1HHGRUP" container from scratch so the group-table
// framing checks (not just the CRC) are what rejects it.
std::vector<uint8_t> ForgeGroupedContainer(
    uint64_t live_count, const std::vector<uint64_t>& keys,
    uint64_t payload_bits_delta) {
  const std::string name = "space_saving";
  const SummaryOptions base = BaseOptions();
  BitWriter stream;
  stream.WriteBits(name.size(), 8);
  for (const char c : name) stream.WriteBits(static_cast<uint8_t>(c), 8);
  stream.WriteDouble(base.epsilon);
  stream.WriteDouble(base.phi);
  stream.WriteDouble(base.delta);
  stream.WriteU64(base.universe_size);
  stream.WriteU64(base.stream_length);
  stream.WriteU64(base.seed);
  stream.WriteU64(base.window_size);
  stream.WriteU64(base.window_buckets);
  stream.WriteCounter(0);  // max_groups
  stream.WriteCounter(0);  // memory_budget_bytes
  // SaveGroups payload: totals, then the forged group table.
  stream.WriteCounter(keys.size() * 3);  // items_processed
  stream.WriteCounter(0);                // evicted_groups
  stream.WriteCounter(0);                // evicted_items
  stream.WriteCounter(live_count);
  auto donor = MakeSummary(name, base);
  for (int i = 0; i < 3; ++i) donor->Update(9, 1);
  BitWriter payload;
  EXPECT_TRUE(donor->SaveTo(payload).ok());
  for (const uint64_t key : keys) {
    stream.WriteU64(key);
    stream.WriteCounter(3);  // items
    stream.WriteCounter(payload.size_bits() + payload_bits_delta);
    for (size_t bit = 0; bit < payload.size_bits(); bit += 64) {
      const int nbits =
          static_cast<int>(std::min<size_t>(64, payload.size_bits() - bit));
      const uint64_t mask =
          nbits == 64 ? ~uint64_t{0} : ((uint64_t{1} << nbits) - 1);
      stream.WriteBits(payload.words()[bit / 64] & mask, nbits);
    }
  }
  std::vector<uint8_t> out;
  const char magic[8] = {'L', '1', 'H', 'H', 'G', 'R', 'U', 'P'};
  out.insert(out.end(), magic, magic + 8);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(kGroupedFormatVersion >> (8 * i)));
  }
  const uint64_t stream_bits = stream.size_bits();
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(stream_bits >> (8 * i)));
  }
  for (const uint64_t word : stream.words()) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<uint8_t>(word >> (8 * i)));
    }
  }
  const uint32_t crc = Crc32(out.data(), out.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return out;
}

TEST(GroupedHostilePayloadTest, WellFormedForgeryLoads) {
  // Sanity-check the forge itself: a consistent container must load, so
  // the rejections below are attributable to the specific defect planted.
  const auto bytes = ForgeGroupedContainer(2, {100, 200}, 0);
  Status status;
  auto loaded = LoadGrouped(bytes, &status);
  ASSERT_NE(loaded, nullptr) << status.ToString();
  EXPECT_EQ(loaded->group_count(), 2u);
  EXPECT_EQ(loaded->GroupKeys(), (std::vector<uint64_t>{100, 200}));
}

TEST(GroupedHostilePayloadTest, DuplicateGroupKeyIsRejected) {
  Status status;
  EXPECT_EQ(LoadGrouped(ForgeGroupedContainer(2, {100, 100}, 0), &status),
            nullptr);
  EXPECT_NE(status.ToString().find("duplicate"), std::string::npos)
      << status.ToString();
}

TEST(GroupedHostilePayloadTest, OverdeclaredPayloadLengthIsRejected) {
  // Declared group-payload length runs past the container end.
  Status status;
  EXPECT_EQ(
      LoadGrouped(ForgeGroupedContainer(1, {100}, 1u << 20), &status),
      nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(GroupedHostilePayloadTest, MisdeclaredPayloadLengthIsRejected) {
  // Payload length off by a few bits, with a second group on the wire so
  // the over-declared length still fits inside the container: the first
  // group's summary will not consume exactly its declared framing ->
  // clean rejection (the length-mismatch check, not the bounds check).
  for (const uint64_t delta : {uint64_t{3}, uint64_t{64}}) {
    Status status;
    EXPECT_EQ(
        LoadGrouped(ForgeGroupedContainer(2, {100, 200}, delta), &status),
        nullptr)
        << "delta=" << delta;
    EXPECT_FALSE(status.ok());
  }
}

TEST(GroupedHostilePayloadTest, OverdeclaredGroupCountIsRejected) {
  // live_count says 5 groups but only 2 are on the wire.
  Status status;
  EXPECT_EQ(LoadGrouped(ForgeGroupedContainer(5, {100, 200}, 0), &status),
            nullptr);
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace l1hh
