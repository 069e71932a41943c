#include "count/compact_counter_array.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "util/random.h"

namespace l1hh {
namespace {

TEST(CompactCounterArrayTest, StartsAtZero) {
  CompactCounterArray a(100);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(a.Get(i), 0u);
  EXPECT_EQ(a.Total(), 0u);
}

TEST(CompactCounterArrayTest, IncrementWithinNibble) {
  CompactCounterArray a(10);
  for (int i = 0; i < 14; ++i) a.Increment(3);
  EXPECT_EQ(a.Get(3), 14u);
  EXPECT_EQ(a.Get(2), 0u);
  EXPECT_EQ(a.Get(4), 0u);
}

TEST(CompactCounterArrayTest, OverflowsIntoSpill) {
  CompactCounterArray a(10);
  for (int i = 0; i < 1000; ++i) a.Increment(7);
  EXPECT_EQ(a.Get(7), 1000u);
  EXPECT_EQ(a.Total(), 1000u);
}

TEST(CompactCounterArrayTest, AddLargeDelta) {
  CompactCounterArray a(4);
  a.Add(0, 5);
  a.Add(0, 1000000);
  a.Add(1, 14);
  a.Add(1, 1);  // exactly to the nibble boundary
  EXPECT_EQ(a.Get(0), 1000005u);
  EXPECT_EQ(a.Get(1), 15u);
}

TEST(CompactCounterArrayTest, AdjacentNibblesIndependent) {
  CompactCounterArray a(16);
  for (size_t i = 0; i < 16; ++i) {
    for (size_t k = 0; k <= i; ++k) a.Increment(i);
  }
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(a.Get(i), i + 1);
}

TEST(CompactCounterArrayTest, MatchesReferenceOnRandomOps) {
  Rng rng(1);
  const size_t n = 257;
  CompactCounterArray a(n);
  std::vector<uint64_t> ref(n, 0);
  for (int op = 0; op < 100000; ++op) {
    const size_t i = rng.UniformU64(n);
    const uint64_t d = 1 + rng.UniformU64(20);
    a.Add(i, d);
    ref[i] += d;
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(a.Get(i), ref[i]);
}

TEST(CompactCounterArrayTest, SpaceBitsGrowsWithContent) {
  CompactCounterArray a(64);
  const size_t empty_bits = a.SpaceBits();
  EXPECT_EQ(empty_bits, 64u);  // one bit per empty slot
  a.Add(0, 1000);
  EXPECT_GT(a.SpaceBits(), empty_bits);
}

TEST(CompactCounterArrayTest, SerializeRoundTrip) {
  Rng rng(2);
  CompactCounterArray a(50);
  for (int op = 0; op < 5000; ++op) a.Increment(rng.UniformU64(50));
  BitWriter w;
  a.Serialize(w);
  BitReader r(w);
  CompactCounterArray b;
  b.Deserialize(r);
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(b.Get(i), a.Get(i));
}

TEST(CompactCounterArrayTest, SparseSerializeRoundTrip) {
  Rng rng(5);
  CompactCounterArray a(300);
  for (int op = 0; op < 500; ++op) a.Increment(rng.UniformU64(40));
  BitWriter w;
  a.SerializeSparse(w);
  BitReader r(w);
  CompactCounterArray b;
  b.DeserializeSparse(r, a.size());
  ASSERT_FALSE(r.overflow());
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(b.Get(i), a.Get(i));
}

TEST(CompactCounterArrayTest, SparseSerializeSkipsZeroRuns) {
  // One nonzero cell in a huge, otherwise-empty array: the sparse
  // encoding must cost O(log size) bits, not one bit per empty cell
  // (which is what the dense message format pays).
  CompactCounterArray a(100000);
  a.Add(73611, 9);
  BitWriter sparse;
  a.SerializeSparse(sparse);
  EXPECT_LT(sparse.size_bits(), 128u);
  BitWriter dense;
  a.Serialize(dense);
  EXPECT_GT(dense.size_bits(), 100000u);
  BitReader r(sparse);
  CompactCounterArray b;
  b.DeserializeSparse(r, a.size());
  ASSERT_FALSE(r.overflow());
  EXPECT_EQ(b.Get(73611), 9u);
  EXPECT_EQ(b.Total(), 9u);
}

TEST(CompactCounterArrayTest, SparseDeserializeRejectsUnexpectedSize) {
  CompactCounterArray a(50);
  a.Add(3, 7);
  BitWriter w;
  a.SerializeSparse(w);
  BitReader r(w);
  CompactCounterArray b;
  // Wrong expectation: the payload's size field (50) must be refused
  // without allocating, leaving the reader in an overflow state.
  b.DeserializeSparse(r, 49);
  EXPECT_TRUE(r.overflow());
  EXPECT_EQ(b.size(), 0u);
}

TEST(CompactCounterArrayTest, ResetClears) {
  CompactCounterArray a(8);
  a.Add(2, 500);
  a.Reset(8);
  EXPECT_EQ(a.Get(2), 0u);
  EXPECT_EQ(a.Total(), 0u);
}

// Fills `a` and `ref` with `ops` random adds over `cells` distinct cells,
// every one of them pushed past its nibble, with occasional huge deltas.
void FillSpilled(CompactCounterArray& a, std::map<size_t, uint64_t>& ref,
                 Rng& rng, size_t cells, int ops) {
  std::vector<size_t> picked;
  while (ref.size() < cells) {
    const size_t i = rng.UniformU64(a.size());
    if (ref.count(i) != 0) continue;
    const uint64_t d = 15 + rng.UniformU64(10);
    a.Add(i, d);
    ref[i] += d;
    picked.push_back(i);
  }
  for (int op = 0; op < ops; ++op) {
    const size_t i = picked[rng.UniformU64(picked.size())];
    const uint64_t d = rng.UniformU64(100) == 0 ? uint64_t{1} << 40
                                                : 1 + rng.UniformU64(20);
    a.Add(i, d);
    ref[i] += d;
  }
}

void ExpectMatches(const CompactCounterArray& a,
                   const std::map<size_t, uint64_t>& ref) {
  uint64_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto it = ref.find(i);
    const uint64_t want = it == ref.end() ? 0 : it->second;
    ASSERT_EQ(a.Get(i), want) << "cell " << i;
    total += want;
  }
  EXPECT_EQ(a.Total(), total);
}

TEST(CompactCounterArrayTest, ManySpilledCellsMatchReference) {
  Rng rng(11);
  const size_t n = size_t{1} << 16;
  const size_t cells = 12000;
  CompactCounterArray a(n);
  std::map<size_t, uint64_t> ref;
  FillSpilled(a, ref, rng, cells, 50000);  // grows the table many times
  ExpectMatches(a, ref);
  // 16-byte slots at <= 3/4 load, doubling: under 3 slots per spilled
  // cell on top of the nibble array.
  EXPECT_GE(a.HeapBytes(), n / 2 + 16 * cells);
  EXPECT_LE(a.HeapBytes(), n / 2 + 16 * 3 * cells);
}

TEST(CompactCounterArrayTest, AddFromSumsSpilledArrays) {
  Rng rng(12);
  const size_t n = 20000;
  CompactCounterArray a(n), b(n);
  std::map<size_t, uint64_t> ref_a, ref_b;
  FillSpilled(a, ref_a, rng, 3000, 10000);
  FillSpilled(b, ref_b, rng, 3000, 10000);
  // Nibble-only cells on both sides whose sum spills.
  a.Add(n - 1, 9);
  b.Add(n - 1, 9);
  ref_a[n - 1] += 9;
  ref_b[n - 1] += 9;
  ASSERT_TRUE(a.AddFrom(b));
  for (const auto& [i, v] : ref_b) ref_a[i] += v;
  ExpectMatches(a, ref_a);
  EXPECT_FALSE(a.AddFrom(CompactCounterArray(n + 1)));
}

TEST(CompactCounterArrayTest, ResetThenReuseSpillTable) {
  Rng rng(13);
  CompactCounterArray a(4096);
  std::map<size_t, uint64_t> ref;
  FillSpilled(a, ref, rng, 1000, 5000);
  a.Reset(4096);
  ExpectMatches(a, {});
  ref.clear();
  FillSpilled(a, ref, rng, 1500, 5000);
  ExpectMatches(a, ref);
}

TEST(CompactCounterArrayTest, EncodingsIgnoreInsertionOrder) {
  // Different add orders leave the spill table laid out differently; the
  // wire bytes must depend on the counter contents alone.
  Rng rng(14);
  const size_t n = 5000;
  std::vector<std::pair<size_t, uint64_t>> adds;
  for (int op = 0; op < 20000; ++op) {
    adds.emplace_back(rng.UniformU64(n / 4), 1 + rng.UniformU64(40));
  }
  CompactCounterArray forward(n), backward(n);
  for (const auto& [i, d] : adds) forward.Add(i, d);
  for (auto it = adds.rbegin(); it != adds.rend(); ++it) {
    backward.Add(it->first, it->second);
  }
  for (const bool sparse : {false, true}) {
    BitWriter f, b;
    if (sparse) {
      forward.SerializeSparse(f);
      backward.SerializeSparse(b);
    } else {
      forward.Serialize(f);
      backward.Serialize(b);
    }
    EXPECT_EQ(f.size_bits(), b.size_bits()) << "sparse=" << sparse;
    EXPECT_EQ(f.words(), b.words()) << "sparse=" << sparse;
  }
}

// Decoding sizes the spill table once for every spilled cell; the table
// ends the size a cell-by-cell insert grows it to, cells of exactly 15
// (nibble 15, no slot) take no slot, and the bytes re-encode unchanged.
TEST(CompactCounterArrayTest, DecodeSizesSpillTableOnce) {
  for (const size_t spilled : {0, 1, 6, 7, 100, 1000}) {
    SCOPED_TRACE(spilled);
    const size_t n = 4 * spilled + 64;
    CompactCounterArray a(n);
    for (size_t k = 0; k < spilled; ++k) a.Add(4 * k, 16 + k);
    a.Add(n - 1, 15);
    a.Add(n - 2, 3);
    for (const bool sparse : {false, true}) {
      BitWriter w;
      if (sparse) {
        a.SerializeSparse(w);
      } else {
        a.Serialize(w);
      }
      BitReader r(w);
      CompactCounterArray b;
      if (sparse) {
        b.DeserializeSparse(r, n);
      } else {
        b.Deserialize(r);
      }
      ASSERT_FALSE(r.overflow());
      EXPECT_EQ(b.HeapBytes(), a.HeapBytes()) << "sparse=" << sparse;
      EXPECT_EQ(b.Total(), a.Total());
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(b.Get(i), a.Get(i)) << i;
      BitWriter again;
      if (sparse) {
        b.SerializeSparse(again);
      } else {
        b.Serialize(again);
      }
      EXPECT_EQ(again.words(), w.words()) << "sparse=" << sparse;
    }
  }
}

}  // namespace
}  // namespace l1hh
