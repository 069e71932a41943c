// Differential tests for the word-parallel T2/T3 grid codec (ctest label
// `io`).  CompactCounterArray's encoders read 16 cells per nibble word and
// pack gamma codes into a 64-bit accumulator, and BitReader::ReadGamma
// finds the prefix with one 64-bit peek.  The wire format did not change,
// so this file carries the previous per-cell encoders and the previous
// bit-at-a-time ReadGamma as reference code, written against the public
// Get / size / Add / BitWriter / BitReader API only, and requires
//   * the encoders' output to equal the reference bit for bit, on random,
//     all-zero, saturated (dense flag), sparse, many-spill and >= 2^32
//     arrays of odd sizes;
//   * ReadGamma to agree with the reference on value, position_bits(),
//     overflow() and overflow_position() for valid and hostile streams;
//   * the decoders to leave the same cells and reader state as the
//     reference decoders on every truncation of an encoding;
//   * the slicing-by-8 container CRC to equal a bitwise CRC-32;
//   * SaveSummary's bytes for every registered structure to keep the size
//     and CRC-32 the encoder produced before the word-parallel rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "count/compact_counter_array.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"
#include "util/bit_stream.h"
#include "util/crc32.h"
#include "util/random.h"

namespace l1hh {
namespace {

// ---- Reference code: the per-cell codec the word-parallel one replaced --

void ReferenceSerialize(const CompactCounterArray& a, BitWriter& out) {
  out.WriteGamma(a.size() + 1);
  for (size_t i = 0; i < a.size(); ++i) out.WriteCounter(a.Get(i));
}

void ReferenceSerializeSparse(const CompactCounterArray& a, BitWriter& out) {
  out.WriteGamma(a.size() + 1);
  size_t dense_bits = 0;
  size_t sparse_bits = 0;
  size_t nonzero = 0;
  size_t previous_end = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t v = a.Get(i);
    dense_bits += static_cast<size_t>(CounterBits(v));
    if (v == 0) continue;
    sparse_bits += static_cast<size_t>(CounterBits(i - previous_end)) +
                   static_cast<size_t>(EliasGammaBits(v));
    previous_end = i + 1;
    ++nonzero;
  }
  sparse_bits += static_cast<size_t>(CounterBits(nonzero));
  const bool sparse = sparse_bits < dense_bits;
  out.WriteBool(sparse);
  if (!sparse) {
    for (size_t i = 0; i < a.size(); ++i) out.WriteCounter(a.Get(i));
    return;
  }
  out.WriteCounter(nonzero);
  previous_end = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t v = a.Get(i);
    if (v == 0) continue;
    out.WriteCounter(i - previous_end);
    out.WriteGamma(v);
    previous_end = i + 1;
  }
}

/// Marks the reader's overflow at its current position (the public
/// route: a count no stream can hold).
void ForceOverflow(BitReader& in) { (void)in.CheckedCount(~uint64_t{0}); }

uint64_t ReferenceReadGamma(BitReader& in) {
  int len = 0;
  while (!in.overflow() && in.ReadBits(1) == 0) {
    ++len;
    if (len >= 64) {
      ForceOverflow(in);
      return 1;
    }
  }
  if (in.overflow()) return 1;
  const uint64_t low = in.ReadBits(len);
  return (uint64_t{1} << len) + low;
}

uint64_t ReferenceReadCounter(BitReader& in) {
  return ReferenceReadGamma(in) - 1;
}

void ReferenceDeserialize(BitReader& in, CompactCounterArray* a) {
  const size_t n = in.CheckedCount(ReferenceReadGamma(in) - 1);
  a->Reset(n);
  for (size_t i = 0; i < n; ++i) a->Add(i, ReferenceReadCounter(in));
}

void ReferenceDeserializeSparse(BitReader& in, size_t expected_size,
                                CompactCounterArray* a) {
  const uint64_t claimed = ReferenceReadGamma(in) - 1;
  if (claimed != expected_size) {
    ForceOverflow(in);
    a->Reset(0);
    return;
  }
  const size_t n = static_cast<size_t>(claimed);
  a->Reset(n);
  if (in.ReadBits(1) == 0) {
    for (size_t i = 0; i < n; ++i) a->Add(i, ReferenceReadCounter(in));
    return;
  }
  uint64_t nonzero = in.CheckedCount(ReferenceReadCounter(in));
  if (nonzero > n) nonzero = in.CheckedCount(~uint64_t{0});
  size_t next = 0;
  for (uint64_t k = 0; k < nonzero && !in.overflow(); ++k) {
    const uint64_t gap = ReferenceReadCounter(in);
    if (gap >= n - next) {
      ForceOverflow(in);
      break;
    }
    next += gap;
    a->Add(next, ReferenceReadGamma(in));
    ++next;
  }
}

// ---- Helpers ------------------------------------------------------------

void ExpectSameBits(const BitWriter& got, const BitWriter& want) {
  ASSERT_EQ(got.size_bits(), want.size_bits());
  EXPECT_EQ(got.words(), want.words());
}

void ExpectSameReader(const BitReader& got, const BitReader& want) {
  EXPECT_EQ(got.position_bits(), want.position_bits());
  EXPECT_EQ(got.overflow(), want.overflow());
  if (want.overflow()) {
    EXPECT_EQ(got.overflow_position(), want.overflow_position());
  }
}

void ExpectSameCells(const CompactCounterArray& got,
                     const CompactCounterArray& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.Total(), want.Total());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.Get(i), want.Get(i)) << "cell " << i;
  }
}

/// Both encoders, new against reference, bit for bit; then both decoders
/// of each encoding restore the cells.
void CheckEncoders(const CompactCounterArray& a) {
  SCOPED_TRACE("size " + std::to_string(a.size()));
  BitWriter dense;
  a.Serialize(dense);
  BitWriter dense_ref;
  ReferenceSerialize(a, dense_ref);
  ExpectSameBits(dense, dense_ref);

  BitWriter sparse;
  a.SerializeSparse(sparse);
  BitWriter sparse_ref;
  ReferenceSerializeSparse(a, sparse_ref);
  ExpectSameBits(sparse, sparse_ref);

  BitReader dense_in(dense);
  CompactCounterArray b;
  b.Deserialize(dense_in);
  EXPECT_FALSE(dense_in.overflow());
  EXPECT_EQ(dense_in.remaining_bits(), 0u);
  ExpectSameCells(b, a);

  BitReader sparse_in(sparse);
  CompactCounterArray c;
  c.DeserializeSparse(sparse_in, a.size());
  EXPECT_FALSE(sparse_in.overflow());
  EXPECT_EQ(sparse_in.remaining_bits(), 0u);
  ExpectSameCells(c, a);
}

/// Whether SerializeSparse picked the sparse format (the bit after the
/// size code).
bool PicksSparse(const CompactCounterArray& a) {
  BitWriter w;
  a.SerializeSparse(w);
  BitReader r(w);
  (void)r.ReadGamma();
  return r.ReadBool();
}

CompactCounterArray RandomArray(size_t n, double fill, uint64_t max_value,
                                Rng& rng) {
  CompactCounterArray a(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.UniformDouble() < fill) a.Add(i, 1 + rng.UniformU64(max_value));
  }
  return a;
}

const size_t kOddSizes[] = {0, 1, 2, 15, 16, 17, 31, 33, 63, 65, 127, 1001,
                            4097};

// ---- Encoders -------------------------------------------------------------

TEST(GridCodecTest, AllZeroArraysMatchReference) {
  for (const size_t n : kOddSizes) {
    CheckEncoders(CompactCounterArray(n));
  }
  CheckEncoders(CompactCounterArray(100003));
}

TEST(GridCodecTest, RandomArraysMatchReference) {
  Rng rng(101);
  for (const size_t n : kOddSizes) {
    for (const double fill : {0.01, 0.2, 0.6, 1.0}) {
      for (const uint64_t max_value : {uint64_t{3}, uint64_t{14},
                                       uint64_t{40}, uint64_t{100000}}) {
        CheckEncoders(RandomArray(n, fill, max_value, rng));
      }
    }
  }
}

TEST(GridCodecTest, SaturatedGridTakesDenseFormatAndMatches) {
  Rng rng(7);
  const CompactCounterArray a = RandomArray(4099, 1.0, 6, rng);
  EXPECT_FALSE(PicksSparse(a));
  CheckEncoders(a);
}

TEST(GridCodecTest, SparseGridTakesSparseFormatAndMatches) {
  Rng rng(8);
  const CompactCounterArray a = RandomArray(200001, 0.02, 30, rng);
  EXPECT_TRUE(PicksSparse(a));
  CheckEncoders(a);
}

TEST(GridCodecTest, ManySpillsMatchReference) {
  // Every nonzero cell past its nibble: each one reads the spill table,
  // including cells of exactly 15, which have no spill slot.
  Rng rng(9);
  CompactCounterArray a(5003);
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t roll = rng.UniformU64(4);
    if (roll == 0) continue;
    a.Add(i, roll == 1 ? 15 : 15 + rng.UniformU64(1u << 20));
  }
  CheckEncoders(a);
}

TEST(GridCodecTest, ValuesAtAndAbove2To32MatchReference) {
  // Gamma codes of 63 bits and longer than a word, at every phase of the
  // accumulator.
  for (const size_t n : {size_t{17}, size_t{64}, size_t{301}}) {
    Rng rng(n);
    CompactCounterArray a(n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.UniformU64(5)) {
        case 0: break;
        case 1: a.Add(i, (uint64_t{1} << 32) - 1); break;
        case 2: a.Add(i, uint64_t{1} << 32); break;
        case 3: a.Add(i, (uint64_t{1} << 62) + rng.UniformU64(1u << 30));
          break;
        default: a.Add(i, 1 + rng.UniformU64(12)); break;
      }
    }
    CheckEncoders(a);
  }
  // The sparse format with long values: short gap codes beside 61- to
  // 81-bit value codes, so (gap, value) pairs straddle the 64-bit mark.
  Rng rng(40);
  CompactCounterArray sparse(4001);
  for (size_t i = 0; i < sparse.size(); i += 37) {
    for (size_t k = 0; k < 4 && i + k < sparse.size(); k += 1 + k % 2) {
      sparse.Add(i + k, (uint64_t{1} << (30 + rng.UniformU64(11))) +
                            rng.UniformU64(1u << 20));
    }
  }
  EXPECT_TRUE(PicksSparse(sparse));
  CheckEncoders(sparse);
  // A gap code longer than 63 bits cannot occur (cells are < 2^32 apart in
  // any array that fits in memory), but a dense run of long values can.
  CompactCounterArray big(40);
  for (size_t i = 0; i < big.size(); ++i) big.Add(i, ~uint64_t{0} - 1 - i);
  CheckEncoders(big);
}

TEST(GridCodecTest, EncodersAppendAtAnyBitOffset) {
  // The grids ride inside a larger stream; the encoder's accumulator
  // starts wherever the writer stands.
  Rng rng(12);
  const CompactCounterArray a = RandomArray(777, 0.3, 50, rng);
  for (int offset = 0; offset < 64; ++offset) {
    BitWriter got;
    BitWriter want;
    got.WriteBits(0x5a5a5a5a5a5a5a5aULL, offset);
    want.WriteBits(0x5a5a5a5a5a5a5a5aULL, offset);
    a.SerializeSparse(got);
    a.Serialize(got);
    ReferenceSerializeSparse(a, want);
    ReferenceSerialize(a, want);
    ExpectSameBits(got, want);
  }
}

TEST(GridCodecTest, AddFromAndSpaceBitsMatchPerCellDefinitions) {
  Rng rng(13);
  for (const size_t n : kOddSizes) {
    CompactCounterArray a = RandomArray(n, 0.3, 40, rng);
    const CompactCounterArray b = RandomArray(n, 0.3, 40, rng);
    size_t bits = 0;
    for (size_t i = 0; i < n; ++i) {
      bits += static_cast<size_t>(CounterBits(a.Get(i)));
    }
    EXPECT_EQ(a.SpaceBits(), bits);
    std::vector<uint64_t> sum(n);
    for (size_t i = 0; i < n; ++i) sum[i] = a.Get(i) + b.Get(i);
    ASSERT_TRUE(a.AddFrom(b));
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(a.Get(i), sum[i]);
  }
}

// ---- ReadGamma -------------------------------------------------------------

/// Reads gammas with both readers until both overflow (or `max_reads`),
/// comparing after every read.
void CheckGammaReads(const std::vector<uint64_t>& words, size_t limit_bits,
                     int max_reads = 1000) {
  SCOPED_TRACE("limit " + std::to_string(limit_bits));
  BitReader got(words.data(), words.size(), limit_bits);
  BitReader want(words.data(), words.size(), limit_bits);
  for (int k = 0; k < max_reads; ++k) {
    ASSERT_EQ(got.ReadGamma(), ReferenceReadGamma(want)) << "read " << k;
    ExpectSameReader(got, want);
    if (want.overflow()) {
      // An overflowed reader keeps returning 1 without moving.
      EXPECT_EQ(got.ReadGamma(), ReferenceReadGamma(want));
      ExpectSameReader(got, want);
      return;
    }
  }
}

/// A stream of `zeros` zero bits, then a one, then `low_bits` ones.
std::vector<uint64_t> PrefixStream(size_t lead, int zeros, int low_bits,
                                   size_t* end_bits) {
  BitWriter w;
  w.WriteBits(~uint64_t{0}, static_cast<int>(lead));  // `lead` gamma(1)s
  for (int z = zeros; z > 0; z -= 32) w.WriteBits(0, std::min(z, 32));
  w.WriteBits(1, 1);
  for (int b = low_bits; b > 0; b -= 32) {
    w.WriteBits(~uint64_t{0}, std::min(b, 32));
  }
  *end_bits = w.size_bits();
  std::vector<uint64_t> words = w.words();
  words.push_back(0);  // room past the end, so limits can be varied
  return words;
}

TEST(GridCodecTest, ReadGammaMatchesReferenceOnLongPrefixes) {
  for (const size_t lead : {size_t{0}, size_t{1}, size_t{37}, size_t{63}}) {
    for (const int zeros : {31, 32, 62, 63, 64, 65, 100}) {
      size_t end = 0;
      const std::vector<uint64_t> words =
          PrefixStream(lead, zeros, std::min(zeros, 63), &end);
      CheckGammaReads(words, end);
      // Truncation anywhere inside the prefix, the one-bit or the tail.
      for (size_t cut = lead; cut < end; ++cut) {
        CheckGammaReads(words, cut);
      }
    }
  }
}

TEST(GridCodecTest, ReadGammaSixtyThreeZerosIsTheLargestValidCode) {
  size_t end = 0;
  const std::vector<uint64_t> words = PrefixStream(5, 63, 63, &end);
  BitReader r(words.data(), words.size(), end);
  for (int k = 0; k < 5; ++k) EXPECT_EQ(r.ReadGamma(), 1u);
  EXPECT_EQ(r.ReadGamma(), ~uint64_t{0});
  EXPECT_FALSE(r.overflow());
  EXPECT_EQ(r.position_bits(), end);
}

TEST(GridCodecTest, ReadGammaSixtyFourZerosOverflowsAfterTheLastZero) {
  size_t end = 0;
  const std::vector<uint64_t> words = PrefixStream(3, 64, 0, &end);
  BitReader r(words.data(), words.size(), end);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(r.ReadGamma(), 1u);
  EXPECT_EQ(r.ReadGamma(), 1u);
  EXPECT_TRUE(r.overflow());
  EXPECT_EQ(r.overflow_position(), 3u + 64u);
  EXPECT_EQ(r.position_bits(), 3u + 64u);
}

TEST(GridCodecTest, ReadGammaCodeStraddlingTheLastWord) {
  // Codes that cross the boundary into the final, partial word, with the
  // limit at and just before the code's end.
  for (size_t lead = 50; lead < 64; ++lead) {
    for (const int len : {1, 5, 9, 20}) {
      size_t end = 0;
      const std::vector<uint64_t> words = PrefixStream(lead, len, len, &end);
      CheckGammaReads(words, end);
      CheckGammaReads(words, end - 1);
      CheckGammaReads(words, end + 1);
    }
  }
}

TEST(GridCodecTest, ReadGammaMatchesReferenceOnRandomStreams) {
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint64_t> words(1 + rng.UniformU64(6));
    for (uint64_t& w : words) {
      // Sparse words make long prefixes; dense ones make short codes.
      const int density = static_cast<int>(rng.UniformU64(4));
      w = rng.NextU64();
      for (int d = 0; d < density; ++d) w &= rng.NextU64();
      if (rng.UniformU64(5) == 0) w = 0;
    }
    const size_t limit = rng.UniformU64(words.size() * 64 + 1);
    CheckGammaReads(words, limit);
  }
}

TEST(GridCodecTest, ReadGammaMatchesReferenceOnWrittenCodes) {
  Rng rng(22);
  BitWriter w;
  for (int k = 0; k < 2000; ++k) {
    const int width = 1 + static_cast<int>(rng.UniformU64(64));
    uint64_t v = width == 64 ? rng.NextU64()
                             : rng.NextU64() & ((uint64_t{1} << width) - 1);
    w.WriteGamma(v == 0 ? 1 : v);
  }
  std::vector<uint64_t> words = w.words();
  CheckGammaReads(words, w.size_bits(), 3000);
  for (int cut = 0; cut < 50; ++cut) {
    CheckGammaReads(words, rng.UniformU64(w.size_bits()), 3000);
  }
}

// ---- Decoders on truncated and hostile payloads ---------------------------

void CheckDecodersOnTruncations(const CompactCounterArray& a) {
  BitWriter dense;
  a.Serialize(dense);
  BitWriter sparse;
  a.SerializeSparse(sparse);
  const std::vector<uint64_t> dense_words = dense.words();
  const std::vector<uint64_t> sparse_words = sparse.words();
  for (size_t cut = 0; cut <= dense.size_bits(); ++cut) {
    BitReader got(dense_words.data(), dense_words.size(), cut);
    BitReader want(dense_words.data(), dense_words.size(), cut);
    CompactCounterArray g;
    CompactCounterArray r;
    g.Deserialize(got);
    ReferenceDeserialize(want, &r);
    ExpectSameReader(got, want);
    ExpectSameCells(g, r);
  }
  for (size_t cut = 0; cut <= sparse.size_bits(); ++cut) {
    BitReader got(sparse_words.data(), sparse_words.size(), cut);
    BitReader want(sparse_words.data(), sparse_words.size(), cut);
    CompactCounterArray g;
    CompactCounterArray r;
    g.DeserializeSparse(got, a.size());
    ReferenceDeserializeSparse(want, a.size(), &r);
    ExpectSameReader(got, want);
    ExpectSameCells(g, r);
  }
}

TEST(GridCodecTest, DecodersMatchReferenceOnEveryTruncation) {
  Rng rng(31);
  CheckDecodersOnTruncations(RandomArray(45, 0.5, 40, rng));     // sparse
  CheckDecodersOnTruncations(RandomArray(33, 1.0, 5, rng));      // dense
  CompactCounterArray big(19);
  big.Add(3, uint64_t{1} << 40);
  big.Add(18, 15);
  CheckDecodersOnTruncations(big);
}

TEST(GridCodecTest, DecodersMatchReferenceOnRandomBytes) {
  Rng rng(32);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint64_t> words(1 + rng.UniformU64(8));
    for (uint64_t& w : words) w = rng.NextU64() & rng.NextU64();
    // A plausible size code up front, so the decoders get past it.
    BitWriter head;
    const size_t n = 1 + rng.UniformU64(300);
    head.WriteGamma(n + 1);
    words[0] = (words[0] << head.size_bits()) | head.words()[0];
    const size_t limit = rng.UniformU64(words.size() * 64 + 1);
    {
      BitReader got(words.data(), words.size(), limit);
      BitReader want(words.data(), words.size(), limit);
      CompactCounterArray g;
      CompactCounterArray r;
      g.DeserializeSparse(got, n);
      ReferenceDeserializeSparse(want, n, &r);
      ExpectSameReader(got, want);
      ExpectSameCells(g, r);
    }
    {
      BitReader got(words.data(), words.size(), limit);
      BitReader want(words.data(), words.size(), limit);
      CompactCounterArray g;
      CompactCounterArray r;
      g.Deserialize(got);
      ReferenceDeserialize(want, &r);
      ExpectSameReader(got, want);
      ExpectSameCells(g, r);
    }
  }
}

// ---- Whole snapshots --------------------------------------------------------

uint32_t ReferenceCrc32(const uint8_t* p, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(GridCodecTest, ContainerCrcMatchesBitwiseReference) {
  const char check[] = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);  // the CRC-32 check value
  Rng rng(50);
  std::vector<uint8_t> bytes(300);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t start = 0; start < 9; ++start) {
    for (size_t len = 0; start + len <= bytes.size(); len += 1 + len / 8) {
      const uint8_t* p = bytes.data() + start;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len)) << start << "+" << len;
      const size_t split = len / 3;
      EXPECT_EQ(Crc32Update(Crc32(p, split), p + split, len - split),
                Crc32(p, len));
    }
  }
}

struct Golden {
  const char* config;
  const char* algorithm;
  size_t bytes;
  uint32_t crc;  // the container's CRC-32 trailer
};

// SaveSummary output of the per-cell encoder (the parent of the
// word-parallel codec), recorded by running this setup against it.  The
// "sparse" configuration leaves bdw_optimal's T2 and T3 in the sparse
// format; in "saturated", its T2 takes the dense fallback.
constexpr Golden kGoldens[] = {
    {"sparse", "bdw_optimal", 25664, 0xe76cc80fu},
    {"sparse", "bdw_simple", 1224, 0xb48f5433u},
    {"sparse", "count_min", 4088, 0x6403b346u},
    {"sparse", "count_sketch", 129192, 0x261a215cu},
    {"sparse", "exact", 116304, 0x17c35233u},
    {"sparse", "hashed_misra_gries", 1144, 0x100734b3u},
    {"sparse", "lossy_counting", 344, 0xcb7e1727u},
    {"sparse", "misra_gries", 424, 0x0df25069u},
    {"sparse", "space_saving", 1144, 0x2158d427u},
    {"sparse", "sticky_sampling", 5368, 0x1bd8de2eu},
    {"sparse", "windowed:bdw_optimal", 16936, 0x1d36e847u},
    {"saturated", "bdw_optimal", 5160, 0xa40a5f57u},
    {"saturated", "bdw_simple", 320, 0xa7f363fcu},
    {"saturated", "count_min", 496, 0x4e106d3fu},
    {"saturated", "count_sketch", 3408, 0xff300b2cu},
    {"saturated", "exact", 280616, 0xe89930c1u},
    {"saturated", "hashed_misra_gries", 272, 0xe7a3a967u},
    {"saturated", "lossy_counting", 152, 0x1c58de9cu},
    {"saturated", "misra_gries", 144, 0x1a1fb672u},
    {"saturated", "space_saving", 184, 0xb92ed6e4u},
    {"saturated", "sticky_sampling", 696, 0xb09215ebu},
    {"saturated", "windowed:bdw_optimal", 10464, 0x7d652af3u},
};

SummaryOptions GoldenOptions(const std::string& config) {
  const bool sparse = config == "sparse";
  SummaryOptions o;
  o.epsilon = sparse ? 0.01 : 0.2;
  o.phi = sparse ? 0.05 : 0.4;
  o.delta = 0.1;
  o.universe_size = uint64_t{1} << 20;
  o.stream_length = sparse ? 60000 : 200000;
  o.seed = 3;
  o.window_size = o.stream_length / 2;
  o.window_buckets = 4;
  return o;
}

TEST(GridCodecTest, EveryRegisteredStructureKeepsItsSnapshotBytes) {
  std::vector<std::string> covered;
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(std::string(g.config) + " " + g.algorithm);
    const SummaryOptions o = GoldenOptions(g.config);
    const std::vector<uint64_t> stream =
        MakeZipfStream(o.universe_size, 1.1, o.stream_length, /*seed=*/9);
    Status status;
    std::unique_ptr<Summary> s = MakeSummary(g.algorithm, o, &status);
    ASSERT_NE(s, nullptr) << status.ToString();
    s->UpdateColumn(stream.data(), stream.size());
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(SaveSummary(*s, &bytes).ok());
    ASSERT_EQ(bytes.size(), g.bytes);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size() - 4), g.crc);
    if (std::string(g.config) == "sparse") covered.push_back(g.algorithm);
  }
  for (const std::string& name : RegisteredSummaryNames()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), name), covered.end())
        << name << " has no golden snapshot";
  }
}

}  // namespace
}  // namespace l1hh
