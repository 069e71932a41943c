#include "count/compact_counter_array.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace l1hh {
namespace {

constexpr uint64_t kNibbleLowBits = 0x1111111111111111ULL;

/// Bit 4k set iff nibble k of w is nonzero.
uint64_t NonzeroNibbles(uint64_t w) {
  return (w | w >> 1 | w >> 2 | w >> 3) & kNibbleLowBits;
}

/// Number of nonzero nibbles in w, without a popcount instruction.
size_t CountNonzeroNibbles(uint64_t w) {
  const uint64_t m = NonzeroNibbles(w);
  const uint64_t per_byte = (m + (m >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<size_t>((per_byte * 0x0101010101010101ULL) >> 56);
}

/// Gamma codes packed into a local 64-bit word, handed to the writer one
/// full word at a time.  The bits are exactly those of the matching
/// BitWriter calls; codes longer than 63 bits (v >= 2^32) go through
/// WriteGamma itself.
class GammaSink {
 public:
  explicit GammaSink(BitWriter& out) : out_(out) {}
  ~GammaSink() { out_.WriteBits(acc_, used_); }
  GammaSink(const GammaSink&) = delete;
  GammaSink& operator=(const GammaSink&) = delete;

  /// The low `nbits` bits of `code` (nbits in [1, 64], higher bits zero).
  void Put(uint64_t code, int nbits) {
    acc_ |= code << used_;
    used_ += nbits;
    if (used_ < 64) return;
    out_.WriteBits(acc_, 64);
    used_ -= 64;
    acc_ = used_ == 0 ? 0 : code >> (nbits - used_);
  }

  /// `count` one-bits: the dense code of `count` empty cells.
  void Ones(size_t count) {
    for (; count >= 64; count -= 64) Put(~uint64_t{0}, 64);
    if (count > 0) Put((uint64_t{1} << count) - 1, static_cast<int>(count));
  }

  void Gamma(uint64_t v) {
    const int len = FloorLog2(v);
    if (static_cast<unsigned>(len) > 31) {
      out_.WriteBits(acc_, used_);
      acc_ = 0;
      used_ = 0;
      out_.WriteGamma(v);
      return;
    }
    Put(Code(v, len), 2 * len + 1);
  }

  void Counter(uint64_t v) { Gamma(v + 1); }

  /// Gamma(a) then Gamma(b), as one Put when both fit in 64 bits.
  void GammaPair(uint64_t a, uint64_t b) {
    const int len_a = FloorLog2(a);
    const int len_b = FloorLog2(b);
    if (static_cast<unsigned>(len_a + len_b) > 31) {
      Gamma(a);
      Gamma(b);
      return;
    }
    Put(Code(a, len_a) | Code(b, len_b) << (2 * len_a + 1),
        2 * (len_a + len_b) + 2);
  }

 private:
  /// len zeros, a one, then v's low len bits: what WriteGamma writes for
  /// v with FloorLog2(v) == len <= 31.
  static uint64_t Code(uint64_t v, int len) {
    return ((v ^ (uint64_t{1} << len)) << (len + 1)) | (uint64_t{1} << len);
  }

  BitWriter& out_;
  uint64_t acc_ = 0;
  int used_ = 0;  // bits of acc_ in use, always < 64 between calls
};

}  // namespace

void CompactCounterArray::Reset(size_t n) {
  size_ = n;
  total_ = 0;
  packed_.assign((n + 1) / 2, 0);
  spill_ = {};
  spill_count_ = 0;
}

void CompactCounterArray::Add(size_t i, uint64_t delta) {
  if (delta == 0) return;
  total_ += delta;
  const uint8_t nib = Nibble(i);
  if (nib < kNibbleMax) {
    const uint64_t v = nib + delta;
    if (v < kNibbleMax) {
      SetNibble(i, static_cast<uint8_t>(v));
      return;
    }
    SetNibble(i, kNibbleMax);
    if (v > kNibbleMax) SpillValue(i) += v - kNibbleMax;
    return;
  }
  SpillValue(i) += delta;
}

uint64_t& CompactCounterArray::SpillValue(size_t i) {
  if (spill_.empty()) ReserveSpill(1);
  size_t s = SpillProbe(i);
  if (spill_[s].key == 0) {  // a new spilled cell
    if ((spill_count_ + 1) * 4 > spill_.size() * 3) {
      ReserveSpill(spill_count_ + 1);
      s = SpillProbe(i);
    }
    spill_[s].key = i + 1;
    ++spill_count_;
  }
  return spill_[s].value;
}

void CompactCounterArray::ReserveSpill(size_t count) {
  if (count * 4 <= spill_.size() * 3) return;
  size_t slots = std::max<size_t>(spill_.size(), 8);
  while (count * 4 > slots * 3) slots *= 2;
  std::vector<SpillSlot> old(slots);
  old.swap(spill_);
  for (const SpillSlot& slot : old) {
    if (slot.key != 0) spill_[SpillProbe(slot.key - 1)] = slot;
  }
}

uint64_t CompactCounterArray::NibbleWord(size_t j) const {
  uint64_t w = 0;
  const size_t first = 8 * j;
  if (first + 8 <= packed_.size()) {
    std::memcpy(&w, packed_.data() + first, 8);
  } else {  // the last, partial word
    std::memcpy(&w, packed_.data() + first, packed_.size() - first);
  }
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

template <typename Fn>
void CompactCounterArray::ForEachNonzero(Fn&& fn) const {
  const size_t words = (size_ + 15) / 16;
  for (size_t j = 0; j < words; ++j) {
    const uint64_t w = NibbleWord(j);
    for (uint64_t m = NonzeroNibbles(w); m != 0; m &= m - 1) {
      const int shift = std::countr_zero(m);
      const size_t cell = 16 * j + static_cast<size_t>(shift >> 2);
      const uint64_t nib = (w >> shift) & 0xf;
      fn(cell, nib < kNibbleMax ? nib : SpilledValue(cell));
    }
  }
}

void CompactCounterArray::WriteDenseCells(BitWriter& out) const {
  GammaSink sink(out);
  size_t previous_end = 0;  // one past the last written cell
  ForEachNonzero([&](size_t cell, uint64_t v) {
    sink.Ones(cell - previous_end);  // WriteCounter(0) == one 1-bit
    sink.Counter(v);
    previous_end = cell + 1;
  });
  sink.Ones(size_ - previous_end);
}

bool CompactCounterArray::AddFrom(const CompactCounterArray& other) {
  if (other.size_ != size_) return false;
  ReserveSpill(spill_count_ + other.spill_count_);
  other.ForEachNonzero([this](size_t i, uint64_t v) { Add(i, v); });
  return true;
}

size_t CompactCounterArray::SpaceBits() const {
  size_t bits = size_;  // one bit per cell, plus each nonzero code's rest
  ForEachNonzero([&bits](size_t, uint64_t v) {
    bits += static_cast<size_t>(CounterBits(v)) - 1;
  });
  return bits;
}

size_t CompactCounterArray::HeapBytes() const {
  return packed_.capacity() + spill_.capacity() * sizeof(SpillSlot);
}

void CompactCounterArray::Serialize(BitWriter& out) const {
  out.WriteGamma(size_ + 1);
  WriteDenseCells(out);
}

void CompactCounterArray::InsertSpilled(
    const std::vector<SpillSlot>& spilled) {
  ReserveSpill(spilled.size());
  for (const SpillSlot& slot : spilled) {
    spill_[SpillProbe(slot.key - 1)] = slot;
  }
  spill_count_ = spilled.size();
}

void CompactCounterArray::ReadDenseCells(BitReader& in) {
  std::vector<SpillSlot> spilled;
  for (size_t i = 0; i < size_; ++i) Assign(i, in.ReadCounter(), &spilled);
  InsertSpilled(spilled);
}

void CompactCounterArray::Deserialize(BitReader& in) {
  Reset(in.CheckedCount(in.ReadGamma() - 1));
  ReadDenseCells(in);
}

void CompactCounterArray::SerializeSparse(BitWriter& out) const {
  // Sparse gap-coded cells: only nonzero cells go on the wire — cell
  // count, a format bit, nonzero count, then (gap-from-previous-nonzero,
  // value) pairs in index order, so runs of zero cells collapse into one
  // gamma-coded gap.  That wins big for low-occupancy grids (a sliding
  // window's bucket states, a shard's partial stream, an early
  // checkpoint) but LOSES on a saturated grid, where the gap codes are
  // pure overhead over the dense one-gamma-per-cell form; the encoder
  // prices both and writes whichever is smaller, flagged by the format
  // bit, so the payload is never worse than min(dense, sparse) + 1.
  out.WriteGamma(size_ + 1);
  // The sparse form is written first, since grids large enough to matter
  // are mostly empty; the same walk prices the dense form, and a grid
  // where dense is no larger is rolled back and rewritten dense.
  const size_t flag_at = out.size_bits();
  out.WriteBool(true);
  size_t nonzero = 0;
  for (size_t j = 0; j < (size_ + 15) / 16; ++j) {
    nonzero += CountNonzeroNibbles(NibbleWord(j));
  }
  out.WriteCounter(nonzero);
  size_t dense_bits = size_;  // one bit per cell, plus each nonzero's rest
  {
    GammaSink sink(out);
    size_t previous_end = 0;  // one past the last written cell
    ForEachNonzero([&](size_t cell, uint64_t v) {
      sink.GammaPair(cell - previous_end + 1, v);  // gap + 1, value
      dense_bits += static_cast<size_t>(CounterBits(v)) - 1;
      previous_end = cell + 1;
    });
  }
  const size_t sparse_bits = out.size_bits() - flag_at - 1;
  if (sparse_bits < dense_bits) return;
  out.Truncate(flag_at);
  out.WriteBool(false);
  WriteDenseCells(out);
}

void CompactCounterArray::DeserializeSparse(BitReader& in,
                                            size_t expected_size) {
  const uint64_t claimed = in.ReadGamma() - 1;
  if (claimed != expected_size) {
    // Shape mismatch with the caller's configuration: refuse before any
    // allocation (a hostile size field must not drive Reset).
    (void)in.CheckedCount(~uint64_t{0});  // force overflow status
    Reset(0);
    return;
  }
  const size_t n = static_cast<size_t>(claimed);
  Reset(n);
  if (!in.ReadBool()) {  // dense fallback (saturated grid)
    ReadDenseCells(in);
    return;
  }
  uint64_t nonzero = in.CheckedCount(in.ReadCounter());
  if (nonzero > n) {
    // More nonzero cells than cells: hostile input, not a truncation.
    nonzero = in.CheckedCount(~uint64_t{0});  // force overflow status
  }
  std::vector<SpillSlot> spilled;
  size_t next = 0;
  for (uint64_t k = 0; k < nonzero && !in.overflow(); ++k) {
    const uint64_t gap = in.ReadCounter();
    if (gap >= n - next) {  // would land past the end of the array
      (void)in.CheckedCount(~uint64_t{0});
      break;
    }
    next += gap;
    Assign(next, in.ReadGamma(), &spilled);
    ++next;
  }
  InsertSpilled(spilled);
}

}  // namespace l1hh
