#include "count/compact_counter_array.h"

#include <algorithm>

namespace l1hh {

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

bool CompactCounterArray::AddFrom(const CompactCounterArray& other) {
  if (other.size_ != size_) return false;
  ReserveSpill(spill_count_ + other.spill_count_);
  for (size_t b = 0; b < other.packed_.size(); ++b) {
    if (other.packed_[b] == 0) continue;  // two empty cells
    for (size_t i = 2 * b; i < std::min(2 * b + 2, size_); ++i) {
      const uint64_t v = other.Get(i);
      if (v != 0) Add(i, v);
    }
  }
  return true;
}

size_t CompactCounterArray::SpaceBits() const {
  size_t bits = 0;
  for (size_t i = 0; i < size_; ++i) {
    const uint64_t v = Get(i);
    bits += v == 0 ? 1 : static_cast<size_t>(CounterBits(v));
  }
  return bits;
}

size_t CompactCounterArray::HeapBytes() const {
  return packed_.capacity() + spill_.capacity() * sizeof(SpillSlot);
}

void CompactCounterArray::Serialize(BitWriter& out) const {
  out.WriteGamma(size_ + 1);
  for (size_t i = 0; i < size_; ++i) {
    out.WriteCounter(Get(i));
  }
}

void CompactCounterArray::Deserialize(BitReader& in) {
  const size_t n = in.CheckedCount(in.ReadGamma() - 1);
  Reset(n);
  for (size_t i = 0; i < n; ++i) {
    Add(i, in.ReadCounter());
  }
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
  size_t dense_bits = 0;
  size_t sparse_bits = 0;
  size_t nonzero = 0;
  {
    size_t previous_end = 0;
    for (size_t i = 0; i < size_; ++i) {
      const uint64_t v = Get(i);
      dense_bits += static_cast<size_t>(CounterBits(v));
      if (v == 0) continue;
      sparse_bits += static_cast<size_t>(CounterBits(i - previous_end)) +
                     static_cast<size_t>(EliasGammaBits(v));
      previous_end = i + 1;
      ++nonzero;
    }
    sparse_bits += static_cast<size_t>(CounterBits(nonzero));
  }
  const bool sparse = sparse_bits < dense_bits;
  out.WriteBool(sparse);
  if (!sparse) {
    for (size_t i = 0; i < size_; ++i) out.WriteCounter(Get(i));
    return;
  }
  out.WriteCounter(nonzero);
  size_t previous_end = 0;  // one past the last written cell
  for (size_t i = 0; i < size_; ++i) {
    const uint64_t v = Get(i);
    if (v == 0) continue;
    out.WriteCounter(i - previous_end);  // zero cells skipped
    out.WriteGamma(v);
    previous_end = i + 1;
  }
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
    for (size_t i = 0; i < n; ++i) Add(i, in.ReadCounter());
    return;
  }
  uint64_t nonzero = in.CheckedCount(in.ReadCounter());
  if (nonzero > n) {
    // More nonzero cells than cells: hostile input, not a truncation.
    nonzero = in.CheckedCount(~uint64_t{0});  // force overflow status
  }
  size_t next = 0;
  for (uint64_t k = 0; k < nonzero && !in.overflow(); ++k) {
    const uint64_t gap = in.ReadCounter();
    if (gap >= n - next) {  // would land past the end of the array
      (void)in.CheckedCount(~uint64_t{0});
      break;
    }
    next += gap;
    Add(next, in.ReadGamma());
    ++next;
  }
}

}  // namespace l1hh
