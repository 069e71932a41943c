// A variable-length counter array in the spirit of Blandford–Blelloch
// [BB08], which the paper invokes for its RAM model: "We store an integer C
// using a variable length array which allows us to read and update C in O(1)
// time and O(log C) bits of space" (Section 2.3).
//
// Layout: every counter owns a 4-bit nibble in a packed base array; counters
// that outgrow their nibble spill into a flat open-addressing table of
// 16-byte {cell + 1, value - 15} slots (linear probing from Mix64(cell),
// grown by doubling at 3/4 load) holding the high bits.  Reads and
// increments are O(1) expected; the occupied space is
// Theta(sum_i log c_i) + O(n) bits, matching the accounting the paper
// needs for tables T2/T3 of Algorithm 2.  SpaceBits() reports the
// information-theoretic gamma-code cost, which is what the benches chart;
// HeapBytes() reports what this process actually allocated.
#ifndef L1HH_COUNT_COMPACT_COUNTER_ARRAY_H_
#define L1HH_COUNT_COMPACT_COUNTER_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bit_stream.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace l1hh {

class CompactCounterArray {
 public:
  explicit CompactCounterArray(size_t n = 0) { Reset(n); }

  void Reset(size_t n);

  size_t size() const { return size_; }

  uint64_t Get(size_t i) const {
    const uint8_t nib = Nibble(i);
    return nib < kNibbleMax ? nib : SpilledValue(i);
  }

  /// counter[i] += delta.
  void Add(size_t i, uint64_t delta);

  void Increment(size_t i) { Add(i, 1); }

  /// Cell-wise sum: counter[i] += other[i] for all i.  Returns false (and
  /// changes nothing) when the arrays differ in length.  This is the
  /// combination step of every table merge (e.g. BdwOptimal::MergeFrom);
  /// the spill table is sized once for both sides' spilled cells.
  bool AddFrom(const CompactCounterArray& other);

  /// Sum of all counters.
  uint64_t Total() const { return total_; }

  /// Information-theoretic space: gamma-code cost of every nonzero counter
  /// plus one bit per (empty) slot; this matches the paper's
  /// "each entry can store an integer in [0, B]" tables when contents are
  /// small and degrades gracefully (O(log C) per counter) when they grow.
  size_t SpaceBits() const;

  /// Actual process memory held by this structure: the nibble array plus
  /// 16 bytes per spill-table slot.
  size_t HeapBytes() const;

  /// Dense wire encoding: gamma(size + 1), then WriteCounter(v) — one
  /// gamma code per cell, 1 bit per empty cell.  This is what the
  /// Section 4 communication games send — the message size tracks the
  /// structure's cell count, the quantity the message-vs-eps experiments
  /// chart.  The encoder reads 16 cells per 64-bit nibble word, visits
  /// only nonzero cells (std::countr_zero on a nonzero-nibble mask), and
  /// packs codes into a local 64-bit accumulator handed to the writer a
  /// word at a time; the bits are those of one WriteCounter per cell.
  void Serialize(BitWriter& out) const;
  void Deserialize(BitReader& in);

  /// Snapshot wire encoding: nonzero cells as gamma-coded (gap, value)
  /// pairs when the grid is sparse — low-occupancy T2/T3 states (window
  /// buckets, shard partials, early checkpoints) cost Theta(nonzero)
  /// instead of Theta(size) bits — with an automatic dense fallback
  /// (1-bit format flag) for saturated grids, where gap codes would only
  /// add overhead.  This is what the snapshot path persists (measured
  /// table: docs/SNAPSHOTS.md).  The encoder counts nonzero cells a
  /// nibble word at a time, then writes the sparse form in one walk that
  /// also prices the dense one; only a grid where dense is no larger is
  /// rolled back (BitWriter::Truncate) and rewritten dense.  Each spilled
  /// cell costs one spill-table probe per write, and nothing beyond the
  /// output is allocated.  The bits equal the per-cell definition above.
  void SerializeSparse(BitWriter& out) const;

  /// Restores a SerializeSparse payload.  `expected_size` is the cell
  /// count the caller's configuration implies (e.g. rows * reps for T2);
  /// a payload claiming any other size marks the reader corrupt WITHOUT
  /// allocating.  The wire size can legitimately dwarf the payload bits
  /// (that is the point of the sparse encoding), so — unlike the dense
  /// format — the size field cannot be sanity-bounded by the bits
  /// remaining, only by the caller's expectation.
  void DeserializeSparse(BitReader& in, size_t expected_size);

 private:
  static constexpr uint8_t kNibbleMax = 15;  // nibble value 15 == "spilled"

  struct SpillSlot {
    uint64_t key = 0;    // cell + 1; 0 marks an empty slot
    uint64_t value = 0;  // counter - kNibbleMax
  };

  /// The slot holding cell i, or the empty slot where it would go.  The
  /// table is nonempty and at most 3/4 full, so the probe terminates.
  size_t SpillProbe(size_t i) const {
    const size_t mask = spill_.size() - 1;
    size_t s = static_cast<size_t>(Mix64(i)) & mask;
    while (spill_[s].key != i + 1 && spill_[s].key != 0) s = (s + 1) & mask;
    return s;
  }
  /// Full value of a cell whose nibble is 15.  An absent slot holds 0: a
  /// spilled nibble with no slot is exactly 15.
  uint64_t SpilledValue(size_t i) const {
    return spill_.empty() ? kNibbleMax
                          : kNibbleMax + spill_[SpillProbe(i)].value;
  }
  /// counter[i]'s spilled part, inserting an empty slot if absent.
  uint64_t& SpillValue(size_t i);
  /// Grows the table so `count` keys fit under 3/4 load.
  void ReserveSpill(size_t count);

  /// Cells 16j .. 16j+15 as one word, cell 16j + k in bits [4k, 4k + 4);
  /// cells past size() read as 0.
  uint64_t NibbleWord(size_t j) const;
  /// Calls fn(cell, value) for every nonzero cell in index order, a
  /// nibble word at a time.
  template <typename Fn>
  void ForEachNonzero(Fn&& fn) const;
  /// The dense cell stream: one WriteCounter per cell.
  void WriteDenseCells(BitWriter& out) const;
  /// Sets a cell of a freshly Reset array (decoders only).  A spilled
  /// part is appended to `spilled`, for InsertSpilled to place once the
  /// whole grid is decoded.
  void Assign(size_t i, uint64_t v, std::vector<SpillSlot>* spilled) {
    total_ += v;
    if (v < kNibbleMax) {
      SetNibble(i, static_cast<uint8_t>(v));
      return;
    }
    SetNibble(i, kNibbleMax);
    if (v > kNibbleMax) spilled->push_back({i + 1, v - kNibbleMax});
  }
  /// Sizes the spill table of a freshly decoded array once for all of
  /// `spilled` (distinct cells) and inserts them: the table a cell-by-cell
  /// insert would have grown to, without the rehashes on the way.
  void InsertSpilled(const std::vector<SpillSlot>& spilled);
  /// The dense cell stream's inverse: one ReadCounter per cell.
  void ReadDenseCells(BitReader& in);

  uint8_t Nibble(size_t i) const {
    const uint8_t byte = packed_[i >> 1];
    return (i & 1) != 0 ? (byte >> 4) : (byte & 0x0f);
  }
  void SetNibble(size_t i, uint8_t v) {
    uint8_t& byte = packed_[i >> 1];
    if ((i & 1) != 0) {
      byte = static_cast<uint8_t>((byte & 0x0f) | (v << 4));
    } else {
      byte = static_cast<uint8_t>((byte & 0xf0) | v);
    }
  }

  size_t size_ = 0;
  uint64_t total_ = 0;
  std::vector<uint8_t> packed_;   // 2 counters per byte
  std::vector<SpillSlot> spill_;  // empty or a power-of-two slot count
  size_t spill_count_ = 0;        // occupied slots
};

}  // namespace l1hh

#endif  // L1HH_COUNT_COMPACT_COUNTER_ARRAY_H_
