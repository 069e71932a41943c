// Count-Min sketch [CM05] — the classic randomized baseline.
//
// depth d = ceil(ln(1/delta)) rows, width w = ceil(e/eps) counters:
//     f(x) <= Estimate(x) <= f(x) + eps * m    w.p. 1 - delta per query.
// Space Theta(eps^-1 log(1/delta) log m) bits plus a candidate heap when
// used for heavy hitters — the paper's point of comparison at
// O(eps^-1 (log n + log m)).  Supports conservative update, which only
// improves estimates on insertion-only streams.
#ifndef L1HH_SUMMARY_COUNT_MIN_SKETCH_H_
#define L1HH_SUMMARY_COUNT_MIN_SKETCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hash/multiply_shift.h"
#include "summary/count_entry.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {

class CountMinSketch {
 public:
  struct Options {
    size_t width = 256;            // counters per row (power of two)
    size_t depth = 4;              // rows
    bool conservative = false;     // conservative update variant
  };

  CountMinSketch(const Options& options, uint64_t seed);

  /// Sketch sized for additive error eps*m w.p. 1-delta per query.
  static CountMinSketch ForError(double epsilon, double delta, uint64_t seed,
                                 bool conservative = false);

  void Insert(uint64_t item, uint64_t count = 1);

  /// Insert one occurrence and return the post-insert estimate, hashing
  /// each row once instead of twice — the fused hot path behind
  /// CountMinHeavyHitters::Insert and the batched Summary adapter.
  uint64_t InsertAndEstimate(uint64_t item);

  /// Columnar ingest over a contiguous slice: tiles the column, runs one
  /// multiply-shift hash sweep per row per tile (independent per item, so
  /// the compiler vectorizes it), then applies the increments item by
  /// item in stream order, calling `visit(i, post_insert_estimate)` after
  /// item i lands.  At the moment visit(i, ...) runs, the table holds
  /// exactly the inserts for items 0..i — state-identical to calling
  /// InsertAndEstimate(items[i]) in a loop, which is what the
  /// conservative-update variant falls back to.
  template <typename Visitor>
  void InsertColumn(const uint64_t* items, size_t n, Visitor&& visit) {
    if (conservative_) {
      for (size_t i = 0; i < n; ++i) visit(i, InsertAndEstimate(items[i]));
      return;
    }
    constexpr size_t kTile = 256;
    const size_t depth = hashes_.size();
    column_cells_.resize(depth * kTile);
    for (size_t base = 0; base < n; base += kTile) {
      const size_t take = std::min(kTile, n - base);
      for (size_t r = 0; r < depth; ++r) {
        const MultiplyShiftHash h = hashes_[r];  // hoist a, b, shift
        const size_t row_base = r * width_;
        size_t* cells = column_cells_.data() + r * kTile;
        for (size_t i = 0; i < take; ++i) {
          cells[i] = row_base + static_cast<size_t>(h(items[base + i]));
        }
      }
      for (size_t i = 0; i < take; ++i) {
        ++processed_;
        uint64_t best = UINT64_MAX;
        for (size_t r = 0; r < depth; ++r) {
          uint64_t& cell = table_[column_cells_[r * kTile + i]];
          ++cell;
          best = std::min(best, cell);
        }
        visit(base + i, best);
      }
    }
  }

  /// Overestimate (min over rows).
  uint64_t Estimate(uint64_t item) const;

  /// True iff `other` was built with the same dimensions and hash seeds,
  /// i.e. the sketches are linearly mergeable.
  bool Compatible(const CountMinSketch& other) const;

  /// Cell-wise sum: the merged sketch equals one built over the
  /// concatenated streams (Count-Min is a linear sketch).  Requires
  /// Compatible(other).
  static CountMinSketch Merge(const CountMinSketch& a,
                              const CountMinSketch& b);

  uint64_t items_processed() const { return processed_; }
  size_t width() const { return width_; }
  size_t depth() const { return hashes_.size(); }

  /// Gamma-coded content cost plus hash seeds — honest about the log m
  /// factor every counter carries.
  size_t SpaceBits() const;

  void Serialize(BitWriter& out) const;
  static CountMinSketch Deserialize(BitReader& in);

 private:
  size_t Cell(size_t row, uint64_t item) const {
    return row * width_ + static_cast<size_t>(hashes_[row](item));
  }

  size_t width_;
  bool conservative_;
  uint64_t processed_ = 0;
  std::vector<MultiplyShiftHash> hashes_;
  std::vector<uint64_t> table_;  // depth x width
  std::vector<size_t> column_cells_;  // InsertColumn tile scratch
};

/// Count-Min as a full (eps, phi)-heavy-hitters baseline: the standard
/// construction that checks each inserted item's estimate against the
/// current threshold phi * (items so far) and keeps qualifying candidates.
/// On insertion-only streams estimates only grow, so every item with
/// f >= phi*m is caught at its last occurrence at the latest.
class CountMinHeavyHitters {
 public:
  using Entry = CountEntry;  // count: the CM overestimate

  CountMinHeavyHitters(double epsilon, double phi, double delta,
                       uint64_t seed);

  void Insert(uint64_t item);

  /// Columnar ingestion: the sketch's tiled hash-prepass path plus the
  /// same candidate bookkeeping Insert does, applied per item as its
  /// increment lands — state-identical to calling Insert in a loop (the
  /// columnar differential battery pins this).
  void InsertColumn(const uint64_t* items, size_t n);

  /// True iff `other` was built with the same (eps, phi) contract and a
  /// Compatible underlying sketch, i.e. MergeFrom(other) is sound.
  bool Compatible(const CountMinHeavyHitters& other) const;

  /// Absorbs a sibling built over a disjoint substream: cell-wise sketch
  /// sum (Count-Min is linear) plus candidate-set union; Report()
  /// re-estimates candidates against the merged sketch.  Returns false
  /// (and leaves this unchanged) when !Compatible(other).
  bool MergeFrom(const CountMinHeavyHitters& other);

  /// Candidates re-filtered at (phi - eps/2) * m, sorted by
  /// SortByCountDesc.
  std::vector<Entry> Report() const;

  uint64_t Estimate(uint64_t item) const { return cms_.Estimate(item); }
  uint64_t items_processed() const { return cms_.items_processed(); }

  size_t SpaceBits() const;

  /// Snapshot support: the sketch plus the tracked candidate set.  The
  /// (eps, phi) contract is NOT written; DeserializeFrom restores into an
  /// instance constructed with the same parameters and returns false
  /// (leaving this unchanged) when the wire sketch's shape differs.
  void Serialize(BitWriter& out) const;
  bool DeserializeFrom(BitReader& in);

 private:
  /// Candidate bookkeeping for one item whose increment just landed with
  /// estimate `est`: admit it above (phi - eps/2)·m, then prune the set
  /// when it outgrows 4/phi.
  void TrackCandidate(uint64_t item, uint64_t est);

  double phi_;
  double epsilon_;
  CountMinSketch cms_;
  std::unordered_map<uint64_t, uint64_t> candidates_;  // item -> estimate
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_COUNT_MIN_SKETCH_H_
