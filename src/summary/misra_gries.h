// Misra–Gries frequent-items summary [MG82], rediscovered by [DLOM02] and
// [KSP03] — the paper's main deterministic baseline, using
// O(k (log n + log m)) bits with k counters, and also the inner structure
// of the paper's Algorithms 1 and 2.
//
// Deterministic guarantee with k counters over a stream of length m:
//     f(x) - m/(k+1) <= Estimate(x) <= f(x)          for every x,
// and every x with f(x) > m/(k+1) is present in the summary.
//
// Updates are O(1) *worst case* via the CounterGroups structure.
#ifndef L1HH_SUMMARY_MISRA_GRIES_H_
#define L1HH_SUMMARY_MISRA_GRIES_H_

#include <cstdint>
#include <vector>

#include "summary/counter_groups.h"
#include "util/bit_stream.h"

namespace l1hh {

class MisraGries {
 public:
  using Entry = CountEntry;

  /// `k`: number of counters (table length in the paper's pseudocode).
  /// `key_bits`: bits charged per stored id in SpaceBits() (log n, or the
  /// hashed-universe width when used inside Algorithm 1).
  explicit MisraGries(size_t k, int key_bits = 64);

  void Insert(uint64_t item);

  /// Lower-bound estimate of item's frequency (0 if not tracked).
  uint64_t Estimate(uint64_t item) const { return groups_.Count(item); }

  /// Upper bound on f(x) - Estimate(x), i.e. the number of global
  /// decrements so far (<= m / (k+1)).
  uint64_t ErrorBound() const { return groups_.decrement_count(); }

  /// All tracked items with their counts, sorted by SortByCountDesc.
  std::vector<Entry> Entries() const { return groups_.EntriesAbove(0); }

  /// Items with count >= threshold, in the same order.
  std::vector<Entry> EntriesAbove(uint64_t threshold) const {
    return groups_.EntriesAbove(threshold);
  }

  uint64_t items_processed() const { return processed_; }
  size_t k() const { return groups_.capacity(); }
  size_t tracked() const { return groups_.live_size(); }

  /// Merge of two summaries (for distributed/test use): standard MG merge —
  /// sum counts, then subtract the (k+1)-st largest so at most k survive.
  /// The merged summary keeps the additive guarantee over the union stream.
  static MisraGries Merge(const MisraGries& a, const MisraGries& b);

  size_t SpaceBits() const {
    return groups_.SpaceBits(key_bits_) + BitWidth(processed_);
  }

  void Serialize(BitWriter& out) const;
  static MisraGries Deserialize(BitReader& in);

 private:
  CounterGroups groups_;
  int key_bits_;
  uint64_t processed_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_MISRA_GRIES_H_
