// Space-Saving / Stream-Summary [MAE05] — a randomized-free baseline the
// paper lists among prior work.  With k counters:
//     f(x) <= Estimate(x) <= f(x) + MinCount,   MinCount <= m/k,
// and every item with f(x) > m/k is tracked.  O(1) worst-case update via
// the shared CounterGroups structure.
#ifndef L1HH_SUMMARY_SPACE_SAVING_H_
#define L1HH_SUMMARY_SPACE_SAVING_H_

#include <cstdint>
#include <vector>

#include "summary/counter_groups.h"
#include "util/bit_stream.h"

namespace l1hh {

class SpaceSaving {
 public:
  using Entry = CountEntry;  // count: an overestimate

  explicit SpaceSaving(size_t k, int key_bits = 64);

  void Insert(uint64_t item);

  /// Overestimate of the frequency (0 if not tracked).
  uint64_t Estimate(uint64_t item) const { return groups_.Count(item); }

  /// Current minimum counter = the global overestimation bound.
  uint64_t MinCount() const { return groups_.Full() ? groups_.MinCount() : 0; }

  /// All tracked items, sorted by SortByCountDesc.
  std::vector<Entry> Entries() const { return groups_.EntriesAbove(0); }
  /// Items with count >= threshold, in the same order.
  std::vector<Entry> EntriesAbove(uint64_t threshold) const {
    return groups_.EntriesAbove(threshold);
  }

  /// Distributed merge: estimates add (both overestimate), and the merged
  /// summary keeps the k largest, preserving
  /// f(x) <= Estimate(x) <= f(x) + err_a + err_b over the union stream.
  static SpaceSaving Merge(const SpaceSaving& a, const SpaceSaving& b);

  uint64_t items_processed() const { return processed_; }
  size_t k() const { return groups_.capacity(); }

  size_t SpaceBits() const {
    return groups_.SpaceBits(key_bits_) + BitWidth(processed_);
  }

  void Serialize(BitWriter& out) const;
  static SpaceSaving Deserialize(BitReader& in);

 private:
  CounterGroups groups_;
  int key_bits_;
  uint64_t processed_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_SPACE_SAVING_H_
