// Exact frequency table: the ground truth every test and bench compares
// against.  Deliberately simple; memory is O(distinct items).
#ifndef L1HH_SUMMARY_EXACT_COUNTER_H_
#define L1HH_SUMMARY_EXACT_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "summary/count_entry.h"

namespace l1hh {

class ExactCounter {
 public:
  using Entry = CountEntry;

  void Insert(uint64_t item, uint64_t count = 1) {
    table_[item] += count;
    total_ += count;
  }

  uint64_t Count(uint64_t item) const {
    const auto it = table_.find(item);
    return it == table_.end() ? 0 : it->second;
  }

  uint64_t total() const { return total_; }
  size_t distinct() const { return table_.size(); }

  /// Items with count >= threshold, sorted by SortByCountDesc.
  std::vector<Entry> HeavyHitters(uint64_t threshold) const;

  /// (item, count) of a maximum-frequency item; {0, 0} on empty.
  Entry Max() const;

  /// Minimum frequency over a universe [0, n): items absent from the table
  /// have frequency zero, matching the paper's epsilon-Minimum convention
  /// that unseen items are valid answers.
  Entry MinOverUniverse(uint64_t universe_size) const;

  /// Every item, sorted by SortByCountDesc.
  std::vector<Entry> SortedByCountDesc() const { return HeavyHitters(0); }

 private:
  std::unordered_map<uint64_t, uint64_t> table_;
  uint64_t total_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_EXACT_COUNTER_H_
