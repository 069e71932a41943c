// The entry the counter tables of src/summary/ report, and their one
// report order.
#ifndef L1HH_SUMMARY_COUNT_ENTRY_H_
#define L1HH_SUMMARY_COUNT_ENTRY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace l1hh {

/// One tracked item and its count (an under- or overestimate, per table).
struct CountEntry {
  uint64_t item;
  uint64_t count;
};

/// The counter tables' report order: count descending, ties by item id
/// ascending.  Any entry type with `item` and `count` fields sorts this
/// way (LossyCounting's also carries a delta).
template <typename Entry>
void SortByCountDesc(std::vector<Entry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.count > b.count ||
                     (a.count == b.count && a.item < b.item);
            });
}

}  // namespace l1hh

#endif  // L1HH_SUMMARY_COUNT_ENTRY_H_
