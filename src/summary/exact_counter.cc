#include "summary/exact_counter.h"

namespace l1hh {

std::vector<ExactCounter::Entry> ExactCounter::HeavyHitters(
    uint64_t threshold) const {
  std::vector<Entry> out;
  for (const auto& [item, count] : table_) {
    if (count >= threshold) out.push_back({item, count});
  }
  SortByCountDesc(out);
  return out;
}

ExactCounter::Entry ExactCounter::Max() const {
  Entry best{0, 0};
  for (const auto& [item, count] : table_) {
    if (count > best.count || (count == best.count && item < best.item)) {
      best = {item, count};
    }
  }
  return best;
}

ExactCounter::Entry ExactCounter::MinOverUniverse(
    uint64_t universe_size) const {
  // Any item absent from the table has frequency zero.
  if (table_.size() < universe_size) {
    for (uint64_t candidate = 0; candidate < universe_size; ++candidate) {
      if (table_.find(candidate) == table_.end()) return {candidate, 0};
    }
  }
  Entry best{0, UINT64_MAX};
  for (const auto& [item, count] : table_) {
    if (item >= universe_size) continue;
    if (count < best.count || (count == best.count && item < best.item)) {
      best = {item, count};
    }
  }
  if (best.count == UINT64_MAX) return {0, 0};
  return best;
}

}  // namespace l1hh
