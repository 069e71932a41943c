// Differential counter groups: the [DLOM02] structure behind O(1)
// worst-case Misra–Gries and Space-Saving updates.
//
// Entries with equal count live in one doubly-linked group; groups are
// linked in strictly increasing count order.  "Decrement all counters"
// (the Misra–Gries eviction step) is a single offset bump: effective counts
// are (group count - offset), and the at-most-one group that reaches zero
// becomes a pool of reusable ("zombie") slots consumed one per insertion —
// this is what makes the update cost O(1) worst case, not just amortized,
// exactly as the paper claims for its algorithms (Section 3.1 and the
// reference to Section 3.3 of [DLOM02] in the proof of Theorem 4).
#ifndef L1HH_SUMMARY_COUNTER_GROUPS_H_
#define L1HH_SUMMARY_COUNTER_GROUPS_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "summary/count_entry.h"
#include "util/bit_stream.h"
#include "util/bit_util.h"

namespace l1hh {

class CounterGroups {
 public:
  explicit CounterGroups(size_t capacity);

  size_t capacity() const { return capacity_; }
  /// Number of entries with effective count >= 1.
  size_t live_size() const { return live_; }
  bool Full() const { return live_ >= capacity_; }

  /// Returns the entry handle for `key` or -1.  Zombie entries (effective
  /// count 0) report -1 and are garbage-collected on contact.
  int Find(uint64_t key);

  /// Effective count of a live entry handle.
  uint64_t CountOf(int entry) const {
    return groups_[entries_[entry].group].count - offset_;
  }

  /// Effective count of `key` (0 if absent or zombie).  Const lookup.
  uint64_t Count(uint64_t key) const;

  /// entry must be live; adds one to its count.  O(1).
  void Increment(int entry);

  /// Inserts `key` with effective count 1.  Requires !Full().  O(1): takes a
  /// slot from the free list or cannibalizes one zombie.
  /// Returns the new entry handle.
  int InsertNew(uint64_t key);

  /// Inserts `key` with an arbitrary effective count >= 1.  Requires
  /// !Full().  O(#groups) — used by merge operations, not the hot path.
  int InsertWithCount(uint64_t key, uint64_t count);

  /// Misra–Gries step: subtract one from every counter.  Requires Full()
  /// (the only situation the algorithm calls it in).  O(1).
  void DecrementAll();

  /// Space-Saving step: requires Full(); replaces one minimum-count entry's
  /// key with `key` and increments it.  Returns the replaced minimum count.
  uint64_t ReplaceMin(uint64_t key);

  /// Smallest effective count among live entries (0 if empty).
  uint64_t MinCount() const;
  /// Largest effective count among live entries (0 if empty).
  uint64_t MaxCount() const;

  /// Total decrements applied via DecrementAll (the Misra–Gries
  /// undercount bound).
  uint64_t decrement_count() const { return offset_; }

  /// Visits every live (key, effective count) pair, unordered.
  void ForEach(const std::function<void(uint64_t, uint64_t)>& fn) const;

  /// Live entries with effective count >= threshold, sorted by
  /// SortByCountDesc: the report of Misra–Gries and Space-Saving.
  std::vector<CountEntry> EntriesAbove(uint64_t threshold) const;

  /// Paper-style accounting: per slot, `key_bits` for the id plus the
  /// gamma cost of its current value (empty slots cost 1 bit), plus the
  /// offset register.
  size_t SpaceBits(int key_bits) const;

  void Serialize(BitWriter& out) const;
  void Deserialize(BitReader& in);

 private:
  struct Entry {
    uint64_t key = 0;
    int group = -1;
    int prev = -1;
    int next = -1;
  };
  struct Group {
    uint64_t count = 0;  // absolute; effective = count - offset_
    int head = -1;
    int prev = -1;
    int next = -1;
    int size = 0;
  };

  bool IsZombieGroup(int g) const {
    return g >= 0 && groups_[g].count <= offset_;
  }

  int AllocGroup(uint64_t count);
  void FreeGroup(int g);
  int AllocEntrySlot();  // from free list or zombie pool; erases old key
  void UnlinkEntryFromGroup(int e);
  void LinkEntryToGroup(int e, int g);
  /// Moves entry e from its group to the group with count (current + 1).
  void PromoteEntry(int e);
  /// Inserts a fresh group holding `count` immediately after group `after`
  /// (-1 = at head).
  int InsertGroupAfter(int after, uint64_t count);

  size_t capacity_;
  size_t live_ = 0;
  uint64_t offset_ = 0;
  int head_group_ = -1;
  std::vector<Entry> entries_;
  std::vector<Group> groups_;
  std::vector<int> free_entries_;
  std::vector<int> free_groups_;
  std::unordered_map<uint64_t, int> index_;
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_COUNTER_GROUPS_H_
