#include "summary/counter_groups.h"

#include <algorithm>

namespace l1hh {

CounterGroups::CounterGroups(size_t capacity) : capacity_(capacity) {
  entries_.reserve(capacity);
  index_.reserve(capacity * 2);
}

int CounterGroups::Find(uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) return -1;
  const int e = it->second;
  if (IsZombieGroup(entries_[e].group)) {
    // Garbage-collect the zombie on contact; the caller sees "absent".
    UnlinkEntryFromGroup(e);
    index_.erase(it);
    free_entries_.push_back(e);
    return -1;
  }
  return e;
}

uint64_t CounterGroups::Count(uint64_t key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return 0;
  const int g = entries_[it->second].group;
  if (IsZombieGroup(g)) return 0;
  return groups_[g].count - offset_;
}

void CounterGroups::Increment(int entry) { PromoteEntry(entry); }

int CounterGroups::InsertNew(uint64_t key) {
  const int e = AllocEntrySlot();
  entries_[e].key = key;
  index_[key] = e;
  // Effective count 1 == absolute offset_ + 1.  The only possible group
  // before it is the (single) zombie group at the head.
  int after = -1;
  if (IsZombieGroup(head_group_)) after = head_group_;
  const int next = after < 0 ? head_group_ : groups_[after].next;
  int g;
  if (next >= 0 && groups_[next].count == offset_ + 1) {
    g = next;
  } else {
    g = InsertGroupAfter(after, offset_ + 1);
  }
  LinkEntryToGroup(e, g);
  ++live_;
  return e;
}

int CounterGroups::InsertWithCount(uint64_t key, uint64_t count) {
  const int e = AllocEntrySlot();
  entries_[e].key = key;
  index_[key] = e;
  const uint64_t absolute = offset_ + count;
  // Walk the (sorted) group list for the insertion point.
  int after = -1;
  int g = head_group_;
  while (g >= 0 && groups_[g].count < absolute) {
    after = g;
    g = groups_[g].next;
  }
  int dest;
  if (g >= 0 && groups_[g].count == absolute) {
    dest = g;
  } else {
    dest = InsertGroupAfter(after, absolute);
  }
  LinkEntryToGroup(e, dest);
  ++live_;
  return e;
}

void CounterGroups::DecrementAll() {
  ++offset_;
  if (IsZombieGroup(head_group_)) {
    live_ -= static_cast<size_t>(groups_[head_group_].size);
  }
}

uint64_t CounterGroups::ReplaceMin(uint64_t key) {
  int g = head_group_;
  if (IsZombieGroup(g)) g = groups_[g].next;
  const int e = groups_[g].head;
  const uint64_t old_count = groups_[g].count - offset_;
  index_.erase(entries_[e].key);
  entries_[e].key = key;
  index_[key] = e;
  PromoteEntry(e);
  return old_count;
}

uint64_t CounterGroups::MinCount() const {
  int g = head_group_;
  if (IsZombieGroup(g)) g = groups_[g].next;
  if (g < 0) return 0;
  return groups_[g].count - offset_;
}

uint64_t CounterGroups::MaxCount() const {
  int g = head_group_;
  if (g < 0) return 0;
  while (groups_[g].next >= 0) g = groups_[g].next;
  if (IsZombieGroup(g)) return 0;
  return groups_[g].count - offset_;
}

void CounterGroups::ForEach(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  for (int g = head_group_; g >= 0; g = groups_[g].next) {
    if (IsZombieGroup(g)) continue;
    const uint64_t count = groups_[g].count - offset_;
    for (int e = groups_[g].head; e >= 0; e = entries_[e].next) {
      fn(entries_[e].key, count);
    }
  }
}

std::vector<CountEntry> CounterGroups::EntriesAbove(
    uint64_t threshold) const {
  std::vector<CountEntry> out;
  for (int g = head_group_; g >= 0; g = groups_[g].next) {
    if (IsZombieGroup(g)) continue;
    const uint64_t count = groups_[g].count - offset_;
    if (count < threshold) continue;
    for (int e = groups_[g].head; e >= 0; e = entries_[e].next) {
      out.push_back({entries_[e].key, count});
    }
  }
  SortByCountDesc(out);
  return out;
}

size_t CounterGroups::SpaceBits(int key_bits) const {
  // Capacity-based accounting, matching the paper's "a table of length k
  // whose key entries store integers in [0, K] and value entries integers
  // in [0, V]": every slot is charged key_bits plus a value width sized to
  // the largest count the table currently holds.  (Content-based gamma
  // accounting would let a churning table on a uniform stream report a
  // handful of bits, which is not what any implementation allocates.)
  const int value_bits = BitWidth(MaxCount());
  return capacity_ * (static_cast<size_t>(key_bits) +
                      static_cast<size_t>(value_bits)) +
         BitWidth(offset_);
}

void CounterGroups::Serialize(BitWriter& out) const {
  out.WriteGamma(capacity_ + 1);
  out.WriteCounter(offset_);
  out.WriteGamma(live_ + 1);
  // Canonical order (count asc, key asc): serializing a deserialized
  // structure reproduces the identical bit string, so messages can be
  // compared and deduplicated byte-wise.
  std::vector<std::pair<uint64_t, uint64_t>> entries;  // (count, key)
  entries.reserve(live_);
  ForEach([&](uint64_t key, uint64_t count) {
    entries.emplace_back(count, key);
  });
  std::sort(entries.begin(), entries.end());
  for (const auto& [count, key] : entries) {
    out.WriteU64(key);
    out.WriteGamma(count);
  }
}

void CounterGroups::Deserialize(BitReader& in) {
  // The capacity field declares the structure's k, not elements present
  // in the stream — an empty or sparse structure legitimately declares a
  // capacity far beyond its remaining bits (the caller validates it
  // against the expected shape).  The bit-plausibility clamp therefore
  // applies to the entry count (each entry is >= 65 wire bits), and the
  // eager reserve is bounded by it, keeping a hostile capacity away from
  // the allocator without rejecting honest sparse states.
  const uint64_t capacity = in.ReadGamma() - 1;
  const uint64_t offset = in.ReadCounter();
  // A corrupted entry count beyond the capacity would dereference a
  // nonexistent zombie group in InsertNew; clamp it.
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(in.CheckedCount(in.ReadGamma() - 1), capacity));
  *this = CounterGroups(n);
  capacity_ = static_cast<size_t>(capacity);
  offset_ = offset;
  // Reinsert then lift each entry to its serialized count.  Rebuild cost is
  // O(sum of counts) in group moves; acceptable for deserialization.
  const uint64_t saved_offset = offset_;
  offset_ = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = in.ReadU64();
    const uint64_t count = in.ReadGamma();
    InsertWithCount(key, count);
  }
  // Restore the offset by shifting every group up, keeping effective counts.
  for (int g = head_group_; g >= 0; g = groups_[g].next) {
    groups_[g].count += saved_offset;
  }
  offset_ = saved_offset;
}

int CounterGroups::AllocGroup(uint64_t count) {
  int g;
  if (!free_groups_.empty()) {
    g = free_groups_.back();
    free_groups_.pop_back();
    groups_[g] = Group();
  } else {
    g = static_cast<int>(groups_.size());
    groups_.emplace_back();
  }
  groups_[g].count = count;
  return g;
}

void CounterGroups::FreeGroup(int g) {
  const int prev = groups_[g].prev;
  const int next = groups_[g].next;
  if (prev >= 0) groups_[prev].next = next;
  if (next >= 0) groups_[next].prev = prev;
  if (head_group_ == g) head_group_ = next;
  free_groups_.push_back(g);
}

int CounterGroups::AllocEntrySlot() {
  if (!free_entries_.empty()) {
    const int e = free_entries_.back();
    free_entries_.pop_back();
    return e;
  }
  if (entries_.size() < capacity_) {
    entries_.emplace_back();
    return static_cast<int>(entries_.size()) - 1;
  }
  // Cannibalize one zombie (head group must be zombie: the caller only
  // inserts when live_ < capacity_, so a slot deficit implies zombies).
  const int g = head_group_;
  const int e = groups_[g].head;
  index_.erase(entries_[e].key);
  UnlinkEntryFromGroup(e);
  return e;
}

void CounterGroups::UnlinkEntryFromGroup(int e) {
  const int g = entries_[e].group;
  const int prev = entries_[e].prev;
  const int next = entries_[e].next;
  if (prev >= 0) entries_[prev].next = next;
  if (next >= 0) entries_[next].prev = prev;
  if (groups_[g].head == e) groups_[g].head = next;
  if (--groups_[g].size == 0) FreeGroup(g);
  entries_[e].group = -1;
  entries_[e].prev = -1;
  entries_[e].next = -1;
}

void CounterGroups::LinkEntryToGroup(int e, int g) {
  entries_[e].group = g;
  entries_[e].prev = -1;
  entries_[e].next = groups_[g].head;
  if (groups_[g].head >= 0) entries_[groups_[g].head].prev = e;
  groups_[g].head = e;
  ++groups_[g].size;
}

void CounterGroups::PromoteEntry(int e) {
  const int g = entries_[e].group;
  const uint64_t target = groups_[g].count + 1;
  const int next = groups_[g].next;
  int dest;
  if (next >= 0 && groups_[next].count == target) {
    dest = next;
  } else {
    dest = InsertGroupAfter(g, target);
  }
  UnlinkEntryFromGroup(e);  // may free g (and fix links), dest stays valid
  LinkEntryToGroup(e, dest);
}

int CounterGroups::InsertGroupAfter(int after, uint64_t count) {
  const int g = AllocGroup(count);
  if (after < 0) {
    groups_[g].next = head_group_;
    if (head_group_ >= 0) groups_[head_group_].prev = g;
    head_group_ = g;
  } else {
    const int next = groups_[after].next;
    groups_[g].prev = after;
    groups_[g].next = next;
    groups_[after].next = g;
    if (next >= 0) groups_[next].prev = g;
  }
  return g;
}

}  // namespace l1hh
