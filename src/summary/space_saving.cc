#include "summary/space_saving.h"

#include <algorithm>

namespace l1hh {

SpaceSaving::SpaceSaving(size_t k, int key_bits)
    : groups_(k), key_bits_(key_bits) {}

void SpaceSaving::Insert(uint64_t item) {
  ++processed_;
  const int e = groups_.Find(item);
  if (e >= 0) {
    groups_.Increment(e);
    return;
  }
  if (!groups_.Full()) {
    groups_.InsertNew(item);
    return;
  }
  groups_.ReplaceMin(item);
}

SpaceSaving SpaceSaving::Merge(const SpaceSaving& a, const SpaceSaving& b) {
  const std::vector<Entry> b_entries = b.Entries();
  std::vector<Entry> combined = a.Entries();
  for (const Entry& e : b_entries) {
    bool found = false;
    for (Entry& c : combined) {
      if (c.item == e.item) {
        c.count += e.count;
        found = true;
        break;
      }
    }
    // Items tracked by only one side get the other side's global
    // overestimate added, keeping the one-sided error invariant.
    if (!found) combined.push_back({e.item, e.count + a.MinCount()});
  }
  for (Entry& c : combined) {
    bool in_b = false;
    for (const Entry& e : b_entries) {
      if (e.item == c.item) in_b = true;
    }
    if (!in_b) c.count += b.MinCount();
  }
  std::sort(combined.begin(), combined.end(),
            [](const Entry& x, const Entry& y) { return x.count > y.count; });
  const size_t k = a.k();
  SpaceSaving merged(k, a.key_bits_);
  merged.processed_ = a.processed_ + b.processed_;
  for (size_t i = 0; i < combined.size() && i < k; ++i) {
    merged.groups_.InsertWithCount(combined[i].item, combined[i].count);
  }
  return merged;
}

void SpaceSaving::Serialize(BitWriter& out) const {
  out.WriteBits(static_cast<uint64_t>(key_bits_), 8);
  out.WriteCounter(processed_);
  groups_.Serialize(out);
}

SpaceSaving SpaceSaving::Deserialize(BitReader& in) {
  const int key_bits = static_cast<int>(in.ReadBits(8));
  const uint64_t processed = in.ReadCounter();
  SpaceSaving ss(1, key_bits);
  ss.groups_.Deserialize(in);
  ss.processed_ = processed;
  return ss;
}

}  // namespace l1hh
