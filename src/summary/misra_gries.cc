#include "summary/misra_gries.h"

#include <algorithm>

namespace l1hh {

MisraGries::MisraGries(size_t k, int key_bits)
    : groups_(k), key_bits_(key_bits) {}

void MisraGries::Insert(uint64_t item) {
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
  groups_.DecrementAll();
}

MisraGries MisraGries::Merge(const MisraGries& a, const MisraGries& b) {
  std::vector<Entry> combined = a.Entries();
  for (const Entry& e : b.Entries()) {
    bool found = false;
    for (Entry& c : combined) {
      if (c.item == e.item) {
        c.count += e.count;
        found = true;
        break;
      }
    }
    if (!found) combined.push_back(e);
  }
  std::sort(combined.begin(), combined.end(),
            [](const Entry& x, const Entry& y) { return x.count > y.count; });
  const size_t k = a.k();
  uint64_t cut = 0;
  if (combined.size() > k) cut = combined[k].count;

  MisraGries merged(k, a.key_bits_);
  merged.processed_ = a.processed_ + b.processed_;
  for (size_t i = 0; i < combined.size() && i < k; ++i) {
    if (combined[i].count <= cut) break;
    merged.groups_.InsertWithCount(combined[i].item,
                                   combined[i].count - cut);
  }
  return merged;
}

void MisraGries::Serialize(BitWriter& out) const {
  out.WriteBits(static_cast<uint64_t>(key_bits_), 8);
  out.WriteCounter(processed_);
  groups_.Serialize(out);
}

MisraGries MisraGries::Deserialize(BitReader& in) {
  const int key_bits = static_cast<int>(in.ReadBits(8));
  const uint64_t processed = in.ReadCounter();
  MisraGries mg(1, key_bits);
  mg.groups_.Deserialize(in);
  mg.processed_ = processed;
  return mg;
}

}  // namespace l1hh
