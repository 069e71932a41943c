#include "summary/hashed_misra_gries.h"

#include <algorithm>

#include "util/bit_util.h"

namespace l1hh {

HashedMisraGries::HashedMisraGries(size_t counters, size_t top_ids,
                                   UniversalHash hash, int id_bits)
    : hash_(hash),
      mg_(counters, BitWidth(hash.range() - 1)),
      top_capacity_(top_ids),
      id_bits_(id_bits) {
  top_true_ids_.reserve(top_ids);
}

void HashedMisraGries::Insert(uint64_t item) {
  const uint64_t key = hash_(item);
  mg_.Insert(key);
  const uint64_t my_count = mg_.Estimate(key);
  if (my_count == 0) return;  // the insert decremented-all; order unchanged

  // Already tracked?  (Also refresh duplicates defensively.)
  for (const uint64_t id : top_true_ids_) {
    if (id == item) return;
  }
  if (top_true_ids_.size() < top_capacity_) {
    top_true_ids_.push_back(item);
    return;
  }
  // Replace the weakest tracked id if this item now outranks it (the
  // paper's Case 2: x enters the top-1/phi set, so some y left it).
  size_t weakest = 0;
  uint64_t weakest_count = UINT64_MAX;
  for (size_t i = 0; i < top_true_ids_.size(); ++i) {
    const uint64_t c = mg_.Estimate(hash_(top_true_ids_[i]));
    if (c < weakest_count) {
      weakest_count = c;
      weakest = i;
    }
  }
  if (my_count > weakest_count) {
    top_true_ids_[weakest] = item;
  }
}

std::vector<HashedMisraGries::Entry> HashedMisraGries::EntriesAbove(
    uint64_t threshold) const {
  std::vector<Entry> out;
  for (const uint64_t id : top_true_ids_) {
    const uint64_t c = mg_.Estimate(hash_(id));
    if (c > 0 && c >= threshold) out.push_back({id, c});
  }
  SortByCountDesc(out);
  return out;
}

HashedMisraGries HashedMisraGries::Merge(const HashedMisraGries& a,
                                         const HashedMisraGries& b) {
  HashedMisraGries merged(1, a.top_capacity_, a.hash_, a.id_bits_);
  if (!(a.hash_ == b.hash_)) return a;  // incompatible; caller bug
  merged.mg_ = MisraGries::Merge(a.mg_, b.mg_);
  // Union of the tracked ids, ranked by merged T1 counts.
  std::vector<uint64_t> ids = a.top_true_ids_;
  for (const uint64_t id : b.top_true_ids_) {
    bool dup = false;
    for (const uint64_t seen : ids) {
      if (seen == id) dup = true;
    }
    if (!dup) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [&](uint64_t x, uint64_t y) {
    return merged.mg_.Estimate(merged.hash_(x)) >
           merged.mg_.Estimate(merged.hash_(y));
  });
  if (ids.size() > merged.top_capacity_) ids.resize(merged.top_capacity_);
  merged.top_true_ids_ = std::move(ids);
  return merged;
}

size_t HashedMisraGries::SpaceBits() const {
  // T1 (hashed keys + counts) + T2 (true ids) + the hash seed.
  return mg_.SpaceBits() +
         top_capacity_ * static_cast<size_t>(id_bits_) +
         static_cast<size_t>(hash_.SeedBits());
}

void HashedMisraGries::Serialize(BitWriter& out) const {
  hash_.Serialize(out);
  mg_.Serialize(out);
  out.WriteGamma(top_capacity_ + 1);
  out.WriteBits(static_cast<uint64_t>(id_bits_), 8);
  out.WriteGamma(top_true_ids_.size() + 1);
  for (const uint64_t id : top_true_ids_) out.WriteU64(id);
}

HashedMisraGries HashedMisraGries::Deserialize(BitReader& in) {
  const UniversalHash hash = UniversalHash::Deserialize(in);
  MisraGries mg = MisraGries::Deserialize(in);
  const size_t top_capacity = in.CheckedCount(in.ReadGamma() - 1);
  const int id_bits = static_cast<int>(in.ReadBits(8));
  HashedMisraGries out(1, top_capacity, hash, id_bits);
  out.mg_ = std::move(mg);
  const size_t n_ids = in.CheckedCount(in.ReadGamma() - 1);
  out.top_true_ids_.clear();
  for (size_t i = 0; i < n_ids; ++i) {
    out.top_true_ids_.push_back(in.ReadU64());
  }
  return out;
}

}  // namespace l1hh
