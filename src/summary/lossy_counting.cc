#include "summary/lossy_counting.h"

#include <algorithm>
#include <cmath>

#include "util/bit_util.h"

namespace l1hh {

LossyCounting::LossyCounting(double epsilon, int key_bits)
    : epsilon_(epsilon),
      key_bits_(key_bits),
      bucket_width_(static_cast<uint64_t>(std::ceil(1.0 / epsilon))) {}

void LossyCounting::Insert(uint64_t item) {
  ++processed_;
  auto it = table_.find(item);
  if (it != table_.end()) {
    max_count_ = std::max(max_count_, ++it->second.first);
  } else {
    table_.emplace(item, std::make_pair(uint64_t{1}, current_bucket_ - 1));
    peak_tracked_ = std::max(peak_tracked_, table_.size());
  }
  if (processed_ % bucket_width_ == 0) {
    PruneBucket();
    ++current_bucket_;
  }
}

void LossyCounting::PruneBucket() {
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.first + it->second.second <= current_bucket_) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t LossyCounting::Estimate(uint64_t item) const {
  const auto it = table_.find(item);
  return it == table_.end() ? 0 : it->second.first;
}

std::vector<LossyCounting::Entry> LossyCounting::EntriesAbove(
    uint64_t threshold) const {
  std::vector<Entry> out;
  for (const auto& [item, cd] : table_) {
    if (cd.first + cd.second >= threshold) {
      out.push_back({item, cd.first, cd.second});
    }
  }
  SortByCountDesc(out);
  return out;
}

size_t LossyCounting::SpaceBits() const {
  // Capacity at the fullest moment: peak entry count, each entry holding a
  // key, a count (up to the largest observed) and a bucket tag.
  const size_t per_entry = static_cast<size_t>(key_bits_) +
                           BitWidth(max_count_) +
                           BitWidth(current_bucket_);
  return BitWidth(processed_) + BitWidth(current_bucket_) +
         peak_tracked_ * per_entry;
}

void LossyCounting::Serialize(BitWriter& out) const {
  out.WriteDouble(epsilon_);
  out.WriteBits(static_cast<uint64_t>(key_bits_), 8);
  out.WriteCounter(processed_);
  out.WriteCounter(current_bucket_);
  // Space accounting travels too: SpaceBits() charges the table's peak
  // occupancy and widest counter, which the surviving entries alone
  // cannot reconstruct.
  out.WriteCounter(peak_tracked_);
  out.WriteCounter(max_count_);
  out.WriteGamma(table_.size() + 1);
  for (const auto& [item, cd] : table_) {
    out.WriteU64(item);
    out.WriteCounter(cd.first);
    out.WriteCounter(cd.second);
  }
}

LossyCounting LossyCounting::Deserialize(BitReader& in) {
  double epsilon = in.ReadDouble();
  // A hostile epsilon (0, NaN, negative) would make the constructor's
  // ceil(1/eps) -> integer cast undefined; clamp to the valid domain.
  if (!(epsilon > 1e-9 && epsilon <= 1.0)) epsilon = 0.01;
  const int key_bits = static_cast<int>(in.ReadBits(8));
  LossyCounting lc(epsilon, key_bits);
  lc.processed_ = in.ReadCounter();
  lc.current_bucket_ = in.ReadCounter();
  lc.peak_tracked_ = static_cast<size_t>(in.ReadCounter());
  lc.max_count_ = in.ReadCounter();
  const size_t n = in.CheckedCount(in.ReadGamma() - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t item = in.ReadU64();
    const uint64_t count = in.ReadCounter();
    const uint64_t delta = in.ReadCounter();
    lc.table_.emplace(item, std::make_pair(count, delta));
  }
  lc.peak_tracked_ = std::max(lc.peak_tracked_, lc.table_.size());
  return lc;
}

}  // namespace l1hh
