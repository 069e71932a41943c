#include "summary/sticky_sampling.h"

#include <algorithm>
#include <cmath>

#include "util/bit_util.h"

namespace l1hh {

StickySampling::StickySampling(double epsilon, double support, double delta,
                               uint64_t seed, int key_bits)
    : rng_(seed), epsilon_(epsilon), key_bits_(key_bits) {
  const double t =
      std::ceil(std::log(1.0 / (support * delta)) / epsilon);
  t_ = std::max<uint64_t>(1, static_cast<uint64_t>(t));
  next_boundary_ = 2 * t_;
}

void StickySampling::Insert(uint64_t item) {
  ++processed_;
  auto it = table_.find(item);
  if (it != table_.end()) {
    max_count_ = std::max(max_count_, ++it->second);
  } else if (rate_ == 1 || rng_.UniformU64(rate_) == 0) {
    table_.emplace(item, 1);
    peak_tracked_ = std::max(peak_tracked_, table_.size());
  }
  if (processed_ >= next_boundary_) {
    rate_ *= 2;
    next_boundary_ += rate_ * t_;
    Resample();
  }
}

void StickySampling::Resample() {
  // For each entry, repeatedly toss an unbiased coin, diminishing the count
  // by one per tails, until heads; drop entries that reach zero ([MM02]).
  // Entries are visited in sorted item order, NOT hash-map order: two
  // logically equal instances (e.g. one restored from a snapshot, whose
  // map iteration order differs) must consume the PRNG identically for
  // checkpoint -> restore -> continue to match an uninterrupted run.
  std::vector<uint64_t> items;
  items.reserve(table_.size());
  for (const auto& [item, count] : table_) items.push_back(item);
  std::sort(items.begin(), items.end());
  for (const uint64_t item : items) {
    const auto it = table_.find(item);
    uint64_t count = it->second;
    while (count > 0 && (rng_.NextU64() & 1) != 0) {
      --count;
    }
    if (count == 0) {
      table_.erase(it);
    } else {
      it->second = count;
    }
  }
}

uint64_t StickySampling::Estimate(uint64_t item) const {
  const auto it = table_.find(item);
  return it == table_.end() ? 0 : it->second;
}

std::vector<StickySampling::Entry> StickySampling::EntriesAbove(
    uint64_t threshold) const {
  const uint64_t slack =
      static_cast<uint64_t>(epsilon_ * static_cast<double>(processed_));
  std::vector<Entry> out;
  for (const auto& [item, count] : table_) {
    if (count + slack >= threshold) out.push_back({item, count});
  }
  SortByCountDesc(out);
  return out;
}

void StickySampling::Serialize(BitWriter& out) const {
  rng_.Serialize(out);
  out.WriteCounter(processed_);
  out.WriteCounter(rate_);
  out.WriteCounter(next_boundary_);
  out.WriteCounter(peak_tracked_);
  out.WriteCounter(max_count_);
  out.WriteCounter(table_.size());
  for (const auto& [item, count] : table_) {
    out.WriteU64(item);
    out.WriteCounter(count);
  }
}

void StickySampling::Deserialize(BitReader& in) {
  uint64_t rng_state[Rng::kStateWords];
  for (auto& w : rng_state) w = in.ReadU64();
  const uint64_t processed = in.ReadCounter();
  const uint64_t rate = in.ReadCounter();
  const uint64_t next_boundary = in.ReadCounter();
  const uint64_t peak = in.ReadCounter();
  const uint64_t max_count = in.ReadCounter();
  const uint64_t entries = in.CheckedCount(in.ReadCounter());
  std::unordered_map<uint64_t, uint64_t> table;
  // Each entry costs >= 65 bits, so cap the pre-allocation by what the
  // wire can actually hold (CheckedCount's bound is per-bit, loose).
  table.reserve(std::min<uint64_t>(entries, in.remaining_bits() / 65 + 1));
  for (uint64_t i = 0; i < entries && !in.overflow(); ++i) {
    const uint64_t item = in.ReadU64();
    table[item] = in.ReadCounter();
  }
  if (in.overflow()) return;  // leave this instance untouched
  rng_.RestoreState(rng_state);
  processed_ = processed;
  rate_ = std::max<uint64_t>(1, rate);
  next_boundary_ = next_boundary;
  peak_tracked_ = static_cast<size_t>(peak);
  max_count_ = max_count;
  table_ = std::move(table);
}

size_t StickySampling::SpaceBits() const {
  const size_t per_entry =
      static_cast<size_t>(key_bits_) + BitWidth(max_count_);
  return BitWidth(processed_) + BitWidth(rate_) +
         peak_tracked_ * per_entry;
}

}  // namespace l1hh
