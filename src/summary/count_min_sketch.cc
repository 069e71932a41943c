#include "summary/count_min_sketch.h"

#include <algorithm>
#include <cmath>

#include "util/bit_util.h"

namespace l1hh {

CountMinSketch::CountMinSketch(const Options& options, uint64_t seed)
    : width_(RoundUpPowerOfTwo(std::max<size_t>(options.width, 2))),
      conservative_(options.conservative) {
  Rng rng(seed);
  const int log2w = CeilLog2(width_);
  hashes_.reserve(options.depth);
  for (size_t i = 0; i < std::max<size_t>(options.depth, 1); ++i) {
    hashes_.push_back(MultiplyShiftHash::Draw(rng, log2w));
  }
  table_.assign(hashes_.size() * width_, 0);
}

CountMinSketch CountMinSketch::ForError(double epsilon, double delta,
                                        uint64_t seed, bool conservative) {
  Options opt;
  opt.width = static_cast<size_t>(std::ceil(std::exp(1.0) / epsilon));
  opt.depth = static_cast<size_t>(std::ceil(std::log(1.0 / delta)));
  opt.conservative = conservative;
  return CountMinSketch(opt, seed);
}

void CountMinSketch::Insert(uint64_t item, uint64_t count) {
  processed_ += count;
  if (!conservative_) {
    for (size_t r = 0; r < hashes_.size(); ++r) {
      table_[Cell(r, item)] += count;
    }
    return;
  }
  // Conservative update: raise only cells below the new lower bound.
  uint64_t current = Estimate(item);
  const uint64_t target = current + count;
  for (size_t r = 0; r < hashes_.size(); ++r) {
    uint64_t& cell = table_[Cell(r, item)];
    cell = std::max(cell, target);
  }
}

uint64_t CountMinSketch::InsertAndEstimate(uint64_t item) {
  ++processed_;
  if (conservative_) {
    // Conservative update raises every row to the new lower bound, which
    // is also the post-insert estimate.
    const uint64_t target = Estimate(item) + 1;
    for (size_t r = 0; r < hashes_.size(); ++r) {
      uint64_t& cell = table_[Cell(r, item)];
      cell = std::max(cell, target);
    }
    return target;
  }
  uint64_t best = UINT64_MAX;
  for (size_t r = 0; r < hashes_.size(); ++r) {
    uint64_t& cell = table_[Cell(r, item)];
    ++cell;
    best = std::min(best, cell);
  }
  return best;
}

uint64_t CountMinSketch::Estimate(uint64_t item) const {
  uint64_t best = UINT64_MAX;
  for (size_t r = 0; r < hashes_.size(); ++r) {
    best = std::min(best, table_[Cell(r, item)]);
  }
  return best == UINT64_MAX ? 0 : best;
}

bool CountMinSketch::Compatible(const CountMinSketch& other) const {
  if (width_ != other.width_ || hashes_.size() != other.hashes_.size() ||
      conservative_ != other.conservative_) {
    return false;
  }
  for (size_t i = 0; i < hashes_.size(); ++i) {
    if (!(hashes_[i] == other.hashes_[i])) return false;
  }
  return true;
}

CountMinSketch CountMinSketch::Merge(const CountMinSketch& a,
                                     const CountMinSketch& b) {
  CountMinSketch merged = a;
  if (!a.Compatible(b)) return merged;  // caller bug; keep a's view
  for (size_t i = 0; i < merged.table_.size(); ++i) {
    merged.table_[i] += b.table_[i];
  }
  merged.processed_ += b.processed_;
  return merged;
}

size_t CountMinSketch::SpaceBits() const {
  size_t bits = 0;
  for (const uint64_t cell : table_) {
    bits += cell == 0 ? 1 : static_cast<size_t>(CounterBits(cell));
  }
  for (const auto& h : hashes_) bits += static_cast<size_t>(h.SeedBits());
  return bits + BitWidth(processed_);
}

CountMinHeavyHitters::CountMinHeavyHitters(double epsilon, double phi,
                                           double delta, uint64_t seed)
    : phi_(phi),
      epsilon_(epsilon),
      cms_(CountMinSketch::ForError(epsilon / 2, delta, seed,
                                    /*conservative=*/false)) {}

void CountMinHeavyHitters::Insert(uint64_t item) {
  TrackCandidate(item, cms_.InsertAndEstimate(item));
}

void CountMinHeavyHitters::InsertColumn(const uint64_t* items, size_t n) {
  // The visitor runs after item i's increments land and before item
  // i+1's, so the candidate checks (and the occasional prune, which
  // re-queries the sketch) see exactly the table state the scalar Insert
  // loop would — bit-for-bit equal snapshots either way.
  cms_.InsertColumn(items, n, [&](size_t i, uint64_t est) {
    TrackCandidate(items[i], est);
  });
}

void CountMinHeavyHitters::TrackCandidate(uint64_t item, uint64_t est) {
  const uint64_t m_so_far = cms_.items_processed();
  if (static_cast<double>(est) <
      (phi_ - epsilon_ / 2) * static_cast<double>(m_so_far)) {
    return;
  }
  candidates_[item] = est;
  // Prune stale candidates occasionally so the set stays O(1/phi)-ish.
  if (candidates_.size() <= 4.0 / phi_) return;
  const double threshold = (phi_ - epsilon_) * static_cast<double>(m_so_far);
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    if (static_cast<double>(cms_.Estimate(it->first)) < threshold) {
      it = candidates_.erase(it);
    } else {
      ++it;
    }
  }
}

bool CountMinHeavyHitters::Compatible(
    const CountMinHeavyHitters& other) const {
  return phi_ == other.phi_ && epsilon_ == other.epsilon_ &&
         cms_.Compatible(other.cms_);
}

bool CountMinHeavyHitters::MergeFrom(const CountMinHeavyHitters& other) {
  if (!Compatible(other)) return false;
  cms_ = CountMinSketch::Merge(cms_, other.cms_);
  // Stored estimates are stale after the sum, but Report() re-queries the
  // merged sketch, so the union only needs the candidate ids.
  for (const auto& [item, est] : other.candidates_) {
    candidates_.emplace(item, est);
  }
  return true;
}

std::vector<CountMinHeavyHitters::Entry> CountMinHeavyHitters::Report()
    const {
  const double threshold = (phi_ - epsilon_ / 2) *
                           static_cast<double>(cms_.items_processed());
  std::vector<Entry> out;
  for (const auto& [item, est] : candidates_) {
    (void)est;
    const uint64_t fresh = cms_.Estimate(item);
    if (static_cast<double>(fresh) >= threshold) {
      out.push_back({item, fresh});
    }
  }
  SortByCountDesc(out);
  return out;
}

size_t CountMinHeavyHitters::SpaceBits() const {
  return cms_.SpaceBits() + candidates_.size() * (64 + 32);
}

void CountMinHeavyHitters::Serialize(BitWriter& out) const {
  cms_.Serialize(out);
  out.WriteCounter(candidates_.size());
  for (const auto& [item, est] : candidates_) {
    out.WriteU64(item);
    out.WriteCounter(est);
  }
}

bool CountMinHeavyHitters::DeserializeFrom(BitReader& in) {
  CountMinSketch loaded = CountMinSketch::Deserialize(in);
  if (in.overflow() || !loaded.Compatible(cms_)) return false;
  const uint64_t entries = in.CheckedCount(in.ReadCounter());
  std::unordered_map<uint64_t, uint64_t> candidates;
  // Each entry costs >= 65 bits, so cap the pre-allocation by what the
  // wire can actually hold (CheckedCount's bound is per-bit, loose).
  candidates.reserve(
      std::min<uint64_t>(entries, in.remaining_bits() / 65 + 1));
  for (uint64_t i = 0; i < entries && !in.overflow(); ++i) {
    const uint64_t item = in.ReadU64();
    candidates[item] = in.ReadCounter();
  }
  if (in.overflow()) return false;
  cms_ = std::move(loaded);
  candidates_ = std::move(candidates);
  return true;
}

void CountMinSketch::Serialize(BitWriter& out) const {
  out.WriteGamma(width_);
  out.WriteGamma(hashes_.size());
  out.WriteBool(conservative_);
  out.WriteCounter(processed_);
  for (const auto& h : hashes_) h.Serialize(out);
  for (const uint64_t cell : table_) out.WriteCounter(cell);
}

CountMinSketch CountMinSketch::Deserialize(BitReader& in) {
  Options opt;
  opt.width = in.ReadGamma();
  opt.depth = in.ReadGamma();
  // Every cell costs >= 1 bit on the wire, so a plausible message has at
  // least width * depth bits left; hostile dimensions must not drive the
  // table allocation.  Divide instead of multiplying — the product of two
  // wire-controlled u64s can wrap past the check.
  const uint64_t cm_budget = in.remaining_bits() + 64;
  if (opt.width > cm_budget || opt.depth > cm_budget ||
      opt.width > cm_budget / std::max<size_t>(opt.depth, 1) ||
      in.CheckedCount(opt.width * std::max<size_t>(opt.depth, 1)) == 0) {
    opt.width = 2;
    opt.depth = 1;
  }
  opt.conservative = in.ReadBool();
  CountMinSketch cms(opt, /*seed=*/0);
  cms.processed_ = in.ReadCounter();
  for (size_t i = 0; i < cms.hashes_.size(); ++i) {
    cms.hashes_[i] = MultiplyShiftHash::Deserialize(in);
  }
  for (auto& cell : cms.table_) cell = in.ReadCounter();
  return cms;
}

}  // namespace l1hh
