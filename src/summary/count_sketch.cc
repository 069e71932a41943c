#include "summary/count_sketch.h"

#include <algorithm>
#include <cmath>

#include "util/bit_util.h"

namespace l1hh {

CountSketch::CountSketch(size_t width, size_t depth, uint64_t seed)
    : width_(RoundUpPowerOfTwo(std::max<size_t>(width, 2))) {
  Rng rng(seed);
  const int log2w = CeilLog2(width_);
  const size_t d = std::max<size_t>(depth, 1) | 1;  // odd depth for a median
  index_hashes_.reserve(d);
  sign_hashes_.reserve(d);
  for (size_t i = 0; i < d; ++i) {
    index_hashes_.push_back(MultiplyShiftHash::Draw(rng, log2w));
    sign_hashes_.push_back(MultiplyShiftHash::Draw(rng, 1));
  }
  table_.assign(d * width_, 0);
}

CountSketch CountSketch::ForError(double epsilon, double delta,
                                  uint64_t seed) {
  const auto width = static_cast<size_t>(std::ceil(3.0 / (epsilon * epsilon)));
  const auto depth =
      static_cast<size_t>(std::ceil(4.0 * std::log(1.0 / delta))) | 1;
  return CountSketch(width, depth, seed);
}

void CountSketch::Insert(uint64_t item, int64_t count) {
  processed_ += static_cast<uint64_t>(count > 0 ? count : -count);
  for (size_t r = 0; r < index_hashes_.size(); ++r) {
    table_[Cell(r, item)] += Sign(r, item) * count;
  }
}

int64_t CountSketch::Estimate(uint64_t item) const {
  // Runs on every summary update (candidate tracking), so the per-row
  // values live on the stack; only a depth beyond any practical delta
  // falls back to the heap.
  constexpr size_t kStackRows = 32;
  int64_t stack_rows[kStackRows] = {};
  std::vector<int64_t> heap_rows;
  const size_t depth = index_hashes_.size();
  int64_t* rows = stack_rows;
  if (depth > kStackRows) {
    heap_rows.resize(depth);
    rows = heap_rows.data();
  }
  for (size_t r = 0; r < depth; ++r) {
    rows[r] = Sign(r, item) * table_[Cell(r, item)];
  }
  const size_t mid = depth / 2;
  std::nth_element(rows, rows + mid, rows + depth);
  return rows[mid];
}

bool CountSketch::Compatible(const CountSketch& other) const {
  if (width_ != other.width_ ||
      index_hashes_.size() != other.index_hashes_.size()) {
    return false;
  }
  for (size_t i = 0; i < index_hashes_.size(); ++i) {
    if (!(index_hashes_[i] == other.index_hashes_[i])) return false;
    if (!(sign_hashes_[i] == other.sign_hashes_[i])) return false;
  }
  return true;
}

CountSketch CountSketch::Merge(const CountSketch& a, const CountSketch& b) {
  CountSketch merged = a;
  if (!a.Compatible(b)) return merged;
  for (size_t i = 0; i < merged.table_.size(); ++i) {
    merged.table_[i] += b.table_[i];
  }
  merged.processed_ += b.processed_;
  return merged;
}

size_t CountSketch::SpaceBits() const {
  size_t bits = 0;
  for (const int64_t cell : table_) {
    const uint64_t mag = static_cast<uint64_t>(cell >= 0 ? cell : -cell);
    bits += 1 + (mag == 0 ? 1 : static_cast<size_t>(CounterBits(mag)));
  }
  for (const auto& h : index_hashes_) bits += h.SeedBits();
  for (const auto& h : sign_hashes_) bits += h.SeedBits();
  return bits + BitWidth(processed_);
}

void CountSketch::Serialize(BitWriter& out) const {
  out.WriteGamma(width_);
  out.WriteGamma(index_hashes_.size());
  out.WriteCounter(processed_);
  for (const auto& h : index_hashes_) h.Serialize(out);
  for (const auto& h : sign_hashes_) h.Serialize(out);
  for (const int64_t cell : table_) {
    out.WriteBool(cell < 0);
    out.WriteCounter(static_cast<uint64_t>(cell >= 0 ? cell : -cell));
  }
}

CountSketch CountSketch::Deserialize(BitReader& in) {
  size_t width = in.ReadGamma();
  size_t depth = in.ReadGamma();
  // Every cell costs >= 2 bits on the wire; hostile dimensions must not
  // drive the table allocation.  Divide instead of multiplying — the
  // product of two wire-controlled u64s can wrap past the check.
  const uint64_t cs_budget = in.remaining_bits() + 64;
  if (width > cs_budget || depth > cs_budget ||
      width > cs_budget / std::max<size_t>(depth, 1) ||
      in.CheckedCount(width * std::max<size_t>(depth, 1)) == 0) {
    width = 2;
    depth = 1;
  }
  CountSketch cs(width, depth, /*seed=*/0);
  cs.processed_ = in.ReadCounter();
  for (auto& h : cs.index_hashes_) h = MultiplyShiftHash::Deserialize(in);
  for (auto& h : cs.sign_hashes_) h = MultiplyShiftHash::Deserialize(in);
  for (auto& cell : cs.table_) {
    const bool neg = in.ReadBool();
    const auto mag = static_cast<int64_t>(in.ReadCounter());
    cell = neg ? -mag : mag;
  }
  return cs;
}

}  // namespace l1hh
