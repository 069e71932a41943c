// Lossy Counting [MM02]: deterministic, bucket-based.
//
// With bucket width ceil(1/eps): every item with f > eps*m is reported,
// estimates undercount by at most eps*m, and space is O(eps^-1 log(eps m))
// entries.  Classic baseline from the paper's related-work list.
#ifndef L1HH_SUMMARY_LOSSY_COUNTING_H_
#define L1HH_SUMMARY_LOSSY_COUNTING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "summary/count_entry.h"
#include "util/bit_stream.h"

namespace l1hh {

class LossyCounting {
 public:
  struct Entry {
    uint64_t item;
    uint64_t count;  // undercount; true f <= count + delta
    uint64_t delta;  // max undercount when the entry was created
  };

  explicit LossyCounting(double epsilon, int key_bits = 64);

  void Insert(uint64_t item);

  /// Undercount estimate (0 if dropped).
  uint64_t Estimate(uint64_t item) const;

  /// Items whose (count + delta) >= threshold, sorted by SortByCountDesc.
  std::vector<Entry> EntriesAbove(uint64_t threshold) const;
  std::vector<Entry> Entries() const { return EntriesAbove(0); }

  uint64_t items_processed() const { return processed_; }
  size_t tracked() const { return table_.size(); }
  size_t peak_tracked() const { return peak_tracked_; }
  double epsilon() const { return epsilon_; }

  /// Peak-capacity accounting: the table must be sized for its fullest
  /// moment (just before a prune), not the end-of-stream survivors.
  size_t SpaceBits() const;

  void Serialize(BitWriter& out) const;
  static LossyCounting Deserialize(BitReader& in);

 private:
  void PruneBucket();

  double epsilon_;
  int key_bits_;
  uint64_t bucket_width_;
  uint64_t current_bucket_ = 1;
  uint64_t processed_ = 0;
  size_t peak_tracked_ = 0;
  uint64_t max_count_ = 0;
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> table_;
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_LOSSY_COUNTING_H_
