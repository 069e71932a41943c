// Sticky Sampling [MM02]: probabilistic counting with a sampling rate that
// halves the admission probability as the stream doubles.
//
// Parameters (eps, phi-support s, delta): reports every item with
// f > s*m w.p. >= 1 - delta, undercounts by at most eps*m, and keeps
// O(eps^-1 log(1/(s delta))) entries in expectation, independent of m —
// the first sampling-based heavy hitter algorithm, listed in the paper's
// related work.
#ifndef L1HH_SUMMARY_STICKY_SAMPLING_H_
#define L1HH_SUMMARY_STICKY_SAMPLING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "summary/count_entry.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {

class StickySampling {
 public:
  using Entry = CountEntry;

  StickySampling(double epsilon, double support, double delta, uint64_t seed,
                 int key_bits = 64);

  void Insert(uint64_t item);

  uint64_t Estimate(uint64_t item) const;

  std::vector<Entry> EntriesAbove(uint64_t threshold) const;

  uint64_t items_processed() const { return processed_; }
  size_t tracked() const { return table_.size(); }
  size_t peak_tracked() const { return peak_tracked_; }

  /// Peak-capacity accounting, like LossyCounting.
  size_t SpaceBits() const;

  /// Snapshot support: persists the dynamic state — table, sampling rate,
  /// boundaries, AND the live PRNG state, so a restored instance continues
  /// the exact random sequence of the saved one.  The configuration
  /// (epsilon, support, delta, key_bits) is NOT written; Deserialize is a
  /// member function restoring into an instance constructed with the same
  /// parameters.
  void Serialize(BitWriter& out) const;
  void Deserialize(BitReader& in);

 private:
  void Resample();  // halve admission rate, geometric coin-down per entry

  Rng rng_;
  double epsilon_;
  int key_bits_;
  uint64_t t_;              // 1/eps * log(1/(s*delta))
  uint64_t rate_ = 1;       // current sampling period (1 = keep everything)
  uint64_t next_boundary_;  // stream position where the rate next doubles
  uint64_t processed_ = 0;
  size_t peak_tracked_ = 0;
  uint64_t max_count_ = 0;
  std::unordered_map<uint64_t, uint64_t> table_;
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_STICKY_SAMPLING_H_
