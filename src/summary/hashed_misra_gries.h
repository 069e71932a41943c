// The T1+T2 structure of the paper's Algorithm 1.
//
// T1 is a Misra–Gries table keyed by *hashed* ids: since the sampled stream
// has only l = O(eps^-2) items, hashing ids into [O(l^2 / delta)] keeps them
// collision-free (Lemma 2) while shrinking the per-slot id cost from log n
// to O(log(1/eps) + log(1/delta)) bits.  T2 stores the true ids of only the
// top ceil(1/phi) keys of T1 (log n bits each), kept consistent with T1 as
// values change — this is where the phi^-1 log n term of Theorem 1 comes
// from, and why the eps^-1-sized T1 does not pay log n per slot.
#ifndef L1HH_SUMMARY_HASHED_MISRA_GRIES_H_
#define L1HH_SUMMARY_HASHED_MISRA_GRIES_H_

#include <cstdint>
#include <vector>

#include "hash/universal_hash.h"
#include "summary/misra_gries.h"
#include "util/bit_stream.h"

namespace l1hh {

class HashedMisraGries {
 public:
  // item: the true id (from T2); count: the value of its hashed key in T1.
  using Entry = CountEntry;

  /// `counters`: T1 length (the paper's 1/eps).
  /// `top_ids`: T2 length (the paper's 1/phi).
  /// `hash`: universal hash mapping [n] -> [hash range]; drawn by caller.
  /// `id_bits`: log2(universe size), the space charge per T2 entry.
  HashedMisraGries(size_t counters, size_t top_ids, UniversalHash hash,
                   int id_bits);

  void Insert(uint64_t item);

  /// Count of the item's hashed key (may alias under collisions, which
  /// Lemma 2 makes improbable for sampled items).
  uint64_t EstimateByHash(uint64_t item) const {
    return mg_.Estimate(hash_(item));
  }
  uint64_t Estimate(uint64_t item) const { return EstimateByHash(item); }

  /// The tracked top ids whose T1 count is >= max(threshold, 1), sorted
  /// by SortByCountDesc.
  std::vector<Entry> EntriesAbove(uint64_t threshold) const;

  /// Every tracked top id with a nonzero T1 count, in the same order.
  std::vector<Entry> TopEntries() const { return EntriesAbove(1); }

  /// Distributed merge: requires both sides to share the hash function
  /// (same Draw seed).  T1 merges like Misra-Gries; T2 keeps the top ids
  /// of the union ranked by merged counts.
  static HashedMisraGries Merge(const HashedMisraGries& a,
                                const HashedMisraGries& b);

  uint64_t items_processed() const { return mg_.items_processed(); }
  const UniversalHash& hash() const { return hash_; }
  const MisraGries& table() const { return mg_; }

  size_t SpaceBits() const;

  void Serialize(BitWriter& out) const;
  static HashedMisraGries Deserialize(BitReader& in);

 private:
  UniversalHash hash_;
  MisraGries mg_;                       // T1, keyed by hashed id
  size_t top_capacity_;                 // |T2|
  int id_bits_;
  std::vector<uint64_t> top_true_ids_;  // T2
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_HASHED_MISRA_GRIES_H_
