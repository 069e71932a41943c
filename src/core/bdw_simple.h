// Algorithm 1 of the paper (Theorem 1): the "simpler, near-optimal"
// (eps, phi)-List heavy hitters algorithm.
//
//   1. Bernoulli-sample ~l = O(log(1/delta) / eps^2) stream items
//      (geometric-skip sampling => O(1) worst-case update);
//   2. feed the *hashed* ids (universal hash into a poly(1/eps) range,
//      collision-free on the sample by Lemma 2) into a Misra–Gries table
//      T1 of O(1/eps) counters;
//   3. maintain the true ids of the top O(1/phi) keys in a side table T2.
//
// Space: O(eps^-1 (log eps^-1 + log log delta^-1) + phi^-1 log n
//          + log log m) bits.
// Report: items of T2 whose rescaled count clears (phi - eps/2) m, each
// with a count estimate within eps*m of truth w.p. 1 - delta.
#ifndef L1HH_CORE_BDW_SIMPLE_H_
#define L1HH_CORE_BDW_SIMPLE_H_

#include <cstdint>
#include <vector>

#include "core/common.h"
#include "sampling/geometric_skip.h"
#include "summary/hashed_misra_gries.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {

class BdwSimple {
 public:
  struct Options {
    double epsilon = 0.01;
    double phi = 0.05;
    double delta = 0.1;
    uint64_t universe_size = uint64_t{1} << 32;
    uint64_t stream_length = 0;  // must be set (Theorem 1 assumes known m)
    Constants constants = Constants::Practical();

    Status Validate() const {
      return ValidateHeavyHitterParams(epsilon, phi, delta, universe_size,
                                       stream_length);
    }
  };

  BdwSimple(const Options& options, uint64_t seed);

  /// Processes one stream item.  O(1) worst case.
  void Insert(ItemId item);

  /// Items with estimated frequency >= (phi - eps/2); satisfies the
  /// Definition 1 contract w.p. >= 1 - delta.
  std::vector<HeavyHitter> Report() const;

  /// The paper's "top-k / most popular items" framing: the k tracked items
  /// with the highest estimates, unthresholded (k <= T2 capacity).
  std::vector<HeavyHitter> TopK(size_t k) const;

  /// Rescaled count estimate for an arbitrary item (via its hashed key).
  double EstimateCount(ItemId item) const;

  /// TopK / EstimateCount rescaled by m / `samples` instead of this
  /// sketch's own sample count: the full-stream units of a hash-
  /// partitioned deployment whose partitions sampled `samples` items in
  /// total (the merged sketch's normalisation).  Empty / 0 when
  /// `samples` is 0.
  std::vector<HeavyHitter> TopK(size_t k, uint64_t samples) const;
  double EstimateCount(ItemId item, uint64_t samples) const;

  /// Distributed merge of two sketches built with the SAME options and
  /// seed (so they share the hash function and sampling rate) over
  /// disjoint substreams whose combined length is options.stream_length.
  /// The union of two Bernoulli(p) samples of disjoint streams is a
  /// Bernoulli(p) sample of the concatenation, so the merged sketch obeys
  /// the same (eps, phi) contract as a single-node run.
  static BdwSimple Merge(const BdwSimple& a, const BdwSimple& b);

  uint64_t samples_taken() const { return sampled_; }
  uint64_t items_processed() const { return position_; }
  const Options& options() const { return opt_; }

  /// Paper-accounting space: T1 + T2 + hash seed + sampler + the sampled
  /// counter (log of sample size bits).
  size_t SpaceBits() const;

  void Serialize(BitWriter& out) const;
  static BdwSimple Deserialize(BitReader& in, uint64_t seed);

  /// Snapshot support: persists the live PRNG state so a restored sketch
  /// continues the exact random sequence of the saved one.  Appended after
  /// Serialize() by the snapshot payloads (src/io/); the communication
  /// games keep sending Serialize() alone — Bob never inserts with Alice's
  /// generator, and the message stays at its measured bit size.
  void SerializeRngState(BitWriter& out) const;
  void DeserializeRngState(BitReader& in);

 private:
  BdwSimple(const Options& options, uint64_t seed, HashedMisraGries table);

  static HashedMisraGries MakeTable(const Options& options, uint64_t seed);

  Options opt_;
  Rng rng_;
  GeometricSkipSampler sampler_;
  HashedMisraGries table_;
  uint64_t position_ = 0;
  uint64_t sampled_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_CORE_BDW_SIMPLE_H_
