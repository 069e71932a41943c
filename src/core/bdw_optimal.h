// Algorithm 2 of the paper (Theorem 2): the space-optimal
// (eps, phi)-List heavy hitters algorithm.
//
// Structure, mirroring the pseudocode:
//   * Bernoulli sample of ~l = O(eps^-2) items (geometric-skip, O(1) w.c.);
//   * T1: Misra–Gries over *true* ids with O(1/phi) counters — the
//     candidate set (every phi-heavy item of the sample survives);
//   * for each of R = O(log(1/phi)) repetitions j, a universal hash h_j
//     into O(1/eps) rows;
//   * T2[i][j]: eps-subsampled running count of hashed id i — the paper's
//     factor-4 frequency tracker, kept here for space accounting and as a
//     cross-check of the epoch schedule;
//   * T3[i][j][t]: the "accelerated counters": an arrival in epoch t is
//     counted with probability min(eps 2^t, 1), so counting probability
//     grows as Theta(eps^2 f_i) for phi-heavy items and each estimator has
//     O(eps^-2) variance;
//   * estimate = median over j of sum_t T3[i][j][t] / min(eps 2^t, 1);
//     report T1 candidates whose estimate clears (phi - eps/2) * sample.
//
// Epoch schedule (deviation from the pseudocode, documented in
// docs/ALGORITHMS.md): the paper advances each cell's epoch from its own
// T2 value, which makes epochs *instance-local* — two sketches built over
// disjoint substreams disagree about which probability an epoch-t count
// was taken at relative to the union stream, so their T3 tables cannot be
// reconciled.  Here the epoch is a pure function of the shared, seeded
// configuration and the number of samples taken:
//
//     epoch(s) = clamp(floor(2 log2(eps phi s / scale)), 0, max_epoch)
//
// — the epoch the paper's rule would give an exactly phi-heavy cell after
// s samples.  Every instance with the same Options walks the same
// schedule, epochs only ever increase, and two instances at different
// sample positions merge by fast-forwarding the behind one to the common
// epoch (FastForwardToEpoch) and summing T2/T3 cell-wise: each T3[t]
// count is divided by its *own* epoch's probability at estimate time, so
// the merged estimator stays unbiased regardless of which instance
// counted at which epoch.  See MergeFrom.
//
// Space: O(eps^-1 log phi^-1 + phi^-1 log n + log log m) bits — optimal by
// the paper's Theorems 9 and 14.
#ifndef L1HH_CORE_BDW_OPTIMAL_H_
#define L1HH_CORE_BDW_OPTIMAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/common.h"
#include "count/compact_counter_array.h"
#include "hash/universal_hash.h"
#include "sampling/geometric_skip.h"
#include "summary/misra_gries.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {

class BdwOptimal {
 public:
  struct Options {
    double epsilon = 0.01;
    double phi = 0.05;
    double delta = 0.1;  // the paper states Theorem 2 for constant delta
    uint64_t universe_size = uint64_t{1} << 32;
    uint64_t stream_length = 0;
    Constants constants = Constants::Practical();

    Status Validate() const {
      return ValidateHeavyHitterParams(epsilon, phi, delta, universe_size,
                                       stream_length);
    }
  };

  BdwOptimal(const Options& options, uint64_t seed);

  /// Items a column apply takes per tile: the engine's default drain
  /// batch.  Bounds the per-thread scratch at O(kColumnTile * R) bytes.
  static constexpr size_t kColumnTile = 1024;

  /// Processes one stream item: the one-item column.
  void Insert(ItemId item) { InsertColumn(&item, 1); }

  /// Processes items[0 .. n) in stream order, in tiles of at most
  /// kColumnTile items.  O(1) for non-sampled items.  A sampled item runs
  /// in stream order everything whose outcome depends on order: the
  /// sampler, the epoch schedule, T1, and the T2/T3 coins of 64
  /// repetitions per random word (O(R/64) words, early-exiting once no
  /// coin can fire), with T2's rare increments applied at once.  Only the
  /// fired T3 coins are deferred: they are counted per (item, repetition)
  /// in a per-thread tile table, and each distinct item of the tile then
  /// hashes once per repetition whose count is nonzero and adds the count
  /// to its T3 cell.  The tile is flushed at its end and before the epoch
  /// advances, so every count lands in the epoch its coins were drawn in.
  /// Counter sums commute and the counter array's state depends only on
  /// the final values, so the sketch (snapshot bytes and PRNG state
  /// included) is the one the items would give one at a time.  Past
  /// eps_exp every repetition fires, and a zipf tile's hot items then
  /// pay R hashes and T3 adds once per tile instead of once per arrival.
  void InsertColumn(const ItemId* items, size_t n);

  std::vector<HeavyHitter> Report() const;

  /// The k candidates with the highest median estimates, unthresholded.
  std::vector<HeavyHitter> TopK(size_t k) const;

  /// Median accelerated-counter estimate for an arbitrary item, rescaled
  /// to full-stream units.
  double EstimateCount(ItemId item) const;

  /// TopK / EstimateCount rescaled by m / `samples` instead of this
  /// sketch's own sample count: the full-stream units of a hash-
  /// partitioned deployment whose partitions sampled `samples` items in
  /// total (the merged sketch's normalisation).  Empty / 0 when
  /// `samples` is 0.
  std::vector<HeavyHitter> TopK(size_t k, uint64_t samples) const;
  double EstimateCount(ItemId item, uint64_t samples) const;

  // ---- Distributed merge ----------------------------------------------

  /// True iff the two sketches follow the same epoch schedule and hash
  /// layout: equal (eps, phi, delta, n, m) options, equal derived shape
  /// (rows, repetitions, subsampling exponent, epoch scale/cap), and the
  /// same drawn hash functions (i.e. the same construction seed).  This
  /// is the precondition of MergeFrom.
  static bool Compatible(const BdwOptimal& a, const BdwOptimal& b);

  /// In-place merge with a Compatible sketch built over a disjoint
  /// substream (their combined length covered by options.stream_length).
  /// Reconciliation: both instances sit somewhere on the shared epoch
  /// schedule; this instance fast-forwards to the common (maximum)
  /// epoch, then T1 merges by the classic Misra–Gries merge and T2/T3
  /// combine cell-wise.  Summing T3 across instances is sound because
  /// the estimator divides each epoch-t count by that epoch's own
  /// probability — it never needs to know which instance counted it.
  /// Afterwards this sketch answers for the concatenation of both
  /// substreams.  Returns InvalidArgument (and changes nothing) when the
  /// sketches are not Compatible.
  Status MergeFrom(const BdwOptimal& other);

  /// Raises the epoch floor to `epoch` (clamped to [current floor,
  /// max_epoch]): future arrivals are counted at probability
  /// min(eps 2^epoch, 1) or better.  Never lowers the epoch.  Past T3
  /// counts are untouched — they remain divided by their own recorded
  /// epoch's probability, so estimates stay unbiased; fast-forwarding
  /// only trades a little space (higher counting rate) for variance no
  /// worse than before.  Called by MergeFrom; public for tests and for
  /// coordinators that know a global stream position.
  void FastForwardToEpoch(int epoch);

  /// The shared schedule: epoch after s samples, before any fast-forward
  /// floor.  Deterministic in (Options, s); identical across instances
  /// with equal Options.
  int EpochAtSample(uint64_t s) const;

  /// The epoch new arrivals are currently counted in:
  /// max(EpochAtSample(samples_taken()), fast-forward floor).
  int current_epoch() const { return current_epoch_; }

  uint64_t samples_taken() const { return sampled_; }
  uint64_t items_processed() const { return position_; }
  size_t repetitions() const { return hashes_.size(); }
  size_t rows() const { return rows_; }
  int max_epoch() const { return max_epoch_; }
  const Options& options() const { return opt_; }

  /// Sums of all T2 / T3 counters: how many coins have fired so far.
  uint64_t t2_total() const { return t2_.Total(); }
  uint64_t t3_total() const { return t3_.Total(); }

  /// Paper-style accounting: T1 + T2 (content) + T3 (sparse: only epochs
  /// actually opened per cell are charged) + hash seeds + sampler.
  size_t SpaceBits() const;

  /// Message encoding (dense T2/T3 grids, one gamma code per cell): what
  /// the Section 4 communication games send, so the measured message
  /// size tracks the structure's cell count.
  void Serialize(BitWriter& out) const;
  static BdwOptimal Deserialize(BitReader& in, uint64_t seed);

  /// Snapshot encoding: identical except T2/T3 use the sparse gap-coded
  /// cell format (CompactCounterArray::SerializeSparse), collapsing the
  /// zero runs that dominate the dense grids — this is what SaveTo
  /// persists; see docs/SNAPSHOTS.md#measured-sizes.
  void SerializeSparse(BitWriter& out) const;
  static BdwOptimal DeserializeSparse(BitReader& in, uint64_t seed);

  /// Snapshot support: persists the live PRNG state so a restored sketch
  /// continues the exact random sequence of the saved one (same contract
  /// as BdwSimple::SerializeRngState).
  void SerializeRngState(BitWriter& out) const;
  void DeserializeRngState(BitReader& in);

 private:
  struct T3Tile;
  /// Adds the tile's deferred T3 counts at the current epoch and clears
  /// the entries it touched.
  void FlushT3(T3Tile& tile);

  void SerializeImpl(BitWriter& out, bool sparse_grids) const;
  static BdwOptimal DeserializeImpl(BitReader& in, uint64_t seed,
                                    bool sparse_grids);

  size_t T2Cell(size_t row, size_t rep) const { return row * reps_ + rep; }
  size_t T3Cell(size_t row, size_t rep, int epoch) const {
    return (row * reps_ + rep) * static_cast<size_t>(max_epoch_ + 1) +
           static_cast<size_t>(epoch);
  }

  /// Per-repetition estimate of the sampled-stream frequency of item's
  /// hashed id.
  double EstimateRep(ItemId item, size_t rep) const;
  /// Median over the reps_ repetitions of EstimateRep (unscaled, in
  /// sampled-stream units); `reps` is caller-owned scratch of size reps_.
  double MedianRep(ItemId item, std::vector<double>* reps) const;

  Options opt_;
  Rng rng_;
  GeometricSkipSampler sampler_;
  MisraGries t1_;
  std::vector<UniversalHash> hashes_;
  size_t rows_ = 0;
  size_t reps_ = 0;
  int eps_exp_ = 0;    // T2 subsampling probability = 2^{-eps_exp}
  int max_epoch_ = 0;
  double epoch_scale_ = 8.0;
  CompactCounterArray t2_;
  CompactCounterArray t3_;
  uint64_t position_ = 0;
  uint64_t sampled_ = 0;
  // Epoch state: current_epoch_ = max(EpochAtSample(sampled_),
  // epoch_floor_); the floor is raised by FastForwardToEpoch so a merge
  // chain never lowers an instance's counting probability (keeps the
  // schedule monotone and merges associative).
  int current_epoch_ = 0;
  int epoch_floor_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_CORE_BDW_OPTIMAL_H_
