// Sliding-window heavy hitters over mergeable summaries — the
// continuous-monitoring subsystem.  Design walkthrough: docs/WINDOWS.md.
//
// Every structure in this library answers "heavy since time zero"; real
// monitoring workloads ask "heavy in the last W items".  The paper's
// guarantees are distribution-free, so they compose over time buckets:
// cover the window of W items with B tumbling sub-window buckets of
// q = W/B items, give each bucket its own factory-made instance of a
// *mergeable* registered structure, feed the live bucket, rotate the ring
// at bucket boundaries (evicting the expired bucket), and serve queries
// from an on-demand Merge of the live buckets — the same merge machinery
// the sharded engine and the distributed snapshot workflow already rely
// on, pointed at time instead of space.
//
// Guarantee: at any instant the ring covers the last W' items with
// W - W/B <= W' < W (only the live bucket is partial), so a query pays at
// most one bucket of slack on top of the inner structure's contract.  In
// Definition-1 terms the windowed structure is an (eps', phi)-List heavy
// hitters summary over the covered suffix with
//
//     eps' = eps + 1/B
//
// — every item with >= phi fraction of the last W items is reported,
// nothing below (phi - eps')*W can be, and estimates are within eps'*W of
// the true last-W frequency.  tests/windowed_conformance_test.cc pins
// this for every mergeable structure on planted-drift streams.
//
// Wrapping is name-driven: MakeSummary("windowed:<inner>", options) builds
// this container around registry structure <inner>, sized by
// SummaryOptions::{window_size, window_buckets}.  Inner buckets are
// constructed from the same options (same seed — the Merge compatibility
// precondition) with stream_length set to the effective window, so the
// sampling-based structures size their rates for window-sized substreams.
// Non-mergeable inner structures (lossy_counting, sticky_sampling) are
// refused: their per-bucket states cannot be combined into a window view.
//
// Rotation modes: by default the container rotates itself every
// bucket_width() of its own updates.  The sharded engine instead drives
// rotation externally (set_external_rotation + Rotate) from the *global*
// enqueued count, so K per-shard windows stay bucket-aligned and remain
// bucket-wise mergeable; see ShardedEngine and docs/WINDOWS.md.
//
// Thread-safety: same contract as every Summary — single-threaded; the
// const queries share the mutable merged-view cache.
#ifndef L1HH_WINDOW_SLIDING_WINDOW_SUMMARY_H_
#define L1HH_WINDOW_SLIDING_WINDOW_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "summary/summary.h"
#include "util/status.h"

namespace l1hh {

class SlidingWindowSummary : public Summary {
 public:
  /// Builds the window container around registered structure `inner_name`
  /// (which must support Merge).  Geometry comes from
  /// options.window_size (W; 0 = stream_length if set, else 2^20) and
  /// options.window_buckets (B; 0 = 8, capped at kMaxBuckets).  The
  /// bucket width is q = max(1, W / B) and the effective window is q*B
  /// (W is rounded down to a multiple of B; never below B).  Returns
  /// nullptr — with the reason in *status when given — for unknown,
  /// non-mergeable, or nested-windowed inner names.
  static std::unique_ptr<SlidingWindowSummary> Create(
      std::string_view inner_name, const SummaryOptions& options,
      Status* status = nullptr);

  /// Hostile snapshot headers must not size an allocation: more buckets
  /// than this is refused at Create.
  static constexpr uint64_t kMaxBuckets = 1 << 16;

  // ---- Summary interface ------------------------------------------------

  /// "windowed:<inner>" — round-trips through snapshot headers.
  std::string_view Name() const override { return name_; }
  /// The construction options with the *effective* window geometry
  /// (window_size = bucket_width*B after rounding), so a snapshot header
  /// reconstructs an identical ring.
  SummaryOptions Options() const override { return options_; }

  void Update(uint64_t item, uint64_t weight = 1) override;
  /// Chunks the slice at bucket boundaries and forwards each chunk to the
  /// live bucket's columnar path, so the inner structure's slice-tuned
  /// loop runs even inside a window.
  void UpdateColumn(const uint64_t* items, size_t n) override;

  /// Estimated frequency of `item` over the covered window (the last
  /// window_items() ingested items), in window units.
  double Estimate(uint64_t item) const override;

  /// Heavy hitters of the covered window at threshold phi * window_items(),
  /// under the eps' = eps + 1/B contract.
  std::vector<ItemEstimate> HeavyHitters(double phi) const override;

  /// Total items ever ingested (the global stream position, NOT the
  /// window coverage — the engine's restore counters and the snapshot
  /// header both need the former; see window_items()).
  uint64_t ItemsProcessed() const override { return total_items_; }

  /// Reports answer for the covered window, not the whole history.
  uint64_t CoveredItems() const override { return window_items(); }
  /// The partition hook, forwarded to the merged window (the samples
  /// are summed over the buckets, as a merge would): K rotation-aligned
  /// shard rings cover the same global window, so the union of their
  /// partition reports answers for it.
  uint64_t PartitionSamples() const override;
  std::vector<ItemEstimate> PartitionHeavyHitters(
      double phi, const PartitionTotals& totals) const override;
  double PartitionEstimate(uint64_t item,
                           const PartitionTotals& totals) const override;

  size_t MemoryUsageBytes() const override;

  /// Bucket-wise merge with another window built over a disjoint,
  /// rotation-aligned substream (the per-shard windows of one engine, or
  /// one process's snapshot of the same monitored stream).  Requires the
  /// same inner structure, geometry, options, and *rotation count* —
  /// bucket i of one ring must cover the same global time range as bucket
  /// i of the other.  A pristine window (never updated, never rotated)
  /// adopts the other's alignment, which is how the engine's MergedView
  /// bootstraps.
  bool SupportsMerge() const override { return true; }
  Status Merge(const Summary& other) override;

  bool SupportsSnapshot() const override { return true; }
  /// Ring header (geometry echo, rotation count, total items) followed by
  /// every bucket's full payload oldest-to-live — including per-bucket
  /// PRNG state, so a restore mid-bucket continues exactly.
  Status SaveTo(BitWriter& out) const override;
  Status LoadFrom(BitReader& in) override;

  // ---- Window-specific surface ------------------------------------------

  /// Items currently covered by the ring: in [W - W/B, W) once warm, the
  /// whole history before the first eviction.  Queries answer for exactly
  /// this suffix of the ingested stream.
  uint64_t window_items() const;

  /// Effective window length W (a multiple of num_buckets()).
  uint64_t window_size() const { return bucket_width_ * buckets_.size(); }
  size_t num_buckets() const { return buckets_.size(); }
  uint64_t bucket_width() const { return bucket_width_; }
  /// Bucket boundaries crossed so far; the ring-alignment token Merge
  /// compares.
  uint64_t rotations() const { return rotations_; }
  const std::string& inner_name() const { return inner_name_; }
  /// Items in the live (partial) bucket.
  uint64_t live_bucket_items() const;

  /// When true, Update/UpdateBatch never rotate; the owner calls Rotate()
  /// at its own (e.g. global-position) bucket boundaries.  The sharded
  /// engine sets this on per-shard windows so all K rings rotate in
  /// lockstep with the global stream.
  void set_external_rotation(bool external) { external_rotation_ = external; }
  bool external_rotation() const { return external_rotation_; }

  /// Advances the ring one bucket: evicts the oldest bucket, opens a
  /// fresh live one.  Called internally every bucket_width() updates
  /// unless external rotation is set.
  void Rotate();

  // ---- Incremental (delta) persistence ----------------------------------
  //
  // Sealed buckets are immutable: once the ring rotates past a bucket its
  // contents never change again (only its position shifts, identically on
  // writer and applier).  A checkpoint taken at rotation R0 therefore
  // determines every bucket except the ones sealed AFTER R0 plus the live
  // bucket — exactly `rotations() - R0 + 1` buckets — and a delta needs to
  // carry only those plus the clocks.  src/io/snapshot.h wraps these in a
  // self-describing CRC-sealed container (SaveSummaryDelta /
  // ApplySummaryDelta); docs/SNAPSHOTS.md#delta-snapshots has the format.

  /// Serializes the newest `bucket_count` buckets (oldest-to-live) —
  /// the tail that changed since a base checkpoint.  `bucket_count` must
  /// be in [1, num_buckets()].
  Status SaveTailTo(BitWriter& out, uint64_t bucket_count) const;

  /// Applies a delta onto this instance, which must be in the exact state
  /// the delta was computed against: rotations() == base_rotations and
  /// ItemsProcessed() == base_items.  Rotates the ring forward to
  /// new_rotations, replaces the newest `bucket_count` buckets from the
  /// reader, and sets the item clock to new_total_items.  Any mismatch is
  /// a Corruption (a delta chained onto the wrong base).
  Status ApplyTail(BitReader& in, uint64_t base_rotations,
                   uint64_t base_items, uint64_t new_rotations,
                   uint64_t new_total_items, uint64_t bucket_count);

 private:
  SlidingWindowSummary(std::string_view inner_name,
                       const SummaryOptions& options, uint64_t bucket_width,
                       size_t num_buckets);

  std::unique_ptr<Summary> MakeBucket() const;
  Summary& LiveBucket() { return *buckets_.back(); }
  const Summary& LiveBucket() const { return *buckets_.back(); }
  /// The bucket-split loop behind Update and UpdateColumn: apply(offset,
  /// count) per chunk of `total` items, rotating between full buckets.
  template <typename Apply>
  void ForEachBucketChunk(uint64_t total, Apply&& apply);

  /// The invalidate-on-rotate merged-view cache: rebuilt only when items
  /// or rotations moved since the cached merge.
  const Summary& MergedWindow() const;
  void InvalidateCache() { merged_valid_ = false; }

  SummaryOptions options_;        // outer options, effective geometry
  SummaryOptions bucket_options_; // inner options (stream_length = W)
  std::string inner_name_;
  std::string name_;              // "windowed:" + inner_name_
  uint64_t bucket_width_ = 0;     // q = W / B
  uint64_t total_items_ = 0;      // ever ingested, across evictions
  uint64_t rotations_ = 0;
  bool external_rotation_ = false;

  // buckets_[0] is the oldest, buckets_.back() the live one; always
  // exactly B entries (young rings hold empty buckets).
  std::vector<std::unique_ptr<Summary>> buckets_;

  mutable std::unique_ptr<Summary> merged_;
  mutable uint64_t merged_items_ = 0;
  mutable uint64_t merged_rotations_ = 0;
  mutable bool merged_valid_ = false;
};

}  // namespace l1hh

#endif  // L1HH_WINDOW_SLIDING_WINDOW_SUMMARY_H_
