// The unified summary interface: every heavy-hitter structure in this
// repository — the classic baselines in src/summary/ and the paper's
// Algorithm 1/2 wrappers in src/core/ — is usable through one abstract
// API, so the CLI, the Table 1 benches, the examples, and the
// parameterized interface tests can select algorithms by name.
//
// The model follows the paper's Definition 1 ((eps, phi)-List l1-heavy
// hitters): a summary observes an insertion-only stream of item ids,
// answers point queries `Estimate(item)`, and enumerates
// `HeavyHitters(phi)` — every item with frequency > phi*m must appear,
// nothing below (phi - eps)*m may appear, and estimates are within eps*m
// of truth (deterministically or w.p. 1-delta, per structure; see
// docs/ALGORITHMS.md for the exact guarantee each concrete class gives).
//
// Concrete structures keep their rich native APIs; the adapters that
// implement this interface live in summary.cc (baselines) and
// core/summary_adapters.cc (BdwSimple/BdwOptimal) and are reached through
// the string-keyed factory `MakeSummary(name, options)`.
#ifndef L1HH_SUMMARY_SUMMARY_H_
#define L1HH_SUMMARY_SUMMARY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bit_stream.h"
#include "util/status.h"

namespace l1hh {

/// One (item, estimated count) pair, in full-stream units (sampling-based
/// structures rescale their internal counts before reporting).
struct ItemEstimate {
  uint64_t item = 0;
  double estimate = 0;
};

/// The canonical report order: estimate descending, ties by item id
/// ascending.  Shared by every adapter so reports compare element-wise.
inline void SortByEstimateDesc(std::vector<ItemEstimate>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const ItemEstimate& a, const ItemEstimate& b) {
              return a.estimate > b.estimate ||
                     (a.estimate == b.estimate && a.item < b.item);
            });
}

/// Construction parameters shared by every registered summary.  Individual
/// structures consume the subset they need (e.g. MisraGries only uses
/// epsilon and universe_size; the BDW algorithms additionally require
/// stream_length, which Theorems 1-2 assume known).
struct SummaryOptions {
  double epsilon = 0.01;   // additive estimation error, as a fraction of m
  double phi = 0.05;       // heavy-hitter threshold, as a fraction of m
  double delta = 0.05;     // failure probability (randomized structures)
  uint64_t universe_size = uint64_t{1} << 24;  // n: ids are in [0, n)
  uint64_t stream_length = 0;  // m; required by bdw_simple / bdw_optimal
  uint64_t seed = 1;           // PRNG / hash seed (randomized structures)
  // Sliding-window geometry, consumed only by the `windowed:<algo>`
  // container (src/window/): W, the window length in items, and B, the
  // number of tumbling sub-window buckets covering it.  window_size == 0
  // asks for the default (stream_length when known, else 2^20).  Plain
  // structures ignore both; docs/WINDOWS.md has the eps + 1/B accounting.
  uint64_t window_size = 0;   // W: answer for the last W items
  uint64_t window_buckets = 8;  // B: sub-window buckets (query slack 1/B)

  /// Field-wise equality — THE compatibility comparison (window Merge,
  /// cross-shard Restore validation).  Defaulted so a new field can
  /// never be silently left out of one caller's hand-rolled list.
  friend bool operator==(const SummaryOptions&,
                         const SummaryOptions&) = default;
};

/// The whole-stream totals of a hash-partitioned deployment, summed over
/// every partition's summary: what each partition's report is measured
/// against (Summary::PartitionHeavyHitters / PartitionEstimate).
struct PartitionTotals {
  uint64_t covered_items = 0;  // sum of CoveredItems()
  uint64_t samples = 0;        // sum of PartitionSamples()
};

// Thread-safety contract: a Summary is a single-threaded object.  No
// method is safe to call concurrently with any other on the same
// instance (including the const queries, which may share scratch state in
// derived classes); callers that want parallelism run one instance per
// thread over disjoint substreams and combine them with Merge — which is
// exactly what the sharded engine (src/engine/) does, with a Flush
// quiescence protocol guarding every read.  Distinct instances never
// share mutable state and may be used from different threads freely.
class Summary {
 public:
  virtual ~Summary() = default;

  /// The registry name this summary was created under (e.g. "misra_gries").
  virtual std::string_view Name() const = 0;

  /// Processes `weight` occurrences of `item`.  Structures whose native
  /// update is unit-weight (Misra-Gries, Space-Saving, the sampling-based
  /// algorithms) apply the update `weight` times, so prefer weight == 1 on
  /// hot paths unless the structure is a linear sketch.
  virtual void Update(uint64_t item, uint64_t weight = 1) = 0;

  /// Processes a batch of unit-weight updates: the span spelling of
  /// UpdateColumn, with the same contract.
  void UpdateBatch(std::span<const uint64_t> items) {
    UpdateColumn(items.data(), items.size());
  }

  /// Columnar ingest: `n` unit-weight updates from a contiguous column
  /// slice (the database deployment shape — one column chunk per call).
  /// Contract: state-identical to calling Update(items[i], 1) for
  /// i = 0..n-1 in order; overrides may only reorder order-independent
  /// work such as hash precomputation (tests/columnar_differential_test.cc
  /// pins bit-for-bit snapshot equality against the scalar loop).  The
  /// default is that scalar loop; hot adapters override with slice-tuned
  /// loops (see docs/GROUPED.md#columnar-ingest).
  virtual void UpdateColumn(const uint64_t* items, size_t n) {
    for (size_t i = 0; i < n; ++i) Update(items[i], 1);
  }

  /// Estimated frequency of `item` in full-stream units.  Whether this
  /// over- or under-estimates (and by how much) is structure-specific.
  virtual double Estimate(uint64_t item) const = 0;

  /// Items estimated at or above roughly a phi fraction of the stream,
  /// sorted by estimate descending.  Each structure thresholds so that its
  /// own (eps, phi)-List contract holds: everything above phi*m is
  /// reported, nothing below (phi - eps)*m.  Caveat: structures that
  /// track a candidate set sized by the construction-time
  /// SummaryOptions::phi (count_min, count_sketch, bdw_simple,
  /// bdw_optimal, hashed_misra_gries) guarantee this only for query
  /// phi >= construction phi; smaller query values are answered
  /// best-effort from the tracked candidates.  The default answers as the
  /// lone partition of its own stream (PartitionHeavyHitters against this
  /// summary's own totals); a structure overrides this, the partition
  /// hook, or both — each default is written in terms of the other.
  virtual std::vector<ItemEstimate> HeavyHitters(double phi) const {
    return PartitionHeavyHitters(phi, {CoveredItems(), PartitionSamples()});
  }

  /// Total weight processed so far (the stream position m').
  virtual uint64_t ItemsProcessed() const = 0;

  /// The stream suffix the reports answer for: ItemsProcessed() for every
  /// plain structure, the covered window (< ItemsProcessed once eviction
  /// starts) for the `windowed:<algo>` container.  The evaluation harness
  /// scores reports against exactly this many trailing items.
  virtual uint64_t CoveredItems() const { return ItemsProcessed(); }

  // ---- Partition reports (docs/ENGINE.md#partition-aware-queries) -------
  // A hash-partitioned deployment feeds every occurrence of an item to one
  // summary, so global answers need no Merge: the owning partition answers
  // a point query, and a report is the union of every partition's report.

  /// What this summary adds to PartitionTotals::samples: CoveredItems()
  /// for a counting structure, the sample count for a sampling one.
  virtual uint64_t PartitionSamples() const { return CoveredItems(); }

  /// The items of this partition that HeavyHitters(phi) reports over the
  /// whole partitioned stream, thresholded at the absolute count a Merge
  /// of every partition would use, so the union over the partitions is an
  /// (eps, phi)-List answer for the whole stream.  The default keeps the
  /// HeavyHitters(phi) entries estimated at >= (phi - Options().epsilon)
  /// * totals.covered_items (sound when a structure's own threshold
  /// scales with its own item count); registered structures override it.
  virtual std::vector<ItemEstimate> PartitionHeavyHitters(
      double phi, const PartitionTotals& totals) const;

  /// Estimate(item) for an item this partition owns, in whole-stream
  /// units: sampling structures renormalise over totals.samples.
  virtual double PartitionEstimate(uint64_t item,
                                   const PartitionTotals& totals) const {
    (void)totals;
    return Estimate(item);
  }

  /// Paper-style space accounting in bytes (rounded up from the
  /// structure's SpaceBits where available).
  virtual size_t MemoryUsageBytes() const = 0;

  /// Whether Merge() can combine this summary with a compatible sibling
  /// (same registry name, same options/seed) built over a disjoint
  /// substream.
  virtual bool SupportsMerge() const { return false; }

  /// In-place merge with `other`.  After an OK merge this summary answers
  /// for the concatenation of both substreams.
  ///
  /// Preconditions (what adapters check and tests/merge_property_test.cc
  /// enforces):
  ///   * `other` is the same registry type, built from the same
  ///     SummaryOptions — merging, say, an eps=0.1 table into an eps=0.01
  ///     contract would silently loosen the guarantee and is rejected;
  ///   * randomized structures additionally require the same seed (same
  ///     hash functions / sampling rate / epoch schedule);
  ///   * the two summaries observed *position-disjoint* substreams whose
  ///     combined length is covered by options.stream_length (the
  ///     sampling-based structures rescale by it).
  /// Returns FailedPrecondition when the structure does not support
  /// merging and InvalidArgument (leaving this summary unchanged) when
  /// `other` is incompatible.  Merging is commutative and associative
  /// within each structure's documented additive error
  /// (docs/ALGORITHMS.md#mergeability).
  virtual Status Merge(const Summary& other);

  // ---- Snapshots (versioned persistence, docs/SNAPSHOTS.md) -------------
  //
  // Every built-in structure supports snapshots.  SaveTo/LoadFrom move the
  // raw state bits; the self-describing container around them (magic,
  // format version, registry name, options, CRC) lives in src/io/snapshot.h,
  // which is also where `LoadSummary(path)` reconstructs the right concrete
  // type from a header.

  /// Whether SaveTo/LoadFrom can persist this summary's full state.
  virtual bool SupportsSnapshot() const { return false; }

  /// The exact SummaryOptions (including the seed) this summary was
  /// constructed from.  Snapshot headers echo these so LoadSummary can
  /// rebuild the instance; a structure that overrides SupportsSnapshot
  /// must override this too.
  virtual SummaryOptions Options() const { return SummaryOptions{}; }

  /// Appends this summary's complete state (including any live PRNG
  /// state, so a restored instance continues the exact random sequence)
  /// as a raw bit payload.  Returns FailedPrecondition when unsupported.
  virtual Status SaveTo(BitWriter& out) const;

  /// Restores state from a payload written by SaveTo on a summary that was
  /// created with the same registry name, SummaryOptions, and seed — which
  /// is how the snapshot container calls it: construct from the header's
  /// options, then LoadFrom the payload.  On any error (truncated input,
  /// shape mismatch with this instance's construction) returns Corruption
  /// and leaves this summary in a safe (possibly empty) state; it never
  /// invokes UB on hostile bits.
  virtual Status LoadFrom(BitReader& in);
};

// ---------------------------------------------------------------------------
// String-keyed factory / registry.

/// The registry spelling prefix of the sliding-window container:
/// "windowed:<inner>" wraps registered structure <inner> (src/window/).
inline constexpr std::string_view kWindowedPrefix = "windowed:";

/// Whether `name` spells a windowed container.  The single test every
/// layer shares (factory dispatch, evaluation-harness scoring, CLI
/// auto-wrapping), so the prefix cannot silently drift.
inline bool IsWindowedSummaryName(std::string_view name) {
  return name.substr(0, kWindowedPrefix.size()) == kWindowedPrefix;
}

using SummaryFactory =
    std::function<std::unique_ptr<Summary>(const SummaryOptions&)>;

/// Registers (or replaces) a factory under `name`.  The built-in
/// structures self-register on first registry use; call this to add
/// project-local algorithms to the same CLI/bench/test plumbing.
void RegisterSummary(const std::string& name, SummaryFactory factory);

/// Creates a summary by registry name, or nullptr for unknown names.
/// Names of the form "windowed:<inner>" wrap the registered mergeable
/// structure <inner> in the sliding-window container (src/window/), sized
/// by SummaryOptions::{window_size, window_buckets}; the spelling is
/// accepted everywhere a registry name is (CLI --algo, the sharded
/// engine, snapshot headers) without the inner structures knowing.
/// `status`, when non-null, receives WHY a nullptr came back (unknown
/// name vs a windowed refusal such as a non-mergeable inner structure).
std::unique_ptr<Summary> MakeSummary(std::string_view name,
                                     const SummaryOptions& options,
                                     Status* status = nullptr);

/// All registered names, sorted, e.g. for `l1hh_cli list` and the
/// parameterized interface test.
std::vector<std::string> RegisteredSummaryNames();

}  // namespace l1hh

#endif  // L1HH_SUMMARY_SUMMARY_H_
