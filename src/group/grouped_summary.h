// GroupedSummary — heavy hitters PER GROUP KEY, the deployment shape
// relational engines use for aggregate states (ClickHouse's
// AggregateFunctionAnyHeavy: column-slice add() over per-group states;
// see docs/GROUPED.md).  One instance monitors a whole fleet — per
// tenant, per sensor, per route — by lazily materializing one
// factory-made Summary per observed group key:
//
//   * a std::list of entries ordered MRU -> LRU holds every live group,
//     and a std::unordered_map indexes it by key (the textbook LRU);
//   * every group's summary is built by MakeSummary(algorithm, options)
//     with a seed derived deterministically from (base seed, group key),
//     so a reloaded snapshot re-derives the exact same hash functions;
//   * eviction (by group count and/or by a charged-bytes memory budget)
//     always takes the list's back, the least-recently-updated group —
//     evicted groups are counted, not silently forgotten;
//   * Update(group, item) is the scalar path; UpdateColumn(groups, items,
//     n) is the columnar path, detecting runs of equal consecutive group
//     keys so sorted/clustered columns pay one lookup and one inner
//     UpdateColumn per run.
//
// Snapshots: SaveGroups/LoadGroups move the complete state (totals,
// eviction counters, every live group's payload, MRU->LRU order) as a raw
// bit payload; the self-describing "L1HHGRUP" container around them lives
// in src/io/snapshot.h (SaveGrouped/LoadGrouped), version 3 of the
// snapshot family, so grouped state rides the existing durable-write and
// replication stack.  This header deliberately includes no io headers.
//
// Thread-safety: same contract as Summary — a GroupedSummary is a
// single-threaded object.
#ifndef L1HH_GROUP_GROUPED_SUMMARY_H_
#define L1HH_GROUP_GROUPED_SUMMARY_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "summary/summary.h"
#include "util/bit_stream.h"
#include "util/status.h"

namespace l1hh {

struct GroupedSummaryOptions {
  /// Registry name of the per-group structure (any MakeSummary name,
  /// including "windowed:<algo>").
  std::string algorithm = "space_saving";
  /// Construction parameters for every per-group summary.  The seed is a
  /// BASE seed: group g's summary uses Mix64(seed ^ Mix64(g)), so groups
  /// draw independent hash functions yet reload deterministically.
  SummaryOptions summary;
  /// Maximum live groups; 0 means unlimited.  Exceeding it evicts the
  /// least-recently-updated group.
  uint64_t max_groups = 0;
  /// Budget on the charged footprint (entry overhead + each summary's
  /// MemoryUsageBytes, refreshed lazily); 0 means unlimited.  While over
  /// budget with more than one live group, LRU tails are evicted.
  uint64_t memory_budget_bytes = 0;
};

class GroupedSummary {
 public:
  /// One group's standing in TopGroups: its key and how many items this
  /// group ingested over the entry's lifetime.
  struct GroupStats {
    uint64_t group = 0;
    uint64_t items = 0;
  };

  /// Validates the options (the algorithm must be registered — probed by
  /// constructing one summary) and returns the instance, or nullptr with
  /// the reason in *status.
  static std::unique_ptr<GroupedSummary> Create(
      const GroupedSummaryOptions& options, Status* status = nullptr);

  ~GroupedSummary();
  GroupedSummary(const GroupedSummary&) = delete;
  GroupedSummary& operator=(const GroupedSummary&) = delete;

  /// One occurrence of `item` in group `group` (creates the group's
  /// summary on first sight; may evict the LRU tail afterwards).
  void Update(uint64_t group, uint64_t item);

  /// Columnar ingest: row i carries (groups[i], items[i]).  Runs of equal
  /// consecutive group keys share one lookup and one inner
  /// UpdateColumn call; state-identical to the scalar Update loop.
  void UpdateColumn(const uint64_t* groups, const uint64_t* items, size_t n);

  /// The group's summary, or nullptr when the group was never seen (or
  /// has been evicted).  Valid until the next non-const call.
  const Summary* Find(uint64_t group) const;

  /// Estimated frequency of `item` within `group`; 0 for unknown groups.
  double Estimate(uint64_t group, uint64_t item) const;

  /// The group's (eps, phi)-heavy hitters, in that group's own stream
  /// units; empty for unknown groups.
  std::vector<ItemEstimate> HeavyHitters(uint64_t group, double phi) const;

  /// The k busiest live groups by ingested items, descending (ties by key
  /// ascending).  k == 0 returns all live groups.
  std::vector<GroupStats> TopGroups(size_t k) const;

  /// All live group keys, ascending.
  std::vector<uint64_t> GroupKeys() const;

  const GroupedSummaryOptions& options() const { return options_; }
  size_t group_count() const { return lru_.size(); }
  /// Total items ingested, INCLUDING items whose groups were later
  /// evicted (monotonic).
  uint64_t ItemsProcessed() const { return items_processed_; }
  uint64_t evicted_groups() const { return evicted_groups_; }
  uint64_t evicted_items() const { return evicted_items_; }
  /// The budget-charged footprint: per-entry overhead plus each group
  /// summary's MemoryUsageBytes (refreshed every kChargeInterval items
  /// per group, so it lags a little between refreshes).
  size_t charged_bytes() const { return charged_bytes_; }
  /// Charged footprint plus the list-node and index bytes (NodeBytes).
  size_t MemoryUsageBytes() const;

  /// Items a group may ingest between refreshes of its charged bytes.
  static constexpr uint64_t kChargeInterval = 1024;

  /// Publishes this instance's gauges (live groups, charged bytes, and
  /// NodeBytes under the historical l1hh_group_arena_bytes name)
  /// and the items-ingested delta since the last publish into the
  /// process-wide obs::Registry.  Eviction counters are maintained live
  /// (incremented inside EvictTail), so they need no publish step.
  void PublishMetrics() const;

  // ---- Raw snapshot payload (the "L1HHGRUP" container in src/io/ wraps
  // this with the name/options header, framing, and CRC) -----------------

  /// Appends totals, eviction counters, and every live group (key +
  /// bit-length-framed summary payload) in MRU->LRU order.
  void SaveGroups(BitWriter& out) const;

  /// Restores the payload written by SaveGroups into this instance (which
  /// must have been Created with the same options).  Existing groups are
  /// discarded first.  Hostile bits get Corruption, never UB: the group
  /// count and every per-group payload length are clamped against the
  /// remaining wire, and each group's summary must consume exactly its
  /// declared bits.
  Status LoadGroups(BitReader& in);

 private:
  struct GroupEntry {
    uint64_t key = 0;
    std::unique_ptr<Summary> summary;
    uint64_t items = 0;            // ingested into this entry's lifetime
    uint64_t uncharged_items = 0;  // since the last charge refresh
    size_t charged_bytes = 0;      // this entry's share of charged_bytes_
  };
  using EntryList = std::list<GroupEntry>;

  explicit GroupedSummary(const GroupedSummaryOptions& options);

  /// Lookup (moving the entry to the MRU front) or create at the front.
  GroupEntry* FindOrCreate(uint64_t group);
  /// Creates the entry (summary included) at the front for live ingest,
  /// or at the back (`at_tail`) for LoadGroups reconstruction.
  GroupEntry* CreateEntry(uint64_t group, bool at_tail);
  std::unique_ptr<Summary> MakeGroupSummary(uint64_t group) const;

  void RefreshCharge(GroupEntry* entry);
  /// Post-ingest bookkeeping shared by Update and UpdateColumn: counts,
  /// lazy charge refresh, then budget enforcement.
  void AfterIngest(GroupEntry* entry, uint64_t n);
  void EnforceBudget();
  void EvictTail();
  /// Drops every live group (LoadGroups starts from a clean slate).
  void Clear();
  /// Bytes of the list nodes and the index outside the summaries.
  size_t NodeBytes() const;

  GroupedSummaryOptions options_;
  EntryList lru_;  // front = most recently updated, back = eviction victim
  std::unordered_map<uint64_t, EntryList::iterator> index_;
  uint64_t items_processed_ = 0;
  uint64_t evicted_groups_ = 0;
  uint64_t evicted_items_ = 0;
  size_t charged_bytes_ = 0;
  // Items already folded into the registry's l1hh_group_items_total by
  // PublishMetrics (so repeated publishes stay monotone, not double
  // counted).
  mutable uint64_t published_items_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_GROUP_GROUPED_SUMMARY_H_
