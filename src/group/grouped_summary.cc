#include "group/grouped_summary.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace l1hh {

namespace {

// Fixed per-group charge beyond the summary, standing for the list node
// and its index slot.  Budgets evict by this charge, so changing it
// changes which groups a given memory_budget_bytes keeps.
constexpr size_t kEntryOverheadBytes =
    sizeof(void*) + 2 * sizeof(void*) + 4 * sizeof(uint64_t) + sizeof(size_t);

}  // namespace

// ---- Construction -----------------------------------------------------

GroupedSummary::GroupedSummary(const GroupedSummaryOptions& options)
    : options_(options) {}

GroupedSummary::~GroupedSummary() = default;

std::unique_ptr<GroupedSummary> GroupedSummary::Create(
    const GroupedSummaryOptions& options, Status* status) {
  // Probe the factory once so a typo'd algorithm fails at construction,
  // not on the first Update.
  Status make_status;
  auto probe = MakeSummary(options.algorithm, options.summary, &make_status);
  if (probe == nullptr) {
    if (status != nullptr) *status = std::move(make_status);
    return nullptr;
  }
  if (status != nullptr) *status = Status::Ok();
  return std::unique_ptr<GroupedSummary>(new GroupedSummary(options));
}

std::unique_ptr<Summary> GroupedSummary::MakeGroupSummary(
    uint64_t group) const {
  SummaryOptions per_group = options_.summary;
  // Independent hash draws per group, reconstructible from (base seed,
  // key) alone — a reloaded snapshot re-derives the same functions.
  per_group.seed = Mix64(options_.summary.seed ^ Mix64(group));
  return MakeSummary(options_.algorithm, per_group);
}

// ---- Index and recency ------------------------------------------------

GroupedSummary::GroupEntry* GroupedSummary::CreateEntry(uint64_t group,
                                                        bool at_tail) {
  const auto it = lru_.emplace(at_tail ? lru_.end() : lru_.begin());
  it->key = group;
  it->summary = MakeGroupSummary(group);
  index_.emplace(group, it);
  RefreshCharge(&*it);
  return &*it;
}

GroupedSummary::GroupEntry* GroupedSummary::FindOrCreate(uint64_t group) {
  const auto it = index_.find(group);
  if (it == index_.end()) return CreateEntry(group, /*at_tail=*/false);
  lru_.splice(lru_.begin(), lru_, it->second);
  return &*it->second;
}

// ---- Budget -----------------------------------------------------------

void GroupedSummary::RefreshCharge(GroupEntry* entry) {
  charged_bytes_ -= entry->charged_bytes;
  entry->charged_bytes =
      kEntryOverheadBytes + entry->summary->MemoryUsageBytes();
  charged_bytes_ += entry->charged_bytes;
  entry->uncharged_items = 0;
}

void GroupedSummary::AfterIngest(GroupEntry* entry, uint64_t n) {
  items_processed_ += n;
  entry->items += n;
  entry->uncharged_items += n;
  if (entry->uncharged_items >= kChargeInterval) RefreshCharge(entry);
  EnforceBudget();
}

void GroupedSummary::EnforceBudget() {
  while (options_.max_groups > 0 && lru_.size() > options_.max_groups) {
    EvictTail();
  }
  // Never evict the last group: the just-updated entry is at the front,
  // and a budget smaller than one summary would otherwise thrash.
  while (options_.memory_budget_bytes > 0 && lru_.size() > 1 &&
         charged_bytes_ > options_.memory_budget_bytes) {
    EvictTail();
  }
}

void GroupedSummary::EvictTail() {
  if (lru_.empty()) return;
  const GroupEntry& victim = lru_.back();
  charged_bytes_ -= victim.charged_bytes;
  ++evicted_groups_;
  evicted_items_ += victim.items;
  // Eviction pressure is the signal operators watch for an undersized
  // budget; counted live (not just published at scrape time).
  obs::GetCounter("l1hh_group_evictions_total")->Inc();
  obs::GetCounter("l1hh_group_evicted_items_total")->Inc(victim.items);
  obs::Trace(obs::Severity::kDebug, "group.evict",
             static_cast<int64_t>(victim.key),
             static_cast<int64_t>(victim.items));
  index_.erase(victim.key);
  lru_.pop_back();
}

void GroupedSummary::PublishMetrics() const {
  obs::GetGauge("l1hh_group_live_groups")
      ->Set(static_cast<int64_t>(lru_.size()));
  obs::GetGauge("l1hh_group_charged_bytes")
      ->Set(static_cast<int64_t>(charged_bytes_));
  obs::GetGauge("l1hh_group_arena_bytes")
      ->Set(static_cast<int64_t>(NodeBytes()));
  obs::GetCounter("l1hh_group_items_total")
      ->Inc(items_processed_ - published_items_);
  published_items_ = items_processed_;
}

void GroupedSummary::Clear() {
  lru_.clear();
  index_.clear();
  charged_bytes_ = 0;
}

// ---- Ingest -----------------------------------------------------------

void GroupedSummary::Update(uint64_t group, uint64_t item) {
  // Not UpdateColumn(&group, &item, 1): a one-row inner UpdateColumn
  // costs count_min's tiled pre-pass on every scalar row.
  GroupEntry* entry = FindOrCreate(group);
  entry->summary->Update(item, 1);
  AfterIngest(entry, 1);
}

void GroupedSummary::UpdateColumn(const uint64_t* groups,
                                  const uint64_t* items, size_t n) {
  size_t i = 0;
  while (i < n) {
    // Run detection: sorted or clustered group columns (the common
    // output of an upstream GROUP BY or per-tenant batching) collapse to
    // one lookup + one columnar inner update per run.
    size_t j = i + 1;
    while (j < n && groups[j] == groups[i]) ++j;
    GroupEntry* entry = FindOrCreate(groups[i]);
    entry->summary->UpdateColumn(items + i, j - i);
    AfterIngest(entry, j - i);
    i = j;
  }
}

// ---- Queries ----------------------------------------------------------

const Summary* GroupedSummary::Find(uint64_t group) const {
  const auto it = index_.find(group);
  return it != index_.end() ? it->second->summary.get() : nullptr;
}

double GroupedSummary::Estimate(uint64_t group, uint64_t item) const {
  const Summary* summary = Find(group);
  return summary != nullptr ? summary->Estimate(item) : 0.0;
}

std::vector<ItemEstimate> GroupedSummary::HeavyHitters(uint64_t group,
                                                       double phi) const {
  const Summary* summary = Find(group);
  return summary != nullptr ? summary->HeavyHitters(phi)
                            : std::vector<ItemEstimate>{};
}

std::vector<GroupedSummary::GroupStats> GroupedSummary::TopGroups(
    size_t k) const {
  std::vector<GroupStats> out;
  out.reserve(lru_.size());
  for (const GroupEntry& e : lru_) out.push_back({e.key, e.items});
  std::sort(out.begin(), out.end(),
            [](const GroupStats& a, const GroupStats& b) {
              return a.items > b.items ||
                     (a.items == b.items && a.group < b.group);
            });
  if (k != 0 && out.size() > k) out.resize(k);
  return out;
}

std::vector<uint64_t> GroupedSummary::GroupKeys() const {
  std::vector<uint64_t> keys;
  keys.reserve(lru_.size());
  for (const GroupEntry& e : lru_) keys.push_back(e.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

size_t GroupedSummary::NodeBytes() const {
  // A list node carries two links; an index node carries its next link
  // and the key/iterator pair; the index adds one pointer per bucket.
  return lru_.size() * (sizeof(GroupEntry) + 2 * sizeof(void*)) +
         index_.size() * (sizeof(void*) + sizeof(*index_.begin())) +
         index_.bucket_count() * sizeof(void*);
}

size_t GroupedSummary::MemoryUsageBytes() const {
  return charged_bytes_ + NodeBytes();
}

// ---- Snapshot payload -------------------------------------------------

void GroupedSummary::SaveGroups(BitWriter& out) const {
  out.WriteCounter(items_processed_);
  out.WriteCounter(evicted_groups_);
  out.WriteCounter(evicted_items_);
  out.WriteCounter(lru_.size());
  // MRU -> LRU: LoadGroups appends each entry at the back, so the
  // reloaded recency order (and therefore the next eviction victim) is
  // exactly the saved one.
  for (const GroupEntry& e : lru_) {
    out.WriteU64(e.key);
    out.WriteCounter(e.items);
    BitWriter payload;
    const Status saved = e.summary->SaveTo(payload);
    if (!saved.ok()) {
      // Create() verified the algorithm; a non-snapshot structure inside
      // a grouped save surfaces as a zero-length payload that LoadGroups
      // will reject loudly rather than silently drop.
      out.WriteCounter(0);
      continue;
    }
    out.WriteCounter(payload.size_bits());
    for (size_t bit = 0; bit < payload.size_bits(); bit += 64) {
      const int nbits =
          static_cast<int>(std::min<size_t>(64, payload.size_bits() - bit));
      out.WriteBits(payload.words()[bit / 64] &
                        (nbits == 64 ? ~uint64_t{0}
                                     : ((uint64_t{1} << nbits) - 1)),
                    nbits);
    }
  }
}

Status GroupedSummary::LoadGroups(BitReader& in) {
  Clear();
  items_processed_ = in.ReadCounter();
  evicted_groups_ = in.ReadCounter();
  evicted_items_ = in.ReadCounter();
  const uint64_t groups = in.CheckedCount(in.ReadCounter());
  for (uint64_t g = 0; g < groups && !in.overflow(); ++g) {
    const uint64_t key = in.ReadU64();
    const uint64_t items = in.ReadCounter();
    const uint64_t payload_bits = in.ReadCounter();
    if (in.overflow()) break;
    if (payload_bits == 0 || payload_bits > in.remaining_bits()) {
      Clear();
      return Status::Corruption(
          "grouped snapshot: group payload length exceeds the container");
    }
    if (index_.contains(key)) {
      Clear();
      return Status::Corruption(
          "grouped snapshot: duplicate group key in payload");
    }
    GroupEntry* entry = CreateEntry(key, /*at_tail=*/true);
    const size_t before = in.position_bits();
    const Status loaded = entry->summary->LoadFrom(in);
    if (!loaded.ok()) {
      Clear();
      return loaded;
    }
    if (in.position_bits() - before != payload_bits) {
      // A payload that parses but with the wrong length means the framing
      // and the structure disagree — refuse rather than desync the next
      // group's fields.
      Clear();
      return Status::Corruption(
          "grouped snapshot: group payload length mismatch");
    }
    entry->items = items;
    RefreshCharge(entry);
  }
  if (in.overflow()) {
    Clear();
    return in.status();
  }
  return Status::Ok();
}

}  // namespace l1hh
