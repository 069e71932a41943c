// Adapters giving every baseline structure in src/summary/ the unified
// Summary interface, plus the string-keyed registry.  The BdwSimple /
// BdwOptimal adapters live in core/summary_adapters.cc (registered via
// internal::RegisterCoreSummaries) so this layer does not include core
// headers.
#include "summary/summary.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "hash/universal_hash.h"
#include "summary/count_min_sketch.h"
#include "summary/count_sketch.h"
#include "summary/exact_counter.h"
#include "summary/hashed_misra_gries.h"
#include "summary/lossy_counting.h"
#include "summary/misra_gries.h"
#include "summary/space_saving.h"
#include "summary/sticky_sampling.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace l1hh {

namespace internal {
void RegisterCoreSummaries();  // defined in core/summary_adapters.cc
// Defined in window/sliding_window_summary.cc: builds the bucket-ring
// container around a mergeable inner structure.  Kept as a forward
// declaration so the summary layer does not include window headers.
std::unique_ptr<Summary> MakeWindowedSummary(std::string_view inner_name,
                                             const SummaryOptions& options,
                                             Status* status);
}

Status Summary::Merge(const Summary& other) {
  (void)other;
  return Status::FailedPrecondition(std::string(Name()) +
                                    " does not support Merge");
}

std::vector<ItemEstimate> Summary::PartitionHeavyHitters(
    double phi, const PartitionTotals& totals) const {
  const double floor = (phi - Options().epsilon) *
                       static_cast<double>(totals.covered_items);
  std::vector<ItemEstimate> out = HeavyHitters(phi);
  std::erase_if(out,
                [floor](const ItemEstimate& e) { return e.estimate < floor; });
  return out;
}

Status Summary::SaveTo(BitWriter& out) const {
  (void)out;
  return Status::FailedPrecondition(std::string(Name()) +
                                    " does not support snapshots");
}

Status Summary::LoadFrom(BitReader& in) {
  (void)in;
  return Status::FailedPrecondition(std::string(Name()) +
                                    " does not support snapshots");
}

namespace {

/// ceil(fraction * m), clamped to >= 1 so empty streams report nothing,
/// and saturated past u64 (NaN, inf, huge phi) so nothing is reported.
uint64_t CeilThreshold(double fraction, uint64_t m) {
  if (fraction <= 0.0 || m == 0) return 1;
  const double ceiling = std::ceil(fraction * static_cast<double>(m));
  if (!(ceiling < 0x1p64)) return ~uint64_t{0};
  return std::max<uint64_t>(1, static_cast<uint64_t>(ceiling));
}

/// Bits to store one id from [0, n).
int KeyBits(uint64_t universe_size) {
  return BitWidth(std::max<uint64_t>(universe_size, 2) - 1);
}

template <typename Entry>
std::vector<ItemEstimate> ToItemEstimates(const std::vector<Entry>& entries) {
  std::vector<ItemEstimate> out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    out.push_back({e.item, static_cast<double>(e.count)});
  }
  SortByEstimateDesc(out);
  return out;
}

Status IncompatibleMerge(std::string_view name) {
  return Status::InvalidArgument("Merge requires another '" +
                                 std::string(name) +
                                 "' built with the same options and seed");
}

Status SnapshotShapeMismatch(std::string_view name) {
  return Status::Corruption(
      "'" + std::string(name) +
      "' snapshot payload does not match the shape implied by the header "
      "options");
}

// ---------------------------------------------------------------------------

// Misra-Gries, Space-Saving, hashed Misra-Gries (Algorithm 1's T1 + T2),
// Lossy Counting and Sticky Sampling share one adapter: a counter table
// with Insert / Estimate / EntriesAbove / SpaceBits / Serialize.  They
// differ in how far below phi*m HeavyHitters thresholds (`slack`, see the
// registrations), in mergeability (a static Table::Merge) and in how a
// loaded table is checked against the constructed one (SameShape, or
// Sticky Sampling's in-place Deserialize).
bool SameShape(const MisraGries& a, const MisraGries& b) {
  return a.k() == b.k();
}
bool SameShape(const SpaceSaving& a, const SpaceSaving& b) {
  return a.k() == b.k();
}
bool SameShape(const LossyCounting& a, const LossyCounting& b) {
  return a.epsilon() == b.epsilon();
}
// Same construction seed <=> same drawn hash.
bool SameShape(const HashedMisraGries& a, const HashedMisraGries& b) {
  return a.hash() == b.hash();
}

template <typename Table>
class CounterTableSummary : public Summary {
 public:
  static constexpr bool kMergeable =
      requires(const Table& t) { Table::Merge(t, t); };

  CounterTableSummary(std::string_view name, const SummaryOptions& o,
                      Table table, double slack)
      : name_(name), options_(o), slack_(slack), table_(std::move(table)) {}

  std::string_view Name() const override { return name_; }
  SummaryOptions Options() const override { return options_; }

  void Update(uint64_t item, uint64_t weight) override {
    for (uint64_t i = 0; i < weight; ++i) table_.Insert(item);
  }

  // Sequential: Sticky Sampling's Insert draws from its sampling PRNG, so
  // the column loop must consume randomness in exactly the scalar order.
  void UpdateColumn(const uint64_t* items, size_t n) override {
    for (size_t i = 0; i < n; ++i) table_.Insert(items[i]);
  }

  double Estimate(uint64_t item) const override {
    return static_cast<double>(table_.Estimate(item));
  }

  std::vector<ItemEstimate> PartitionHeavyHitters(
      double phi, const PartitionTotals& totals) const override {
    return ToItemEstimates(table_.EntriesAbove(
        CeilThreshold(phi - slack_, totals.covered_items)));
  }

  uint64_t ItemsProcessed() const override {
    return table_.items_processed();
  }
  size_t MemoryUsageBytes() const override {
    return (table_.SpaceBits() + 7) / 8;
  }

  bool SupportsMerge() const override { return kMergeable; }
  Status Merge(const Summary& other) override {
    if constexpr (kMergeable) {
      const auto* rhs = dynamic_cast<const CounterTableSummary*>(&other);
      // The same shape keeps the merged error within this summary's eps.
      if (rhs == nullptr || !SameShape(rhs->table_, table_)) {
        return IncompatibleMerge(Name());
      }
      table_ = Table::Merge(table_, rhs->table_);
      return Status::Ok();
    } else {
      return Summary::Merge(other);
    }
  }

  bool SupportsSnapshot() const override { return true; }
  Status SaveTo(BitWriter& out) const override {
    table_.Serialize(out);
    return Status::Ok();
  }
  Status LoadFrom(BitReader& in) override {
    if constexpr (std::is_same_v<Table, StickySampling>) {
      // Member Deserialize: configuration stays as constructed from the
      // header options; only the dynamic state (table, rate, PRNG) is
      // replaced, and only if the payload is intact.
      table_.Deserialize(in);
      return in.status();
    } else {
      Table loaded = Table::Deserialize(in);
      if (in.overflow()) return in.status();
      if (!SameShape(loaded, table_)) return SnapshotShapeMismatch(Name());
      table_ = std::move(loaded);
      return Status::Ok();
    }
  }

 private:
  std::string_view name_;
  SummaryOptions options_;
  double slack_;
  Table table_;
};

class ExactCounterSummary : public Summary {
 public:
  explicit ExactCounterSummary(const SummaryOptions& o) : options_(o) {}

  std::string_view Name() const override { return "exact"; }
  SummaryOptions Options() const override { return options_; }

  void Update(uint64_t item, uint64_t weight) override {
    exact_.Insert(item, weight);
  }

  void UpdateColumn(const uint64_t* items, size_t n) override {
    for (size_t i = 0; i < n; ++i) exact_.Insert(items[i]);
  }

  double Estimate(uint64_t item) const override {
    return static_cast<double>(exact_.Count(item));
  }

  std::vector<ItemEstimate> PartitionHeavyHitters(
      double phi, const PartitionTotals& totals) const override {
    return ToItemEstimates(
        exact_.HeavyHitters(CeilThreshold(phi, totals.covered_items)));
  }

  uint64_t ItemsProcessed() const override { return exact_.total(); }

  // No SpaceBits on the ground-truth table; charge a hash-map node per
  // distinct item (two words of payload plus bucket/node overhead).
  size_t MemoryUsageBytes() const override {
    return sizeof(ExactCounter) + exact_.distinct() * 48;
  }

  bool SupportsMerge() const override { return true; }
  Status Merge(const Summary& other) override {
    const auto* rhs = dynamic_cast<const ExactCounterSummary*>(&other);
    if (rhs == nullptr) return IncompatibleMerge(Name());
    for (const auto& e : rhs->exact_.SortedByCountDesc()) {
      exact_.Insert(e.item, e.count);
    }
    return Status::Ok();
  }

  bool SupportsSnapshot() const override { return true; }
  Status SaveTo(BitWriter& out) const override {
    const auto entries = exact_.SortedByCountDesc();
    out.WriteCounter(entries.size());
    for (const auto& e : entries) {
      out.WriteU64(e.item);
      out.WriteCounter(e.count);
    }
    return Status::Ok();
  }
  Status LoadFrom(BitReader& in) override {
    const uint64_t entries = in.CheckedCount(in.ReadCounter());
    ExactCounter loaded;
    for (uint64_t i = 0; i < entries && !in.overflow(); ++i) {
      const uint64_t item = in.ReadU64();
      loaded.Insert(item, in.ReadCounter());
    }
    if (in.overflow()) return in.status();
    exact_ = std::move(loaded);
    return Status::Ok();
  }

 private:
  SummaryOptions options_;
  ExactCounter exact_;
};

class CountMinSummary : public Summary {
 public:
  explicit CountMinSummary(const SummaryOptions& o)
      : options_(o),
        epsilon_(o.epsilon),
        cm_(o.epsilon, o.phi, o.delta, o.seed) {}

  std::string_view Name() const override { return "count_min"; }
  SummaryOptions Options() const override { return options_; }

  void Update(uint64_t item, uint64_t weight) override {
    for (uint64_t i = 0; i < weight; ++i) cm_.Insert(item);
  }

  // Native columnar path: a vectorizable multiply-shift hash pre-pass
  // over the slice, then the sequential increment+candidate sweep
  // (state-identical to the scalar Insert loop).
  void UpdateColumn(const uint64_t* items, size_t n) override {
    cm_.InsertColumn(items, n);
  }

  double Estimate(uint64_t item) const override {
    return static_cast<double>(cm_.Estimate(item));
  }

  // The candidate set is tracked against the construction-time phi; the
  // query re-filters it, so phi values below the construction phi are
  // answered best-effort from the tracked candidates.
  std::vector<ItemEstimate> PartitionHeavyHitters(
      double phi, const PartitionTotals& totals) const override {
    const double threshold =
        (phi - epsilon_ / 2.0) * static_cast<double>(totals.covered_items);
    std::vector<ItemEstimate> out;
    for (const auto& e : cm_.Report()) {
      if (static_cast<double>(e.count) >= threshold) {
        out.push_back({e.item, static_cast<double>(e.count)});
      }
    }
    return out;
  }

  uint64_t ItemsProcessed() const override { return cm_.items_processed(); }
  size_t MemoryUsageBytes() const override {
    return (cm_.SpaceBits() + 7) / 8;
  }

  bool SupportsMerge() const override { return true; }
  Status Merge(const Summary& other) override {
    const auto* rhs = dynamic_cast<const CountMinSummary*>(&other);
    // MergeFrom checks sketch compatibility (same dims, same hash seeds)
    // and the (eps, phi) contract, then sums cell-wise (linear sketch).
    if (rhs == nullptr || !cm_.MergeFrom(rhs->cm_)) {
      return IncompatibleMerge(Name());
    }
    return Status::Ok();
  }

  bool SupportsSnapshot() const override { return true; }
  Status SaveTo(BitWriter& out) const override {
    cm_.Serialize(out);
    return Status::Ok();
  }
  Status LoadFrom(BitReader& in) override {
    if (!cm_.DeserializeFrom(in)) {
      return in.overflow() ? in.status() : SnapshotShapeMismatch(Name());
    }
    return Status::Ok();
  }

 private:
  SummaryOptions options_;
  double epsilon_;
  CountMinHeavyHitters cm_;
};

class CountSketchSummary : public Summary {
 public:
  explicit CountSketchSummary(const SummaryOptions& o)
      : options_(o),
        epsilon_(o.epsilon),
        phi_hint_(o.phi),
        max_candidates_(std::max<size_t>(
            64, static_cast<size_t>(std::ceil(8.0 / o.phi)))),
        cs_(CountSketch::ForError(o.epsilon, o.delta, o.seed)) {}

  std::string_view Name() const override { return "count_sketch"; }
  SummaryOptions Options() const override { return options_; }

  // Standard CountSketch gives point queries only; heavy-hitter
  // candidates are tracked the same way CountMinHeavyHitters does: any
  // item whose running estimate clears half the construction-phi
  // threshold is kept, and the set is pruned when it overflows.
  void Update(uint64_t item, uint64_t weight) override {
    cs_.Insert(item, static_cast<int64_t>(weight));
    TrackCandidate(item);
  }

  void UpdateColumn(const uint64_t* items, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      cs_.Insert(items[i], 1);
      TrackCandidate(items[i]);
    }
  }

  double Estimate(uint64_t item) const override {
    return static_cast<double>(cs_.Estimate(item));
  }

  std::vector<ItemEstimate> PartitionHeavyHitters(
      double phi, const PartitionTotals& totals) const override {
    const double threshold =
        (phi - epsilon_ / 2.0) * static_cast<double>(totals.covered_items);
    std::vector<ItemEstimate> out;
    for (const uint64_t item : candidates_) {
      const double est = static_cast<double>(cs_.Estimate(item));
      if (est >= threshold) out.push_back({item, est});
    }
    SortByEstimateDesc(out);
    return out;
  }

  uint64_t ItemsProcessed() const override { return cs_.items_processed(); }
  size_t MemoryUsageBytes() const override {
    return (cs_.SpaceBits() + 7) / 8 + candidates_.size() * 16;
  }

  bool SupportsMerge() const override { return true; }
  Status Merge(const Summary& other) override {
    const auto* rhs = dynamic_cast<const CountSketchSummary*>(&other);
    if (rhs == nullptr || !cs_.Compatible(rhs->cs_)) {
      return IncompatibleMerge(Name());
    }
    cs_ = CountSketch::Merge(cs_, rhs->cs_);
    candidates_.insert(rhs->candidates_.begin(), rhs->candidates_.end());
    const double m = static_cast<double>(cs_.items_processed());
    Prune(0.5 * phi_hint_ * m);
    return Status::Ok();
  }

  bool SupportsSnapshot() const override { return true; }
  Status SaveTo(BitWriter& out) const override {
    cs_.Serialize(out);
    out.WriteCounter(candidates_.size());
    for (const uint64_t item : candidates_) out.WriteU64(item);
    return Status::Ok();
  }
  Status LoadFrom(BitReader& in) override {
    CountSketch loaded = CountSketch::Deserialize(in);
    if (in.overflow()) return in.status();
    if (!loaded.Compatible(cs_)) return SnapshotShapeMismatch(Name());
    const uint64_t entries = in.CheckedCount(in.ReadCounter());
    std::unordered_set<uint64_t> candidates;
    // Each candidate costs 64 wire bits; don't pre-allocate past that.
    candidates.reserve(
        std::min<uint64_t>(entries, in.remaining_bits() / 64 + 1));
    for (uint64_t i = 0; i < entries && !in.overflow(); ++i) {
      candidates.insert(in.ReadU64());
    }
    if (in.overflow()) return in.status();
    cs_ = std::move(loaded);
    candidates_ = std::move(candidates);
    return Status::Ok();
  }

 private:
  void TrackCandidate(uint64_t item) {
    const double m = static_cast<double>(cs_.items_processed());
    const double track_at = 0.5 * phi_hint_ * m;
    if (static_cast<double>(cs_.Estimate(item)) >= track_at) {
      candidates_.insert(item);
      if (candidates_.size() > max_candidates_) Prune(track_at);
    }
  }

  void Prune(double keep_at) {
    for (auto it = candidates_.begin(); it != candidates_.end();) {
      if (static_cast<double>(cs_.Estimate(*it)) < keep_at) {
        it = candidates_.erase(it);
      } else {
        ++it;
      }
    }
  }

  SummaryOptions options_;
  double epsilon_;
  double phi_hint_;
  size_t max_candidates_;
  CountSketch cs_;
  std::unordered_set<uint64_t> candidates_;
};

// ---------------------------------------------------------------------------
// Registry.

using Registry = std::map<std::string, SummaryFactory>;

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

template <typename T>
void RegisterAdapter(const std::string& name) {
  RegisterSummary(name, [](const SummaryOptions& o) {
    return std::unique_ptr<Summary>(new T(o));
  });
}

// `make` builds the table from the options; with `eps_slack` HeavyHitters
// thresholds at (phi - eps)*m instead of phi*m.
template <typename Table, typename Make>
void RegisterCounterTable(const char* name, bool eps_slack, Make make) {
  RegisterSummary(name, [=](const SummaryOptions& o) {
    return std::unique_ptr<Summary>(new CounterTableSummary<Table>(
        name, o, make(o), eps_slack ? o.epsilon : 0.0));
  });
}

size_t CountersFor(double epsilon) {
  return static_cast<size_t>(std::ceil(1.0 / epsilon));
}

void EnsureBuiltinsRegistered() {
  static const bool done = [] {
    // Misra-Gries undercounts by <= m/(k+1) <= eps*m, so it thresholds at
    // (phi - eps)*m to keep every true phi-heavy item.
    RegisterCounterTable<MisraGries>(
        "misra_gries", /*eps_slack=*/true, [](const SummaryOptions& o) {
          return MisraGries(CountersFor(o.epsilon), KeyBits(o.universe_size));
        });
    // Space-Saving overcounts, so phi*m keeps every item above phi*m.
    RegisterCounterTable<SpaceSaving>(
        "space_saving", /*eps_slack=*/false, [](const SummaryOptions& o) {
          return SpaceSaving(CountersFor(o.epsilon), KeyBits(o.universe_size));
        });
    // Standalone sizing (outside Algorithm 1 there is no sampling stage):
    // T1 with 2/eps counters, T2 with 2/phi tracked ids, and a hash range
    // large enough that collisions among universe items are
    // delta-unlikely.  T1 undercounts like Misra-Gries.
    RegisterCounterTable<HashedMisraGries>(
        "hashed_misra_gries", /*eps_slack=*/true, [](const SummaryOptions& o) {
          Rng hash_rng(Mix64(o.seed) ^ 0x7c9a1f3b5d2e4c6aULL);
          const double n =
              static_cast<double>(std::max<uint64_t>(o.universe_size, 2));
          const double range = std::min(
              9.0e18, std::max(1024.0, n * n / std::max(o.delta, 1e-9)));
          return HashedMisraGries(
              static_cast<size_t>(std::ceil(2.0 / o.epsilon)),
              static_cast<size_t>(std::ceil(2.0 / o.phi)),
              UniversalHash::Draw(hash_rng, static_cast<uint64_t>(range)),
              KeyBits(o.universe_size));
        });
    // Lossy Counting's and Sticky Sampling's EntriesAbove already make up
    // their <= eps*m undercount (each entry's recorded delta; count + eps*m
    // >= threshold), so they threshold at phi*m: subtracting eps as well
    // would report items as light as (phi - 2 eps)*m.
    RegisterCounterTable<LossyCounting>(
        "lossy_counting", /*eps_slack=*/false, [](const SummaryOptions& o) {
          return LossyCounting(o.epsilon, KeyBits(o.universe_size));
        });
    RegisterCounterTable<StickySampling>(
        "sticky_sampling", /*eps_slack=*/false, [](const SummaryOptions& o) {
          return StickySampling(o.epsilon, o.phi, o.delta, o.seed,
                                KeyBits(o.universe_size));
        });
    RegisterAdapter<ExactCounterSummary>("exact");
    RegisterAdapter<CountMinSummary>("count_min");
    RegisterAdapter<CountSketchSummary>("count_sketch");
    internal::RegisterCoreSummaries();
    return true;
  }();
  (void)done;
}

}  // namespace

void RegisterSummary(const std::string& name, SummaryFactory factory) {
  GetRegistry()[name] = std::move(factory);
}

std::unique_ptr<Summary> MakeSummary(std::string_view name,
                                     const SummaryOptions& options,
                                     Status* status) {
  EnsureBuiltinsRegistered();
  if (IsWindowedSummaryName(name)) {
    // The windowed factory refuses for reasons beyond "unknown name"
    // (non-mergeable inner, nested windows, hostile geometry); pass the
    // status through so callers can show the real refusal.
    return internal::MakeWindowedSummary(
        name.substr(kWindowedPrefix.size()), options, status);
  }
  const auto& registry = GetRegistry();
  const std::string key(name);
  const auto it = registry.find(key);
  if (it == registry.end()) {
    if (status != nullptr) {
      *status = Status::InvalidArgument("unknown summary algorithm '" +
                                        key + "'");
    }
    return nullptr;
  }
  if (status != nullptr) *status = Status::Ok();
  return it->second(options);
}

std::vector<std::string> RegisteredSummaryNames() {
  EnsureBuiltinsRegistered();
  std::vector<std::string> names;
  names.reserve(GetRegistry().size());
  for (const auto& [name, factory] : GetRegistry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

}  // namespace l1hh
