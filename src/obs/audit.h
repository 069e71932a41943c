// Live accuracy auditor: watches the served answers against an exact
// shadow of a hash-sampled key subspace, so the one number the paper
// promises — estimates within eps*m of truth (Definition 1) — becomes an
// observed, alertable metric instead of a theorem the operator takes on
// faith.
//
// Sampling is by KEY IDENTITY, not by occurrence: item x is audited iff
// Mix64(x ^ seed') % rate == 0. Every occurrence of a sampled key is
// counted, so the shadow's per-key counts are EXACT — comparisons need
// no unscaling and carry no sampling variance (an alert means the
// summary is broken, not that a coin flipped badly). What the rate
// scales is coverage and memory: a 1/rate fraction of the key space is
// shadowed, bounding expected tracked keys to distinct/rate (further
// hard-capped by max_shadow_keys; overflow keys are counted, not
// tracked). Because the sampled-or-not decision depends only on
// (key, seed), shards and processes sampling with the same seed select
// the same keys, and their shadows compose by addition (MergeFrom) or
// travel the replication wire as plain (key, count) pairs.
//
// An Audit() pass takes the engine's answers through two callbacks,
// compares them against the shadow, and publishes
//   l1hh_audit_observed_abs_error   histogram, |Estimate - exact| per key
//   l1hh_audit_observed_eps_ratio   gauge, max error / (eps * m) — the
//                                   operator alert number (> 1 = broken)
//   l1hh_audit_shadow_recall        gauge, fraction of shadow-certified
//                                   phi-heavy keys present in
//                                   HeavyHitters(phi)
//   l1hh_audit_shadow_keys          gauge, tracked keys
//   l1hh_audit_runs_total           counter
#ifndef L1HH_OBS_AUDIT_H_
#define L1HH_OBS_AUDIT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "summary/summary.h"
#include "util/status.h"

namespace l1hh {
namespace obs {

struct AuditorOptions {
  uint64_t sample_rate = 64;  // audit ~1/rate of the key space; 1 = all keys
  uint64_t seed = 1;          // must match across shards/processes to compose
  size_t max_shadow_keys = size_t{1} << 14;  // hard memory bound
  double epsilon = 0.01;  // the configured contract the ratio is scored against
  double phi = 0.05;      // heavy-hitter threshold for the recall check
  size_t audit_top_k = 32;  // estimate-check the top-k shadow keys
};

struct AuditReport {
  uint64_t items_seen = 0;     // every observed item, sampled or not
  uint64_t sampled_items = 0;  // occurrences of sampled keys
  size_t shadow_keys = 0;      // keys tracked exactly
  uint64_t dropped_items = 0;  // sampled occurrences refused by the key cap
  size_t audited_keys = 0;     // keys whose Estimate was compared
  double max_abs_error = 0.0;
  double eps_ratio = 0.0;  // max_abs_error / (epsilon * total_items)
  size_t shadow_heavies = 0;  // shadow keys with exact count > phi * m
  size_t recalled = 0;        // of those, present in HeavyHitters(phi)
  double recall = 1.0;        // recalled / shadow_heavies (1 when none)
};

class AccuracyAuditor {
 public:
  explicit AccuracyAuditor(const AuditorOptions& options);

  const AuditorOptions& options() const { return options_; }

  // Deterministic per-(seed, rate) membership test for the sampled key
  // subspace. Cheap (one Mix64 + one modulo); no lock.
  bool SampledKey(uint64_t item) const;

  // Ingest tap, called per batch beside the real ingest. Thread-safe:
  // the non-sampled scan is lock-free, sampled hits take the shadow
  // mutex once per batch. Observe is the one-item column.
  void ObserveColumn(const uint64_t* items, size_t n);
  void Observe(uint64_t item) { ObserveColumn(&item, 1); }

  // Folds `other`'s shadow into this one (shards over disjoint substreams
  // compose exactly). InvalidArgument unless seed/rate match.
  Status MergeFrom(const AccuracyAuditor& other);

  // The largest-count shadow keys, count-descending (ties by key id), for
  // shipping truth to a replica or for tests. k == 0 means all.
  std::vector<std::pair<uint64_t, uint64_t>> TopShadow(size_t k) const;

  uint64_t items_seen() const;

  using EstimateBatchFn =
      std::function<std::vector<double>(const std::vector<uint64_t>&)>;
  using HeavyHittersFn =
      std::function<std::vector<ItemEstimate>(double phi)>;

  // One audit pass: compares estimates on the top-k shadow keys and
  // HeavyHitters(phi) recall on shadow-certified heavies against exact
  // shadow truth, publishes the l1hh_audit_* instruments, and returns the
  // report. `total_items` is the engine's m' (the eps*m denominator and
  // the phi threshold base). Thread-safe; must not be called from inside
  // the callbacks.
  AuditReport Audit(const EstimateBatchFn& estimate,
                    const HeavyHittersFn& heavy_hitters,
                    uint64_t total_items);

  // Convenience for single-summary embedders (the CLI's --audit).
  AuditReport AuditSummary(const Summary& summary);

  // Replaces the shadow with exact (key, count) truth sampled elsewhere,
  // taken when `items_seen` items had been observed: a replica installs
  // the shadow its primary ships and audits its own engine against it.
  void InstallShadow(const std::vector<std::pair<uint64_t, uint64_t>>& shadow,
                     uint64_t items_seen);

 private:
  const AuditorOptions options_;
  const uint64_t mixed_seed_;  // pre-mixed so SampledKey is one Mix64

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> shadow_;
  uint64_t dropped_items_ = 0;
  uint64_t sampled_items_ = 0;
  std::atomic<uint64_t> items_seen_{0};  // bumped outside the mutex
};

}  // namespace obs
}  // namespace l1hh

#endif  // L1HH_OBS_AUDIT_H_
