#include "obs/audit.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "obs/metrics.h"
#include "util/random.h"

namespace l1hh {
namespace obs {

namespace {
// Decorrelates the sampling hash from the engine's shard router (which
// reduces a bare Mix64(item)): a shard must not see a biased sampled set.
constexpr uint64_t kAuditSeedSalt = 0x9e3779b97f4a7c15ULL;

void PublishAuditReport(const AuditReport& report) {
  static FloatGauge* const eps_ratio =
      GetFloatGauge("l1hh_audit_observed_eps_ratio");
  static FloatGauge* const recall =
      GetFloatGauge("l1hh_audit_shadow_recall");
  static Gauge* const shadow_keys = GetGauge("l1hh_audit_shadow_keys");
  static Counter* const runs = GetCounter("l1hh_audit_runs_total");
  eps_ratio->Set(report.eps_ratio);
  recall->Set(report.recall);
  shadow_keys->Set(static_cast<int64_t>(report.shadow_keys));
  runs->Inc();
}
}  // namespace

AccuracyAuditor::AccuracyAuditor(const AuditorOptions& options)
    : options_(options), mixed_seed_(Mix64(options.seed ^ kAuditSeedSalt)) {}

bool AccuracyAuditor::SampledKey(uint64_t item) const {
  if (options_.sample_rate <= 1) return true;
  return Mix64(item ^ mixed_seed_) % options_.sample_rate == 0;
}

void AccuracyAuditor::ObserveColumn(const uint64_t* items, size_t n) {
  items_seen_.fetch_add(n, std::memory_order_relaxed);
  // Scan lock-free, then apply the (typically ~n/rate) hits in one
  // critical section.
  std::vector<uint64_t> hits;
  for (size_t i = 0; i < n; ++i) {
    if (SampledKey(items[i])) hits.push_back(items[i]);
  }
  if (hits.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  sampled_items_ += hits.size();
  for (const uint64_t item : hits) {
    auto it = shadow_.find(item);
    if (it != shadow_.end()) {
      ++it->second;
    } else if (shadow_.size() >= options_.max_shadow_keys) {
      ++dropped_items_;
    } else {
      shadow_.emplace(item, 1);
    }
  }
}

Status AccuracyAuditor::MergeFrom(const AccuracyAuditor& other) {
  if (other.options_.seed != options_.seed ||
      other.options_.sample_rate != options_.sample_rate) {
    return Status::InvalidArgument(
        "auditor merge requires matching seed and sample rate");
  }
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [key, count] : other.shadow_) {
    auto it = shadow_.find(key);
    if (it != shadow_.end()) {
      it->second += count;
    } else if (shadow_.size() >= options_.max_shadow_keys) {
      dropped_items_ += count;
    } else {
      shadow_.emplace(key, count);
    }
  }
  dropped_items_ += other.dropped_items_;
  sampled_items_ += other.sampled_items_;
  items_seen_.fetch_add(other.items_seen_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return Status::Ok();
}

std::vector<std::pair<uint64_t, uint64_t>> AccuracyAuditor::TopShadow(
    size_t k) const {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.assign(shadow_.begin(), shadow_.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return a.second > b.second ||
                     (a.second == b.second && a.first < b.first);
            });
  if (k != 0 && entries.size() > k) entries.resize(k);
  return entries;
}

uint64_t AccuracyAuditor::items_seen() const {
  return items_seen_.load(std::memory_order_relaxed);
}

AuditReport AccuracyAuditor::Audit(const EstimateBatchFn& estimate,
                                   const HeavyHittersFn& heavy_hitters,
                                   uint64_t total_items) {
  AuditReport report;
  report.items_seen = items_seen();
  const auto top = TopShadow(options_.audit_top_k);
  std::vector<uint64_t> heavies;  // shadow-certified phi-heavy keys
  const double heavy_threshold =
      options_.phi * static_cast<double>(total_items);
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.sampled_items = sampled_items_;
    report.shadow_keys = shadow_.size();
    report.dropped_items = dropped_items_;
    for (const auto& [key, count] : shadow_) {
      if (static_cast<double>(count) > heavy_threshold) {
        heavies.push_back(key);
      }
    }
  }
  static Histogram* const abs_error_hist =
      GetHistogram("l1hh_audit_observed_abs_error");
  std::vector<uint64_t> keys;
  keys.reserve(top.size());
  for (const auto& [key, count] : top) keys.push_back(key);
  const std::vector<double> estimates = estimate(keys);
  report.audited_keys = std::min(estimates.size(), top.size());
  for (size_t i = 0; i < report.audited_keys; ++i) {
    const double err =
        std::fabs(estimates[i] - static_cast<double>(top[i].second));
    report.max_abs_error = std::max(report.max_abs_error, err);
    abs_error_hist->Observe(static_cast<uint64_t>(std::llround(err)));
  }
  const double denom =
      options_.epsilon * static_cast<double>(total_items);
  report.eps_ratio = denom > 0 ? report.max_abs_error / denom : 0.0;
  report.shadow_heavies = heavies.size();
  if (!heavies.empty()) {
    const std::vector<ItemEstimate> reported =
        heavy_hitters(options_.phi);
    std::unordered_set<uint64_t> reported_keys;
    reported_keys.reserve(reported.size());
    for (const ItemEstimate& hh : reported) reported_keys.insert(hh.item);
    for (const uint64_t key : heavies) {
      if (reported_keys.count(key) != 0) ++report.recalled;
    }
    report.recall = static_cast<double>(report.recalled) /
                    static_cast<double>(report.shadow_heavies);
  }
  PublishAuditReport(report);
  return report;
}

AuditReport AccuracyAuditor::AuditSummary(const Summary& summary) {
  return Audit(
      [&summary](const std::vector<uint64_t>& keys) {
        std::vector<double> out;
        out.reserve(keys.size());
        for (const uint64_t key : keys) out.push_back(summary.Estimate(key));
        return out;
      },
      [&summary](double phi) { return summary.HeavyHitters(phi); },
      summary.ItemsProcessed());
}

void AccuracyAuditor::InstallShadow(
    const std::vector<std::pair<uint64_t, uint64_t>>& shadow,
    uint64_t items_seen) {
  std::lock_guard<std::mutex> lock(mu_);
  shadow_.clear();
  sampled_items_ = 0;
  dropped_items_ = 0;
  for (const auto& [key, count] : shadow) {
    sampled_items_ += count;
    if (shadow_.size() >= options_.max_shadow_keys) {
      dropped_items_ += count;
    } else {
      shadow_[key] += count;
    }
  }
  items_seen_.store(items_seen, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace l1hh
