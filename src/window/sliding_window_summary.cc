#include "window/sliding_window_summary.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/metrics.h"

namespace l1hh {
namespace {

Status WindowIncompatibleMerge(std::string_view name) {
  return Status::InvalidArgument(
      "Merge requires another '" + std::string(name) +
      "' with the same geometry, options, and seed");
}

}  // namespace

std::unique_ptr<SlidingWindowSummary> SlidingWindowSummary::Create(
    std::string_view inner_name, const SummaryOptions& options,
    Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<SlidingWindowSummary> {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  };
  const std::string inner(inner_name);
  if (inner.empty() || IsWindowedSummaryName(inner)) {  // no nesting
    return fail(Status::InvalidArgument(
        "windowed: wraps one registered structure; '" + inner +
        "' is not a valid inner name"));
  }
  const uint64_t requested_w =
      options.window_size != 0
          ? options.window_size
          : (options.stream_length != 0 ? options.stream_length
                                        : uint64_t{1} << 20);
  const uint64_t requested_b =
      options.window_buckets != 0 ? options.window_buckets : 8;
  if (requested_b > kMaxBuckets) {
    return fail(Status::InvalidArgument(
        "window_buckets = " + std::to_string(requested_b) +
        " exceeds the maximum of " + std::to_string(kMaxBuckets)));
  }
  const uint64_t bucket_width = std::max<uint64_t>(1, requested_w / requested_b);

  std::unique_ptr<SlidingWindowSummary> window(new SlidingWindowSummary(
      inner_name, options, bucket_width,
      static_cast<size_t>(requested_b)));
  // Probe the inner structure through the bucket factory: it must exist
  // and be mergeable (queries merge the ring; a non-mergeable structure
  // has no window semantics to offer).
  auto probe = window->MakeBucket();
  if (probe == nullptr) {
    return fail(Status::InvalidArgument("unknown summary algorithm '" +
                                        inner + "'"));
  }
  if (!probe->SupportsMerge()) {
    return fail(Status::FailedPrecondition(
        "'" + inner +
        "' does not support Merge; a sliding window needs mergeable "
        "buckets (see docs/ALGORITHMS.md#mergeability)"));
  }
  window->buckets_.reserve(window->options_.window_buckets);
  window->buckets_.push_back(std::move(probe));
  while (window->buckets_.size() < window->options_.window_buckets) {
    window->buckets_.push_back(window->MakeBucket());
  }
  if (status != nullptr) *status = Status::Ok();
  return window;
}

SlidingWindowSummary::SlidingWindowSummary(std::string_view inner_name,
                                           const SummaryOptions& options,
                                           uint64_t bucket_width,
                                           size_t num_buckets)
    : options_(options),
      inner_name_(inner_name),
      name_(std::string(kWindowedPrefix) + std::string(inner_name)),
      bucket_width_(bucket_width) {
  // Normalize to the effective geometry so Options() (and therefore the
  // snapshot header) reconstructs an identical ring.
  options_.window_size = bucket_width_ * num_buckets;
  options_.window_buckets = num_buckets;
  // Inner buckets answer in window units: the window is their "stream".
  bucket_options_ = options_;
  bucket_options_.stream_length = options_.window_size;
  bucket_options_.window_size = 0;
  bucket_options_.window_buckets = 8;
}

std::unique_ptr<Summary> SlidingWindowSummary::MakeBucket() const {
  return MakeSummary(inner_name_, bucket_options_);
}

uint64_t SlidingWindowSummary::window_items() const {
  uint64_t covered = 0;
  for (const auto& bucket : buckets_) covered += bucket->ItemsProcessed();
  return covered;
}

uint64_t SlidingWindowSummary::live_bucket_items() const {
  return LiveBucket().ItemsProcessed();
}

void SlidingWindowSummary::Rotate() {
  // Evict the oldest bucket, open a fresh live one.  O(B) pointer moves —
  // trivial against the q items ingested between rotations.
  std::rotate(buckets_.begin(), buckets_.begin() + 1, buckets_.end());
  buckets_.back() = MakeBucket();
  ++rotations_;
  InvalidateCache();
  // One per bucket boundary (every bucket_width_ items) — cold enough to
  // count unconditionally.
  static obs::Counter* const rotations_ctr =
      obs::GetCounter("l1hh_window_rotations_total");
  rotations_ctr->Inc();
}

template <typename Apply>
void SlidingWindowSummary::ForEachBucketChunk(uint64_t total, Apply&& apply) {
  if (total == 0) return;
  InvalidateCache();
  uint64_t offset = 0;
  while (offset < total) {
    uint64_t take = total - offset;
    if (!external_rotation_) {
      const uint64_t fill = live_bucket_items();
      if (fill >= bucket_width_) {
        Rotate();
        continue;
      }
      take = std::min(take, bucket_width_ - fill);
    }
    apply(offset, take);
    total_items_ += take;
    offset += take;
  }
}

void SlidingWindowSummary::Update(uint64_t item, uint64_t weight) {
  // Weighted on the inner bucket: a linear sketch stays O(1) per update.
  ForEachBucketChunk(weight, [&](uint64_t, uint64_t take) {
    LiveBucket().Update(item, take);
  });
}

void SlidingWindowSummary::UpdateColumn(const uint64_t* items, size_t n) {
  ForEachBucketChunk(n, [&](uint64_t offset, uint64_t take) {
    LiveBucket().UpdateColumn(items + offset, static_cast<size_t>(take));
  });
}

const Summary& SlidingWindowSummary::MergedWindow() const {
  if (merged_valid_ && merged_items_ == total_items_ &&
      merged_rotations_ == rotations_) {
    return *merged_;
  }
  merged_ = MakeBucket();
  for (const auto& bucket : buckets_) {
    if (bucket->ItemsProcessed() == 0) continue;
    const Status s = merged_->Merge(*bucket);
    if (!s.ok()) {
      // Buckets are constructed from one shared option set, so an
      // incompatible bucket is a broken invariant, not an input error —
      // surface it loudly rather than serve a partial window.
      std::fprintf(stderr,
                   "SlidingWindowSummary: bucket merge failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  }
  merged_items_ = total_items_;
  merged_rotations_ = rotations_;
  merged_valid_ = true;
  return *merged_;
}

double SlidingWindowSummary::Estimate(uint64_t item) const {
  return MergedWindow().Estimate(item);
}

std::vector<ItemEstimate> SlidingWindowSummary::HeavyHitters(
    double phi) const {
  return MergedWindow().HeavyHitters(phi);
}

uint64_t SlidingWindowSummary::PartitionSamples() const {
  // A merge sums its inputs' samples, so the buckets answer without one.
  uint64_t samples = 0;
  for (const auto& bucket : buckets_) samples += bucket->PartitionSamples();
  return samples;
}

std::vector<ItemEstimate> SlidingWindowSummary::PartitionHeavyHitters(
    double phi, const PartitionTotals& totals) const {
  return MergedWindow().PartitionHeavyHitters(phi, totals);
}

double SlidingWindowSummary::PartitionEstimate(
    uint64_t item, const PartitionTotals& totals) const {
  return MergedWindow().PartitionEstimate(item, totals);
}

size_t SlidingWindowSummary::MemoryUsageBytes() const {
  size_t total = sizeof(SlidingWindowSummary);
  for (const auto& bucket : buckets_) total += bucket->MemoryUsageBytes();
  if (merged_valid_) total += merged_->MemoryUsageBytes();
  return total;
}

Status SlidingWindowSummary::Merge(const Summary& other) {
  const auto* rhs = dynamic_cast<const SlidingWindowSummary*>(&other);
  if (rhs == nullptr || rhs->inner_name_ != inner_name_ ||
      rhs->bucket_width_ != bucket_width_ ||
      rhs->buckets_.size() != buckets_.size() ||
      !(rhs->options_ == options_)) {
    return WindowIncompatibleMerge(Name());
  }
  if (rhs->total_items_ == 0 && rhs->rotations_ == 0) {
    return Status::Ok();  // nothing to absorb
  }
  if (rotations_ != rhs->rotations_) {
    // Bucket i must cover the same global time range in both rings.  A
    // pristine ring has no time range yet and adopts the other's
    // alignment (how the engine's merged view bootstraps); anything else
    // is a caller error, not reconcilable state.
    if (total_items_ != 0 || rotations_ != 0) {
      return Status::InvalidArgument(
          "Merge requires rotation-aligned windows (this ring rotated " +
          std::to_string(rotations_) + " times, other " +
          std::to_string(rhs->rotations_) +
          "); windows merge only when driven by one global clock");
    }
    rotations_ = rhs->rotations_;
  }
  // Same options + seed => bucket factories draw identical hash/sampling
  // state, so the bucket-wise merges cannot fail on compatibility.
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (rhs->buckets_[i]->ItemsProcessed() == 0) continue;
    const Status s = buckets_[i]->Merge(*rhs->buckets_[i]);
    if (!s.ok()) return s;
  }
  total_items_ += rhs->total_items_;
  InvalidateCache();
  return Status::Ok();
}

Status SlidingWindowSummary::SaveTo(BitWriter& out) const {
  // Geometry echo first: LoadFrom re-verifies it against the instance the
  // header options constructed, same convention as every adapter.
  out.WriteU64(bucket_width_);
  out.WriteCounter(buckets_.size());
  out.WriteCounter(rotations_);
  out.WriteCounter(total_items_);
  for (const auto& bucket : buckets_) {
    const Status s = bucket->SaveTo(out);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status SlidingWindowSummary::LoadFrom(BitReader& in) {
  const uint64_t bucket_width = in.ReadU64();
  const uint64_t num_buckets = in.ReadCounter();
  const uint64_t rotations = in.ReadCounter();
  const uint64_t total_items = in.ReadCounter();
  if (in.overflow()) return in.status();
  if (bucket_width != bucket_width_ || num_buckets != buckets_.size()) {
    return Status::Corruption(
        "'" + name_ +
        "' snapshot payload does not match the shape implied by the "
        "header options");
  }
  std::vector<std::unique_ptr<Summary>> loaded;
  loaded.reserve(buckets_.size());
  uint64_t covered = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    auto bucket = MakeBucket();
    const Status s = bucket->LoadFrom(in);
    if (!s.ok()) return s;
    // No bucket can hold more than one bucket's worth of the stream;
    // a bigger claim is a tampered payload that would break rotation.
    if (bucket->ItemsProcessed() > bucket_width_) {
      return Status::Corruption(
          "'" + name_ + "' snapshot bucket " + std::to_string(i) +
          " claims " + std::to_string(bucket->ItemsProcessed()) +
          " items, more than the bucket width " +
          std::to_string(bucket_width_));
    }
    covered += bucket->ItemsProcessed();
    loaded.push_back(std::move(bucket));
  }
  if (total_items < covered) {
    return Status::Corruption(
        "'" + name_ + "' snapshot covers " + std::to_string(covered) +
        " items but claims only " + std::to_string(total_items) +
        " were ever ingested");
  }
  buckets_ = std::move(loaded);
  rotations_ = rotations;
  total_items_ = total_items;
  InvalidateCache();
  return Status::Ok();
}

Status SlidingWindowSummary::SaveTailTo(BitWriter& out,
                                        uint64_t bucket_count) const {
  if (bucket_count == 0 || bucket_count > buckets_.size()) {
    return Status::InvalidArgument(
        "delta bucket count " + std::to_string(bucket_count) +
        " is outside [1, " + std::to_string(buckets_.size()) + "]");
  }
  for (size_t i = buckets_.size() - static_cast<size_t>(bucket_count);
       i < buckets_.size(); ++i) {
    const Status s = buckets_[i]->SaveTo(out);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status SlidingWindowSummary::ApplyTail(BitReader& in,
                                       uint64_t base_rotations,
                                       uint64_t base_items,
                                       uint64_t new_rotations,
                                       uint64_t new_total_items,
                                       uint64_t bucket_count) {
  if (rotations_ != base_rotations || total_items_ != base_items) {
    return Status::Corruption(
        "'" + name_ + "' delta expects base state (rotations=" +
        std::to_string(base_rotations) + ", items=" +
        std::to_string(base_items) + "), this instance is at (rotations=" +
        std::to_string(rotations_) + ", items=" +
        std::to_string(total_items_) + "); not the delta's base");
  }
  // The dirty tail since the base is every bucket sealed after it plus
  // the live one — the writer's count must agree with the rotation
  // distance, and both must fit the ring.
  const uint64_t rotated = new_rotations - base_rotations;
  if (new_rotations < base_rotations || new_total_items < base_items ||
      bucket_count != rotated + 1 || bucket_count > buckets_.size()) {
    return Status::Corruption(
        "'" + name_ + "' delta clocks are implausible (rotations " +
        std::to_string(base_rotations) + " -> " +
        std::to_string(new_rotations) + ", " +
        std::to_string(bucket_count) + " buckets over a ring of " +
        std::to_string(buckets_.size()) + ")");
  }
  // Load the replacement tail into fresh buckets BEFORE touching the
  // ring, so a corrupt payload leaves this instance exactly as it was.
  std::vector<std::unique_ptr<Summary>> tail;
  tail.reserve(static_cast<size_t>(bucket_count));
  for (uint64_t i = 0; i < bucket_count; ++i) {
    auto bucket = MakeBucket();
    const Status s = bucket->LoadFrom(in);
    if (!s.ok()) return s;
    if (bucket->ItemsProcessed() > bucket_width_) {
      return Status::Corruption(
          "'" + name_ + "' delta bucket " + std::to_string(i) +
          " claims " + std::to_string(bucket->ItemsProcessed()) +
          " items, more than the bucket width " +
          std::to_string(bucket_width_));
    }
    tail.push_back(std::move(bucket));
  }
  for (uint64_t r = 0; r < rotated; ++r) Rotate();
  const size_t first = buckets_.size() - static_cast<size_t>(bucket_count);
  for (uint64_t i = 0; i < bucket_count; ++i) {
    buckets_[first + static_cast<size_t>(i)] =
        std::move(tail[static_cast<size_t>(i)]);
  }
  total_items_ = new_total_items;
  InvalidateCache();
  return Status::Ok();
}

namespace internal {

std::unique_ptr<Summary> MakeWindowedSummary(std::string_view inner_name,
                                             const SummaryOptions& options,
                                             Status* status) {
  return SlidingWindowSummary::Create(inner_name, options, status);
}

}  // namespace internal
}  // namespace l1hh
