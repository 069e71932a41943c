// Process-wide lock-free telemetry registry.
//
// Counters, gauges, and log2-bucket histograms registered by name (plus an
// optional fixed label string). Increments on the ingest hot path are
// relaxed-atomic adds on cache-line-padded striped slots — no locks, no CAS
// loops, same discipline as the engine's ring grid. Aggregation (summing
// stripes, rendering exposition text) happens only at scrape time.
//
// Instruments are process-wide singletons: two engines in one process share
// the same named counter. Per-instance views belong to snapshot structs such
// as ShardedEngine::EngineMetrics, not the registry.
#ifndef L1HH_OBS_METRICS_H_
#define L1HH_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace l1hh {
namespace obs {

// Global instrumentation switch. When false, Inc/Add/Set/Observe return
// immediately after one relaxed load — this is what the batch_perf_test
// overhead gate compares against. Scraping still works (values freeze).
bool Enabled();
void SetEnabled(bool on);

namespace detail {
struct alignas(64) PaddedSlot {
  std::atomic<uint64_t> v{0};
};
// Stripe index for the calling thread (assigned once, masked per use).
size_t ThreadStripe();
}  // namespace detail

// Monotone counter. Striped across kStripes padded slots so racing
// producers do not bounce one cache line.
class Counter {
 public:
  static constexpr size_t kStripes = 16;

  void Inc(uint64_t n = 1) {
    if (!Enabled()) return;
    slots_[detail::ThreadStripe() & (kStripes - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const auto& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void ResetForTest() {
    for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::PaddedSlot slots_[kStripes];
};

// Point-in-time fractional value (ratios, seconds). Same relaxed-atomic
// discipline as Gauge; exposition renders it with %g so a scraper parses
// it as a float. Exists because the audit layer publishes numbers like
// observed-error / (eps*m) that are meaningless when truncated to int.
class FloatGauge {
 public:
  void Set(double v) {
    if (!Enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }
  void ResetForTest() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Point-in-time signed value. Set/Add are relaxed.
class Gauge {
 public:
  void Set(int64_t v) {
    if (!Enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (!Enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void ResetForTest() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed log2 buckets: bucket i counts observations v with bit_width(v) == i,
// i.e. bucket 0 is v == 0, bucket i >= 1 covers [2^(i-1), 2^i). Upper bounds
// rendered in exposition are therefore 0, 1, 3, 7, ..., +Inf (cumulative,
// Prometheus style: `le` is the largest value the bucket admits). Observations are per-batch or per-event, not per-item,
// so plain relaxed adds (no striping) are cheap enough.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit_width of uint64 is 0..64

  void Observe(uint64_t v) {
    if (!Enabled()) return;
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  static size_t BucketIndex(uint64_t v) {
    size_t i = 0;
    while (v != 0) {
      ++i;
      v >>= 1;
    }
    return i;
  }
  // Inclusive upper bound of bucket i (v <= bound <=> v falls in buckets
  // 0..i): 0 for bucket 0, 2^i - 1 for bucket i >= 1.
  static uint64_t BucketBound(size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return UINT64_MAX;
    return (uint64_t{1} << i) - 1;
  }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void ResetForTest() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Name + label-set keyed registry. Lookup takes a mutex (cold path: do it
// once at startup and cache the pointer); returned pointers stay valid for
// the life of the process.
class Registry {
 public:
  static Registry& Get();

  // `labels` is the literal inside the braces, e.g. `shard="3"`, or empty.
  Counter* GetCounter(const std::string& name, const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "");
  FloatGauge* GetFloatGauge(const std::string& name,
                            const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "");

  // Prometheus-style text exposition, one `name{labels} value` line per
  // counter/gauge; histograms render cumulative `_bucket{le="..."}` series
  // plus `_sum` and `_count`. Lines are sorted for stable output.
  std::string Exposition() const;
  // Exposition split into lines (convenience for line-oriented protocols).
  std::vector<std::string> ExpositionLines() const;

  // Zero every registered instrument (pointers stay valid).
  void ResetForTest();

 private:
  Registry() = default;
  struct Impl;
  Impl* impl();
  mutable std::atomic<Impl*> impl_{nullptr};
};

// Convenience: cache-once accessors for the common case.
inline Counter* GetCounter(const std::string& name,
                           const std::string& labels = "") {
  return Registry::Get().GetCounter(name, labels);
}
inline Gauge* GetGauge(const std::string& name,
                       const std::string& labels = "") {
  return Registry::Get().GetGauge(name, labels);
}
inline FloatGauge* GetFloatGauge(const std::string& name,
                                 const std::string& labels = "") {
  return Registry::Get().GetFloatGauge(name, labels);
}
inline Histogram* GetHistogram(const std::string& name,
                               const std::string& labels = "") {
  return Registry::Get().GetHistogram(name, labels);
}

// The version stamp the serving binaries export as
// `l1hh_build_info{algo=...,component=...,version=...} 1` at startup so a
// fleet dashboard can pivot every other series by build.
inline constexpr const char kBuildVersion[] = "0.10.0";

inline void EmitBuildInfo(const std::string& component,
                          const std::string& algo) {
  GetGauge("l1hh_build_info", "algo=\"" + algo + "\",component=\"" +
                                  component + "\",version=\"" +
                                  kBuildVersion + "\"")
      ->Set(1);
}

}  // namespace obs
}  // namespace l1hh

#endif  // L1HH_OBS_METRICS_H_
