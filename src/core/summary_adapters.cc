// Summary-interface adapters for the paper's own algorithms: Algorithm 1
// (BdwSimple, Theorem 1) and Algorithm 2 (BdwOptimal, Theorem 2).  Kept in
// core/ so the summary layer never includes core headers; summary.cc pulls
// these in through internal::RegisterCoreSummaries().
#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>
#include <vector>

#include "core/bdw_optimal.h"
#include "core/bdw_simple.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

// Both algorithms assume the stream length m is known up front (Theorems
// 1-2); the factory caller must set SummaryOptions::stream_length.  The
// adapters report in full-stream units, like the underlying Report().

std::vector<ItemEstimate> FilterTopK(const std::vector<HeavyHitter>& top,
                                     double phi, double epsilon,
                                     uint64_t stream_length) {
  const double threshold =
      (phi - epsilon / 2.0) * static_cast<double>(stream_length);
  std::vector<ItemEstimate> out;
  for (const auto& hh : top) {
    if (hh.estimated_count >= threshold) {
      out.push_back({hh.item, hh.estimated_count});
    }
  }
  SortByEstimateDesc(out);
  return out;
}

class BdwSimpleSummary : public Summary {
 public:
  explicit BdwSimpleSummary(const SummaryOptions& o)
      : options_(o), seed_(o.seed), impl_(MakeOptions(o), o.seed) {}

  std::string_view Name() const override { return "bdw_simple"; }
  SummaryOptions Options() const override { return options_; }

  void Update(uint64_t item, uint64_t weight) override {
    for (uint64_t i = 0; i < weight; ++i) impl_.Insert(item);
  }

  // Sequential by necessity: Insert draws from the sampling PRNG, so the
  // column loop must consume randomness in exactly the scalar order.  The
  // win over the default is amortized virtual dispatch only.
  void UpdateColumn(const uint64_t* items, size_t n) override {
    for (size_t i = 0; i < n; ++i) impl_.Insert(items[i]);
  }

  double Estimate(uint64_t item) const override {
    return impl_.EstimateCount(item);
  }

  std::vector<ItemEstimate> HeavyHitters(double phi) const override {
    return FilterTopK(impl_.TopK(static_cast<size_t>(-1)), phi,
                      impl_.options().epsilon,
                      impl_.options().stream_length);
  }

  uint64_t ItemsProcessed() const override {
    return impl_.items_processed();
  }
  size_t MemoryUsageBytes() const override {
    return (impl_.SpaceBits() + 7) / 8;
  }

  bool SupportsMerge() const override { return true; }
  Status Merge(const Summary& other) override {
    const auto* rhs = dynamic_cast<const BdwSimpleSummary*>(&other);
    // Same seed => same hash function and sampling rate, the precondition
    // of BdwSimple::Merge.
    if (rhs == nullptr || rhs->seed_ != seed_) {
      return Status::InvalidArgument(
          "Merge requires another 'bdw_simple' with the same options and "
          "seed");
    }
    impl_ = BdwSimple::Merge(impl_, rhs->impl_);
    return Status::Ok();
  }

  bool SupportsSnapshot() const override { return true; }
  Status SaveTo(BitWriter& out) const override {
    impl_.Serialize(out);
    impl_.SerializeRngState(out);
    return Status::Ok();
  }
  Status LoadFrom(BitReader& in) override {
    BdwSimple loaded = BdwSimple::Deserialize(in, seed_);
    loaded.DeserializeRngState(in);
    if (in.overflow()) return in.status();
    // The wire carries the sketch's own options; they must agree with the
    // header options this adapter was constructed from.
    const BdwSimple::Options& a = loaded.options();
    const BdwSimple::Options& b = impl_.options();
    if (a.epsilon != b.epsilon || a.phi != b.phi || a.delta != b.delta ||
        a.universe_size != b.universe_size ||
        a.stream_length != b.stream_length) {
      return Status::Corruption(
          "'bdw_simple' snapshot payload options disagree with the header");
    }
    impl_ = std::move(loaded);
    return Status::Ok();
  }

 private:
  static BdwSimple::Options MakeOptions(const SummaryOptions& o) {
    BdwSimple::Options opt;
    opt.epsilon = o.epsilon;
    opt.phi = o.phi;
    opt.delta = o.delta;
    opt.universe_size = o.universe_size;
    opt.stream_length = o.stream_length;
    return opt;
  }

  SummaryOptions options_;
  uint64_t seed_;
  BdwSimple impl_;
};

class BdwOptimalSummary : public Summary {
 public:
  explicit BdwOptimalSummary(const SummaryOptions& o)
      : options_(o), seed_(o.seed), impl_(MakeOptions(o), o.seed) {}

  std::string_view Name() const override { return "bdw_optimal"; }
  SummaryOptions Options() const override { return options_; }

  void Update(uint64_t item, uint64_t weight) override {
    for (uint64_t i = 0; i < weight; ++i) impl_.Insert(item);
  }

  // Algorithm 2's Insert consumes PRNG draws (sampling + accelerated-
  // counter epochs), so the column loop stays strictly sequential; the
  // saving over the default path is the per-item virtual call.
  void UpdateColumn(const uint64_t* items, size_t n) override {
    for (size_t i = 0; i < n; ++i) impl_.Insert(items[i]);
  }

  double Estimate(uint64_t item) const override {
    return impl_.EstimateCount(item);
  }

  std::vector<ItemEstimate> HeavyHitters(double phi) const override {
    return FilterTopK(impl_.TopK(static_cast<size_t>(-1)), phi,
                      impl_.options().epsilon,
                      impl_.options().stream_length);
  }

  uint64_t ItemsProcessed() const override {
    return impl_.items_processed();
  }
  size_t MemoryUsageBytes() const override {
    return (impl_.SpaceBits() + 7) / 8;
  }

  bool SupportsMerge() const override { return true; }
  Status Merge(const Summary& other) override {
    const auto* rhs = dynamic_cast<const BdwOptimalSummary*>(&other);
    // Same seed => same hash functions, sampling rate, and epoch
    // schedule; BdwOptimal::Compatible re-verifies the derived shape.
    if (rhs == nullptr || rhs->seed_ != seed_ ||
        !BdwOptimal::Compatible(impl_, rhs->impl_)) {
      return Status::InvalidArgument(
          "Merge requires another 'bdw_optimal' with the same options and "
          "seed");
    }
    return impl_.MergeFrom(rhs->impl_);
  }

  bool SupportsSnapshot() const override { return true; }
  // Snapshots use the sparse T2/T3 grid encoding (the mostly-zero dense
  // grids dominated the wire size); the comm games keep sending the
  // dense Serialize(), so their measured message sizes still track the
  // cell count.
  Status SaveTo(BitWriter& out) const override {
    impl_.SerializeSparse(out);
    impl_.SerializeRngState(out);
    return Status::Ok();
  }
  Status LoadFrom(BitReader& in) override {
    BdwOptimal loaded = BdwOptimal::DeserializeSparse(in, seed_);
    loaded.DeserializeRngState(in);
    if (in.overflow()) return in.status();
    // Compatible() re-verifies the full derived shape (rows, repetitions,
    // epoch schedule, drawn hashes) against the instance the header
    // options constructed — the same precondition Merge relies on.
    if (!BdwOptimal::Compatible(impl_, loaded)) {
      return Status::Corruption(
          "'bdw_optimal' snapshot payload options disagree with the header");
    }
    impl_ = std::move(loaded);
    return Status::Ok();
  }

 private:
  static BdwOptimal::Options MakeOptions(const SummaryOptions& o) {
    BdwOptimal::Options opt;
    opt.epsilon = o.epsilon;
    opt.phi = o.phi;
    opt.delta = o.delta;
    opt.universe_size = o.universe_size;
    opt.stream_length = o.stream_length;
    return opt;
  }

  SummaryOptions options_;
  uint64_t seed_;
  BdwOptimal impl_;
};

}  // namespace

namespace internal {

void RegisterCoreSummaries() {
  RegisterSummary("bdw_simple", [](const SummaryOptions& o) {
    return std::unique_ptr<Summary>(new BdwSimpleSummary(o));
  });
  RegisterSummary("bdw_optimal", [](const SummaryOptions& o) {
    return std::unique_ptr<Summary>(new BdwOptimalSummary(o));
  });
}

}  // namespace internal
}  // namespace l1hh
