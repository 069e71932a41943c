// Summary-interface adapters for the paper's own algorithms: Algorithm 1
// (BdwSimple, Theorem 1) and Algorithm 2 (BdwOptimal, Theorem 2).  Kept in
// core/ so the summary layer never includes core headers; summary.cc pulls
// these in through internal::RegisterCoreSummaries().
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bdw_optimal.h"
#include "core/bdw_simple.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

// Both algorithms assume the stream length m is known up front (Theorems
// 1-2); the factory caller must set SummaryOptions::stream_length.  The
// adapters report in full-stream units, like the underlying Report().
// FilterTopK thresholds the rescaled estimates at (phi - eps/2) m, i.e.
// the sampled count at (phi - eps/2) times the sample count the
// estimates were rescaled by.  Both adapters report through the
// partition hook: a partition's sample is a Bernoulli sample of its
// substream at the shared rate, so a hash-partitioned deployment
// rescales by the GLOBAL sample count (PartitionTotals::samples, as a
// merged sketch would); a partition's own count would inflate ~K-fold.
// A lone summary is its own only partition.

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

// Algorithms 1 and 2 share one adapter: the same sampling interface
// (Insert / TopK / EstimateCount / samples_taken / SpaceBits).  They
// differ in merge (BdwSimple's value-returning Merge, BdwOptimal's epoch-
// reconciled MergeFrom), in the snapshot payload encoding, and in how a
// loaded sketch is checked against the constructed one — the per-type
// overloads below.
//
// Same seed and same shape (options for BdwSimple; the full derived shape
// — rows, repetitions, epoch schedule, drawn hashes — for BdwOptimal) are
// the precondition of both merges and of a payload matching its header.
bool SameShape(const BdwSimple& a, const BdwSimple& b) {
  const BdwSimple::Options& x = a.options();
  const BdwSimple::Options& y = b.options();
  return x.epsilon == y.epsilon && x.phi == y.phi && x.delta == y.delta &&
         x.universe_size == y.universe_size &&
         x.stream_length == y.stream_length;
}
bool SameShape(const BdwOptimal& a, const BdwOptimal& b) {
  return BdwOptimal::Compatible(a, b);
}

Status MergeInto(BdwSimple& into, const BdwSimple& from) {
  into = BdwSimple::Merge(into, from);
  return Status::Ok();
}
Status MergeInto(BdwOptimal& into, const BdwOptimal& from) {
  return into.MergeFrom(from);
}

void SavePayload(const BdwSimple& sketch, BitWriter& out) {
  sketch.Serialize(out);
}
// BdwOptimal snapshots use the sparse T2/T3 grid encoding (the mostly-zero
// dense grids dominated the wire size); the comm games keep sending the
// dense Serialize(), so their measured message sizes still track the cell
// count.
void SavePayload(const BdwOptimal& sketch, BitWriter& out) {
  sketch.SerializeSparse(out);
}

// Algorithm 1's column loop is sequential by necessity: Insert draws from
// the sampling PRNG, so the loop consumes randomness in exactly the
// scalar order and only saves the per-item virtual dispatch.  Algorithm
// 2's column apply also combines each tile's T3 increments per item
// (BdwOptimal::InsertColumn).
void InsertColumn(BdwSimple& sketch, const uint64_t* items, size_t n) {
  for (size_t i = 0; i < n; ++i) sketch.Insert(items[i]);
}
void InsertColumn(BdwOptimal& sketch, const uint64_t* items, size_t n) {
  sketch.InsertColumn(items, n);
}

BdwSimple LoadPayload(BitReader& in, uint64_t seed, const BdwSimple&) {
  return BdwSimple::Deserialize(in, seed);
}
BdwOptimal LoadPayload(BitReader& in, uint64_t seed, const BdwOptimal&) {
  return BdwOptimal::DeserializeSparse(in, seed);
}

template <typename Sketch>
class BdwSummary : public Summary {
 public:
  BdwSummary(std::string_view name, const SummaryOptions& o)
      : name_(name), options_(o), impl_(MakeOptions(o), o.seed) {}

  std::string_view Name() const override { return name_; }
  SummaryOptions Options() const override { return options_; }

  void Update(uint64_t item, uint64_t weight) override {
    for (uint64_t i = 0; i < weight; ++i) impl_.Insert(item);
  }

  void UpdateColumn(const uint64_t* items, size_t n) override {
    InsertColumn(impl_, items, n);
  }

  double Estimate(uint64_t item) const override {
    return impl_.EstimateCount(item);
  }

  uint64_t PartitionSamples() const override { return impl_.samples_taken(); }
  std::vector<ItemEstimate> PartitionHeavyHitters(
      double phi, const PartitionTotals& totals) const override {
    return FilterTopK(impl_.TopK(static_cast<size_t>(-1), totals.samples),
                      phi, impl_.options().epsilon,
                      impl_.options().stream_length);
  }
  double PartitionEstimate(uint64_t item,
                           const PartitionTotals& totals) const override {
    return impl_.EstimateCount(item, totals.samples);
  }

  uint64_t ItemsProcessed() const override {
    return impl_.items_processed();
  }
  size_t MemoryUsageBytes() const override {
    return (impl_.SpaceBits() + 7) / 8;
  }

  bool SupportsMerge() const override { return true; }
  Status Merge(const Summary& other) override {
    const auto* rhs = dynamic_cast<const BdwSummary*>(&other);
    if (rhs == nullptr || rhs->options_.seed != options_.seed ||
        !SameShape(impl_, rhs->impl_)) {
      return Status::InvalidArgument(
          std::string("Merge requires another '")
              .append(name_)
              .append("' with the same options and seed"));
    }
    return MergeInto(impl_, rhs->impl_);
  }

  bool SupportsSnapshot() const override { return true; }
  Status SaveTo(BitWriter& out) const override {
    SavePayload(impl_, out);
    impl_.SerializeRngState(out);
    return Status::Ok();
  }
  Status LoadFrom(BitReader& in) override {
    Sketch loaded = LoadPayload(in, options_.seed, impl_);
    loaded.DeserializeRngState(in);
    if (in.overflow()) return in.status();
    // The wire carries the sketch's own options; they must agree with the
    // header options this adapter was constructed from.
    if (!SameShape(impl_, loaded)) {
      return Status::Corruption(
          std::string("'").append(name_).append(
              "' snapshot payload options disagree with the header"));
    }
    impl_ = std::move(loaded);
    return Status::Ok();
  }

 private:
  static typename Sketch::Options MakeOptions(const SummaryOptions& o) {
    typename Sketch::Options opt;
    opt.epsilon = o.epsilon;
    opt.phi = o.phi;
    opt.delta = o.delta;
    opt.universe_size = o.universe_size;
    opt.stream_length = o.stream_length;
    return opt;
  }

  std::string_view name_;
  SummaryOptions options_;
  Sketch impl_;
};

}  // namespace

namespace internal {

void RegisterCoreSummaries() {
  RegisterSummary("bdw_simple", [](const SummaryOptions& o) {
    return std::unique_ptr<Summary>(
        new BdwSummary<BdwSimple>("bdw_simple", o));
  });
  RegisterSummary("bdw_optimal", [](const SummaryOptions& o) {
    return std::unique_ptr<Summary>(
        new BdwSummary<BdwOptimal>("bdw_optimal", o));
  });
}

}  // namespace internal
}  // namespace l1hh
