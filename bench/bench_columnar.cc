// Columnar ingest throughput: the three single-thread routes per
// algorithm, the producer-side routing kernels, and the grouped (per-key)
// scalar vs columnar routes.
//
//   ./bench_columnar [m] [alpha]       (defaults: 2^20 items, 1.1)
//
// Columns are ns/item (min of 3 alternating reps).  What each section
// claims:
//
//   * summaries — `column` must at least match `batch`; algorithms with a
//     native UpdateColumn (count_min's tiled hash pre-pass) should beat
//     it, the loop-forwarding overrides should tie it.
//   * routing kernels — the two producer-side dispatch strategies in
//     isolation (no worker threads, hand-off to a sink buffer): per-item
//     staged scatter as the engine's retired per-item route did it (Mix64
//     then a modulo by the RUNTIME shard count, staging push_back, bulk
//     hand-off at drain_batch) vs the partition pass exactly as
//     PartitionPush does it (Mix64 sweep with the hoisted power-of-two
//     mask, histogram -> prefix-sum -> scatter per 8K tile, one
//     contiguous hand-off per shard).  This is the headline number: the
//     partition pass keeps the 64-bit divide out of the hot loop and
//     replaces per-item staging bookkeeping with sequential sweeps.
//   * grouped — GroupedSummary::UpdateColumn's run detection on a
//     group-clustered column vs the scalar Update(group, item) loop.
//
// docs/GROUPED.md quotes this bench's numbers; re-run after touching the
// hot paths.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/random.h"
#include "group/grouped_summary.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"

namespace {

using namespace l1hh;

using Clock = std::chrono::steady_clock;

double NsPerItem(const Clock::time_point& start, const Clock::time_point& end,
                 size_t items) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         static_cast<double>(items == 0 ? 1 : items);
}

template <typename Body>
double TimeOnce(size_t items, Body&& body) {
  const auto start = Clock::now();
  body();
  return NsPerItem(start, Clock::now(), items);
}

template <typename Body>
double MinOf3(size_t items, Body&& body) {
  double best = TimeOnce(items, body);
  for (int rep = 1; rep < 3; ++rep) best = std::min(best, TimeOnce(items, body));
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t m = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                              : uint64_t{1} << 20;
  const double alpha = argc > 2 ? std::atof(argv[2]) : 1.1;
  const uint64_t n = uint64_t{1} << 22;

  SummaryOptions options;
  options.epsilon = 0.005;
  options.phi = 0.02;
  options.delta = 0.05;
  options.universe_size = n;
  options.stream_length = m;
  options.seed = 42;

  const auto stream = MakeZipfStream(n, alpha, m, /*seed=*/3);
  std::printf("columnar ingest: zipf(%.2f), n=2^22, m=%llu\n", alpha,
              static_cast<unsigned long long>(m));
  std::printf("(all columns ns/item, min of 3 alternating reps)\n\n");

  // ---- Single-thread routes per algorithm ------------------------------
  std::printf("%-20s %10s %10s %10s %9s\n", "algorithm", "scalar", "batch",
              "column", "col/batch");
  for (const auto& name : RegisteredSummaryNames()) {
    const double scalar_ns = MinOf3(stream.size(), [&] {
      auto s = MakeSummary(name, options);
      for (const uint64_t x : stream) s->Update(x);
    });
    const double batch_ns = MinOf3(stream.size(), [&] {
      auto s = MakeSummary(name, options);
      s->UpdateBatch(stream);
    });
    const double column_ns = MinOf3(stream.size(), [&] {
      auto s = MakeSummary(name, options);
      s->UpdateColumn(stream.data(), stream.size());
    });
    std::printf("%-20s %10.1f %10.1f %10.1f %8.2fx\n", name.c_str(),
                scalar_ns, batch_ns, column_ns, batch_ns / column_ns);
  }

  // ---- Routing kernels: producer-side dispatch in isolation ------------
  // Mirrors of the retired per-item scatter route and PartitionPush
  // with the ring hand-off replaced by a sink memcpy, so the comparison
  // measures the routing work itself free of worker-thread contention.
  {
    const size_t num_shards = 4;
    // Defeat constant folding: the per-item route's modulo divided by
    // the runtime shard count, and so must the mirrored baseline.
    volatile size_t runtime_shards = num_shards;
    const size_t k = runtime_shards;
    std::vector<uint64_t> sink(stream.size());
    const double staged_ns = MinOf3(stream.size(), [&] {
      std::vector<std::vector<uint64_t>> staging(k);
      for (auto& s : staging) s.reserve(1024);
      size_t out = 0;
      for (const uint64_t item : stream) {
        const size_t s = Mix64(item) % k;
        staging[s].push_back(item);
        if (staging[s].size() >= 1024) {
          std::memcpy(sink.data() + out, staging[s].data(), 1024 * 8);
          out += 1024;
          staging[s].clear();
        }
      }
      for (auto& s : staging) {
        std::memcpy(sink.data() + out, s.data(), s.size() * 8);
        out += s.size();
        s.clear();
      }
    });
    const double partition_ns = MinOf3(stream.size(), [&] {
      constexpr size_t kTile = 8192;
      const uint64_t mask = k - 1;  // k is a power of two here
      std::vector<uint32_t> ids(kTile);
      std::vector<uint64_t> scratch(kTile);
      std::vector<size_t> starts(k + 1), cursors(k);
      size_t out = 0;
      for (size_t base = 0; base < stream.size(); base += kTile) {
        const size_t take = std::min(kTile, stream.size() - base);
        std::fill(starts.begin(), starts.end(), 0);
        for (size_t i = 0; i < take; ++i) {
          const auto s = static_cast<uint32_t>(Mix64(stream[base + i]) & mask);
          ids[i] = s;
          ++starts[s + 1];
        }
        for (size_t s = 1; s <= k; ++s) starts[s] += starts[s - 1];
        for (size_t s = 0; s < k; ++s) cursors[s] = starts[s];
        for (size_t i = 0; i < take; ++i) {
          scratch[cursors[ids[i]]++] = stream[base + i];
        }
        for (size_t s = 0; s < k; ++s) {
          std::memcpy(sink.data() + out, scratch.data() + starts[s],
                      (starts[s + 1] - starts[s]) * 8);
          out += starts[s + 1] - starts[s];
        }
      }
    });
    std::printf("\nrouting kernels, K=4 (producer-side dispatch only, no "
                "workers):\n");
    std::printf("  per-item staged scatter %8.2f ns/item\n", staged_ns);
    std::printf("  partition pass          %8.2f ns/item  (%.2fx)\n",
                partition_ns, staged_ns / partition_ns);
  }

  // ---- Grouped routes --------------------------------------------------
  // A group-clustered column (each tenant's rows arrive in runs of 64, the
  // shape a columnar scan of a sorted/partitioned table produces): run
  // detection pays one lookup per run instead of per row.
  constexpr uint64_t kTenants = 32;
  std::vector<uint64_t> groups(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    groups[i] = (i / 64) % kTenants;
  }
  std::printf("\ngrouped (%llu tenants, runs of 64): scalar Update vs "
              "columnar run detection\n",
              static_cast<unsigned long long>(kTenants));
  std::printf("%-20s %10s %10s %9s\n", "algorithm", "scalar", "column",
              "speedup");
  for (const char* name : {"space_saving", "count_min"}) {
    GroupedSummaryOptions grouped_options;
    grouped_options.algorithm = name;
    grouped_options.summary = options;
    const double scalar_ns = MinOf3(stream.size(), [&] {
      auto g = GroupedSummary::Create(grouped_options);
      for (size_t i = 0; i < stream.size(); ++i) {
        g->Update(groups[i], stream[i]);
      }
    });
    const double column_ns = MinOf3(stream.size(), [&] {
      auto g = GroupedSummary::Create(grouped_options);
      g->UpdateColumn(groups.data(), stream.data(), stream.size());
    });
    std::printf("%-20s %10.1f %10.1f %8.2fx\n", name, scalar_ns, column_ns,
                scalar_ns / column_ns);
  }
  return 0;
}
