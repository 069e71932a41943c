// Shared evaluation harness for the Summary registry: drive any
// registered algorithm over a stream — single-summary or through the
// sharded engine — and score its HeavyHitters(phi) report against exact
// ground truth.  Single source of truth for the recall/precision
// bookkeeping used by the CLI (`l1hh_cli run`) and the comparative
// benches (bench/bench_util.h, bench/bench_sharded_throughput.cc).
#ifndef L1HH_SUMMARY_EVALUATION_H_
#define L1HH_SUMMARY_EVALUATION_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "summary/exact_counter.h"
#include "summary/summary.h"

namespace l1hh {

/// One factory-driven run of a registered summary over a stream, scored
/// against the exact counts.  `windowed:<algo>` runs are scored against
/// the stream SUFFIX the window actually covers (scored_items < stream
/// size once the ring has evicted) — "heavy in the last W items" is the
/// contract a windowed summary makes, so that is the truth it is held to.
struct SummaryRunResult {
  bool ok = false;           // false if the name is not registered (or,
                             // for sharded runs, the engine refuses
                             // the configuration)
  std::string error;         // why ok == false
  size_t true_heavies = 0;   // |{x : f(x) > phi*m}|
  size_t recalled = 0;       // true heavies present in the report
  double recall = 1.0;       // recalled / true_heavies
  double precision = 1.0;    // fraction of reports with f >= (phi-eps)*m
  double max_abs_err = 0;    // max |estimate - f| over reported items
  size_t memory_bytes = 0;
  double update_ns = 0;      // mean wall-clock per update (ingest+flush)
  uint64_t scored_items = 0; // stream suffix scored (== stream size
                             // unless the summary is windowed)
  bool windowed = false;     // summary was a windowed:<algo> container
  uint64_t window_size = 0;  // EFFECTIVE window geometry (post-rounding/
  uint64_t window_buckets = 0;  // defaulting), from the summary's Options
  std::vector<ItemEstimate> report;   // HeavyHitters(phi), sorted
  std::vector<uint64_t> report_exact; // exact f(x) per report entry
};

/// Mean wall-clock nanoseconds per item over `n` items since `start`.
inline double NsPerItem(std::chrono::steady_clock::time_point start,
                        size_t n) {
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(n == 0 ? 1 : n);
}

/// Scores `report` (already filled into `r.report`) against the exact
/// counts of `stream` (for a windowed summary: the covered suffix);
/// fills the recall/precision/error fields.
inline void ScoreSummaryReport(SummaryRunResult& r,
                               std::span<const uint64_t> stream,
                               double phi, double epsilon) {
  r.scored_items = stream.size();
  ExactCounter exact;
  for (const uint64_t x : stream) exact.Insert(x);
  const double m = static_cast<double>(stream.size());
  const auto truth =
      exact.HeavyHitters(static_cast<uint64_t>(phi * m) + 1);

  r.true_heavies = truth.size();
  r.recalled = 0;
  for (const auto& t : truth) {
    for (const auto& rep : r.report) {
      if (rep.item == t.item) {
        ++r.recalled;
        break;
      }
    }
  }
  r.recall = truth.empty() ? 1.0
                           : static_cast<double>(r.recalled) /
                                 static_cast<double>(truth.size());
  size_t precise = 0;
  r.report_exact.clear();
  r.report_exact.reserve(r.report.size());
  r.max_abs_err = 0;
  for (const auto& rep : r.report) {
    const uint64_t f = exact.Count(rep.item);
    r.report_exact.push_back(f);
    if (static_cast<double>(f) >= (phi - epsilon) * m - 1.0) {
      ++precise;
    }
    r.max_abs_err = std::max(
        r.max_abs_err, std::abs(rep.estimate - static_cast<double>(f)));
  }
  r.precision = r.report.empty()
                    ? 1.0
                    : static_cast<double>(precise) /
                          static_cast<double>(r.report.size());
}

/// The suffix of `stream` a report answers for: the trailing `covered`
/// items for a `windowed:<algo>` container named `name` (sets r.windowed
/// and the effective geometry from `options`), the whole stream
/// otherwise.  Uses only the registry spelling and the generic options,
/// so the harness does not depend on window headers.
inline std::span<const uint64_t> ScoringSpan(
    SummaryRunResult& r, std::string_view name, const SummaryOptions& options,
    uint64_t covered, const std::vector<uint64_t>& stream) {
  if (!IsWindowedSummaryName(name)) {
    return stream;
  }
  r.windowed = true;
  r.window_size = options.window_size;
  r.window_buckets = options.window_buckets;
  covered = std::min<uint64_t>(covered, stream.size());
  return {stream.data() + (stream.size() - covered),
          static_cast<size_t>(covered)};
}

/// `keep`, when non-null, receives the driven summary after scoring — for
/// callers that want to do more with the state than read the report (the
/// CLI's `run --save=FILE` snapshots it).
inline SummaryRunResult RunRegisteredSummary(
    const std::string& name, const SummaryOptions& options,
    const std::vector<uint64_t>& stream, double phi,
    std::unique_ptr<Summary>* keep = nullptr) {
  SummaryRunResult r;
  Status status;
  auto summary = MakeSummary(name, options, &status);
  if (summary == nullptr) {
    r.error = status.ToString();
    return r;
  }
  r.ok = true;

  const auto start = std::chrono::steady_clock::now();
  summary->UpdateBatch(stream);
  r.update_ns = NsPerItem(start, stream.size());

  r.report = summary->HeavyHitters(phi);
  ScoreSummaryReport(r,
                     ScoringSpan(r, summary->Name(), summary->Options(),
                                 summary->CoveredItems(), stream),
                     phi, options.epsilon);
  r.memory_bytes = summary->MemoryUsageBytes();
  if (keep != nullptr) *keep = std::move(summary);
  return r;
}

/// Shared body of RunShardedSummary (`num_producers` == 0: the caller's
/// thread feeds the stream through slot 0) and RunMultiProducerSummary.
/// Windowed algorithms are refused only when producers race: the window
/// would then cover a nondeterministic interleaving, so no deterministic
/// suffix could be scored.
inline SummaryRunResult RunEngineSummary(
    const std::string& name, const SummaryOptions& options,
    const std::vector<uint64_t>& stream, double phi, size_t num_shards,
    size_t num_producers, size_t num_threads,
    std::unique_ptr<ShardedEngine>* keep) {
  SummaryRunResult r;
  if (num_producers > 0 && IsWindowedSummaryName(name)) {
    r.error = "windowed summaries have no deterministic multi-producer "
              "scoring span";
    return r;
  }
  ShardedEngineOptions engine_options;
  engine_options.algorithm = name;
  engine_options.summary = options;
  engine_options.num_shards = num_shards;
  engine_options.num_threads = num_threads;
  engine_options.max_producers = num_producers + 1;
  Status status;
  auto engine = ShardedEngine::Create(engine_options, &status);
  if (engine == nullptr) {
    r.error = status.ToString();
    return r;
  }

  const auto start = std::chrono::steady_clock::now();
  if (num_producers == 0) {
    engine->UpdateBatch(stream);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_producers);
    const size_t base = stream.size() / num_producers;
    const size_t extra = stream.size() % num_producers;
    size_t first = 0;
    for (size_t p = 0; p < num_producers; ++p) {
      const size_t count = base + (p < extra ? 1 : 0);
      auto producer = engine->RegisterProducer(&status);
      if (producer == nullptr) {
        for (auto& t : threads) t.join();
        r.error = status.ToString();
        return r;
      }
      std::span<const uint64_t> chunk{stream.data() + first, count};
      threads.emplace_back(
          [chunk, producer = std::move(producer)]() mutable {
            producer->UpdateBatch(chunk);
            producer.reset();  // release the slot on the owning thread
          });
      first += count;
    }
    for (auto& t : threads) t.join();
  }
  engine->Flush();
  r.ok = true;
  r.update_ns = NsPerItem(start, stream.size());

  r.report = engine->HeavyHitters(phi);
  // The report answers for the shards' summed coverage: the whole stream,
  // or for a windowed engine the global window (the shard rings rotate on
  // the global clock).  A window's effective geometry (after rounding)
  // is what its container reports as Options.
  const SummaryOptions effective = IsWindowedSummaryName(name)
                                       ? MakeSummary(name, options)->Options()
                                       : options;
  ScoreSummaryReport(
      r, ScoringSpan(r, name, effective, engine->CoveredItems(), stream), phi,
      options.epsilon);
  r.memory_bytes = engine->MemoryUsageBytes();
  if (keep != nullptr) *keep = std::move(engine);
  return r;
}

/// The same contract run driven through the ShardedEngine: ingest via the
/// per-shard rings, flush, and score the merged report.  `update_ns`
/// covers ingest + flush, i.e. end-to-end wall clock per item.
inline SummaryRunResult RunShardedSummary(
    const std::string& name, const SummaryOptions& options,
    const std::vector<uint64_t>& stream, double phi, size_t num_shards,
    size_t num_threads = 0,
    std::unique_ptr<ShardedEngine>* keep = nullptr) {
  return RunEngineSummary(name, options, stream, phi, num_shards,
                          /*num_producers=*/0, num_threads, keep);
}

/// The same contract run ingested by `num_producers` CONCURRENT producer
/// threads through the engine's K x P ring grid: the stream is split into
/// contiguous chunks, each chunk is fed by its own RegisterProducer
/// handle on its own thread, and the merged report is scored exactly like
/// the single-producer paths (the multiset reaching each shard is
/// identical, so every structure's (eps, phi) contract must survive the
/// interleaving).  `update_ns` covers spawn + ingest + join + flush.
/// Refuses windowed algorithms (tests/windowed_conformance_test.cc drives
/// that case with coordinated producers instead).
inline SummaryRunResult RunMultiProducerSummary(
    const std::string& name, const SummaryOptions& options,
    const std::vector<uint64_t>& stream, double phi, size_t num_shards,
    size_t num_producers, size_t num_threads = 0,
    std::unique_ptr<ShardedEngine>* keep = nullptr) {
  if (num_producers == 0) {
    SummaryRunResult r;
    r.error = "num_producers must be >= 1";
    return r;
  }
  return RunEngineSummary(name, options, stream, phi, num_shards,
                          num_producers, num_threads, keep);
}

}  // namespace l1hh

#endif  // L1HH_SUMMARY_EVALUATION_H_
