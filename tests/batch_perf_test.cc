// The batch-vs-scalar regression GATE, moved out of
// bench/bench_sharded_throughput.cc into a ctest target (label "perf",
// RUN_SERIAL) so it has what a timing assertion actually needs: a
// machine not also running the rest of the suite, a tolerance the
// environment can tune instead of a hard-coded retry heuristic, and a
// failure that names itself in ctest output rather than a non-zero bench
// exit buried in a CI log.
//
// The claim gated here is deliberately modest: for every registered
// algorithm, UpdateBatch and UpdateColumn must not be SLOWER than the
// scalar Update loop beyond the noise tolerance.  They exist to be
// faster; an adapter change that quietly reverts a tight loop to
// per-item virtual dispatch shows up as a 1.3-2x regression, far outside
// any honest tolerance.
//
//   L1HH_PERF_TOLERANCE   max allowed (batch ns) / (scalar ns), as a
//                         float.  Default 1.35: roomy enough for a
//                         saturated CI runner, tight enough to catch a
//                         reverted fast path.  Set e.g. 2.0 on very
//                         noisy machines, or 10 to neuter the gate
//                         without touching the build.
//
// A second gate pins the src/obs/ telemetry overhead: engine ingest with
// instrumentation enabled vs disabled (the obs::Enabled() switch), same
// min-of-N interleaved discipline, plus one remeasure before failing.
//
//   L1HH_OBS_TOLERANCE    max allowed (instrumented ns) / (disabled ns).
//                         Default 1.05 — the instrumented hot path is one
//                         relaxed load plus per-batch (not per-item)
//                         relaxed adds, so 5% is already generous.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "obs/metrics.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

double Tolerance() {
  const char* env = std::getenv("L1HH_PERF_TOLERANCE");
  if (env != nullptr) {
    const double parsed = std::atof(env);
    if (parsed > 0) return parsed;
  }
  return 1.35;
}

SummaryOptions PerfOptions(uint64_t stream_length) {
  SummaryOptions o;
  o.epsilon = 0.005;
  o.phi = 0.02;
  o.delta = 0.05;
  o.universe_size = uint64_t{1} << 22;
  o.stream_length = stream_length;
  o.seed = 42;
  return o;
}

enum class Route { kScalar, kBatch, kColumn };

double TimeRoute(const std::string& name, const SummaryOptions& options,
                 const std::vector<uint64_t>& stream, Route route) {
  auto summary = MakeSummary(name, options);
  const auto start = std::chrono::steady_clock::now();
  switch (route) {
    case Route::kScalar:
      for (const uint64_t x : stream) summary->Update(x);
      break;
    case Route::kBatch:
      summary->UpdateBatch(stream);
      break;
    case Route::kColumn:
      summary->UpdateColumn(stream.data(), stream.size());
      break;
  }
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

// Min-of-5, routes interleaved within each rep: frequency scaling and
// noisy neighbors hit whole time windows, so alternating keeps any one
// disturbance from landing entirely on one route, and min() discards the
// disturbed reps instead of averaging them in.
void Measure(const std::string& name, const SummaryOptions& options,
             const std::vector<uint64_t>& stream, double& scalar_ns,
             double& batch_ns, double& column_ns) {
  scalar_ns = batch_ns = column_ns = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = TimeRoute(name, options, stream, Route::kScalar);
    const double b = TimeRoute(name, options, stream, Route::kBatch);
    const double c = TimeRoute(name, options, stream, Route::kColumn);
    scalar_ns = rep == 0 ? s : std::min(scalar_ns, s);
    batch_ns = rep == 0 ? b : std::min(batch_ns, b);
    column_ns = rep == 0 ? c : std::min(column_ns, c);
  }
}

TEST(BatchPerfTest, BatchAndColumnNeverSlowerThanScalar) {
  const double tolerance = Tolerance();
  const uint64_t m = uint64_t{1} << 18;
  const auto stream =
      MakeZipfStream(uint64_t{1} << 22, 1.1, m, /*seed=*/3);
  const SummaryOptions options = PerfOptions(m);
  for (const auto& name : RegisteredSummaryNames()) {
    SCOPED_TRACE(name);
    double scalar_ns = 0, batch_ns = 0, column_ns = 0;
    Measure(name, options, stream, scalar_ns, batch_ns, column_ns);
    const double per_item = 1.0 / static_cast<double>(stream.size());
    // As strings: RecordProperty truncates a double to an integer.
    RecordProperty(name + "_scalar_ns_per_item",
                   std::to_string(scalar_ns * per_item));
    RecordProperty(name + "_batch_ns_per_item",
                   std::to_string(batch_ns * per_item));
    RecordProperty(name + "_column_ns_per_item",
                   std::to_string(column_ns * per_item));
    EXPECT_LE(batch_ns, tolerance * scalar_ns)
        << name << ": UpdateBatch " << batch_ns * per_item
        << " ns/item vs scalar " << scalar_ns * per_item
        << " ns/item exceeds L1HH_PERF_TOLERANCE=" << tolerance;
    EXPECT_LE(column_ns, tolerance * scalar_ns)
        << name << ": UpdateColumn " << column_ns * per_item
        << " ns/item vs scalar " << scalar_ns * per_item
        << " ns/item exceeds L1HH_PERF_TOLERANCE=" << tolerance;
  }
}

// ---- telemetry overhead gate ------------------------------------------

double ObsTolerance() {
  const char* env = std::getenv("L1HH_OBS_TOLERANCE");
  if (env != nullptr) {
    const double parsed = std::atof(env);
    if (parsed > 0) return parsed;
  }
  return 1.05;
}

// One engine ingest of `stream` (UpdateBatch + Flush) with the telemetry
// switch in the given state; returns wall nanoseconds of the ingest.
double TimeEngineIngest(ShardedEngine& engine,
                        const std::vector<uint64_t>& stream, bool obs_on) {
  obs::SetEnabled(obs_on);
  const auto start = std::chrono::steady_clock::now();
  engine.UpdateBatch(stream);
  engine.Flush();
  const auto end = std::chrono::steady_clock::now();
  obs::SetEnabled(true);
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

// Min-of-k over interleaved trials (same rationale as Measure above) on
// ONE warmed-up engine, so no trial pays for thread start, first-touch
// ring pages or a summary still filling its table; the order of the two
// arms alternates from rep to rep, so neither always runs first.
// Returns the instrumented/disabled ratio.
double MeasureObsRatio(const std::vector<uint64_t>& stream) {
  ShardedEngineOptions o;
  o.algorithm = "space_saving";
  o.num_shards = 2;
  o.summary.epsilon = 0.005;
  o.summary.phi = 0.02;
  o.summary.delta = 0.05;
  o.summary.universe_size = uint64_t{1} << 22;
  o.summary.stream_length = stream.size();
  o.summary.seed = 42;
  auto engine = ShardedEngine::Create(o);
  if (engine == nullptr) {
    ADD_FAILURE() << "ShardedEngine::Create failed";
    return 1.0;
  }
  TimeEngineIngest(*engine, stream, /*obs_on=*/true);  // warm-up
  constexpr int kReps = 15;
  double on_ns = 0, off_ns = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool on_first = rep % 2 == 0;
    const double first = TimeEngineIngest(*engine, stream, on_first);
    const double second = TimeEngineIngest(*engine, stream, !on_first);
    const double on = on_first ? first : second;
    const double off = on_first ? second : first;
    on_ns = rep == 0 ? on : std::min(on_ns, on);
    off_ns = rep == 0 ? off : std::min(off_ns, off);
  }
  return off_ns > 0 ? on_ns / off_ns : 1.0;
}

TEST(BatchPerfTest, ObsInstrumentationOverheadBounded) {
  const double tolerance = ObsTolerance();
  const uint64_t m = uint64_t{1} << 18;
  const auto stream = MakeZipfStream(uint64_t{1} << 22, 1.1, m, /*seed=*/3);
  double ratio = MeasureObsRatio(stream);
  RecordProperty("obs_overhead_ratio_first", std::to_string(ratio));
  if (ratio > tolerance) {
    // One remeasure: a single scheduler hiccup on a loaded runner can land
    // entirely on the instrumented arm even with interleaving.
    ratio = MeasureObsRatio(stream);
    RecordProperty("obs_overhead_ratio_retry", std::to_string(ratio));
  }
  EXPECT_LE(ratio, tolerance)
      << "instrumented engine ingest is " << ratio
      << "x the disabled baseline, exceeding L1HH_OBS_TOLERANCE=" << tolerance;
}

}  // namespace
}  // namespace l1hh
