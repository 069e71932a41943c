// The benchmark's workloads and the closed-loop client that drives one
// forked l1hh_serve through a workload trial.
//
// Every trial has the same shape, so every end-to-end metric is defined
// on every workload; the workloads differ in algorithm, sizes and wire
// format, which moves where the time goes:
//   1. spawn the server (--shards=4, default threads, --m = items sent);
//   2. the replica connection sends `replicate` (a cold full sync);
//   3. ingest phase: `bin 8192` batches on connection A, or decimal lines
//      split into two disjoint halves on connections A and A2 from two
//      client threads; then `flush` (the ack must count every item);
//   4. query rounds: A sends a `bin` burst then `flush`; B sends `heavy`
//      (the merged view is stale, so it rebuilds) and one `estimate` (a
//      cache hit); every 10th round the replica connection sends `sync`;
//   5. B's final `heavy` is scored against exact counts; `shutdown`.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "protocol.h"
#include "score.h"

namespace perfbench {

inline constexpr uint64_t kUniverse = uint64_t{1} << 22;  // n
inline constexpr double kZipfAlpha = 1.1;
inline constexpr int kShards = 4;
inline constexpr uint64_t kBinBatch = 8192;  // items per `bin` request
inline constexpr uint64_t kSyncEvery = 10;   // rounds per replica `sync`
inline constexpr int kMaxClientThreads = 3;
// A, B and the replica connection C; text ingest adds A2 and moves the
// replica onto B.
inline constexpr int kConnections = 3;

struct Workload {
  std::string name;
  std::string algorithm;
  double epsilon = 0;
  double phi = 0;
  uint64_t ingest_items = 0;  // ingest phase
  bool text = false;          // ingest as decimal lines on two connections
  uint64_t rounds = 0;        // query rounds
  uint64_t burst = 0;         // `bin` items per round

  // Items sent per trial, which is also the server's --m.
  uint64_t m() const { return ingest_items + rounds * burst; }
  // Text ingest pushes its two halves from two client threads.
  int client_threads() const { return text ? 2 : 1; }
};

const std::vector<Workload>& Workloads();
// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
// Checks the regime each workload is meant to measure; false (with the
// reason) when an edit moved it out: a bdw_optimal stream must stay within
// its sample size opt_sample_factor/eps^2 so every item is sampled, and
// the client must fit in kMaxClientThreads threads, and threads and
// connections in nproc.  (RunTrial checks that --m equals the items sent.)
bool CheckRegime(const Workload& workload, std::string* why);

// m Zipf(kZipfAlpha) draws over 2^18 ranks, as l1hh::MakeZipfStream
// makes them, except that ranks are scattered over [0, kUniverse) by a
// fixed mixer rather than a seed-salted one.  Every seed then has the same
// hot keys on the same shards, and the seed moves only the draws; with a
// salted mixer the shard that happens to own the hottest key sets ingest
// time, and the seed alone moves throughput by a fifth.
std::vector<uint64_t> MakeStream(uint64_t m, uint64_t seed);

// The generated stream and everything derived from it, built once per
// run outside timed code.
struct Inputs {
  Inputs(const Workload& workload, uint64_t seed);

  std::vector<uint64_t> stream;
  Truth truth;
  std::string bin_ingest;           // the ingest phase as `bin` requests
  std::string text_halves[2];       // ... or as two halves of lines
  std::vector<std::string> bursts;  // one `bin` request + `flush` per round
};

struct TrialResult {
  bool completed = false;  // every request answered and checked
  double setup_s = 0;
  double ingest_s = 0;  // first byte -> last flush ack of the ingest phase
  double burst_s = 0;   // summed burst first byte -> flush ack per round
  std::vector<double> heavy_ms;
  std::vector<double> estimate_ms;
  std::vector<double> sync_ms;
  uint64_t sync_frame_bytes = 0;  // frame payload bytes over all `sync`s
  Score score;
  ServerExit exit;
  std::vector<std::string> metrics_lines;  // `metrics` scrape when asked
};

// Runs one trial against a freshly spawned server.  Failures are counted
// in `ops`; the trial stops at the first one and reports what it has.
TrialResult RunTrial(const Workload& workload, const Inputs& inputs,
                     const std::string& serve_binary, bool scrape_metrics,
                     Ops& ops);

// Spawns the server and shuts it down again, `count` times; returns each
// spawn -> `listening` time.
std::vector<double> MeasureSetup(const Workload& workload,
                                 const std::string& serve_binary, int count,
                                 Ops& ops);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
