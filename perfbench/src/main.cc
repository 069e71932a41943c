// l1hh_perfbench — the serving benchmark's measuring half (perfbench/run.py
// builds it and adds provenance).
//
//   l1hh_perfbench --serve=<l1hh_serve> --workload=<name> --seed=<n>
//                  --seconds=<s> --trace=<0|1> [--spans=<file>]
//   l1hh_perfbench --serve=<l1hh_serve> --self-test
//
// --trace=0 runs timed trials of the workload until --seconds have passed
// and reports the end-to-end metrics; --trace=1 runs the per-layer suite
// (layers.h) and writes its spans to --spans.  The last stdout line is
// one JSON object.  Exit status 0 means the run completed (its answers
// may still be wrong: see "correct"); 2 means it could not run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "score.h"
#include "workload.h"

namespace perfbench {
int RunSelfTest(const std::string& serve_binary);
}  // namespace perfbench

namespace {

using namespace perfbench;

// Spawn -> `listening` samples taken before the trials, on top of one per
// trial, so setup_s is a median of at least this many.
constexpr int kSetupSpawns = 19;

struct Args {
  std::string serve;
  std::string workload;
  std::string spans;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--serve") {
      args->serve = value;
    } else if (key == "--workload") {
      args->workload = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--self-test") {
      args->self_test = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !args->serve.empty() &&
         (args->self_test || (!args->workload.empty() && args->seconds > 0));
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::max<size_t>(rank, 1) - 1];
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

struct Metric {
  std::string unit;
  double value = 0;
};

// The run's one-line JSON result.  `extra` holds pre-rendered fields.
void PrintResult(const Args& args, bool correct, const Ops& ops,
                 const std::map<std::string, Metric>& metrics,
                 const std::string& extra) {
  std::string out = "{\"workload\": " + Quote(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + std::to_string(args.trace) +
                    ", \"correct\": " + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(ops.attempted) +
                    ", \"failed\": " + std::to_string(ops.failed) +
                    ", \"failures\": [";
  for (size_t i = 0; i < ops.failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(ops.failures[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + Quote(name) + ": {\"value\": " +
           Number(metric.value) + ", \"unit\": " + Quote(metric.unit) + "}";
    first = false;
  }
  out += "}" + extra + "}";
  std::printf("%s\n", out.c_str());
}

std::string ScoreJson(uint64_t violations, double recall, uint64_t true_heavy,
                      uint64_t missed) {
  return "{\"contract_violations\": " + std::to_string(violations) +
         ", \"recall\": " + Number(recall) +
         ", \"true_heavy\": " + std::to_string(true_heavy) +
         ", \"missed\": " + std::to_string(missed) + "}";
}

int RunEndToEnd(const Args& args, const Workload& w) {
  const Inputs inputs(w, args.seed);
  Ops ops;
  std::vector<double> setups =
      MeasureSetup(w, args.serve, kSetupSpawns, ops);
  // The first trial of a run is slower than the rest (cold caches and
  // CPU clocks on an idle machine); it runs untimed.
  RunTrial(w, inputs, args.serve, false, ops);
  const double t0 = NowS();
  std::vector<TrialResult> trials;
  double last_trial_s = 0;
  while (trials.empty() ||
         (NowS() - t0 + last_trial_s <= args.seconds && trials.back().completed)) {
    const double start = NowS();
    trials.push_back(RunTrial(w, inputs, args.serve, false, ops));
    last_trial_s = NowS() - start;
  }

  // Rates and tails are per trial, median over the trials.  Noise on a
  // shared host comes in stretches that hit some trials and spare the
  // rest; pooled, a few noisy trials would set the whole run's tail.
  // Throughput is the ingest phase's rate, or the bursts' rate when there
  // is no ingest phase.
  std::vector<double> rates, rss, heavy, heavy_tails, estimate, sync;
  uint64_t sync_bytes = 0, violations = 0, missed = 0, true_heavy = 0;
  double recall = 1;
  int completed = 0;
  for (const TrialResult& trial : trials) {
    setups.push_back(trial.setup_s);
    if (!trial.completed) continue;
    ++completed;
    rates.push_back(w.ingest_items != 0
                        ? w.ingest_items / trial.ingest_s
                        : static_cast<double>(w.rounds * w.burst) / trial.burst_s);
    rss.push_back(trial.exit.peak_rss_mb);
    heavy.insert(heavy.end(), trial.heavy_ms.begin(), trial.heavy_ms.end());
    heavy_tails.push_back(Percentile(trial.heavy_ms, 0.99));
    estimate.insert(estimate.end(), trial.estimate_ms.begin(),
                    trial.estimate_ms.end());
    sync.insert(sync.end(), trial.sync_ms.begin(), trial.sync_ms.end());
    sync_bytes += trial.sync_frame_bytes;
    violations += trial.score.contract_violations;
    missed += trial.score.missed;
    true_heavy += trial.score.true_heavy;
    recall = std::min(recall, trial.score.recall);
  }
  const double mean_sync_bytes =
      sync.empty() ? 0 : static_cast<double>(sync_bytes) / sync.size();
  const std::map<std::string, Metric> metrics = {
      {"setup_s", {"s", Median(setups)}},
      {"ingest_items_per_s", {"items/s", Median(rates)}},
      {"heavy_p50_ms", {"ms", Median(heavy)}},
      {"heavy_p99_ms", {"ms", Median(heavy_tails)}},
      {"estimate_p50_ms", {"ms", Median(estimate)}},
      {"sync_p50_ms", {"ms", Median(sync)}},
      {"sync_bytes", {"bytes", mean_sync_bytes}},
      {"recall", {"ratio", completed == 0 ? 0 : recall}},
      {"server_peak_rss_mb", {"MB", Median(rss)}},
  };
  std::string extra =
      ", \"score\": " + ScoreJson(violations, recall, true_heavy, missed) +
      ", \"samples\": {\"trials\": " + std::to_string(trials.size()) +
      ", \"trials_completed\": " + std::to_string(completed) +
      ", \"setup\": " + std::to_string(setups.size()) +
      ", \"heavy\": " + std::to_string(heavy.size()) +
      ", \"estimate\": " + std::to_string(estimate.size()) +
      ", \"sync\": " + std::to_string(sync.size()) + "}" +
      ", \"shape\": {\"algorithm\": " + Quote(w.algorithm) +
      ", \"epsilon\": " + Number(w.epsilon) + ", \"phi\": " + Number(w.phi) +
      ", \"m\": " + std::to_string(w.m()) +
      ", \"ingest_items\": " + std::to_string(w.ingest_items) +
      ", \"wire\": " + Quote(w.text ? "text" : "bin") +
      ", \"rounds\": " + std::to_string(w.rounds) +
      ", \"burst\": " + std::to_string(w.burst) +
      ", \"shards\": " + std::to_string(kShards) + "}" +
      ", \"measured_s\": " + Number(NowS() - t0) + ", \"per_trial\": [";
  for (size_t i = 0; i < trials.size(); ++i) {
    const TrialResult& trial = trials[i];
    extra += std::string(i == 0 ? "" : ", ") + "{\"completed\": " +
             (trial.completed ? "true" : "false") +
             ", \"setup_s\": " + Number(trial.setup_s) +
             ", \"ingest_s\": " + Number(trial.ingest_s) +
             ", \"burst_s\": " + Number(trial.burst_s) +
             ", \"heavy_p50_ms\": " + Number(Median(trial.heavy_ms)) +
             ", \"heavy_p99_ms\": " +
             Number(Percentile(trial.heavy_ms, 0.99)) +
             ", \"sync_p50_ms\": " + Number(Median(trial.sync_ms)) +
             ", \"estimate_p50_ms\": " + Number(Median(trial.estimate_ms)) +
             ", \"peak_rss_mb\": " + Number(trial.exit.peak_rss_mb) +
             ", \"cpu_s\": " + Number(trial.exit.cpu_s) + "}";
  }
  extra += "]";
  const bool correct =
      ops.failed == 0 && violations == 0 && missed == 0 && completed > 0;
  PrintResult(args, correct, ops, metrics, extra);
  return 0;
}

int RunTraced(const Args& args, const Workload& w) {
  Tracer tracer;
  Ops ops;
  std::vector<TrialResult> trials;
  const std::vector<LayerMetric> layers =
      RunLayers(w, args.seed, args.serve, tracer, ops, &trials);
  std::map<std::string, Metric> metrics;
  std::string map = ", \"layer_map\": {";
  for (size_t i = 0; i < layers.size(); ++i) {
    const LayerMetric& m = layers[i];
    metrics[m.name] = {m.unit, m.value};
    map += (i == 0 ? "" : ", ") + Quote(m.name) +
           ": {\"layer\": " + Quote(m.layer) + ", \"better\": " +
           Quote(m.better) + ", \"moves\": " + Quote(m.moves) +
           ", \"workload\": " + Quote(m.workload) + "}";
  }
  map += "}";
  const TrialResult& trial = trials.front();
  if (!args.spans.empty()) {
    std::FILE* out = std::fopen(args.spans.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
      return 2;
    }
    const double origin = tracer.spans().empty() ? 0 : tracer.spans()[0].start_s;
    std::fprintf(out, "{\"workload\": %s, \"seed\": %llu, \"spans\": [\n",
                 Quote(w.name).c_str(),
                 static_cast<unsigned long long>(args.seed));
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      std::fprintf(out,
                   "%s{\"id\": %u, \"parent\": %u, \"layer\": \"%s\", "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f, "
                   "\"items\": %llu}",
                   i == 0 ? "" : ",\n", s.id, s.parent, s.layer, s.name,
                   (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6,
                   static_cast<unsigned long long>(s.items));
    }
    std::fprintf(out, "\n]}\n");
    std::fclose(out);
  }
  const bool correct =
      ops.failed == 0 && trial.completed && trial.score.Holds();
  PrintResult(args, correct, ops, metrics,
              map + ", \"score\": " +
                  ScoreJson(trial.score.contract_violations, trial.score.recall,
                            trial.score.true_heavy, trial.score.missed) +
                  ", \"spans\": " + std::to_string(tracer.spans().size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: l1hh_perfbench --serve=<path> (--self-test | "
                 "--workload=<name> --seed=<n> --seconds=<s> --trace=<0|1> "
                 "[--spans=<file>])\n");
    return 2;
  }
  if (args.self_test) return RunSelfTest(args.serve);
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::string why;
  if (!CheckRegime(*workload, &why)) {
    std::fprintf(stderr, "workload out of regime: %s\n", why.c_str());
    return 2;
  }
  return args.trace != 0 ? RunTraced(args, *workload)
                         : RunEndToEnd(args, *workload);
}
