// The benchmark's own check: every workload shape at tiny size against the
// `exact` algorithm must score perfectly, and forged replies must each be
// counted.  Run with `python3 perfbench/run.py --self-test`.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "score.h"
#include "workload.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void CheckTinyShapes(const std::string& serve_binary) {
  for (const Workload& full : Workloads()) {
    Workload tiny = full;
    tiny.algorithm = "exact";
    tiny.ingest_items = full.ingest_items == 0 ? 0 : 20000;
    tiny.rounds = 2 * kSyncEvery;
    tiny.burst = std::min<uint64_t>(full.burst, 500);
    std::string why;
    Expect(CheckRegime(tiny, &why), tiny.name + " tiny shape in regime " + why);
    const Inputs inputs(tiny, 7);
    Ops ops;
    const TrialResult trial = RunTrial(tiny, inputs, serve_binary, true, ops);
    Expect(trial.completed, tiny.name + ": trial completed");
    Expect(ops.failed == 0, tiny.name + ": ops_failed = 0 of " +
                                std::to_string(ops.attempted) +
                                (ops.failures.empty() ? "" : " (" + ops.failures[0] + ")"));
    Expect(trial.score.recall == 1.0, tiny.name + ": recall = 1");
    Expect(trial.score.contract_violations == 0,
           tiny.name + ": contract_violations = 0");
    Expect(trial.sync_ms.size() == 2 && trial.sync_frame_bytes > 0,
           tiny.name + ": two syncs carried frames");
    Expect(!trial.metrics_lines.empty(), tiny.name + ": metrics scraped");
  }
}

void CheckForgedReplies() {
  // m = 100: item 1 has f = 60, item 2 f = 30, eight others f = 1..
  std::vector<uint64_t> stream(60, 1);
  stream.insert(stream.end(), 30, 2);
  for (uint64_t i = 0; i < 10; ++i) stream.push_back(10 + i);
  const Truth truth(stream, 64);
  const double eps = 0.1, phi = 0.2;  // heavy: f >= 20; error bound 10

  Ops ops;
  ReplayLines dropped({"hh 1", "1 60"});
  const auto dropped_report = ReadHeavy(dropped, ops);
  const Score dropped_score =
      ScoreReport(truth, eps, phi, dropped_report.value());
  Expect(dropped_score.missed == 1 && dropped_score.recall == 0.5,
         "a dropped heavy hitter lowers recall");

  ReplayLines off({"hh 2", "1 60", "2 41"});
  const Score off_score =
      ScoreReport(truth, eps, phi, ReadHeavy(off, ops).value());
  Expect(off_score.contract_violations == 1,
         "an estimate off by more than eps*m is a contract violation");

  ReplayLines light({"hh 3", "1 60", "2 30", "10 1"});
  Expect(ScoreReport(truth, eps, phi, ReadHeavy(light, ops).value())
                 .contract_violations == 1,
         "a returned item with f <= (phi-eps)*m is a contract violation");
  Expect(ops.failed == 0 && ops.attempted == 3, "well-formed replies pass");

  const struct {
    std::vector<std::string> lines;
    const char* what;
    int verb;  // 0 heavy, 1 estimate, 2 flush
  } bad[] = {
      {{"err engine overloaded"}, "an err line is a failed op", 0},
      {{"hh 2", "1 60"}, "a short heavy reply is a failed op", 0},
      {{}, "a missing reply is a failed op", 1},
      {{"est 1 sixty"}, "a malformed estimate is a failed op", 1},
      {{"ok 99"}, "a flush ack of n != items sent is a failed op", 2},
  };
  for (const auto& forged : bad) {
    Ops one;
    ReplayLines reply(forged.lines);
    if (forged.verb == 0) ReadHeavy(reply, one);
    if (forged.verb == 1) ReadEstimate(reply, one);
    if (forged.verb == 2) ExpectFlushAck(reply, 100, one);
    Expect(one.attempted == 1 && one.failed == 1, forged.what);
  }
}

void CheckServerFailures(const std::string& serve_binary) {
  double setup_s = 0;
  std::string error;
  auto refused = ServerProcess::Start(serve_binary, {"--no-such-flag=1"}, 5,
                                      &setup_s, &error);
  Expect(refused == nullptr && !error.empty(),
         "a server with no listening line is refused (" + error + ")");

  const char* socket_path = "perfbench-selftest.sock";
  auto running = ServerProcess::Start(
      serve_binary, {std::string("--socket=") + socket_path}, 5, &setup_s,
      &error);
  Expect(running != nullptr, "a server that prints its listening line starts");
  if (running != nullptr) {
    Expect(!running->Wait(0.05).clean,
           "a server that does not exit cleanly is not clean");
  }
  ::unlink(socket_path);  // a killed server leaves its socket behind
}

}  // namespace

int RunSelfTest(const std::string& serve_binary) {
  CheckForgedReplies();
  CheckServerFailures(serve_binary);
  CheckTinyShapes(serve_binary);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
