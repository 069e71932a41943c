#include "workload.h"

#include <unistd.h>

#include <charconv>
#include <cstring>
#include <memory>
#include <thread>

#include "core/common.h"
#include "stream/zipf.h"
#include "util/random.h"

namespace perfbench {

namespace {

// Every read on a client connection gives up after this long.
constexpr double kReplyTimeoutS = 60;
constexpr double kListenTimeoutS = 10;
constexpr double kExitTimeoutS = 10;

std::string SocketPath() {
  return "perfbench-" + std::to_string(::getpid()) + ".sock";
}

std::vector<std::string> ServerArgs(const Workload& w) {
  char eps[32], phi[32];
  std::snprintf(eps, sizeof(eps), "%.17g", w.epsilon);
  std::snprintf(phi, sizeof(phi), "%.17g", w.phi);
  return {"--socket=" + SocketPath(),
          "--algo=" + w.algorithm,
          std::string("--epsilon=") + eps,
          std::string("--phi=") + phi,
          "--n=" + std::to_string(kUniverse),
          "--m=" + std::to_string(w.m()),
          "--shards=" + std::to_string(kShards),
          "--seed=1"};
}

void AppendBin(std::string* out, const uint64_t* items, size_t n) {
  *out += "bin " + std::to_string(n) + "\n";
  // The wire format is little-endian u64, this host's layout.
  out->append(reinterpret_cast<const char*>(items), n * sizeof(uint64_t));
}

void AppendLines(std::string* out, const uint64_t* items, size_t n) {
  char digits[24];
  for (size_t i = 0; i < n; ++i) {
    char* end = std::to_chars(digits, digits + sizeof(digits), items[i]).ptr;
    *end++ = '\n';
    out->append(digits, static_cast<size_t>(end - digits));
  }
}

// A `replicate` or `sync` reply: [rconf line], frames, `rsync <items>`.
// Adds the frame payload bytes to *bytes.
bool ReadSync(Conn& conn, bool cold, uint64_t expected_items, Ops& ops,
              uint64_t* bytes) {
  ops.Attempt();
  const char* verb = cold ? "replicate" : "sync";
  std::string line;
  bool saw_conf = !cold;
  while (true) {
    if (!conn.ReadLine(&line)) {
      ops.Fail(std::string(verb) + ": short or missing reply");
      return false;
    }
    if (line.rfind("frame ", 0) == 0 && saw_conf) {
      const size_t space = line.rfind(' ');
      const uint64_t n = std::strtoull(line.c_str() + space + 1, nullptr, 10);
      if (!conn.Skip(n)) {
        ops.Fail(std::string(verb) + ": short frame");
        return false;
      }
      *bytes += n;
    } else if (line.rfind("rconf ", 0) == 0 && !saw_conf) {
      saw_conf = true;
    } else if (line.rfind("rsync ", 0) == 0 && saw_conf) {
      const uint64_t items = std::strtoull(line.c_str() + 6, nullptr, 10);
      if (items != expected_items) {
        ops.Fail(std::string(verb) + ": rsync " + std::to_string(items) +
                 " != " + std::to_string(expected_items) + " items sent");
        return false;
      }
      return true;
    } else {
      ops.Fail(std::string(verb) + ": unexpected line '" + line + "'");
      return false;
    }
  }
}

// One text half on its own connection: send, flush, read the ack.
struct TextPush {
  std::unique_ptr<Conn> conn;
  bool got_ack = false;
  std::string ack;

  void Run(const std::string& payload) {
    got_ack = conn->Send(payload) && conn->Send("flush\n") &&
              conn->ReadLine(&ack);
  }
};

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // The paper's Algorithm 2 in its fully sampled regime: apply in the
      // summary layer dominates.
      {"bin_ingest_bdw", "bdw_optimal", 0.005, 0.02,
       /*ingest_items=*/uint64_t{1} << 22, /*text=*/false,
       /*rounds=*/20, /*burst=*/kBinBatch},
      // Cheap apply: per-line decode in serve and per-item producer pushes
      // in the engine dominate, over the K x P grid with P = 2.
      {"text_ingest_mg", "misra_gries", 0.01, 0.05,
       /*ingest_items=*/uint64_t{1} << 23, /*text=*/true,
       /*rounds=*/200, /*burst=*/kBinBatch},
      // Reads beside writes at serve defaults: merge, report, the merge
      // cache and frame capture dominate.
      {"fresh_query_bdw", "bdw_optimal", 0.01, 0.05,
       /*ingest_items=*/0, /*text=*/false,
       /*rounds=*/250, /*burst=*/4000},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

bool CheckRegime(const Workload& w, std::string* why) {
  if (w.algorithm == "bdw_optimal") {
    const double sample_size =
        l1hh::Constants::Practical().opt_sample_factor / (w.epsilon * w.epsilon);
    if (static_cast<double>(w.m()) > sample_size) {
      *why = w.name + " sends " + std::to_string(w.m()) +
             " items, above the sample size " + std::to_string(sample_size) +
             ": bdw_optimal would skip items instead of sampling all";
      return false;
    }
  }
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (w.client_threads() > kMaxClientThreads ||
      (cores > 0 && (w.client_threads() > cores || kConnections > cores))) {
    *why = w.name + ": client threads/connections exceed the limit or nproc";
    return false;
  }
  if (w.rounds == 0 || w.burst == 0 || w.burst > kBinBatch) {
    *why = w.name + ": needs query rounds with bursts of 1.." +
           std::to_string(kBinBatch) + " items";
    return false;
  }
  return true;
}

std::vector<uint64_t> MakeStream(uint64_t m, uint64_t seed) {
  static const l1hh::ZipfDistribution zipf(uint64_t{1} << 18, kZipfAlpha);
  l1hh::Rng rng(seed);
  std::vector<uint64_t> stream(m);
  for (uint64_t& item : stream) item = l1hh::Mix64(zipf.Sample(rng)) % kUniverse;
  return stream;
}

Inputs::Inputs(const Workload& w, uint64_t seed)
    : stream(MakeStream(w.m(), seed)),
      truth(stream, kUniverse) {
  const uint64_t* data = stream.data();
  if (w.text) {
    const uint64_t half = w.ingest_items / 2;
    AppendLines(&text_halves[0], data, half);
    AppendLines(&text_halves[1], data + half, w.ingest_items - half);
  } else {
    for (uint64_t i = 0; i < w.ingest_items; i += kBinBatch) {
      AppendBin(&bin_ingest, data + i, std::min(kBinBatch, w.ingest_items - i));
    }
  }
  bursts.resize(w.rounds);
  for (uint64_t r = 0; r < w.rounds; ++r) {
    AppendBin(&bursts[r], data + w.ingest_items + r * w.burst, w.burst);
    bursts[r] += "flush\n";
  }
}

TrialResult RunTrial(const Workload& w, const Inputs& inputs,
                     const std::string& serve_binary, bool scrape_metrics,
                     Ops& ops) {
  TrialResult result;
  std::string error;
  ops.Attempt();
  std::unique_ptr<ServerProcess> server = ServerProcess::Start(
      serve_binary, ServerArgs(w), kListenTimeoutS, &result.setup_s, &error);
  if (server == nullptr) {
    ops.Fail("spawn: " + error);
    return result;
  }
  const std::string path = SocketPath();
  std::unique_ptr<Conn> a = Conn::Open(path, kReplyTimeoutS);
  std::unique_ptr<Conn> b = Conn::Open(path, kReplyTimeoutS);
  std::unique_ptr<Conn> c = w.text ? nullptr : Conn::Open(path, kReplyTimeoutS);
  if (a == nullptr || b == nullptr || (!w.text && c == nullptr)) {
    ops.Attempt();
    ops.Fail("connect failed");
    return result;
  }
  Conn& replica = w.text ? *b : *c;
  uint64_t unused_bytes = 0;
  if (!replica.Send("replicate\n") ||
      !ReadSync(replica, /*cold=*/true, 0, ops, &unused_bytes)) {
    return result;
  }

  // Ingest phase.
  uint64_t sent = w.ingest_items;
  if (w.text) {
    TextPush pushes[2];
    pushes[0].conn = std::move(a);
    pushes[1].conn = Conn::Open(path, kReplyTimeoutS);
    if (pushes[1].conn == nullptr) {
      ops.Attempt();
      ops.Fail("connect failed");
      return result;
    }
    const double t0 = NowS();
    std::thread second([&] { pushes[1].Run(inputs.text_halves[1]); });
    pushes[0].Run(inputs.text_halves[0]);
    second.join();
    // Each half's flush covers its own connection; a last flush on A,
    // after both, must then count every item.
    for (TextPush& push : pushes) {
      ReplayLines line(push.got_ack ? std::vector<std::string>{push.ack}
                                    : std::vector<std::string>{});
      if (!ReadFlushAck(line, ops).has_value()) return result;
    }
    a = std::move(pushes[0].conn);
    if (!a->Send("flush\n") || !ExpectFlushAck(*a, sent, ops)) return result;
    result.ingest_s = NowS() - t0;
  } else if (sent != 0) {
    const double t0 = NowS();
    if (!a->Send(inputs.bin_ingest) || !a->Send("flush\n")) {
      ops.Attempt();
      ops.Fail("ingest: send failed");
      return result;
    }
    if (!ExpectFlushAck(*a, sent, ops)) return result;
    result.ingest_s = NowS() - t0;
  }

  // Query rounds.
  uint64_t hot_item = inputs.stream.front();
  for (uint64_t r = 0; r < w.rounds; ++r) {
    double t0 = NowS();
    sent += w.burst;
    if (!a->Send(inputs.bursts[r])) {
      ops.Attempt();
      ops.Fail("burst: send failed");
      return result;
    }
    if (!ExpectFlushAck(*a, sent, ops)) return result;
    result.burst_s += NowS() - t0;

    t0 = NowS();
    if (!b->Send("heavy\n")) return result;
    const auto report = ReadHeavy(*b, ops);
    if (!report.has_value()) return result;
    result.heavy_ms.push_back((NowS() - t0) * 1e3);
    if (!report->empty()) hot_item = report->front().item;

    t0 = NowS();
    if (!b->Send("estimate " + std::to_string(hot_item) + "\n")) return result;
    if (!ReadEstimate(*b, ops).has_value()) return result;
    result.estimate_ms.push_back((NowS() - t0) * 1e3);

    if ((r + 1) % kSyncEvery == 0) {
      t0 = NowS();
      if (!replica.Send("sync\n") ||
          !ReadSync(replica, /*cold=*/false, sent, ops,
                    &result.sync_frame_bytes)) {
        return result;
      }
      result.sync_ms.push_back((NowS() - t0) * 1e3);
    }
  }

  if (sent != w.m()) {
    ops.Attempt();
    ops.Fail("sent " + std::to_string(sent) + " items but --m=" +
             std::to_string(w.m()));
    return result;
  }
  // The final answer, scored outside the timed path.
  if (!b->Send("heavy\n")) return result;
  const auto final_report = ReadHeavy(*b, ops);
  if (!final_report.has_value()) return result;
  result.score = ScoreReport(inputs.truth, w.epsilon, w.phi, *final_report);

  if (scrape_metrics) {
    ops.Attempt();
    std::string line;
    if (!b->Send("metrics\n") || !b->ReadLine(&line) ||
        line.rfind("metrics ", 0) != 0) {
      ops.Fail("metrics: missing reply");
      return result;
    }
    const uint64_t count = std::strtoull(line.c_str() + 8, nullptr, 10);
    for (uint64_t i = 0; i < count; ++i) {
      if (!b->ReadLine(&line)) {
        ops.Fail("metrics: short reply");
        return result;
      }
      result.metrics_lines.push_back(line);
    }
  }

  ops.Attempt();
  std::string line;
  if (!b->Send("shutdown\n") || !b->ReadLine(&line) || line != "ok") {
    ops.Fail("shutdown: missing ok");
    return result;
  }
  a.reset();
  b.reset();
  c.reset();
  ops.Attempt();
  result.exit = server->Wait(kExitTimeoutS);
  if (!result.exit.clean) {
    ops.Fail("server exit: non-zero status or timeout");
    return result;
  }
  result.completed = true;
  return result;
}

std::vector<double> MeasureSetup(const Workload& w,
                                 const std::string& serve_binary, int count,
                                 Ops& ops) {
  std::vector<double> times;
  for (int i = 0; i < count; ++i) {
    double setup_s = 0;
    std::string error;
    ops.Attempt();
    std::unique_ptr<ServerProcess> server = ServerProcess::Start(
        serve_binary, ServerArgs(w), kListenTimeoutS, &setup_s, &error);
    if (server == nullptr) {
      ops.Fail("spawn: " + error);
      continue;
    }
    times.push_back(setup_s);
    ops.Attempt();
    std::unique_ptr<Conn> conn = Conn::Open(SocketPath(), kReplyTimeoutS);
    std::string line;
    if (conn == nullptr || !conn->Send("shutdown\n") ||
        !conn->ReadLine(&line) || line != "ok") {
      ops.Fail("shutdown: missing ok");
      continue;
    }
    conn.reset();
    ops.Attempt();
    if (!server->Wait(kExitTimeoutS).clean) {
      ops.Fail("server exit: non-zero status or timeout");
    }
  }
  return times;
}

}  // namespace perfbench
