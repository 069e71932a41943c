// l1hh_serve — long-running serving front end over the sharded engine.
//
// Listens on a Unix-domain socket, ingests item streams from CONCURRENT
// connections (each connection lazily binds to its own engine producer
// slot — the K x P ring grid keeps every ingest path lock-free), and
// answers live queries from the shards' partitions with snapshot
// isolation: a query reflects everything flushed at its start, never a
// torn mid-batch state.
//
//   l1hh_serve --socket=/tmp/l1hh.sock --algo=space_saving
//       [--epsilon=0.01 --phi=0.05 --delta=0.05 --n=16777216 --m=1048576]
//       [--shards=4 --threads=0 --producers=8 --seed=1]
//       [--window=W --buckets=B]
//       [--http=PORT] [--audit-rate=R --audit-interval-ms=1000]
//       [--slow-query-us=10000]
//
// Observability (docs/OBSERVABILITY.md):
//   * Every query verb runs under a QuerySpan with park-wait /
//     merge-rebuild / report / reply-write phases; queries slower than
//     --slow-query-us land in the slow-query ring (`slow` verb below)
//     and bump l1hh_slow_queries_total.
//   * --audit-rate=R hash-samples 1/R of the key space into an exact
//     shadow counter and audits the engine's answers against it every
//     --audit-interval-ms (and at every /metrics scrape), publishing
//     l1hh_audit_observed_eps_ratio et al.  Refused with --window or a
//     windowed --algo (the shadow counts the whole stream; a window
//     forgets).
//   * --http=PORT (0 = ephemeral; the bound port is printed as
//     "http <port>" after the readiness line) serves GET /metrics
//     (Prometheus text exposition), /healthz, and /readyz on loopback.
//
// Wire protocol, one request per line (replies are lines too).  The
// shared serving core (src/serve/server.h) answers heavy / estimate /
// stats / metrics / trace / slow / quit / shutdown; this binary builds
// the stats line and adds the rest:
//
//   <digits>            ingest one item id (no reply; staged per connection)
//   bin <N>             ingest a binary batch: N little-endian u64 ids
//                       follow the newline (no reply)
//   flush               wait until everything this server has accepted
//                       is applied; replies "ok <items_applied>"
//   stats               replies "stats items=.. shards=.. threads=..
//                       producers=.. algo=.. slots=<active>/<total>
//                       slot<p>=<enqueued>..." (one slot<p> field per
//                       producer slot, slot 0 being the engine's own)
//   replicate           start (or restart) replication on this
//                       connection: "rconf shards=<K> algo=<A>", one full
//                       frame per shard, then "rsync <items>"
//   sync                incremental replication step: one frame per
//                       shard that changed since this connection's last
//                       replicate/sync (delta frames for windowed shards
//                       whose tail still fits the ring, full frames
//                       otherwise; clean shards send nothing), then
//                       "rsync <items>"
//
// The replication wire is src/serve/wire.h's; frames are CRC-sealed
// snapshot or delta containers, so the follower (tools/l1hh_replica.cc)
// validates each before committing its round.  Replication baselines are
// per-connection: a reconnecting follower just sends "replicate" again
// and gets a fresh full sync.
//
// A connection that only queries never claims a producer slot; when all
// --producers slots are taken, ingest lines on additional connections
// get "err" but queries still work.  The final item count is printed on
// stdout at exit.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "summary/summary.h"
#include "util/status.h"

namespace {

using namespace l1hh;

struct ServeArgs {
  std::string socket_path;
  std::string algorithm = "space_saving";
  double epsilon = 0.01;
  double phi = 0.05;
  double delta = 0.05;
  uint64_t n = uint64_t{1} << 24;
  uint64_t m = uint64_t{1} << 20;
  uint64_t seed = 1;
  uint64_t shards = 4;
  uint64_t threads = 0;
  // External producer slots (max concurrent ingesting connections).
  uint64_t producers = 8;
  uint64_t window = 0;
  uint64_t buckets = 0;
  // Observability knobs.
  bool http_enabled = false;  // --http given (port 0 = ephemeral)
  uint64_t http_port = 0;
  uint64_t audit_rate = 0;  // 0 = auditor off
  uint64_t audit_interval_ms = 1000;
  uint64_t slow_query_us = 10000;  // 0 = slow-query capture off
};

const char* const kKnownFlags[] = {
    "--socket", "--algo",    "--algorithm", "--epsilon", "--phi",
    "--delta",  "--n",       "--m",         "--seed",    "--shards",
    "--threads", "--producers", "--window", "--buckets",
    "--http", "--audit-rate", "--audit-interval-ms", "--slow-query-us",
};

bool Parse(int argc, char** argv, ServeArgs* out) {
  std::string key, value;
  for (int i = 1; i < argc; ++i) {
    if (!serve::SplitFlag(argc, argv, &i, &key, &value)) return false;
    bool ok = true;
    if (key == "--socket") {
      out->socket_path = value;
    } else if (key == "--algo" || key == "--algorithm") {
      out->algorithm = value;
    } else if (key == "--epsilon") {
      ok = serve::ParseDouble(value, &out->epsilon);
    } else if (key == "--phi") {
      if (!serve::ParsePhi(value, &out->phi)) {
        std::fprintf(stderr, "--phi: %s\n", serve::kPhiRangeError);
        return false;
      }
    } else if (key == "--delta") {
      ok = serve::ParseDouble(value, &out->delta);
    } else if (key == "--n") {
      ok = serve::ParseU64(value.c_str(), &out->n);
    } else if (key == "--m") {
      ok = serve::ParseU64(value.c_str(), &out->m);
    } else if (key == "--seed") {
      ok = serve::ParseU64(value.c_str(), &out->seed);
    } else if (key == "--shards") {
      ok = serve::ParseU64(value.c_str(), &out->shards);
    } else if (key == "--threads") {
      ok = serve::ParseU64(value.c_str(), &out->threads);
    } else if (key == "--producers") {
      ok = serve::ParseU64(value.c_str(), &out->producers);
    } else if (key == "--window") {
      ok = serve::ParseU64(value.c_str(), &out->window);
    } else if (key == "--buckets") {
      ok = serve::ParseU64(value.c_str(), &out->buckets);
    } else if (key == "--http") {
      ok = out->http_enabled = serve::ParseU64(value.c_str(), &out->http_port);
    } else if (key == "--audit-rate") {
      ok = serve::ParseU64(value.c_str(), &out->audit_rate);
    } else if (key == "--audit-interval-ms") {
      ok = serve::ParseU64(value.c_str(), &out->audit_interval_ms);
    } else if (key == "--slow-query-us") {
      ok = serve::ParseU64(value.c_str(), &out->slow_query_us);
    } else {
      return serve::PrintUnknownFlag(key, kKnownFlags);
    }
    if (!ok) return serve::MalformedFlag(key, value);
  }
  if (out->socket_path.empty()) {
    std::fprintf(stderr, "--socket=<path> is required\n");
    return false;
  }
  if (out->epsilon <= 0 || out->delta <= 0) {
    std::fprintf(stderr, "--epsilon and --delta must be > 0\n");
    return false;
  }
  if (out->shards == 0 || out->producers == 0) {
    std::fprintf(stderr, "--shards and --producers must be >= 1\n");
    return false;
  }
  if (out->http_port > 65535) {
    std::fprintf(stderr, "--http port must be <= 65535\n");
    return false;
  }
  if (out->audit_rate != 0 &&
      (out->window != 0 || IsWindowedSummaryName(out->algorithm))) {
    // The shadow counts the WHOLE stream; a windowed engine forgets, so
    // every comparison would flag phantom over-estimates.
    std::fprintf(stderr,
                 "--audit-rate cannot be combined with a windowed engine\n");
    return false;
  }
  if (out->window != 0 && !IsWindowedSummaryName(out->algorithm)) {
    out->algorithm = std::string(kWindowedPrefix) + out->algorithm;
  }
  return true;
}

// ---- Server -----------------------------------------------------------

struct ServeState {
  ShardedEngine* engine = nullptr;
  obs::AccuracyAuditor* auditor = nullptr;  // null = auditing off
};

// One audit pass against the live engine: flush so the shadow and the
// engine agree on the stream prefix, then compare.  Caller guarantees
// state.auditor != nullptr.
void RunAudit(const ServeState& state) {
  state.engine->Flush();
  serve::AuditEngine(*state.auditor, *state.engine,
                     state.engine->ItemsProcessed());
}

// A connection pushes its staged items as one column at this size, before
// any request that is not an item, and before any read that could block.
constexpr size_t kColumnItems = 8192;

// One thread per connection.  The producer slot is claimed lazily on the
// first ingest request, so query-only clients (dashboards) never consume
// one, and released when the connection closes.
void HandleConnection(serve::Server& server, const ServeState& state,
                      int fd) {
  static obs::Counter* const connections_ctr =
      obs::GetCounter("l1hh_serve_connections_total");
  static obs::Gauge* const active_conns =
      obs::GetGauge("l1hh_serve_active_connections");
  static obs::Counter* const ingest_ctr =
      obs::GetCounter("l1hh_serve_ingest_items_total");
  static obs::Counter* const ingest_err_ctr =
      obs::GetCounter("l1hh_serve_ingest_errors_total");
  static obs::Counter* const queries_ctr =
      obs::GetCounter("l1hh_serve_queries_total");
  connections_ctr->Inc();
  active_conns->Add(1);
  std::unique_ptr<ShardedEngine::Producer> producer;
  ShardedEngine& engine = *state.engine;
  // Text items and `bin` payloads alike reach the engine from here, the
  // connection's one ingest route.  Non-empty only with a producer.
  std::vector<uint64_t> column;
  column.reserve(kColumnItems);
  const auto push_column = [&] {
    if (column.empty()) return;
    producer->UpdateColumn(column.data(), column.size());
    if (state.auditor != nullptr) {
      state.auditor->ObserveColumn(column.data(), column.size());
    }
    ingest_ctr->Inc(column.size());
    column.clear();
  };
  // Pushed before the socket read can block, so every verb, on any
  // connection, sees all this client sent before it went idle.
  serve::LineReader reader(fd, push_column);
  std::string line;
  // Per-connection replication baselines: what the follower on the other
  // end of THIS socket holds per shard (empty until "replicate").
  std::vector<ShardBaseline> replica_baselines;
  auto ensure_producer = [&]() -> bool {
    if (producer != nullptr) return true;
    Status status;
    producer = engine.RegisterProducer(&status);
    if (producer == nullptr) {
      serve::WriteLine(fd, "err " + status.ToString());
      return false;
    }
    return true;
  };
  while (server.NextRequest(reader, fd, &line)) {
    const bool digits = line[0] >= '0' && line[0] <= '9';
    uint64_t item = 0;
    if (digits && serve::ParseU64(line.c_str(), &item)) {
      if (!ensure_producer()) {
        ingest_err_ctr->Inc();
        continue;
      }
      column.push_back(item);
      if (column.size() == kColumnItems) push_column();
      continue;
    }
    // Anything else may reply or read a payload: staged items go first.
    push_column();
    if (digits) {
      ingest_err_ctr->Inc();
      serve::WriteLine(fd, "err malformed item id '" + line + "'");
      continue;
    }
    if (line.rfind("bin ", 0) == 0) {
      uint64_t count = 0;
      if (!serve::ParseBinHeader(line, &count)) {
        ingest_err_ctr->Inc();
        serve::WriteLine(fd, "err malformed binary batch header '" + line +
                                 "'");
        break;  // the payload length is unknown; the stream is desynced
      }
      if (!serve::ReadBinPayload(reader, count, &column)) break;
      if (!ensure_producer()) {
        ingest_err_ctr->Inc();
        column.clear();
        continue;
      }
      push_column();
      continue;
    }
    if (line == "flush") {
      queries_ctr->Inc();
      engine.Flush();
      serve::WriteLine(fd, "ok " + std::to_string(engine.ItemsProcessed()));
      continue;
    }
    if (line == "replicate" || line == "sync") {
      // "sync" before any "replicate" degenerates to a cold full sync:
      // the connection has no baselines, so every shard ships full.
      const bool cold = line == "replicate" || replica_baselines.empty();
      // park_wait and capture come from the engine; reply_write is here.
      obs::QuerySpan span(line == "sync" ? "sync" : "replicate");
      serve::ReplicationRound round;
      const Status captured = engine.CaptureFrames(
          cold ? std::vector<ShardBaseline>{} : replica_baselines,
          ShardedEngine::kMaxDeltaChain, &round.frames, &round.items);
      if (!captured.ok()) {
        serve::WriteLine(fd, "err " + captured.ToString());
        continue;
      }
      if (state.auditor != nullptr) {
        // Ship exact shadow truth alongside the frames, so the follower
        // can audit ITS engine against the primary's sampled substream
        // without ever seeing the raw stream.  round.items is the applied
        // count the frames advance the follower to — the same m the
        // shadow's counts were taken at (CaptureFrames flushed).
        const obs::AuditorOptions& opts = state.auditor->options();
        round.audit = serve::AuditShadow{
            opts.sample_rate, opts.epsilon, opts.phi, round.items,
            state.auditor->TopShadow(opts.audit_top_k)};
      }
      {
        obs::ScopedPhase write_phase("reply_write");
        if (cold) {
          replica_baselines.assign(engine.num_shards(), ShardBaseline{});
          if (!serve::WriteLine(fd, serve::RconfLine(engine.num_shards(),
                                                     engine.algorithm()))) {
            break;
          }
        }
        if (!serve::WriteRound(fd, round)) break;
      }
      // The follower now holds these states; the next sync diffs
      // against them.
      for (const ShardFrame& frame : round.frames) {
        ShardBaseline& baseline = replica_baselines[frame.shard];
        baseline.chain = frame.delta ? baseline.chain + 1 : 0;
        baseline.valid = true;
        baseline.applied = frame.applied;
        baseline.rotations = frame.rotations;
      }
      continue;
    }
    if (!server.QueryVerb(line, fd)) break;
  }
  push_column();
  active_conns->Add(-1);
  // ~Producer releases the slot for the next connection.
}

int Serve(const ServeArgs& args) {
  ShardedEngineOptions options;
  options.algorithm = args.algorithm;
  options.summary.epsilon = args.epsilon;
  options.summary.phi = args.phi;
  options.summary.delta = args.delta;
  options.summary.universe_size = args.n;
  options.summary.stream_length = args.m;
  options.summary.seed = args.seed;
  options.summary.window_size = args.window;
  if (args.buckets != 0) options.summary.window_buckets = args.buckets;
  options.num_shards = static_cast<size_t>(args.shards);
  options.num_threads = static_cast<size_t>(args.threads);
  options.max_producers = static_cast<size_t>(args.producers) + 1;
  Status status;
  auto engine = ShardedEngine::Create(options, &status);
  if (engine == nullptr) {
    std::fprintf(stderr, "cannot create engine: %s\n",
                 status.ToString().c_str());
    return 2;
  }

  obs::EmitBuildInfo("l1hh_serve", args.algorithm);
  obs::SetSlowQueryThresholdNs(args.slow_query_us * 1000);

  std::unique_ptr<obs::AccuracyAuditor> auditor;
  if (args.audit_rate != 0) {
    obs::AuditorOptions audit_options;
    audit_options.sample_rate = args.audit_rate;
    audit_options.seed = args.seed;
    audit_options.epsilon = args.epsilon;
    audit_options.phi = args.phi;
    auditor = std::make_unique<obs::AccuracyAuditor>(audit_options);
  }
  const ServeState state{engine.get(), auditor.get()};

  // Point-in-time gauges are published at scrape time; counters and
  // histograms are already live.  An enabled auditor runs a pass too, so
  // a scrape always reads a fresh eps-ratio.  For the primary, alive ==
  // ready (it owns the truth), so /readyz keeps the default.
  serve::Server::Hooks hooks;
  hooks.engine = [&state] { return state.engine; };
  hooks.before_scrape = [&state] {
    state.engine->PublishMetrics();
    if (state.auditor != nullptr) RunAudit(state);
  };
  hooks.stats = [&engine] {
    // Per-slot enqueued counts + slot occupancy ride after the legacy
    // fields (existing clients key on the prefix).  Slot exhaustion is
    // visible here BEFORE ingesting connections start drawing "err".
    const EngineMetrics m = engine->Metrics();
    std::string reply =
        "stats items=" + std::to_string(engine->ItemsProcessed()) +
        " shards=" + std::to_string(engine->num_shards()) +
        " threads=" + std::to_string(engine->num_threads()) +
        " producers=" + std::to_string(m.active_producers) +
        " algo=" + engine->algorithm() +
        " slots=" + std::to_string(m.active_producers) + "/" +
        std::to_string(m.max_producers - 1);
    for (size_t p = 0; p < m.slot_enqueued.size(); ++p) {
      reply += " slot" + std::to_string(p) + "=" +
               std::to_string(m.slot_enqueued[p]) +
               (m.slot_active[p] != 0 ? "*" : "");
    }
    return reply;
  };
  hooks.queries = obs::GetCounter("l1hh_serve_queries_total");
  auto server = serve::Server::Start(
      {args.socket_path, args.phi, args.http_enabled,
       static_cast<uint16_t>(args.http_port)},
      std::move(hooks));
  if (server == nullptr) return 2;

  // Periodic audit thread: keeps the l1hh_audit_* gauges warm even when
  // nobody scrapes (operators watching `metrics` over the socket).
  std::thread audit_thread;
  std::mutex audit_mutex;
  std::condition_variable audit_cv;
  bool audit_stop = false;
  if (auditor != nullptr && args.audit_interval_ms != 0) {
    audit_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(audit_mutex);
      while (!audit_cv.wait_for(
          lock, std::chrono::milliseconds(args.audit_interval_ms),
          [&] { return audit_stop; })) {
        lock.unlock();
        RunAudit(state);
        lock.lock();
      }
    });
  }

  // The readiness line clients (and tests/serve_test.cc) wait for.
  server->Announce();
  server->Run([&server, &state](int fd) {
    HandleConnection(*server, state, fd);
  });
  // The audit thread references the engine; stop it before it goes away.
  if (audit_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(audit_mutex);
      audit_stop = true;
    }
    audit_cv.notify_all();
    audit_thread.join();
  }
  server.reset();
  engine->Flush();
  std::printf("served %llu items\n",
              static_cast<unsigned long long>(engine->ItemsProcessed()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  if (!Parse(argc, argv, &args)) return 2;
  return Serve(args);
}
