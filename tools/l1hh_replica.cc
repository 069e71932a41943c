// l1hh_replica — warm standby for an l1hh_serve primary.
//
// Connects to a primary's Unix socket, performs an initial full sync
// ("replicate"), then tails incremental rounds ("sync" every
// --interval-ms): full snapshot containers for plain or heavily-rotated
// shards, delta containers carrying only the changed window tail for
// everything else (wire: src/serve/wire.h).  The replica IS a
// ShardedEngine fed by frames: the first round builds it
// (ShardedEngine::FromFrames) and every later round commits whole through
// ShardedEngine::ApplyFrames, so a query never sees shards of two rounds,
// and a torn, refused or cut-off round leaves the last committed one.
//
// The replica serves the shared query verbs (src/serve/server.h) on its
// OWN socket from that engine — and keeps serving after the primary dies
// (the failover story: answers reflect the last completed sync, as
// tests/replication_test.cc and the CI smoke pin).  Its stats line:
//
//   stats               "stats items=<primary items at last sync>
//                       shards=<K> syncs=<completed syncs>
//                       primary=<up|lost> algo=<name> lag_items=<n>"
//                       (lag_items = primary items at the last rsync
//                       minus items applied here, clamped at 0)
//
//   l1hh_replica --primary=/tmp/l1hh.sock --socket=/tmp/l1hh-replica.sock
//       [--interval-ms=200] [--phi=0.05] [--http=PORT] [--ready-lag=65536]
//       [--slow-query-us=10000]
//
// Observability: a primary running --audit-rate ships its exact shadow
// with every round; the replica installs it into an AccuracyAuditor and
// audits its engine at every scrape, exactly as the primary audits its
// own, so a standby serving stale or corrupt answers is an alert, not a
// surprise at failover.  --http=PORT mounts /metrics, /healthz, and
// /readyz; readiness means at least one completed sync AND lag_items <=
// --ready-lag, or the primary is lost (failover mode).
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "engine/sharded_engine.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/status.h"

namespace {

using namespace l1hh;

struct ReplicaArgs {
  std::string primary_path;
  std::string socket_path;
  uint64_t interval_ms = 200;
  double default_phi = 0.05;
  bool http_enabled = false;  // --http given (port 0 = ephemeral)
  uint64_t http_port = 0;
  uint64_t ready_lag = 65536;  // /readyz red above this lag_items
  uint64_t slow_query_us = 10000;
};

const char* const kKnownFlags[] = {
    "--primary", "--socket",    "--interval-ms",   "--phi",
    "--http",    "--ready-lag", "--slow-query-us",
};

bool Parse(int argc, char** argv, ReplicaArgs* out) {
  std::string key, value;
  for (int i = 1; i < argc; ++i) {
    if (!serve::SplitFlag(argc, argv, &i, &key, &value)) return false;
    bool ok = true;
    if (key == "--primary") {
      out->primary_path = value;
    } else if (key == "--socket") {
      out->socket_path = value;
    } else if (key == "--interval-ms") {
      ok = serve::ParseU64(value.c_str(), &out->interval_ms);
    } else if (key == "--phi") {
      if (!serve::ParsePhi(value, &out->default_phi)) {
        std::fprintf(stderr, "--phi: %s\n", serve::kPhiRangeError);
        return false;
      }
    } else if (key == "--http") {
      ok = out->http_enabled = serve::ParseU64(value.c_str(), &out->http_port);
    } else if (key == "--ready-lag") {
      ok = serve::ParseU64(value.c_str(), &out->ready_lag);
    } else if (key == "--slow-query-us") {
      ok = serve::ParseU64(value.c_str(), &out->slow_query_us);
    } else {
      return serve::PrintUnknownFlag(key, kKnownFlags);
    }
    if (!ok) return serve::MalformedFlag(key, value);
  }
  if (out->primary_path.empty() || out->socket_path.empty()) {
    std::fprintf(stderr, "--primary=<sock> and --socket=<sock> are required\n");
    return false;
  }
  if (out->http_port > 65535) {
    std::fprintf(stderr, "--http port must be <= 65535\n");
    return false;
  }
  return true;
}

// ---- Replicated state --------------------------------------------------

struct ReplicaState {
  // Guards every field below except the `live` pointer and primary_up.
  std::mutex mutex;
  // The replica IS an engine: built from the first round, advanced by
  // ApplyFrames one whole round at a time.  `live` publishes it to the
  // query connections (null until the first round commits).
  std::unique_ptr<ShardedEngine> engine;
  std::atomic<ShardedEngine*> live{nullptr};
  std::string algorithm;  // from the primary's rconf
  size_t num_shards = 0;
  uint64_t items = 0;  // primary's applied count at the last completed sync
  uint64_t syncs = 0;  // completed replicate/sync rounds
  std::atomic<bool> primary_up{false};
  // The exact shadow an auditing primary ships with each round, installed
  // into an auditor of its own so scrapes audit the engine like serve's.
  std::unique_ptr<obs::AccuracyAuditor> auditor;
  uint64_t audit_items = 0;
  size_t audit_keys = 0;
};

// The warm-standby health signal: primary items at the last completed
// rsync minus items applied here, clamped at 0.  Publishes it as the
// l1hh_replica_lag_items gauge.  Caller holds state.mutex.
uint64_t LagItemsLocked(const ReplicaState& state) {
  const uint64_t applied =
      state.engine == nullptr ? 0 : state.engine->ItemsProcessed();
  const uint64_t lag = state.items > applied ? state.items - applied : 0;
  obs::GetGauge("l1hh_replica_lag_items")->Set(static_cast<int64_t>(lag));
  return lag;
}

const char* PrimaryWord(const ReplicaState& state) {
  return state.primary_up.load(std::memory_order_relaxed) ? "up" : "lost";
}

// Ready to take over: synced at least once AND within --ready-lag of the
// primary, or the primary is lost (the last synced view is then the best
// answer that exists).  Publishes the 0/1 gauge behind /readyz so a plain
// scrape can alert on readiness flapping.  Caller holds state.mutex.
bool ReadyLocked(const ReplicaState& state, const ReplicaArgs& args) {
  const bool ready =
      state.syncs > 0 &&
      (LagItemsLocked(state) <= args.ready_lag ||
       !state.primary_up.load(std::memory_order_relaxed));
  obs::GetGauge("l1hh_replica_ready")->Set(ready ? 1 : 0);
  return ready;
}

// Commits one complete round: its frames into the engine (built from the
// first round), then the shipped shadow and the clocks.  A refused round
// leaves all of them at the previous commit.
Status CommitRound(ReplicaState& state, const serve::ReplicationRound& round) {
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.engine == nullptr) {
    // Queries and the never-used rings need no more than this.
    ShardedEngineOptions exec;
    exec.num_threads = 1;
    exec.queue_capacity = 64;
    Status status;
    state.engine = ShardedEngine::FromFrames(round.frames, state.num_shards,
                                             exec, &status);
    if (state.engine == nullptr) return status;
    state.live.store(state.engine.get(), std::memory_order_release);
  } else {
    const Status applied = state.engine->ApplyFrames(round.frames);
    if (!applied.ok()) return applied;
  }
  if (round.audit.has_value()) {
    const serve::AuditShadow& shadow = *round.audit;
    const obs::AuditorOptions* current =
        state.auditor == nullptr ? nullptr : &state.auditor->options();
    if (current == nullptr || current->sample_rate != shadow.sample_rate ||
        current->epsilon != shadow.epsilon || current->phi != shadow.phi) {
      obs::AuditorOptions options;
      options.sample_rate = shadow.sample_rate;
      options.epsilon = shadow.epsilon;
      options.phi = shadow.phi;
      options.max_shadow_keys = serve::kMaxAuditKeys;
      options.audit_top_k = 0;  // every shipped key is audited
      state.auditor = std::make_unique<obs::AccuracyAuditor>(options);
    }
    state.auditor->InstallShadow(shadow.keys, shadow.items);
    state.audit_items = shadow.items;
    state.audit_keys = shadow.keys.size();
  }
  state.items = round.items;
  ++state.syncs;
  obs::GetCounter("l1hh_replica_sync_rounds_total")->Inc();
  obs::Trace(obs::Severity::kDebug, "replica.sync",
             static_cast<int64_t>(state.syncs),
             static_cast<int64_t>(state.items));
  return Status::Ok();
}

// ---- Replication client (primary-facing) -------------------------------

// Reads one round whole, then commits it; false when the primary is gone
// or sent something the replica refuses.
bool SyncRound(ReplicaState& state, serve::LineReader& reader,
               size_t num_shards) {
  serve::ReplicationRound round;
  Status status = serve::ReadRound(reader, num_shards, &round);
  if (status.ok()) {
    for (const ShardFrame& frame : round.frames) {
      obs::GetCounter("l1hh_replica_frames_total",
                      frame.delta ? "kind=\"delta\"" : "kind=\"full\"")
          ->Inc();
    }
    status = CommitRound(state, round);
  }
  // A stream that ends mid-round is the primary going away, not news.
  if (!status.ok() && !status.IsIOError()) {
    std::fprintf(stderr, "replica: refused round: %s\n",
                 status.ToString().c_str());
  }
  return status.ok();
}

// Connects, full-syncs, then tails incremental syncs until the primary
// dies or the replica is told to stop.  Leaves the last completed sync
// in `state` either way — failover keeps serving it.
void ReplicationLoop(ReplicaState& state, const serve::Server& server,
                     const ReplicaArgs& args) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("replica: socket");
    return;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, args.primary_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // The primary may still be binding its socket (a replica is typically
  // started right beside it); retry briefly before declaring it gone.
  int rc = -1;
  for (int attempt = 0; attempt < 200; ++attempt) {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc == 0 || server.stopping()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (rc != 0) {
    std::fprintf(stderr, "replica: cannot connect to primary '%s': %s\n",
                 args.primary_path.c_str(), std::strerror(errno));
    ::close(fd);
    return;
  }

  serve::LineReader reader(fd);
  std::string line;
  size_t shards = 0;
  std::string algo;
  if (!serve::WriteLine(fd, "replicate") || !reader.ReadLine(&line)) {
    std::fprintf(stderr, "replica: bad replicate handshake ('%s')\n",
                 line.c_str());
    ::close(fd);
    return;
  }
  const Status rconf = serve::ParseRconf(line, &shards, &algo);
  if (!rconf.ok()) {
    std::fprintf(stderr, "replica: %s\n", rconf.ToString().c_str());
    ::close(fd);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.num_shards = shards;
    state.algorithm = algo;
  }
  if (!SyncRound(state, reader, shards)) {
    ::close(fd);
    return;
  }
  state.primary_up.store(true, std::memory_order_relaxed);
  obs::GetGauge("l1hh_replica_primary_up")->Set(1);
  obs::GetCounter("l1hh_replica_primary_transitions_total")->Inc();
  obs::Trace(obs::Severity::kInfo, "replica.primary_up",
             static_cast<int64_t>(shards));
  std::printf("synced %s shards=%zu\n", algo.c_str(), shards);
  std::fflush(stdout);

  while (!server.stopping()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
    if (server.stopping()) break;
    if (!serve::WriteLine(fd, "sync") || !SyncRound(state, reader, shards)) {
      break;  // primary gone: stop syncing, keep serving (failover)
    }
  }
  state.primary_up.store(false, std::memory_order_relaxed);
  obs::GetGauge("l1hh_replica_primary_up")->Set(0);
  obs::GetCounter("l1hh_replica_primary_transitions_total")->Inc();
  obs::Trace(obs::Severity::kWarn, "replica.primary_lost");
  ::close(fd);
}

int RunReplica(const ReplicaArgs& args) {
  ReplicaState state;
  serve::Server::Hooks hooks;
  hooks.engine = [&state] {
    return state.live.load(std::memory_order_acquire);
  };
  hooks.before_scrape = [&state, &args] {
    // Scrape-time work: publish point-in-time gauges, and audit the
    // engine when an auditing primary shipped truth.  The shadow is exact
    // at audit_items; any lag behind it is genuine staleness and is
    // exactly what this audit should surface.
    std::lock_guard<std::mutex> lock(state.mutex);
    ReadyLocked(state, args);
    if (state.auditor != nullptr && state.audit_keys != 0 &&
        state.engine != nullptr) {
      serve::AuditEngine(*state.auditor, *state.engine, state.audit_items);
    }
  };
  hooks.readyz = [&state, &args] {
    std::lock_guard<std::mutex> lock(state.mutex);
    const bool ready = ReadyLocked(state, args);
    std::string body = ready ? "ok" : "not ready";
    body += " syncs=" + std::to_string(state.syncs) +
            " lag_items=" + std::to_string(LagItemsLocked(state)) +
            " primary=" + PrimaryWord(state) + "\n";
    return obs::HttpResponse{ready ? 200 : 503, "text/plain; charset=utf-8",
                             body};
  };
  hooks.stats = [&state] {
    std::lock_guard<std::mutex> lock(state.mutex);
    return "stats items=" + std::to_string(state.items) +
           " shards=" + std::to_string(state.num_shards) +
           " syncs=" + std::to_string(state.syncs) +
           " primary=" + PrimaryWord(state) + " algo=" + state.algorithm +
           " lag_items=" + std::to_string(LagItemsLocked(state));
  };
  auto server = serve::Server::Start(
      {args.socket_path, args.default_phi, args.http_enabled,
       static_cast<uint16_t>(args.http_port)},
      std::move(hooks));
  if (server == nullptr) return 2;
  obs::EmitBuildInfo("l1hh_replica", "replica");
  obs::SetSlowQueryThresholdNs(args.slow_query_us * 1000);

  server->Announce();
  std::thread replication(
      [&state, &server, &args] { ReplicationLoop(state, *server, args); });
  server->Run();
  replication.join();
  server.reset();
  std::printf("replicated %llu items over %llu syncs\n",
              static_cast<unsigned long long>(state.items),
              static_cast<unsigned long long>(state.syncs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ReplicaArgs args;
  if (!Parse(argc, argv, &args)) return 2;
  return RunReplica(args);
}
