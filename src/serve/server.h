// The serving core shared by l1hh_serve and l1hh_replica: a Unix-socket
// listener with one thread per connection and an orderly teardown, the
// optional HTTP telemetry mount (/metrics, /healthz, /readyz), and the
// query verbs both binaries answer from a ShardedEngine:
//
//   heavy [phi]         "hh <count>" then one "<item> <estimate>" line per
//                       hitter
//   estimate <item>     "est <item> <value>"
//   stats               one "stats ..." line, which each binary builds
//                       (Hooks::stats)
//   metrics             "metrics <N>" then N lines of Prometheus-style
//                       text exposition from the telemetry registry
//   trace [N [sev]]     "trace <K>" then the K most recent trace events
//                       (N caps the count, 0 = all; sev in
//                       {debug,info,warn} drops lower severities)
//   slow                "slow <N>" then the recent slow-query records
//   quit                close this connection
//   shutdown            "ok", then stop the process
//
// Anything else gets "err unknown request '<line>'".  l1hh_serve keeps its
// own verbs (ingest, flush, replicate/sync) and tries them before
// QueryVerb; l1hh_replica has none and runs the plain query loop.
#ifndef L1HH_SERVE_SERVER_H_
#define L1HH_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "obs/audit.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "serve/wire.h"

namespace l1hh {
namespace serve {

/// One audit pass of `engine` against `auditor`'s shadow, scored at
/// stream position `total_items`.
obs::AuditReport AuditEngine(obs::AccuracyAuditor& auditor,
                             ShardedEngine& engine, uint64_t total_items);

class Server {
 public:
  struct Options {
    std::string socket_path;
    double default_phi = 0.05;  // `heavy` without an argument
    bool http_enabled = false;
    uint16_t http_port = 0;  // 0 = ephemeral
  };

  struct Hooks {
    /// The engine the query verbs answer from; nullptr while there is
    /// none yet (a replica before its first round), when heavy/estimate
    /// reply "err replica has no synced state yet".
    std::function<ShardedEngine*()> engine;
    /// Point-in-time publishing before every `metrics` / GET /metrics
    /// exposition (gauges, an audit pass).
    std::function<void()> before_scrape;
    /// GET /readyz; unset means 200 "ok" until the server stops.
    std::function<obs::HttpResponse()> readyz;
    /// The `stats` reply line.
    std::function<std::string()> stats;
    /// Counts every query verb when set.
    obs::Counter* queries = nullptr;
  };

  /// Binds and listens on the socket, installs the SIGINT/SIGTERM
  /// shutdown handlers, and mounts HTTP when asked.  Failures go to
  /// stderr and return nullptr.
  static std::unique_ptr<Server> Start(const Options& options, Hooks hooks);

  /// Closes and unlinks the socket.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Prints the readiness lines clients wait for: "listening <path>",
  /// then "http <port>" when HTTP is mounted.
  void Announce() const;

  /// Accepts until a `shutdown` verb or a signal, running `handler(fd)` on
  /// a thread per connection (unset: answer QueryVerb until it says
  /// close); then kicks every connection off its read, joins the
  /// handlers, closes their sockets and stops HTTP.
  void Run(const std::function<void(int fd)>& handler = {});

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  /// The next non-empty request on a connection; false when the client
  /// is gone, or after replying "err line too long" to an over-long line.
  bool NextRequest(LineReader& reader, int fd, std::string* line) const;

  /// Answers one of the shared query verbs, or "err unknown request".
  /// False when the connection should close (quit, shutdown).
  bool QueryVerb(const std::string& line, int fd);

 private:
  Server(const Options& options, Hooks hooks, int listen_fd);

  void Stop();
  std::vector<std::string> Scrape() const;

  static void OnSignal(int);
  static Server* signal_target_;

  const Options options_;
  const Hooks hooks_;
  const int listen_fd_;
  std::atomic<bool> stop_{false};
  std::unique_ptr<obs::HttpExporter> exporter_;
  std::mutex conn_mutex_;
  std::vector<int> conn_fds_;
};

}  // namespace serve
}  // namespace l1hh

#endif  // L1HH_SERVE_SERVER_H_
