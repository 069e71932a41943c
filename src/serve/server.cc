#include "serve/server.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/span.h"
#include "obs/trace.h"

namespace l1hh {
namespace serve {

obs::AuditReport AuditEngine(obs::AccuracyAuditor& auditor,
                             ShardedEngine& engine, uint64_t total_items) {
  return auditor.Audit(
      [&engine](const std::vector<uint64_t>& keys) {
        return engine.EstimateBatch(keys);
      },
      [&engine](double phi) { return engine.HeavyHitters(phi); },
      total_items);
}

Server* Server::signal_target_ = nullptr;

void Server::OnSignal(int) {
  // Async-signal-safe shutdown: flag + shut the listener so the accept
  // loop wakes; Run does the orderly teardown.
  Server* server = signal_target_;
  if (server != nullptr) {
    server->stop_.store(true, std::memory_order_relaxed);
    ::shutdown(server->listen_fd_, SHUT_RDWR);
  }
}

Server::Server(const Options& options, Hooks hooks, int listen_fd)
    : options_(options), hooks_(std::move(hooks)), listen_fd_(listen_fd) {}

std::unique_ptr<Server> Server::Start(const Options& options, Hooks hooks) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("socket");
    return nullptr;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "--socket path too long (max %zu bytes)\n",
                 sizeof(addr.sun_path) - 1);
    ::close(listen_fd);
    return nullptr;
  }
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::perror("bind");
    ::close(listen_fd);
    return nullptr;
  }
  if (::listen(listen_fd, 64) != 0) {
    std::perror("listen");
    ::close(listen_fd);
    return nullptr;
  }
  std::unique_ptr<Server> server(
      new Server(options, std::move(hooks), listen_fd));
  signal_target_ = server.get();
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  if (options.http_enabled) {
    // /metrics publishes the point-in-time state first (before_scrape),
    // so every scrape is fresh; /healthz says the process is alive.
    Server* self = server.get();
    std::map<std::string, obs::HttpExporter::Handler> handlers;
    handlers["/metrics"] = [self] {
      std::string body;
      for (const std::string& metric_line : self->Scrape()) {
        body += metric_line;
        body += '\n';
      }
      return obs::HttpResponse{200, "text/plain; version=0.0.4", body};
    };
    handlers["/healthz"] = [] {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
    };
    handlers["/readyz"] = [self] {
      if (self->hooks_.readyz) return self->hooks_.readyz();
      const bool ready = !self->stopping();
      return obs::HttpResponse{ready ? 200 : 503,
                               "text/plain; charset=utf-8",
                               ready ? "ok\n" : "stopping\n"};
    };
    obs::HttpExporterOptions http_options;
    http_options.port = options.http_port;
    Status http_status;
    server->exporter_ = obs::HttpExporter::Create(
        http_options, std::move(handlers), &http_status);
    if (server->exporter_ == nullptr) {
      std::fprintf(stderr, "cannot start http exporter: %s\n",
                   http_status.ToString().c_str());
      return nullptr;
    }
  }
  return server;
}

Server::~Server() {
  if (signal_target_ == this) signal_target_ = nullptr;
  ::close(listen_fd_);
  ::unlink(options_.socket_path.c_str());
}

void Server::Announce() const {
  std::printf("listening %s\n", options_.socket_path.c_str());
  if (exporter_ != nullptr) {
    std::printf("http %u\n", static_cast<unsigned>(exporter_->port()));
  }
  std::fflush(stdout);
}

void Server::Run(const std::function<void(int fd)>& handler) {
  std::vector<std::thread> connections;
  while (!stopping()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut by a shutdown verb or a signal
    }
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_fds_.push_back(fd);
    }
    connections.emplace_back([this, &handler, fd] {
      if (handler) return handler(fd);
      LineReader reader(fd);
      std::string line;
      while (NextRequest(reader, fd, &line) && QueryVerb(line, fd)) {
      }
    });
  }
  Stop();
  // Orderly teardown: kick every live connection off its read, join the
  // handlers, then close.  HTTP handlers read the caller's state, so the
  // exporter stops here too, before that state goes away.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& thread : connections) thread.join();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::close(fd);
    conn_fds_.clear();
  }
  if (exporter_ != nullptr) exporter_->Stop();
}

void Server::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  ::shutdown(listen_fd_, SHUT_RDWR);
}

std::vector<std::string> Server::Scrape() const {
  if (hooks_.before_scrape) hooks_.before_scrape();
  return obs::Registry::Get().ExpositionLines();
}

bool Server::NextRequest(LineReader& reader, int fd,
                         std::string* line) const {
  while (reader.ReadLine(line)) {
    if (!line->empty()) return true;
  }
  if (reader.too_long()) WriteLine(fd, "err line too long");
  return false;
}

bool Server::QueryVerb(const std::string& line, int fd) {
  const auto framed = [fd](const char* head,
                           const std::vector<std::string>& lines) {
    std::string reply = head + std::to_string(lines.size());
    for (const std::string& entry : lines) reply += "\n" + entry;
    WriteLine(fd, reply);
  };
  const bool heavy = line == "heavy" || line.rfind("heavy ", 0) == 0;
  const bool estimate = line.rfind("estimate ", 0) == 0;
  const bool trace = line == "trace" || line.rfind("trace ", 0) == 0;
  const bool stats = line == "stats" && hooks_.stats;
  if (hooks_.queries != nullptr && (heavy || estimate || trace || stats ||
                                    line == "metrics" || line == "slow")) {
    hooks_.queries->Inc();
  }
  if (stats) {
    obs::QuerySpan span("stats");
    const std::string reply = hooks_.stats();
    obs::ScopedPhase write_phase("reply_write");
    WriteLine(fd, reply);
    return true;
  }
  if (heavy || estimate) {
    double phi = options_.default_phi;
    uint64_t item = 0;
    if (heavy && line.size() > 6 && !ParsePhi(line.substr(6), &phi)) {
      WriteLine(fd, std::string("err ") + kPhiRangeError);
      return true;
    }
    if (estimate && !ParseU64(line.c_str() + 9, &item)) {
      WriteLine(fd, "err malformed item id in '" + line + "'");
      return true;
    }
    ShardedEngine* engine = hooks_.engine();
    if (engine == nullptr) {
      WriteLine(fd, "err replica has no synced state yet");
      return true;
    }
    // The span owns the whole verb: the engine's park-wait /
    // merge-rebuild / report phases land on it, reply_write is ours.
    obs::QuerySpan span(heavy ? "heavy" : "estimate");
    std::string reply;
    char entry[64];
    if (heavy) {
      const std::vector<ItemEstimate> report = engine->HeavyHitters(phi);
      reply = "hh " + std::to_string(report.size());
      for (const ItemEstimate& hh : report) {
        std::snprintf(entry, sizeof(entry), "\n%llu %.17g",
                      static_cast<unsigned long long>(hh.item), hh.estimate);
        reply += entry;
      }
    } else {
      std::snprintf(entry, sizeof(entry), "est %llu %.17g",
                    static_cast<unsigned long long>(item),
                    engine->Estimate(item));
      reply = entry;
    }
    obs::ScopedPhase write_phase("reply_write");
    WriteLine(fd, reply);
    return true;
  }
  if (line == "metrics") {
    framed("metrics ", Scrape());
    return true;
  }
  if (trace) {
    uint64_t max_events = 0;  // 0 = everything in the ring
    obs::Severity min_sev = obs::Severity::kDebug;
    bool args_ok = true;
    if (line.size() > 5) {
      std::istringstream in(line.substr(6));
      std::string count_text, sev_text, extra;
      in >> count_text >> sev_text >> extra;
      if (!count_text.empty() && !ParseU64(count_text.c_str(), &max_events)) {
        args_ok = false;
      }
      if (args_ok && !sev_text.empty() &&
          !obs::ParseSeverity(sev_text, &min_sev)) {
        args_ok = false;
      }
      if (!extra.empty()) args_ok = false;
    }
    if (!args_ok) {
      WriteLine(fd, "err usage: trace [N [debug|info|warn]]");
      return true;
    }
    framed("trace ", obs::TraceRing::Get().DrainText(
                         static_cast<size_t>(max_events), min_sev));
    return true;
  }
  if (line == "slow") {
    framed("slow ", obs::SlowQueryRing::Get().DrainText());
    return true;
  }
  if (line == "quit") return false;
  if (line == "shutdown") {
    WriteLine(fd, "ok");
    Stop();
    return false;
  }
  WriteLine(fd, "err unknown request '" + line + "'");
  return true;
}

}  // namespace serve
}  // namespace l1hh
