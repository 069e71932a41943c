// Minimal dependency-free HTTP/1.1 exporter for the telemetry surface.
//
// One listener thread on a loopback TCP port, GET-only, one request per
// connection (every response carries Connection: close). Built for
// exactly three endpoints — /metrics (Prometheus text exposition),
// /healthz, /readyz — wired up as caller-supplied handlers, so
// l1hh_serve and l1hh_replica mount the same exporter with different
// readiness semantics.
//
// Hardened the way anything listening on a port must be: a bounded read
// budget (oversized headers are a 400, never an allocation), a receive
// timeout (a half-sent request occupies the thread for at most
// read_timeout_ms), and strict request-line parsing (garbage is a 400,
// a non-GET method a 405, an unknown path a 404). Handlers run on the
// exporter thread; everything they touch (the registry, the engine's
// query API) is already thread-safe.
#ifndef L1HH_OBS_HTTP_EXPORTER_H_
#define L1HH_OBS_HTTP_EXPORTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "util/status.h"

namespace l1hh {
namespace obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

struct HttpExporterOptions {
  uint16_t port = 0;  // 0 = ephemeral; the bound port is port() after Create
  size_t max_request_bytes = 8192;  // request head budget; beyond it -> 400
  int read_timeout_ms = 2000;      // torn-request eviction
};

class HttpExporter {
 public:
  using Handler = std::function<HttpResponse()>;

  // Binds, listens, and starts the serving thread. `handlers` maps exact
  // paths ("/metrics") to response producers; query strings are stripped
  // before lookup. Returns nullptr (with `status`) if the bind fails.
  static std::unique_ptr<HttpExporter> Create(
      const HttpExporterOptions& options,
      std::map<std::string, Handler> handlers, Status* status = nullptr);

  ~HttpExporter();
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  // The actually-bound port (resolves port 0).
  uint16_t port() const { return port_; }

  // Stops accepting, joins the thread. Idempotent; the destructor calls it.
  void Stop();

 private:
  HttpExporter(const HttpExporterOptions& options,
               std::map<std::string, Handler> handlers, int listen_fd,
               uint16_t port);

  void ServeLoop();
  void HandleConnection(int fd);

  const HttpExporterOptions options_;
  const std::map<std::string, Handler> handlers_;
  int listen_fd_;
  uint16_t port_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace l1hh

#endif  // L1HH_OBS_HTTP_EXPORTER_H_
