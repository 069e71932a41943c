#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace l1hh {
namespace obs {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

void WriteResponse(int fd, const HttpResponse& resp) {
  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     StatusText(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  head += resp.body;
  size_t written = 0;
  while (written < head.size()) {
    const ssize_t n = write(fd, head.data() + written, head.size() - written);
    if (n <= 0) return;  // peer gone; nothing to salvage
    written += static_cast<size_t>(n);
  }
  static Counter* const c200 =
      GetCounter("l1hh_http_requests_total", "code=\"200\"");
  static Counter* const c400 =
      GetCounter("l1hh_http_requests_total", "code=\"400\"");
  static Counter* const c404 =
      GetCounter("l1hh_http_requests_total", "code=\"404\"");
  static Counter* const c405 =
      GetCounter("l1hh_http_requests_total", "code=\"405\"");
  static Counter* const c503 =
      GetCounter("l1hh_http_requests_total", "code=\"503\"");
  switch (resp.status) {
    case 200:
      c200->Inc();
      break;
    case 400:
      c400->Inc();
      break;
    case 404:
      c404->Inc();
      break;
    case 405:
      c405->Inc();
      break;
    case 503:
      c503->Inc();
      break;
    default:
      break;
  }
}

}  // namespace

std::unique_ptr<HttpExporter> HttpExporter::Create(
    const HttpExporterOptions& options,
    std::map<std::string, Handler> handlers, Status* status) {
  Status local = Status::Ok();
  Status* out = status != nullptr ? status : &local;

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *out = Status::IOError("http: socket() failed: " +
                           std::string(std::strerror(errno)));
    return nullptr;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  // Loopback only: this is telemetry, not a serving port.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    *out = Status::IOError("http: bind to 127.0.0.1:" +
                           std::to_string(options.port) +
                           " failed: " + std::string(std::strerror(errno)));
    return nullptr;
  }
  if (listen(fd, 16) != 0) {
    close(fd);
    *out = Status::IOError("http: listen() failed: " +
                           std::string(std::strerror(errno)));
    return nullptr;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  uint16_t port = options.port;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port = ntohs(bound.sin_port);
  }
  *out = Status::Ok();
  return std::unique_ptr<HttpExporter>(
      new HttpExporter(options, std::move(handlers), fd, port));
}

HttpExporter::HttpExporter(const HttpExporterOptions& options,
                           std::map<std::string, Handler> handlers,
                           int listen_fd, uint16_t port)
    : options_(options),
      handlers_(std::move(handlers)),
      listen_fd_(listen_fd),
      port_(port) {
  thread_ = std::thread([this] { ServeLoop(); });
}

HttpExporter::~HttpExporter() { Stop(); }

void HttpExporter::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // shutdown() wakes the blocked accept(); the loop then sees the error
  // and exits, after which the fd is safe to close.
  shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;
}

void HttpExporter::ServeLoop() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or irrecoverably broken)
    }
    HandleConnection(fd);
    close(fd);
  }
}

void HttpExporter::HandleConnection(int fd) {
  timeval tv;
  tv.tv_sec = options_.read_timeout_ms / 1000;
  tv.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // Read until the end of the request head, a hard byte cap, a timeout,
  // or EOF. The body (there should be none on a GET) is ignored.
  std::string request;
  char buf[1024];
  bool complete = false;
  while (request.size() < options_.max_request_bytes) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // timeout, reset, or torn request: drop it
    request.append(buf, static_cast<size_t>(n));
    if (request.find("\r\n\r\n") != std::string::npos ||
        request.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }
  if (!complete) {
    if (request.size() >= options_.max_request_bytes) {
      WriteResponse(fd, {400, "text/plain; charset=utf-8",
                         "request too large\n"});
    }
    // else: torn/empty request — peer already gone, answer nothing
    return;
  }

  // Request line: METHOD SP TARGET SP HTTP/x.y
  const size_t line_end = request.find_first_of("\r\n");
  const std::string line = request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    WriteResponse(fd, {400, "text/plain; charset=utf-8", "bad request\n"});
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    WriteResponse(fd, {405, "text/plain; charset=utf-8",
                       "method not allowed\n"});
    return;
  }
  const size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  if (target.empty() || target[0] != '/') {
    WriteResponse(fd, {400, "text/plain; charset=utf-8", "bad request\n"});
    return;
  }
  const auto it = handlers_.find(target);
  if (it == handlers_.end()) {
    WriteResponse(fd, {404, "text/plain; charset=utf-8", "not found\n"});
    return;
  }
  WriteResponse(fd, it->second());
}

}  // namespace obs
}  // namespace l1hh
