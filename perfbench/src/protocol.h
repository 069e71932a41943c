// Client side of l1hh_serve's AF_UNIX line protocol, and the forked
// server process the benchmark drives through it.
#ifndef PERFBENCH_PROTOCOL_H_
#define PERFBENCH_PROTOCOL_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Seconds on the steady clock.
double NowS();

// Supplies reply lines one at a time (newline stripped); false when the
// reply is short (EOF, timeout, socket error).  Conn is the live source;
// the self-test feeds forged lines through the same interface.
class LineSource {
 public:
  virtual ~LineSource() = default;
  virtual bool ReadLine(std::string* line) = 0;
};

// One client connection.  Every read gives up after `timeout_s`, so a
// server that stops answering shows as a missing reply, never a hang.
class Conn : public LineSource {
 public:
  static std::unique_ptr<Conn> Open(const std::string& socket_path,
                                    double timeout_s);
  ~Conn() override;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Send(std::string_view bytes);
  bool ReadLine(std::string* line) override;
  // Reads and discards exactly n payload bytes (replication frames).
  bool Skip(size_t n);

 private:
  explicit Conn(int fd) : fd_(fd) {}
  bool Fill();

  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
};

// How a server process ended.
struct ServerExit {
  bool clean = false;  // exited on its own with status 0
  double peak_rss_mb = 0;
  double cpu_s = 0;  // user + system
};

// A forked l1hh_serve.  Start returns once the server printed its
// `listening` line; the destructor kills and reaps a server that is
// still running, so no process outlives its owner.
class ServerProcess {
 public:
  // `setup_s` gets spawn -> `listening` line.  Returns nullptr (with the
  // reason in *error) when the exec fails or no `listening` line arrives
  // within `timeout_s`.
  static std::unique_ptr<ServerProcess> Start(
      const std::string& binary, const std::vector<std::string>& args,
      double timeout_s, double* setup_s, std::string* error);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Waits up to `timeout_s` for the process to exit (after a `shutdown`
  // request), then kills it.  Call at most once.
  ServerExit Wait(double timeout_s);

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_;
  int stdout_fd_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROTOCOL_H_
