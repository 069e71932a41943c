#include "protocol.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<Conn> Conn::Open(const std::string& socket_path,
                                 double timeout_s) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) return nullptr;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return std::unique_ptr<Conn>(new Conn(fd));
}

Conn::~Conn() { ::close(fd_); }

bool Conn::Send(std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::Fill() {
  if (pos_ != 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // EOF, error, or SO_RCVTIMEO expiry
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }
}

bool Conn::ReadLine(std::string* line) {
  size_t scanned = pos_;
  while (true) {
    const size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      return true;
    }
    scanned = buffer_.size() - pos_;  // offsets shift by pos_ in Fill
    if (!Fill()) return false;
  }
}

bool Conn::Skip(size_t n) {
  while (buffer_.size() - pos_ < n) {
    n -= buffer_.size() - pos_;
    pos_ = buffer_.size();
    if (!Fill()) return false;
  }
  pos_ += n;
  return true;
}

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    double timeout_s, double* setup_s, std::string* error) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  const double t0 = NowS();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, out[0]));
  // The readiness line is the first stdout line.
  std::string text;
  while (text.find('\n') == std::string::npos) {
    const double left = timeout_s - (NowS() - t0);
    pollfd pfd{out[0], POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      *error = "no listening line within timeout";
      return nullptr;
    }
    char chunk[256];
    const ssize_t n = ::read(out[0], chunk, sizeof(chunk));
    if (n <= 0) {
      *error = "server exited before its listening line";
      return nullptr;
    }
    text.append(chunk, static_cast<size_t>(n));
  }
  *setup_s = NowS() - t0;
  if (text.rfind("listening ", 0) != 0) {
    *error = "unexpected first line: " + text.substr(0, text.find('\n'));
    return nullptr;
  }
  return server;
}

ServerExit ServerProcess::Wait(double timeout_s) {
  ServerExit result;
  const double t0 = NowS();
  int status = 0;
  rusage usage{};
  pid_t done = 0;
  while ((done = ::wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
         NowS() - t0 < timeout_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::wait4(pid_, &status, 0, &usage);
  } else {
    result.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  pid_ = -1;
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.cpu_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
                 usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  return result;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ::close(stdout_fd_);
}

}  // namespace perfbench
