// Integration test for the l1hh_serve front end (ctest label: engine):
// forks the real binary on a Unix socket, drives it with two concurrent
// writer connections (text lines AND binary batches) while a third
// connection interleaves live heavy/stats queries, then asserts the
// final report matches an offline run over the same stream.  The server
// runs the exact structure, so "matches" means bit-for-bit equal counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "stream/stream_generator.h"
#include "summary/exact_counter.h"

#ifndef L1HH_SERVE_BINARY
#error "build must define L1HH_SERVE_BINARY (see tests/CMakeLists.txt)"
#endif

namespace l1hh {
namespace {

// ---- tiny blocking client ---------------------------------------------

class Client {
 public:
  explicit Client(const std::string& socket_path) { Connect(socket_path); }

  // gtest fatal assertions cannot live in a constructor (they expand to
  // value returns), so the connecting lives in a void helper.
  void Connect(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // The server needs a moment to bind after fork; retry briefly.
    int rc = -1;
    for (int attempt = 0; attempt < 200; ++attempt) {
      rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      if (rc == 0) break;
      ::usleep(50 * 1000);
    }
    ASSERT_EQ(rc, 0) << "cannot connect to " << socket_path << ": "
                     << std::strerror(errno);
    // A broken server must fail the test, not hang ctest.
    timeval timeout{};
    timeout.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void SendRaw(const void* data, size_t n) {
    const char* bytes = static_cast<const char*>(data);
    size_t done = 0;
    while (done < n) {
      const ssize_t wrote = ::write(fd_, bytes + done, n - done);
      ASSERT_GT(wrote, 0) << std::strerror(errno);
      done += static_cast<size_t>(wrote);
    }
  }

  void SendLine(const std::string& line) {
    const std::string framed = line + "\n";
    SendRaw(framed.data(), framed.size());
  }

  std::string ReadLine() {
    while (true) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        ADD_FAILURE() << "server hung up mid-reply ("
                      << std::strerror(errno) << ")";
        return {};
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Consumes exactly n raw bytes (a binary frame body).
  void Skip(size_t n) {
    while (buffer_.size() < n) {
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got <= 0) {
        ADD_FAILURE() << "server hung up mid-frame (" << std::strerror(errno)
                      << ")";
        return;
      }
      buffer_.append(chunk, static_cast<size_t>(got));
    }
    buffer_.erase(0, n);
  }

  // Issues `heavy phi` and returns {item -> estimate}.
  std::map<uint64_t, double> Heavy(double phi) {
    char request[64];
    std::snprintf(request, sizeof(request), "heavy %.6f", phi);
    SendLine(request);
    const std::string head = ReadLine();
    std::map<uint64_t, double> report;
    unsigned long long count = 0;
    if (std::sscanf(head.c_str(), "hh %llu", &count) != 1) {
      ADD_FAILURE() << "bad heavy reply header '" << head << "'";
      return report;
    }
    for (unsigned long long i = 0; i < count; ++i) {
      const std::string entry = ReadLine();
      unsigned long long item = 0;
      double estimate = 0;
      if (std::sscanf(entry.c_str(), "%llu %lf", &item, &estimate) != 2) {
        ADD_FAILURE() << "bad heavy reply entry '" << entry << "'";
        return report;
      }
      report[item] = estimate;
    }
    return report;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Issues `metrics` and returns {exposition name -> value}, asserting every
// line is well-formed `name{labels} value`.
std::map<std::string, long long> Scrape(Client& client) {
  client.SendLine("metrics");
  const std::string head = client.ReadLine();
  std::map<std::string, long long> out;
  unsigned long long count = 0;
  if (std::sscanf(head.c_str(), "metrics %llu", &count) != 1) {
    ADD_FAILURE() << "bad metrics reply header '" << head << "'";
    return out;
  }
  for (unsigned long long i = 0; i < count; ++i) {
    const std::string line = client.ReadLine();
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "bad exposition line '" << line << "'";
      continue;
    }
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    // Metric names are [a-z0-9_:] with an optional {label="..."} block.
    const size_t brace = name.find('{');
    const std::string bare = name.substr(0, brace);
    EXPECT_FALSE(bare.empty()) << line;
    for (const char c : bare) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_' || c == ':')
          << "bad metric name char '" << c << "' in '" << line << "'";
    }
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(value.c_str(), &end, 10);
    EXPECT_TRUE(errno == 0 && end != nullptr && *end == '\0')
        << "bad exposition value in '" << line << "'";
    out[name] = v;
  }
  return out;
}

pid_t StartServer(const std::string& socket_path, uint64_t stream_length) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const std::string m_flag = "--m=" + std::to_string(stream_length);
  const std::string socket_flag = "--socket=" + socket_path;
  ::execl(L1HH_SERVE_BINARY, L1HH_SERVE_BINARY, socket_flag.c_str(),
          "--algo=exact", "--shards=2", "--producers=4", "--phi=0.05",
          m_flag.c_str(), static_cast<char*>(nullptr));
  std::perror("execl " L1HH_SERVE_BINARY);
  ::_exit(127);
}

TEST(ServeTest, ConcurrentWritersMatchOfflineRun) {
  PlantedSpec spec;
  spec.planted_fractions = {0.20, 0.12, 0.08};
  spec.universe_size = uint64_t{1} << 20;
  spec.stream_length = 40000;
  spec.order = StreamOrder::kShuffled;
  const PlantedStream planted = MakePlantedStream(spec, /*seed=*/11);
  const auto& items = planted.items;

  const std::string socket_path = testing::TempDir() + "/l1hh_serve.sock";
  const pid_t server = StartServer(socket_path, items.size());
  ASSERT_GT(server, 0);

  // Two concurrent writers, one half of the stream each: writer 0 sends
  // text lines, writer 1 sends binary batches — both wire formats race.
  const size_t half = items.size() / 2;
  std::thread writer_text([&socket_path, &items, half] {
    Client client(socket_path);
    std::string block;
    for (size_t i = 0; i < half; ++i) {
      block += std::to_string(items[i]);
      block += '\n';
      if (block.size() >= 32768 || i + 1 == half) {
        client.SendRaw(block.data(), block.size());
        block.clear();
      }
    }
    client.SendLine("flush");
    EXPECT_EQ(client.ReadLine().rfind("ok ", 0), 0u);
    client.SendLine("quit");
  });
  std::thread writer_binary([&socket_path, &items, half] {
    Client client(socket_path);
    size_t i = half;
    while (i < items.size()) {
      const size_t chunk = std::min<size_t>(4096, items.size() - i);
      client.SendLine("bin " + std::to_string(chunk));
      // The wire format is little-endian u64 == host order on the CI
      // targets; serialize explicitly anyway.
      std::vector<unsigned char> payload(chunk * 8);
      for (size_t j = 0; j < chunk; ++j) {
        uint64_t v = items[i + j];
        for (int b = 0; b < 8; ++b) {
          payload[j * 8 + static_cast<size_t>(b)] =
              static_cast<unsigned char>(v & 0xff);
          v >>= 8;
        }
      }
      client.SendRaw(payload.data(), payload.size());
      i += chunk;
    }
    client.SendLine("flush");
    EXPECT_EQ(client.ReadLine().rfind("ok ", 0), 0u);
    client.SendLine("quit");
  });

  // A third, query-only connection interleaves live reads with the
  // writers.  It must never claim a producer slot, and every report it
  // sees must be a consistent snapshot (estimates never exceed the
  // planted item's final exact count).
  ExactCounter truth;
  for (const uint64_t x : items) truth.Insert(x);
  {
    Client reader(socket_path);
    for (int round = 0; round < 5; ++round) {
      const auto live = reader.Heavy(0.05);
      for (const auto& [item, estimate] : live) {
        EXPECT_LE(estimate,
                  static_cast<double>(truth.Count(item)) + 0.5)
            << "live estimate overshoots the exact final count";
      }
      reader.SendLine("stats");
      const std::string stats = reader.ReadLine();
      EXPECT_EQ(stats.rfind("stats items=", 0), 0u) << stats;
      EXPECT_NE(stats.find("algo=exact"), std::string::npos) << stats;
    }
    reader.SendLine("quit");
  }

  writer_text.join();
  writer_binary.join();

  // Final report vs the offline run: the server ran `exact` over the
  // same multiset, so the heavy-hitter sets and counts must be EQUAL.
  {
    Client reader(socket_path);
    reader.SendLine("flush");
    const std::string flushed = reader.ReadLine();
    EXPECT_EQ(flushed, "ok " + std::to_string(items.size()));

    const auto report = reader.Heavy(0.05);
    const auto expected = truth.HeavyHitters(
        static_cast<uint64_t>(0.05 * static_cast<double>(items.size())) + 1);
    ASSERT_EQ(report.size(), expected.size());
    for (const auto& hh : expected) {
      const auto it = report.find(hh.item);
      ASSERT_NE(it, report.end()) << "missing item " << hh.item;
      EXPECT_EQ(it->second, static_cast<double>(hh.count));
    }

    // Unknown requests answer err without poisoning the connection.
    reader.SendLine("bogus request");
    EXPECT_EQ(reader.ReadLine().rfind("err ", 0), 0u);

    reader.SendLine("shutdown");
    EXPECT_EQ(reader.ReadLine(), "ok");
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(server, &wstatus, 0), server);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// Telemetry surface on the wire: the `metrics` verb returns well-formed
// exposition whose ingest counter exactly matches the items sent, monotone
// counters never decrease across scrapes, and `stats` reports per-slot
// enqueued counts.
TEST(ServeTest, MetricsScrapeCountsIngestExactly) {
  const std::string socket_path =
      testing::TempDir() + "/l1hh_serve_metrics.sock";
  const pid_t pid = ::fork();
  if (pid == 0) {
    const std::string socket_flag = "--socket=" + socket_path;
    ::execl(L1HH_SERVE_BINARY, L1HH_SERVE_BINARY, socket_flag.c_str(),
            "--algo=space_saving", "--shards=2", "--producers=4",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ASSERT_GT(pid, 0);

  Client client(socket_path);
  constexpr uint64_t kFirst = 300;
  for (uint64_t i = 0; i < kFirst; ++i) {
    client.SendLine(std::to_string(i % 13));
  }
  client.SendLine("flush");
  EXPECT_EQ(client.ReadLine(), "ok " + std::to_string(kFirst));

  const auto before = Scrape(client);
  {
    const auto it = before.find("l1hh_serve_ingest_items_total");
    ASSERT_NE(it, before.end());
    EXPECT_EQ(it->second, static_cast<long long>(kFirst));
  }
  EXPECT_GE(before.count("l1hh_serve_connections_total"), 1u);
  EXPECT_GE(before.count("l1hh_engine_items_applied_total"), 1u);
  {
    // The scrape publishes per-slot gauges; this connection owns slot 1
    // (slot 0 is the merge view), so its enqueued count is the full ingest.
    const auto it = before.find("l1hh_engine_slot_enqueued{slot=\"1\"}");
    ASSERT_NE(it, before.end());
    EXPECT_EQ(it->second, static_cast<long long>(kFirst));
  }

  // Second batch, then re-scrape: counters must be monotone.
  constexpr uint64_t kSecond = 200;
  for (uint64_t i = 0; i < kSecond; ++i) {
    client.SendLine(std::to_string(i % 5));
  }
  client.SendLine("flush");
  EXPECT_EQ(client.ReadLine(), "ok " + std::to_string(kFirst + kSecond));

  const auto after = Scrape(client);
  {
    const auto it = after.find("l1hh_serve_ingest_items_total");
    ASSERT_NE(it, after.end());
    EXPECT_EQ(it->second, static_cast<long long>(kFirst + kSecond));
  }
  auto monotone = [](const std::string& name) {
    auto ends_with = [&name](const char* suffix) {
      const size_t n = std::strlen(suffix);
      return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    const size_t brace = name.find('{');
    const std::string bare = name.substr(0, brace);
    return ends_with("_total") || ends_with("_sum") || ends_with("_count") ||
           (bare.size() > 7 &&
            bare.compare(bare.size() - 7, 7, "_bucket") == 0);
  };
  for (const auto& [name, value] : before) {
    if (!monotone(name)) continue;  // gauges may move either way
    const auto it = after.find(name);
    ASSERT_NE(it, after.end()) << name << " vanished between scrapes";
    EXPECT_GE(it->second, value) << name << " decreased between scrapes";
  }

  // `stats` reports slot occupancy and per-slot enqueued counts.
  client.SendLine("stats");
  const std::string stats = client.ReadLine();
  EXPECT_EQ(stats.rfind("stats items=", 0), 0u) << stats;
  EXPECT_NE(stats.find(" slots=1/4"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" slot1=" + std::to_string(kFirst + kSecond) + "*"),
            std::string::npos)
      << stats;

  client.SendLine("shutdown");
  EXPECT_EQ(client.ReadLine(), "ok");
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// Slot exhaustion on the wire: with --producers=1, a second ingesting
// connection gets a clean err for ingest but can still query.
TEST(ServeTest, SlotExhaustionRefusesIngestButServesQueries) {
  const std::string socket_path =
      testing::TempDir() + "/l1hh_serve_slots.sock";
  const pid_t pid = ::fork();
  if (pid == 0) {
    const std::string socket_flag = "--socket=" + socket_path;
    ::execl(L1HH_SERVE_BINARY, L1HH_SERVE_BINARY, socket_flag.c_str(),
            "--algo=exact", "--shards=1", "--producers=1",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ASSERT_GT(pid, 0);

  Client first(socket_path);
  first.SendLine("41");
  first.SendLine("flush");
  EXPECT_EQ(first.ReadLine(), "ok 1");  // first connection owns the slot

  Client second(socket_path);
  second.SendLine("99");  // no slot left: refused...
  EXPECT_EQ(second.ReadLine().rfind("err ", 0), 0u);
  const auto report = second.Heavy(0.5);  // ...but queries still served
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.count(41), 1u);

  // `first` stays open across the shutdown: the server must kick it off
  // its read and join cleanly rather than hang.
  second.SendLine("shutdown");
  EXPECT_EQ(second.ReadLine(), "ok");
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// The auditor's shadow counts the whole stream, so auditing a windowed
// engine would flag phantom over-estimates.  Spelling the window in
// --algo instead of --window must be refused the same way: exit code 2
// from flag parsing, before any socket is bound.
TEST(ServeTest, AuditRateRefusedForWindowedAlgo) {
  const std::string socket_path =
      testing::TempDir() + "/l1hh_serve_windowed_audit.sock";
  const pid_t pid = ::fork();
  if (pid == 0) {
    const std::string socket_flag = "--socket=" + socket_path;
    ::execl(L1HH_SERVE_BINARY, L1HH_SERVE_BINARY, socket_flag.c_str(),
            "--algo=windowed:space_saving", "--m=1000", "--shards=2",
            "--audit-rate=8", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ASSERT_GT(pid, 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 2);
}

// `bin <N>` plus its little-endian payload, as one request's bytes.
std::string BinRequest(const std::vector<uint64_t>& items) {
  std::string bytes = "bin " + std::to_string(items.size()) + "\n";
  for (uint64_t v : items) {
    for (int b = 0; b < 8; ++b) {
      bytes += static_cast<char>(v & 0xff);
      v >>= 8;
    }
  }
  return bytes;
}

void ShutdownAndExpectCleanExit(Client& client, pid_t pid) {
  client.SendLine("shutdown");
  EXPECT_EQ(client.ReadLine(), "ok");
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// Verbs and `bin N` batches inside one run of text items, all in a single
// write: each answer counts exactly the items sent before it, whichever
// route (text or bin) carried them.
TEST(ServeTest, VerbsAndBinBatchesInsideATextRunSeeEveryEarlierItem) {
  const std::string socket_path =
      testing::TempDir() + "/l1hh_serve_interleave.sock";
  const pid_t pid = StartServer(socket_path, 1000);
  ASSERT_GT(pid, 0);
  Client client(socket_path);
  const std::string run = "7\n7\n7\n"
                          "estimate 7\n"
                          "9\n7\n" +
                          BinRequest({7, 7, 9}) +
                          "estimate 7\n"
                          "7\n"
                          "heavy 0.5\n"
                          "9\n9\n9\n9\n9\n"
                          "flush\n"
                          "heavy 0.4\n"
                          "7\n"
                          "estimate 7\n";
  client.SendRaw(run.data(), run.size());
  // Counts before each verb: 7 x3; 7 x4 + 9 x1 + bin(7 x2, 9 x1) = 7 x6;
  // then 7 x7 of 9 items; then 7 x7 and 9 x7 of 14; then 7 x8.
  const std::vector<std::string> expected = {
      "est 7 3", "est 7 6", "hh 1", "7 7", "ok 14",
      "hh 2",    "7 7",     "9 7",  "est 7 8"};
  for (const std::string& want : expected) {
    EXPECT_EQ(client.ReadLine(), want);
  }
  ShutdownAndExpectCleanExit(client, pid);
}

// A connection that goes idle without a verb has still handed on every
// item it sent before it waited: another connection's flush reaches them,
// including an item followed only by an empty line, and never a partial
// trailing line.
TEST(ServeTest, ItemsOfAnIdleConnectionReachOtherConnections) {
  const std::string socket_path =
      testing::TempDir() + "/l1hh_serve_visibility.sock";
  const pid_t pid = StartServer(socket_path, 1000);
  ASSERT_GT(pid, 0);
  Client querier(socket_path);
  const struct {
    std::string bytes;
    uint64_t items;
  } cases[] = {{"5\n6", 1}, {"5\n\n", 1}, {"5\n6\n", 2}};
  std::vector<std::unique_ptr<Client>> senders;  // stay open and idle
  uint64_t total = 0;
  for (const auto& c : cases) {
    senders.push_back(std::make_unique<Client>(socket_path));
    senders.back()->SendRaw(c.bytes.data(), c.bytes.size());
    total += c.items;
    const std::string want = "ok " + std::to_string(total);
    std::string reply;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (true) {
      querier.SendLine("flush");
      reply = querier.ReadLine();
      if (reply == want || std::chrono::steady_clock::now() > deadline) {
        break;
      }
      ::usleep(10 * 1000);
    }
    EXPECT_EQ(reply, want) << "after a sender went idle on " << c.items
                           << " complete item line(s)";
  }
  ShutdownAndExpectCleanExit(querier, pid);
}

// `heavy <phi>` takes one finite phi in (0, 1] and nothing else.
TEST(ServeTest, HeavyRefusesPhiOutsideZeroOne) {
  const std::string socket_path =
      testing::TempDir() + "/l1hh_serve_phi.sock";
  const pid_t pid = StartServer(socket_path, 1000);
  ASSERT_GT(pid, 0);
  Client client(socket_path);
  client.SendLine("5");
  for (const char* bad :
       {"heavy inf", "heavy 1e30", "heavy nan", "heavy 0.1x", "heavy 0"}) {
    client.SendLine(bad);
    EXPECT_EQ(client.ReadLine(), "err phi must be in (0, 1]") << bad;
  }
  client.SendLine("heavy 1");
  EXPECT_EQ(client.ReadLine(), "hh 1");
  EXPECT_EQ(client.ReadLine(), "5 1");
  ShutdownAndExpectCleanExit(client, pid);
}

// `sync` is a timed verb: after one sync, /metrics carries its latency
// series and its park_wait / capture / reply_write phases.
TEST(ServeTest, SyncIsTimedWithItsPhases) {
  const std::string socket_path =
      testing::TempDir() + "/l1hh_serve_sync_span.sock";
  const pid_t pid = StartServer(socket_path, 1000);
  ASSERT_GT(pid, 0);
  Client client(socket_path);
  for (int i = 0; i < 100; ++i) client.SendLine(std::to_string(i % 7));
  client.SendLine("sync");
  EXPECT_EQ(client.ReadLine().rfind("rconf ", 0), 0u);
  std::string line = client.ReadLine();
  for (; line.rfind("frame ", 0) == 0; line = client.ReadLine()) {
    client.Skip(std::stoull(line.substr(line.rfind(' ') + 1)));
  }
  EXPECT_EQ(line, "rsync 100");

  const auto metrics = Scrape(client);
  const auto latency =
      metrics.find("l1hh_query_latency_ns_count{verb=\"sync\"}");
  ASSERT_NE(latency, metrics.end());
  EXPECT_EQ(latency->second, 1);
  for (const char* phase : {"park_wait", "capture", "reply_write"}) {
    const auto it = metrics.find(
        std::string("l1hh_query_phase_ns_count{phase=\"") + phase +
        "\",verb=\"sync\"}");
    ASSERT_NE(it, metrics.end()) << phase;
    EXPECT_EQ(it->second, 1) << phase;
  }
  ShutdownAndExpectCleanExit(client, pid);
}

}  // namespace
}  // namespace l1hh
