// Warm-standby replication end to end (ctest label: engine): fork a real
// l1hh_serve primary and a real l1hh_replica follower, ingest through the
// primary while the follower tails delta syncs, then KILL the primary and
// assert the follower keeps answering — matching what an in-process
// engine run over the same stream answers.  Determinism makes "matching"
// exact: both sides hold the same shard summaries (same seed, same hash
// partition) and merge them in the same order for queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/sharded_engine.h"
#include "stream/stream_generator.h"
#include "summary/exact_counter.h"

#ifndef L1HH_SERVE_BINARY
#error "build must define L1HH_SERVE_BINARY (see tests/CMakeLists.txt)"
#endif
#ifndef L1HH_REPLICA_BINARY
#error "build must define L1HH_REPLICA_BINARY (see tests/CMakeLists.txt)"
#endif

namespace l1hh {
namespace {

// ---- tiny blocking client (same idiom as serve_test) -------------------

class Client {
 public:
  explicit Client(const std::string& socket_path) { Connect(socket_path); }

  void Connect(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int rc = -1;
    for (int attempt = 0; attempt < 200; ++attempt) {
      rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      if (rc == 0) break;
      ::usleep(50 * 1000);
    }
    ASSERT_EQ(rc, 0) << "cannot connect to " << socket_path << ": "
                     << std::strerror(errno);
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

  double EstimateOf(uint64_t item) {
    SendLine("estimate " + std::to_string(item));
    const std::string reply = ReadLine();
    unsigned long long echoed = 0;
    double estimate = 0;
    if (std::sscanf(reply.c_str(), "est %llu %lf", &echoed, &estimate) != 2 ||
        echoed != item) {
      ADD_FAILURE() << "bad estimate reply '" << reply << "'";
      return -1;
    }
    return estimate;
  }

  std::string Stats() {
    SendLine("stats");
    return ReadLine();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

pid_t StartPrimary(const std::string& socket_path,
                   const std::vector<std::string>& extra) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<std::string> flags = {L1HH_SERVE_BINARY,
                                    "--socket=" + socket_path};
  flags.insert(flags.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  argv.reserve(flags.size() + 1);
  for (std::string& flag : flags) argv.push_back(flag.data());
  argv.push_back(nullptr);
  ::execv(L1HH_SERVE_BINARY, argv.data());
  std::perror("execv " L1HH_SERVE_BINARY);
  ::_exit(127);
}

pid_t StartReplica(const std::string& primary_path,
                   const std::string& socket_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const std::string primary_flag = "--primary=" + primary_path;
  const std::string socket_flag = "--socket=" + socket_path;
  ::execl(L1HH_REPLICA_BINARY, L1HH_REPLICA_BINARY, primary_flag.c_str(),
          socket_flag.c_str(), "--interval-ms=50", "--phi=0.05",
          static_cast<char*>(nullptr));
  std::perror("execl " L1HH_REPLICA_BINARY);
  ::_exit(127);
}

// Polls the replica's stats line until `want` is a substring (the item
// count at the last completed sync, or primary=lost after a kill).
void AwaitStats(Client& replica, const std::string& want) {
  std::string stats;
  for (int attempt = 0; attempt < 400; ++attempt) {
    stats = replica.Stats();
    if (stats.find(want) != std::string::npos) return;
    ::usleep(50 * 1000);
  }
  FAIL() << "replica never reached '" << want << "'; last stats: " << stats;
}

void ExpectExitedCleanly(pid_t pid) {
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// ---- Failover against exact ground truth -------------------------------

// Primary runs `exact` over a planted stream; after the primary is shut
// down, the standby must answer the heavy-hitter report and point
// estimates with the exact final counts.
TEST(ReplicationTest, StandbyServesExactAnswersAfterPrimaryDies) {
  PlantedSpec spec;
  spec.planted_fractions = {0.20, 0.12, 0.08};
  spec.universe_size = uint64_t{1} << 20;
  spec.stream_length = 30000;
  spec.order = StreamOrder::kShuffled;
  const PlantedStream planted = MakePlantedStream(spec, /*seed=*/7);
  const auto& items = planted.items;

  const std::string primary_sock =
      testing::TempDir() + "/repl_primary.sock";
  const std::string replica_sock =
      testing::TempDir() + "/repl_standby.sock";
  const pid_t primary = StartPrimary(
      primary_sock, {"--algo=exact", "--shards=2", "--producers=2",
                     "--m=" + std::to_string(items.size())});
  ASSERT_GT(primary, 0);
  const pid_t replica = StartReplica(primary_sock, replica_sock);
  ASSERT_GT(replica, 0);

  // Force the initial full sync to happen against the PRIMARY'S PRISTINE
  // state (regression: empty counter-group snapshots used to be refused
  // as Corruption, killing replication before the first item).
  Client standby(replica_sock);
  AwaitStats(standby, "primary=up");

  // Ingest the full stream through the primary.
  {
    Client writer(primary_sock);
    std::string block;
    for (size_t i = 0; i < items.size(); ++i) {
      block += std::to_string(items[i]);
      block += '\n';
      if (block.size() >= 32768 || i + 1 == items.size()) {
        writer.SendRaw(block.data(), block.size());
        block.clear();
      }
    }
    writer.SendLine("flush");
    EXPECT_EQ(writer.ReadLine(), "ok " + std::to_string(items.size()));
    writer.SendLine("quit");
  }

  // Wait until the standby's last completed sync covers the whole stream.
  AwaitStats(standby, "items=" + std::to_string(items.size()));
  AwaitStats(standby, "algo=exact");

  // Kill the primary (orderly shutdown — the failover being tested is the
  // standby's, not the primary's crash handling).
  {
    Client admin(primary_sock);
    admin.SendLine("shutdown");
    EXPECT_EQ(admin.ReadLine(), "ok");
  }
  ExpectExitedCleanly(primary);
  AwaitStats(standby, "primary=lost");

  // The standby now IS the service.  Its report must equal the exact
  // final counts of the stream the dead primary ingested.
  ExactCounter truth;
  for (const uint64_t x : items) truth.Insert(x);
  const auto report = standby.Heavy(0.05);
  const auto expected = truth.HeavyHitters(
      static_cast<uint64_t>(0.05 * static_cast<double>(items.size())) + 1);
  ASSERT_EQ(report.size(), expected.size());
  for (const auto& hh : expected) {
    const auto it = report.find(hh.item);
    ASSERT_NE(it, report.end()) << "missing item " << hh.item;
    EXPECT_EQ(it->second, static_cast<double>(hh.count));
  }
  for (const uint64_t planted_item : planted.planted_ids) {
    EXPECT_EQ(standby.EstimateOf(planted_item),
              static_cast<double>(truth.Count(planted_item)));
  }

  standby.SendLine("shutdown");
  EXPECT_EQ(standby.ReadLine(), "ok");
  ExpectExitedCleanly(replica);
}

// ---- Windowed primary: the delta path carries the syncs -----------------

// A windowed primary rotates buckets as the stream advances, so the
// follower's incremental syncs ride the delta frames (only the dirty
// tail crosses the wire).  After several ingest/sync rounds and a
// failover, the standby must answer exactly like an in-process engine
// built with the same construction parameters over the same stream.
TEST(ReplicationTest, WindowedStandbyTailsDeltasAndSurvivesFailover) {
  const uint64_t kUniverse = uint64_t{1} << 20;
  const uint64_t kLength = 24000;
  const auto items = MakeZipfStream(kUniverse, 1.2, kLength, /*seed=*/5);

  const std::string primary_sock =
      testing::TempDir() + "/repl_win_primary.sock";
  const std::string replica_sock =
      testing::TempDir() + "/repl_win_standby.sock";
  const pid_t primary = StartPrimary(
      primary_sock,
      {"--algo=windowed:space_saving", "--shards=2", "--producers=2",
       "--epsilon=0.02", "--phi=0.05", "--delta=0.05",
       "--n=" + std::to_string(kUniverse), "--m=" + std::to_string(kLength),
       "--seed=1", "--window=16384", "--buckets=8"});
  ASSERT_GT(primary, 0);
  const pid_t replica = StartReplica(primary_sock, replica_sock);
  ASSERT_GT(replica, 0);

  // Feed in chunks with a pause after each, so the follower completes a
  // sync round between chunks — every round after the first moves only
  // the changed tail.
  Client standby(replica_sock);
  // The initial full sync happens against the pristine windowed ring
  // (empty-state snapshots must round-trip — the failover regression).
  AwaitStats(standby, "primary=up");
  {
    Client writer(primary_sock);
    const size_t kChunk = 6000;
    size_t sent = 0;
    while (sent < items.size()) {
      const size_t n = std::min(kChunk, items.size() - sent);
      std::string block;
      for (size_t i = 0; i < n; ++i) {
        block += std::to_string(items[sent + i]);
        block += '\n';
      }
      writer.SendRaw(block.data(), block.size());
      writer.SendLine("flush");
      EXPECT_EQ(writer.ReadLine().rfind("ok ", 0), 0u);
      sent += n;
      // Let the follower observe this intermediate state.
      AwaitStats(standby, "items=" + std::to_string(sent) + " ");
    }
    writer.SendLine("quit");
  }

  // Multiple sync rounds happened (one per chunk at minimum); the stats
  // line exposes the count.
  const std::string stats = standby.Stats();
  unsigned long long synced_items = 0, shard_count = 0, sync_rounds = 0;
  ASSERT_EQ(std::sscanf(stats.c_str(),
                        "stats items=%llu shards=%llu syncs=%llu",
                        &synced_items, &shard_count, &sync_rounds),
            3)
      << stats;
  EXPECT_EQ(synced_items, items.size());
  EXPECT_EQ(shard_count, 2u);
  EXPECT_GE(sync_rounds, 4u);

  {
    Client admin(primary_sock);
    admin.SendLine("shutdown");
    EXPECT_EQ(admin.ReadLine(), "ok");
  }
  ExpectExitedCleanly(primary);
  AwaitStats(standby, "primary=lost");

  // Offline reference: an in-process engine with the primary's exact
  // construction parameters over the same stream.  Shard summaries are
  // deterministic (same seed, same hash partition, same ingest order per
  // shard), and both query paths merge shards in index order, so the
  // standby's answers must be EQUAL, not merely within eps.
  ShardedEngineOptions opt;
  opt.algorithm = "windowed:space_saving";
  opt.num_shards = 2;
  opt.summary.epsilon = 0.02;
  opt.summary.phi = 0.05;
  opt.summary.delta = 0.05;
  opt.summary.universe_size = kUniverse;
  opt.summary.stream_length = kLength;
  opt.summary.seed = 1;
  opt.summary.window_size = 16384;
  opt.summary.window_buckets = 8;
  Status status;
  auto reference = ShardedEngine::Create(opt, &status);
  ASSERT_NE(reference, nullptr) << status.ToString();
  reference->UpdateBatch(items);

  const auto reference_report = reference->HeavyHitters(0.05);
  const auto standby_report = standby.Heavy(0.05);
  ASSERT_EQ(standby_report.size(), reference_report.size());
  for (const ItemEstimate& hh : reference_report) {
    const auto it = standby_report.find(hh.item);
    ASSERT_NE(it, standby_report.end()) << "missing item " << hh.item;
    EXPECT_EQ(it->second, hh.estimate) << "item " << hh.item;
  }
  for (size_t i = 0; i < 32; ++i) {
    const uint64_t probe = items[i * (items.size() / 32)];
    EXPECT_EQ(standby.EstimateOf(probe), reference->Estimate(probe))
        << "item " << probe;
  }

  standby.SendLine("shutdown");
  EXPECT_EQ(standby.ReadLine(), "ok");
  ExpectExitedCleanly(replica);
}

// --phi is the replica's default for a bare `heavy`; one outside (0, 1]
// is refused at flag parsing (exit 2), before any connection is made.
TEST(ReplicationTest, ReplicaRefusesPhiOutsideZeroOne) {
  for (const char* phi : {"--phi=0", "--phi=inf", "--phi=1.5", "--phi=0.1x"}) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(L1HH_REPLICA_BINARY, L1HH_REPLICA_BINARY, "--primary=x",
              "--socket=y", phi, static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ASSERT_GT(pid, 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFEXITED(wstatus)) << phi;
    EXPECT_EQ(WEXITSTATUS(wstatus), 2) << phi;
  }
}

}  // namespace
}  // namespace l1hh
