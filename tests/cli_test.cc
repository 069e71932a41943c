// The command-line contract of the three binaries (ctest label: engine):
// forks the built l1hh_cli, l1hh_serve and l1hh_replica and pins what a
// user sees.  For l1hh_cli that is stdout and the exit code of every
// command (with the `update_ns` timing field dropped), and for all three
// the exit code and stderr of every kind of flag error.  A serve started
// with space-separated flags must answer `stats` with what it was given.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/wire.h"

#if !defined(L1HH_CLI_BINARY) || !defined(L1HH_SERVE_BINARY) || \
    !defined(L1HH_REPLICA_BINARY)
#error "build must define the L1HH_*_BINARY paths (see tests/CMakeLists.txt)"
#endif

namespace l1hh {
namespace {

struct Outcome {
  int code = -1;  // exit status; -1 if the child did not exit normally
  std::string out;
  std::string err;
};

std::string ReadText(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

// Execs `binary args...` with stdin from `in` (a file; empty = /dev/null)
// and stdout/stderr redirected to `dir`.  Async-signal-safe in the child.
pid_t Spawn(const std::string& dir, const char* binary,
            const std::vector<std::string>& args, const std::string& in) {
  std::vector<char*> argv{const_cast<char*>(binary)};
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const std::string in_path = in.empty() ? "/dev/null" : in;
  const std::string out_path = dir + "/stdout";
  const std::string err_path = dir + "/stderr";
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fds[3] = {
      ::open(in_path.c_str(), O_RDONLY),
      ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644),
      ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)};
  for (int target = 0; target < 3; ++target) {
    if (fds[target] < 0 || ::dup2(fds[target], target) < 0) ::_exit(126);
  }
  ::execv(binary, argv.data());
  ::_exit(127);
}

Outcome Reap(const std::string& dir, pid_t pid) {
  Outcome outcome;
  int wstatus = 0;
  if (pid > 0 && ::waitpid(pid, &wstatus, 0) == pid && WIFEXITED(wstatus)) {
    outcome.code = WEXITSTATUS(wstatus);
  }
  outcome.out = ReadText(dir + "/stdout");
  outcome.err = ReadText(dir + "/stderr");
  return outcome;
}

// The per-run wall-clock field of `run --format=json`.
std::string DropUpdateNs(const std::string& json) {
  return std::regex_replace(json, std::regex("\"update_ns\":[0-9.]+,"), "");
}

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    std::string pattern = testing::TempDir() + "/l1hh_cli_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern.data()), nullptr) << std::strerror(errno);
    dir_ = pattern;
  }
  void TearDown() override {
    for (const char* name : {"stdout", "stderr", "stream.txt", "even.txt",
                             "odd.txt", "a.l1hh", "b.l1hh", "serve.sock",
                             "x.l1hh"}) {
      ::unlink((dir_ + "/" + name).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  Outcome Run(const char* binary, const std::vector<std::string>& args,
              const std::string& in = "") {
    return Reap(dir_, Spawn(dir_, binary, args, in));
  }
  Outcome Cli(const std::vector<std::string>& args,
              const std::string& in = "") {
    return Run(L1HH_CLI_BINARY, args, in);
  }
  std::string Path(const char* name) const { return dir_ + "/" + name; }

  // The zipf stream every stdin case reads: 20,000 ids, seed 3.
  std::string Stream() {
    const Outcome gen =
        Cli({"generate", "--kind=zipf", "--m=20000", "--seed=3"});
    EXPECT_EQ(gen.code, 0);
    std::ofstream(Path("stream.txt"), std::ios::binary) << gen.out;
    return Path("stream.txt");
  }

  // Exit 2, nothing on stdout, and exactly `err` on stderr.
  void ExpectUsageError(const char* binary,
                        const std::vector<std::string>& args,
                        const std::string& err) {
    const Outcome o = Run(binary, args);
    EXPECT_EQ(o.code, 2) << binary << " " << args.back();
    EXPECT_EQ(o.out, "") << binary << " " << args.back();
    EXPECT_EQ(o.err, err) << binary << " " << args.back();
  }

  std::string dir_;
};

TEST_F(CliTest, ListPrintsEveryRegisteredName) {
  const Outcome o = Cli({"list"});
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out,
            "bdw_optimal\nbdw_simple\ncount_min\ncount_sketch\nexact\n"
            "hashed_misra_gries\nlossy_counting\nmisra_gries\nspace_saving\n"
            "sticky_sampling\n");
}

TEST_F(CliTest, HeavyOverStdin) {
  const std::string stream = Stream();
  Outcome o = Cli({"heavy", "--algo=misra_gries", "--m=20000"}, stream);
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out,
            "# misra_gries: 2 heavy hitters at phi=0.050 over m=20000 items "
            "(453 bytes)\n"
            "misra_gries              13249975           2493    12.46%\n"
            "misra_gries              13694831           1078     5.39%\n");
  o = Cli({"heavy", "--algo=windowed:space_saving", "--window=10000",
           "--buckets=4", "--m=20000"},
          stream);
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out,
            "# windowed:space_saving: 2 heavy hitters at phi=0.050 over the "
            "last 10000 items (2388 bytes)\n"
            "windowed:space_saving     13249975           1323    13.23%\n"
            "windowed:space_saving     13694831            633     6.33%\n");
}

TEST_F(CliTest, MaxAndMinOverStdin) {
  const std::string stream = Stream();
  Outcome o = Cli({"max", "--m=20000"}, stream);
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out,
            "approx-max item 13249975  count ~2571  (sketch: 10825 bits)\n");
  o = Cli({"min", "--n=64", "--m=20000"}, stream);
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out, "approx-min item 0  count ~0  (sketch: 135 bits)\n");
}

TEST_F(CliTest, SaveThenLoad) {
  const std::string file = Path("a.l1hh");
  Outcome o = Cli({"save", "--algo=count_min", "--out=" + file, "--m=20000",
                   "--seed=9"},
                  Stream());
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out, "saved count_min: 20000 items -> " + file +
                       " (2929 bytes in memory)\n");
  o = Cli({"load", file});
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out,
            "# " + file +
                ": algo=count_min  eps=0.0100  phi=0.0500  delta=0.0500  "
                "n=16777216  m=20000  seed=9  items=20000  payload=22912 "
                "bits  file=2984 bytes\n"
                "# 2 heavy hitters at phi=0.050 over 20000 ingested items\n"
                "13249975                           2636    13.18%\n"
                "13694831                           1225     6.12%\n");
  o = Cli({"load", Path("missing.l1hh")});
  EXPECT_EQ(o.code, 1);
  EXPECT_EQ(o.err,
            "load failed: cannot read '" + Path("missing.l1hh") + "'\n");
}

TEST_F(CliTest, MergeTwoPartitions) {
  const std::vector<std::string> ids = [&] {
    std::vector<std::string> lines;
    std::ifstream in(Stream());
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }();
  {
    std::ofstream even(Path("even.txt")), odd(Path("odd.txt"));
    for (const std::string& id : ids) {
      (std::strtoull(id.c_str(), nullptr, 10) % 2 == 0 ? even : odd)
          << id << "\n";
    }
  }
  const std::string a = Path("a.l1hh"), b = Path("b.l1hh");
  Outcome o = Cli({"save", "--algo=misra_gries", "--out=" + a, "--m=20000"},
                  Path("even.txt"));
  EXPECT_EQ(o.out, "saved misra_gries: 8520 items -> " + a +
                       " (428 bytes in memory)\n");
  o = Cli({"save", "--algo=misra_gries", "--out=" + b, "--m=20000"},
          Path("odd.txt"));
  EXPECT_EQ(o.out, "saved misra_gries: 11480 items -> " + b +
                       " (453 bytes in memory)\n");
  o = Cli({"merge", a, b});
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out,
            "# merged 2 snapshot(s), algo=misra_gries\n"
            "# 2 heavy hitters at phi=0.050 over 20000 ingested items\n"
            "13249975                           2570    12.85%\n"
            "13694831                           1155     5.78%\n");
  o = Cli({"merge", a, b, "--format=json"});
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out,
            "{\"command\":\"merge\",\"algo\":\"misra_gries\",\"snapshots\":2,"
            "\"items\":20000,\"phi\":0.05,\"space_bits\":3616,\"report\":["
            "{\"item\":13249975,\"estimate\":2570.0},"
            "{\"item\":13694831,\"estimate\":1155.0}]}\n");
}

TEST_F(CliTest, RunJsonReports) {
  Outcome o = Cli({"run", "--algo=misra_gries", "--m=20000", "--format=json"});
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(DropUpdateNs(o.out),
            "{\"command\":\"run\",\"algo\":\"misra_gries\",\"m\":20000,"
            "\"epsilon\":0.01,\"phi\":0.05,\"seed\":1,\"shards\":1,"
            "\"threads\":0,\"window\":null,\"true_heavies\":2,\"recalled\":2,"
            "\"reported\":2,\"recall\":1.000000,\"precision\":1.000000,"
            "\"max_abs_estimate_error\":142.000,\"space_bits\":3624,"
            "\"report\":[{\"item\":10480362,\"estimate\":2413.0,"
            "\"exact\":2555},{\"item\":7474638,\"estimate\":1069.0,"
            "\"exact\":1211}]}\n");
  o = Cli({"run", "--algo=misra_gries", "--m=20000", "--shards=4",
           "--threads=2", "--format=json"});
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(DropUpdateNs(o.out),
            "{\"command\":\"run\",\"algo\":\"misra_gries\",\"m\":20000,"
            "\"epsilon\":0.01,\"phi\":0.05,\"seed\":1,\"shards\":4,"
            "\"threads\":2,\"window\":null,\"true_heavies\":2,\"recalled\":2,"
            "\"reported\":2,\"recall\":1.000000,\"precision\":1.000000,"
            "\"max_abs_estimate_error\":29.000,\"space_bits\":16791104,"
            "\"report\":[{\"item\":10480362,\"estimate\":2526.0,"
            "\"exact\":2555},{\"item\":7474638,\"estimate\":1182.0,"
            "\"exact\":1211}]}\n");
  o = Cli({"run", "--algo=space_saving", "--group-col", "--groups=2",
           "--m=20000", "--format=json"});
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(DropUpdateNs(o.out),
            "{\"command\":\"run\",\"grouped\":true,\"algo\":\"space_saving\","
            "\"tenants\":2,\"m_per_tenant\":10000,\"epsilon\":0.01,"
            "\"phi\":0.05,\"seed\":1,\"space_bits\":10176,\"groups\":["
            "{\"group\":0,\"items\":10000,\"true_heavies\":2,\"recalled\":2,"
            "\"reported\":2,\"recall\":1.000000},"
            "{\"group\":1,\"items\":10000,\"true_heavies\":2,\"recalled\":2,"
            "\"reported\":2,\"recall\":1.000000}]}\n");
}

// The `l1hh_cli list` hint follows an unknown --algo name only; a refusal
// of a known name prints its reason alone.  Exit 2 either way.
TEST_F(CliTest, ListHintOnlyForUnknownNames) {
  const std::string stream = Stream();
  const std::string windowed = "--algo=windowed:lossy_counting";
  const std::vector<std::vector<std::string>> refused = {
      {"heavy", windowed, "--m=1"},
      {"save", windowed, "--m=1", "--out=" + Path("x.l1hh")},
      {"heavy", windowed, "--m=1", "--group-col"},
      {"run", windowed, "--m=1000", "--group-col"},
      {"run", windowed, "--m=1000"},
  };
  for (const auto& args : refused) {
    // --group-col heavy wants "group item" rows.
    const bool rows = args[0] == "heavy" && args.back() == "--group-col";
    const Outcome o = Cli(args, rows ? "" : stream);
    EXPECT_EQ(o.code, 2) << args[0] << " " << args.back();
    EXPECT_NE(o.err.find("mergeable"), std::string::npos) << o.err;
    EXPECT_EQ(o.err.find("l1hh_cli list"), std::string::npos) << o.err;
  }
  for (const char* command : {"heavy", "save", "run"}) {
    const Outcome o = Cli({command, "--algo=no_such_algo", "--m=10",
                           "--out=" + Path("x.l1hh")},
                          stream);
    EXPECT_EQ(o.code, 2) << command;
    EXPECT_NE(o.err.find("; try `l1hh_cli list`\n"), std::string::npos)
        << o.err;
  }
}

TEST_F(CliTest, FlagErrorsInEveryBinary) {
  for (const char* binary :
       {L1HH_CLI_BINARY, L1HH_SERVE_BINARY, L1HH_REPLICA_BINARY}) {
    ExpectUsageError(binary, {"--phi"}, "flag --phi needs a value\n");
    ExpectUsageError(binary, {"--phi="},
                     "flag --phi needs a non-empty value\n");
    ExpectUsageError(binary, {"--phii=0.1"},
                     "unknown flag: --phii (did you mean --phi?)\n");
    ExpectUsageError(binary, {"--zzzzzzzz", "1"},
                     "unknown flag: --zzzzzzzz\n");
  }
  ExpectUsageError(L1HH_CLI_BINARY, {"run", "--sede=2"},
                   "unknown flag: --sede (did you mean --seed?)\n");
}

TEST_F(CliTest, MalformedNumbersAreUsageErrors) {
  const auto bad = [](const std::string& flag, const std::string& value) {
    return "flag " + flag + ": malformed value '" + value + "'\n";
  };
  ExpectUsageError(L1HH_CLI_BINARY, {"run", "--m=abc"}, bad("--m", "abc"));
  ExpectUsageError(L1HH_CLI_BINARY, {"run", "--seed=x7"}, bad("--seed", "x7"));
  ExpectUsageError(L1HH_CLI_BINARY, {"run", "--shards=2x"},
                   bad("--shards", "2x"));
  ExpectUsageError(L1HH_CLI_BINARY, {"run", "--epsilon", "0.1x"},
                   bad("--epsilon", "0.1x"));
  ExpectUsageError(L1HH_CLI_BINARY, {"run", "--alpha=fast"},
                   bad("--alpha", "fast"));
  ExpectUsageError(L1HH_CLI_BINARY, {"run", "--audit=-3"},
                   bad("--audit", "-3"));
  ExpectUsageError(L1HH_SERVE_BINARY, {"--threads=abc"},
                   bad("--threads", "abc"));
  ExpectUsageError(L1HH_SERVE_BINARY, {"--http=abc"},
                   bad("--http", "abc"));
  ExpectUsageError(L1HH_SERVE_BINARY, {"--delta=-"},
                   bad("--delta", "-"));
  ExpectUsageError(L1HH_REPLICA_BINARY, {"--interval-ms", "5ms"},
                   bad("--interval-ms", "5ms"));
  ExpectUsageError(L1HH_REPLICA_BINARY, {"--ready-lag=+1"},
                   bad("--ready-lag", "+1"));
}

// `run` draws its self-generated stream from --kind, plain and grouped,
// and refuses an unknown kind like `generate` does.
TEST_F(CliTest, RunHonoursKind) {
  const Outcome uniform =
      Cli({"run", "--kind=uniform", "--algo=exact", "--m=20000"});
  EXPECT_EQ(uniform.code, 0);
  EXPECT_EQ(uniform.out.rfind("algo=exact  uniform  n=16777216  m=20000 ", 0),
            0u)
      << uniform.out;
  const Outcome zipf = Cli({"run", "--algo=exact", "--m=20000"});
  EXPECT_EQ(zipf.out.rfind("algo=exact  zipf(alpha=1.10)  ", 0), 0u)
      << zipf.out;
  const Outcome grouped = Cli({"run", "--kind=uniform", "--algo=exact",
                               "--group-col", "--groups=2", "--m=2000"});
  EXPECT_NE(grouped.out.find(" tenants x 1000 uniform items "),
            std::string::npos)
      << grouped.out;
  const std::string unknown = "unknown --kind bogus (zipf|uniform)\n";
  ExpectUsageError(L1HH_CLI_BINARY, {"run", "--kind=bogus"}, unknown);
  ExpectUsageError(L1HH_CLI_BINARY,
                   {"run", "--group-col", "--groups=2", "--kind=bogus"},
                   unknown);
  ExpectUsageError(L1HH_CLI_BINARY, {"generate", "--kind=bogus"}, unknown);
}

// A flag only one command reads is refused by every other command,
// naming the flag, instead of being silently ignored.
TEST_F(CliTest, FlagsACommandCannotUseAreRejected) {
  const std::string out = "--out=" + Path("x.l1hh");
  const std::string save = "--save=" + Path("x.l1hh");
  for (const char* command : {"heavy", "save", "load", "merge", "generate"}) {
    ExpectUsageError(L1HH_CLI_BINARY, {command, "--shards=4"},
                     "--shards is supported by run\n");
    ExpectUsageError(L1HH_CLI_BINARY, {command, "--threads=2"},
                     "--threads is supported by run\n");
    ExpectUsageError(L1HH_CLI_BINARY, {command, save},
                     "--save is supported by run\n");
  }
  for (const char* command : {"run", "heavy", "generate"}) {
    ExpectUsageError(L1HH_CLI_BINARY, {command, out},
                     "--out is supported by save\n");
  }
  ExpectUsageError(L1HH_CLI_BINARY, {"--algo=exact", out},
                   "--out is supported by save\n");
  EXPECT_NE(::access(Path("x.l1hh").c_str(), F_OK), 0);
}

// Every flag, not only the run- and save-only ones: a command refuses
// each flag it does not read, naming it, before it reads stdin or files.
TEST_F(CliTest, EveryFlagACommandDoesNotReadIsRejected) {
  ExpectUsageError(L1HH_CLI_BINARY,
                   {"heavy", "--algo=exact", "--alpha=3", "--m=1"},
                   "--alpha is supported by generate and run\n");
  ExpectUsageError(L1HH_CLI_BINARY,
                   {"heavy", "--algo=exact", "--kind=uniform", "--m=1"},
                   "--kind is supported by generate and run\n");
  ExpectUsageError(L1HH_CLI_BINARY, {"load", "--seed=4", Path("x.l1hh")},
                   "--seed is supported by generate, run, heavy, save, max "
                   "and min\n");
  ExpectUsageError(L1HH_CLI_BINARY, {"load", "--window=9", Path("x.l1hh")},
                   "--window is supported by run, heavy and save\n");
  ExpectUsageError(L1HH_CLI_BINARY, {"list", "--m=5"},
                   "--m is supported by generate, run, heavy, save, max and "
                   "min\n");
  ExpectUsageError(L1HH_CLI_BINARY, {"max", "--phi=0.1"},
                   "--phi is supported by run, heavy, save, load and merge\n");
  ExpectUsageError(L1HH_CLI_BINARY, {"heavy", "--format=text"},
                   "--format is supported by run and merge\n");

  // One valid spelling of every flag, and the commands that read it.
  const std::string file = "--out=" + Path("x.l1hh");
  const std::string save = "--save=" + Path("x.l1hh");
  const std::vector<std::pair<std::string, std::vector<std::string>>> flags =
      {{"--kind=uniform", {"generate", "run"}},
       {"--algo=exact", {"run", "heavy", "save"}},
       {"--algorithm=exact", {"run", "heavy", "save"}},
       {"--alpha=1.5", {"generate", "run"}},
       {"--epsilon=0.1", {"run", "heavy", "save", "max", "min"}},
       {"--phi=0.1", {"run", "heavy", "save", "load", "merge"}},
       {"--delta=0.1", {"run", "heavy", "save", "max", "min"}},
       {"--n=100", {"generate", "run", "heavy", "save", "max", "min"}},
       {"--m=10", {"generate", "run", "heavy", "save", "max", "min"}},
       {"--seed=3", {"generate", "run", "heavy", "save", "max", "min"}},
       {"--shards=2", {"run"}},
       {"--threads=2", {"run"}},
       {file, {"save"}},
       {save, {"run"}},
       {"--window=100", {"run", "heavy", "save"}},
       {"--buckets=2", {"run", "heavy", "save"}},
       {"--format=text", {"run", "merge"}},
       {"--group-col", {"run", "heavy"}},
       {"--groups=2", {"generate", "run"}},
       {"--stats", {"run"}},
       {"--audit", {"run"}}};
  for (const char* command : {"list", "generate", "run", "heavy", "save",
                              "load", "merge", "max", "min"}) {
    for (const auto& [flag, readers] : flags) {
      if (std::find(readers.begin(), readers.end(), command) !=
          readers.end()) {
        continue;
      }
      const Outcome o = Cli({command, flag});
      const std::string name = flag.substr(0, flag.find('='));
      EXPECT_EQ(o.code, 2) << command << " " << flag;
      EXPECT_EQ(o.err.rfind(name + " is supported by ", 0), 0u)
          << command << " " << flag << ": " << o.err;
    }
  }
  EXPECT_NE(::access(Path("x.l1hh").c_str(), F_OK), 0);
}

// Sends `stats`, then `shutdown`, to the server on `socket_path`; returns
// both replies ("" for one that did not arrive).
std::vector<std::string> StatsThenShutdown(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  int rc = -1;
  for (int attempt = 0; fd >= 0 && attempt < 200 && rc != 0; ++attempt) {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0) ::usleep(50 * 1000);
  }
  // A broken server must fail the test, not hang it.
  timeval timeout{};
  timeout.tv_sec = 60;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  serve::LineReader reader(fd);
  std::vector<std::string> replies;
  for (const char* request : {"stats", "shutdown"}) {
    std::string reply;
    if (rc == 0 && serve::WriteLine(fd, request)) reader.ReadLine(&reply);
    replies.push_back(reply);
  }
  if (fd >= 0) ::close(fd);
  return replies;
}

TEST_F(CliTest, ServeTakesSpaceSeparatedFlags) {
  const std::string socket_path = Path("serve.sock");
  const pid_t pid = Spawn(dir_, L1HH_SERVE_BINARY,
                          {"--socket", socket_path, "--shards", "2"}, "");
  ASSERT_GT(pid, 0);
  const std::vector<std::string> replies = StatsThenShutdown(socket_path);
  if (replies[1] != "ok") ::kill(pid, SIGKILL);
  const Outcome o = Reap(dir_, pid);
  EXPECT_EQ(replies[0].rfind("stats items=0 shards=2 ", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1], "ok");
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(o.out, "listening " + socket_path + "\nserved 0 items\n");
}

}  // namespace
}  // namespace l1hh
