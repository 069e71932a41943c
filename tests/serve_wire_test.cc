// In-process tests of the serving wire (src/serve/wire.h) and of atomic
// replica rounds (ShardedEngine::FromFrames / ApplyFrames), ctest label
// `engine`: every parser the codec owns is fed seeded hostile input over
// a socketpair, and a windowed K=2 replica is shown to move only by whole
// rounds — a cut-off stream or a corrupt frame leaves it exactly at its
// last committed round.  Checkpoint restore decodes through the same
// frame path, so a restored directory must answer like a replica fed the
// frames captured at the same points.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "engine/sharded_engine.h"
#include "serve/wire.h"
#include "stream/stream_generator.h"
#include "util/random.h"

namespace l1hh {
namespace {

using serve::LineReader;
using serve::ReplicationRound;

// A connected socket pair: bytes written to the writing end are read
// through a LineReader on reader_fd().  Writes run on a thread so
// payloads larger than the socket buffer cannot deadlock the test.
class Wire {
 public:
  Wire() {
    // A reader that gives up early (over-long line) leaves the writer
    // writing into a shut socket: that must be an error, not a signal.
    std::signal(SIGPIPE, SIG_IGN);
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reader_fd_ = fds[0];
    writer_fd_ = fds[1];
  }
  ~Wire() {
    ::shutdown(reader_fd_, SHUT_RDWR);  // unblocks a writer nobody drained
    if (writer_.joinable()) writer_.join();
    ::close(reader_fd_);
  }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  // Sends `bytes`, then closes the writing end (EOF after them).
  void SendAndClose(std::string bytes) {
    writer_ = std::thread([this, bytes = std::move(bytes)] {
      serve::WriteAll(writer_fd_, bytes.data(), bytes.size());
      ::close(writer_fd_);
    });
  }

  // Writes `round` with WriteRound, then closes the writing end.
  void SendRoundAndClose(const ReplicationRound& round) {
    writer_ = std::thread([this, &round] {
      EXPECT_TRUE(serve::WriteRound(writer_fd_, round));
      ::close(writer_fd_);
    });
  }

  int reader_fd() const { return reader_fd_; }

 private:
  int reader_fd_ = -1;
  int writer_fd_ = -1;
  std::thread writer_;
};

Status ReadRoundFrom(std::string bytes, size_t num_shards,
                     ReplicationRound* round) {
  Wire wire;
  wire.SendAndClose(std::move(bytes));
  LineReader reader(wire.reader_fd());
  return serve::ReadRound(reader, num_shards, round);
}

// The bytes WriteRound puts on the wire for `round`.
std::string Encode(const ReplicationRound& round) {
  Wire wire;
  wire.SendRoundAndClose(round);
  std::string bytes;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(wire.reader_fd(), chunk, sizeof(chunk))) > 0) {
    bytes.append(chunk, static_cast<size_t>(n));
  }
  return bytes;
}

// ---- Line codec ---------------------------------------------------------

TEST(ServeWireTest, LinesAndExactReadsInterleave) {
  Wire wire;
  wire.SendAndClose("first\n\nbin 2\nABCDEFGHabcdefghtail\nlast");
  LineReader reader(wire.reader_fd());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "first");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(reader.ReadLine(&line));
  uint64_t count = 0;
  ASSERT_TRUE(serve::ParseBinHeader(line, &count));
  std::vector<uint64_t> items;
  ASSERT_TRUE(serve::ReadBinPayload(reader, count, &items));
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], 0x4847464544434241ULL);  // "ABCDEFGH" little-endian
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "tail");
  // An unterminated last line is not a line.
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_FALSE(reader.too_long());
}

TEST(ServeWireTest, OverlongLineIsRefusedAtTheCap) {
  for (const size_t length : {serve::kMaxLineBytes, serve::kMaxLineBytes + 1,
                              3 * serve::kMaxLineBytes}) {
    Wire wire;
    wire.SendAndClose(std::string(length, '7') + "\nnext\n");
    LineReader reader(wire.reader_fd());
    std::string line;
    if (length <= serve::kMaxLineBytes) {
      ASSERT_TRUE(reader.ReadLine(&line)) << length;
      EXPECT_EQ(line.size(), length);
      ASSERT_TRUE(reader.ReadLine(&line));
      EXPECT_EQ(line, "next");
    } else {
      EXPECT_FALSE(reader.ReadLine(&line)) << length;
      EXPECT_TRUE(reader.too_long()) << length;
    }
  }
  // A client that never sends a newline cannot grow the buffer unbounded.
  Wire endless;
  endless.SendAndClose(std::string(1 << 20, 'x'));
  LineReader reader(endless.reader_fd());
  std::string line;
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_TRUE(reader.too_long());
}

TEST(ServeWireTest, HostileBinHeadersAreRefused) {
  uint64_t count = 0;
  EXPECT_TRUE(serve::ParseBinHeader("bin 0", &count));
  EXPECT_TRUE(serve::ParseBinHeader(
      "bin " + std::to_string(serve::kMaxBinaryBatch), &count));
  EXPECT_EQ(count, serve::kMaxBinaryBatch);
  for (const char* hostile :
       {"bin", "bin ", "bin x", "bin 12x", "bin 1 2", "bin -1",
        "bin 99999999999999999999999", "bin 0x10", "bin\t5"}) {
    EXPECT_FALSE(serve::ParseBinHeader(hostile, &count)) << hostile;
  }
  EXPECT_FALSE(serve::ParseBinHeader(
      "bin " + std::to_string(serve::kMaxBinaryBatch + 1), &count));

  // Seeded fuzz: a header that is not all digits (plus trailing spaces)
  // is refused, and no accepted count exceeds the cap.
  Rng rng(20260);
  const std::string alphabet = "0123456789 -+xe\t";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string tail;
    const size_t len = 1 + rng.UniformU64(12);
    for (size_t i = 0; i < len; ++i) {
      tail += alphabet[rng.UniformU64(alphabet.size())];
    }
    const size_t digits = tail.find_first_not_of("0123456789");
    const bool all_digits =
        digits != 0 &&
        (digits == std::string::npos ||
         tail.find_first_not_of(' ', digits) == std::string::npos);
    uint64_t parsed = 0;
    const bool accepted = serve::ParseBinHeader("bin " + tail, &parsed);
    if (!all_digits) {
      EXPECT_FALSE(accepted) << "'" << tail << "'";
    } else if (accepted) {
      EXPECT_LE(parsed, serve::kMaxBinaryBatch) << "'" << tail << "'";
    }
  }
}

TEST(ServeWireTest, TruncatedBinPayloadFails) {
  Wire wire;
  wire.SendAndClose(std::string(3 * 8 + 5, '\1'));
  LineReader reader(wire.reader_fd());
  std::vector<uint64_t> items;
  EXPECT_FALSE(serve::ReadBinPayload(reader, 4, &items));
}

// ---- Replication wire ---------------------------------------------------

TEST(ServeWireTest, HostileRconfIsRefused) {
  size_t shards = 0;
  std::string algo;
  ASSERT_TRUE(
      serve::ParseRconf("rconf shards=2 algo=exact", &shards, &algo).ok());
  EXPECT_EQ(shards, 2u);
  EXPECT_EQ(algo, "exact");
  EXPECT_EQ(serve::RconfLine(2, "exact"), "rconf shards=2 algo=exact");
  EXPECT_TRUE(serve::ParseRconf("rconf shards=" +
                                    std::to_string(serve::kMaxReplicaShards) +
                                    " algo=x",
                                &shards, &algo)
                  .ok());
  for (const std::string hostile :
       {"rconf shards=0 algo=exact", "rconf shards=65537 algo=exact",
        "rconf shards=-1 algo=exact", "rconf shards=2", "rconf shards=2 algo=",
        "rconf algo=exact shards=2", "rconf shards=2x algo=exact",
        "rconf shards=2 algo=exact extra", "frame full 0 1", ""}) {
    EXPECT_TRUE(serve::ParseRconf(hostile, &shards, &algo).IsCorruption())
        << hostile;
  }
}

TEST(ServeWireTest, HostileFrameHeadersAreRefused) {
  ReplicationRound round;
  const std::string too_big = std::to_string(serve::kMaxFrameBytes + 1);
  for (const std::string& header : std::vector<std::string>{
           "frame full 2 4", "frame delta 9 4", "frame full 0 " + too_big,
        "frame bogus 0 4", "frame full 0", "frame full", "frame",
        "frame full x 4", "frame full 0 4 4", "frame full 0 -4"}) {
    EXPECT_TRUE(
        ReadRoundFrom(header + "\nABCD\nrsync 0\n", 2, &round).IsCorruption())
        << header;
  }
  // One frame per shard per round.
  EXPECT_TRUE(ReadRoundFrom("frame full 0 1\nAframe full 0 1\nBrsync 0\n", 2,
                            &round)
                  .IsCorruption());
  // Unexpected lines, and an over-long one.
  EXPECT_TRUE(ReadRoundFrom("heavy\nrsync 0\n", 2, &round).IsCorruption());
  EXPECT_TRUE(ReadRoundFrom("rsync\n", 2, &round).IsCorruption());
  EXPECT_TRUE(ReadRoundFrom("rsync 5x\n", 2, &round).IsCorruption());
  EXPECT_TRUE(
      ReadRoundFrom(std::string(serve::kMaxLineBytes + 10, 'f'), 2, &round)
          .IsCorruption());
  // A frame cut short, and a round with no rsync, are the stream ending.
  EXPECT_TRUE(ReadRoundFrom("frame full 0 10\nABC", 2, &round).IsIOError());
  EXPECT_TRUE(ReadRoundFrom("frame full 0 3\nABC", 2, &round).IsIOError());
  // The minimal well-formed round.
  ASSERT_TRUE(ReadRoundFrom("frame delta 1 3\nABCrsync 42\n", 2, &round).ok());
  ASSERT_EQ(round.frames.size(), 1u);
  EXPECT_TRUE(round.frames[0].delta);
  EXPECT_EQ(round.frames[0].shard, 1u);
  EXPECT_EQ(round.items, 42u);
}

TEST(ServeWireTest, HostileAuditBlocksAreRefused) {
  ReplicationRound round;
  const std::string too_many = std::to_string(serve::kMaxAuditKeys + 1);
  for (const std::string& header : std::vector<std::string>{
           "audit 8 0.01 0.05 100 " + too_many, "audit 8 0.01 0.05 100",
        "audit 8 nan 0.05 100 0", "audit 8 0.01 0.05x 100 0",
        "audit x 0.01 0.05 100 0", "audit 8 0.01 0.05 100 1 1"}) {
    EXPECT_TRUE(
        ReadRoundFrom(header + "\nrsync 0\n", 1, &round).IsCorruption())
        << header;
  }
  // Torn shadows: a pair line that is not two counts, and a stream that
  // ends inside the shadow.
  EXPECT_TRUE(
      ReadRoundFrom("audit 8 0.01 0.05 100 2\n5 3\nrsync 0\n", 1, &round)
          .IsCorruption());
  EXPECT_TRUE(
      ReadRoundFrom("audit 8 0.01 0.05 100 2\n5 3\n", 1, &round).IsIOError());
  ASSERT_TRUE(ReadRoundFrom("audit 8 0.01 0.05 100 2\n5 3\n9 1\nrsync 100\n",
                            1, &round)
                  .ok());
  ASSERT_TRUE(round.audit.has_value());
  EXPECT_EQ(round.audit->sample_rate, 8u);
  EXPECT_EQ(round.audit->epsilon, 0.01);
  EXPECT_EQ(round.audit->items, 100u);
  ASSERT_EQ(round.audit->keys.size(), 2u);
  EXPECT_EQ(round.audit->keys[1], (std::pair<uint64_t, uint64_t>{9, 1}));
}

// ---- Rounds from a real engine -----------------------------------------

ShardedEngineOptions WindowedOptions(uint64_t seed = 3) {
  ShardedEngineOptions options;
  options.algorithm = "windowed:space_saving";
  options.num_shards = 2;
  options.summary.epsilon = 0.02;
  options.summary.phi = 0.05;
  options.summary.universe_size = uint64_t{1} << 16;
  options.summary.stream_length = 8192;
  options.summary.seed = seed;
  options.summary.window_size = 4096;
  options.summary.window_buckets = 8;
  return options;
}

// A frame-fed engine needs no more than one worker and tiny rings.
ShardedEngineOptions ReplicaExec() {
  ShardedEngineOptions exec;
  exec.num_threads = 1;
  exec.queue_capacity = 64;
  return exec;
}

// Captures a round the way l1hh_serve does, advancing `baselines`.
ReplicationRound CaptureRound(ShardedEngine& engine,
                              std::vector<ShardBaseline>* baselines) {
  ReplicationRound round;
  EXPECT_TRUE(engine
                  .CaptureFrames(*baselines, ShardedEngine::kMaxDeltaChain,
                                 &round.frames, &round.items)
                  .ok());
  baselines->resize(engine.num_shards());
  for (const ShardFrame& frame : round.frames) {
    ShardBaseline& baseline = (*baselines)[frame.shard];
    baseline.chain = frame.delta ? baseline.chain + 1 : 0;
    baseline.valid = true;
    baseline.applied = frame.applied;
    baseline.rotations = frame.rotations;
  }
  return round;
}

// What a client can observe of an engine, plus (optionally) the saved
// bytes of every shard.
struct Observed {
  std::vector<std::pair<uint64_t, double>> heavy;
  std::vector<double> estimates;
  std::vector<std::vector<uint8_t>> shard_bytes;
  uint64_t items = 0;

  bool operator==(const Observed& other) const = default;
};

Observed Observe(ShardedEngine& engine, const std::vector<uint64_t>& probes,
                 bool with_bytes) {
  Observed seen;
  for (const ItemEstimate& hh : engine.HeavyHitters(0.05)) {
    seen.heavy.emplace_back(hh.item, hh.estimate);
  }
  seen.estimates = engine.EstimateBatch(probes);
  seen.items = engine.ItemsProcessed();
  if (with_bytes) {
    std::vector<ShardFrame> frames;
    EXPECT_TRUE(engine.CaptureFrames({}, 0, &frames, nullptr).ok());
    for (ShardFrame& frame : frames) {
      seen.shard_bytes.push_back(std::move(frame.bytes));
    }
  }
  return seen;
}

TEST(ServeWireTest, WrittenRoundReadsBackIdentically) {
  auto primary = ShardedEngine::Create(WindowedOptions());
  ASSERT_NE(primary, nullptr);
  const auto items = MakeZipfStream(uint64_t{1} << 16, 1.2, 3000, 7);
  primary->UpdateBatch(items);
  std::vector<ShardBaseline> baselines;
  ReplicationRound written = CaptureRound(*primary, &baselines);
  written.audit = serve::AuditShadow{8, 0.02, 0.05, written.items,
                                     {{items[0], 17}, {items[1], 4}}};
  ReplicationRound read;
  ASSERT_TRUE(ReadRoundFrom(Encode(written), 2, &read).ok());
  ASSERT_EQ(read.frames.size(), written.frames.size());
  for (size_t i = 0; i < read.frames.size(); ++i) {
    EXPECT_EQ(read.frames[i].shard, written.frames[i].shard);
    EXPECT_EQ(read.frames[i].delta, written.frames[i].delta);
    EXPECT_EQ(read.frames[i].bytes, written.frames[i].bytes);
  }
  EXPECT_EQ(read.items, written.items);
  ASSERT_TRUE(read.audit.has_value());
  EXPECT_EQ(read.audit->sample_rate, 8u);
  EXPECT_EQ(read.audit->epsilon, written.audit->epsilon);
  EXPECT_EQ(read.audit->phi, written.audit->phi);
  EXPECT_EQ(read.audit->items, written.items);
  EXPECT_EQ(read.audit->keys, written.audit->keys);
}

// The torn-round regression: a replica moves only by whole rounds.
TEST(ServeWireTest, ReplicaRoundsCommitAtomically) {
  auto primary = ShardedEngine::Create(WindowedOptions());
  ASSERT_NE(primary, nullptr);
  const auto items = MakeZipfStream(uint64_t{1} << 16, 1.2, 3600, 11);
  const std::vector<uint64_t> first(items.begin(), items.begin() + 2500);
  const std::vector<uint64_t> second(items.begin() + 2500, items.end());
  const std::vector<uint64_t> probes(items.begin(), items.begin() + 64);

  primary->UpdateBatch(first);
  std::vector<ShardBaseline> baselines;
  const ReplicationRound cold = CaptureRound(*primary, &baselines);
  Status status;
  auto replica =
      ShardedEngine::FromFrames(cold.frames, 2, ReplicaExec(), &status);
  ASSERT_NE(replica, nullptr) << status.ToString();
  ASSERT_EQ(Observe(*replica, probes, true), Observe(*primary, probes, true));

  // The next round crosses two bucket rotations (512 items each), which
  // still fit the 8-bucket ring, so every shard ships a delta frame.
  primary->UpdateBatch(second);
  const ReplicationRound round = CaptureRound(*primary, &baselines);
  ASSERT_EQ(round.frames.size(), 2u);
  for (const ShardFrame& frame : round.frames) EXPECT_TRUE(frame.delta);
  const Observed committed = Observe(*replica, probes, true);

  // Cut off before rsync: no strict prefix of the round's bytes reads
  // back as a round, so the replica has nothing to commit.
  const std::string wire = Encode(round);
  Rng rng(77);
  for (int cut = 0; cut < 40; ++cut) {
    const size_t length =
        cut == 0 ? wire.size() - 1 : rng.UniformU64(wire.size());
    ReplicationRound partial;
    EXPECT_FALSE(ReadRoundFrom(wire.substr(0, length), 2, &partial).ok())
        << "prefix " << length << " of " << wire.size();
  }
  EXPECT_EQ(Observe(*replica, probes, true), committed);

  // A flipped bit in the LAST frame refuses the whole round: the first
  // frame, which decodes fine, must not have been applied either.
  ReplicationRound corrupt = round;
  std::vector<uint8_t>& last = corrupt.frames.back().bytes;
  last[last.size() / 2] ^= 0x10;
  EXPECT_TRUE(replica->ApplyFrames(corrupt.frames).IsCorruption());
  EXPECT_EQ(Observe(*replica, probes, true), committed);

  // Frames of another engine (different seed) are refused as a set.
  auto foreign = ShardedEngine::Create(WindowedOptions(/*seed=*/4));
  ASSERT_NE(foreign, nullptr);
  foreign->UpdateBatch(first);
  std::vector<ShardBaseline> foreign_baselines;
  const ReplicationRound alien = CaptureRound(*foreign, &foreign_baselines);
  EXPECT_FALSE(replica->ApplyFrames(alien.frames).ok());
  EXPECT_EQ(Observe(*replica, probes, true), committed);

  // The valid round then makes the replica answer exactly as the
  // primary does.
  ReplicationRound read;
  ASSERT_TRUE(ReadRoundFrom(wire, 2, &read).ok());
  ASSERT_TRUE(replica->ApplyFrames(read.frames).ok());
  EXPECT_EQ(Observe(*replica, probes, true), Observe(*primary, probes, true));
  EXPECT_EQ(replica->ItemsProcessed(), read.items);
}

TEST(ServeWireTest, FromFramesRefusesIncompleteColdRounds) {
  auto primary = ShardedEngine::Create(WindowedOptions());
  ASSERT_NE(primary, nullptr);
  primary->UpdateBatch(MakeZipfStream(uint64_t{1} << 16, 1.2, 1000, 5));
  std::vector<ShardBaseline> baselines;
  const ReplicationRound cold = CaptureRound(*primary, &baselines);
  ASSERT_EQ(cold.frames.size(), 2u);
  Status status;
  EXPECT_EQ(
      ShardedEngine::FromFrames({cold.frames[0]}, 2, ReplicaExec(), &status),
      nullptr);
  EXPECT_EQ(ShardedEngine::FromFrames({cold.frames[0], cold.frames[0]}, 2,
                                      ReplicaExec(), &status),
            nullptr);
  EXPECT_EQ(ShardedEngine::FromFrames(cold.frames, 0, ReplicaExec(), &status),
            nullptr);
  std::vector<ShardFrame> flipped = cold.frames;
  flipped[1].bytes[flipped[1].bytes.size() / 3] ^= 0x01;
  EXPECT_EQ(ShardedEngine::FromFrames(flipped, 2, ReplicaExec(), &status),
            nullptr);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(ShardedEngine::FromFrames(cold.frames, 2, ReplicaExec(), &status),
            nullptr);
}

// Seeded byte-level fuzz of whole rounds through reader and commit: a
// mutated stream either reads back and commits, or is refused — and a
// refused commit leaves the replica where it was.
TEST(ServeWireTest, MutatedRoundsNeverTearTheReplica) {
  auto primary = ShardedEngine::Create(WindowedOptions());
  ASSERT_NE(primary, nullptr);
  const auto items = MakeZipfStream(uint64_t{1} << 16, 1.2, 4000, 13);
  primary->UpdateBatch(
      std::vector<uint64_t>(items.begin(), items.begin() + 1500));
  std::vector<ShardBaseline> baselines;
  const ReplicationRound cold = CaptureRound(*primary, &baselines);
  primary->UpdateBatch(
      std::vector<uint64_t>(items.begin() + 1500, items.end()));
  const std::string wire = Encode(CaptureRound(*primary, &baselines));
  const std::vector<uint64_t> probes(items.begin(), items.begin() + 16);

  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    auto replica = ShardedEngine::FromFrames(cold.frames, 2, ReplicaExec());
    ASSERT_NE(replica, nullptr);
    const Observed before = Observe(*replica, probes, false);
    std::string mutated = wire;
    const uint64_t flips = 1 + rng.UniformU64(4);
    for (uint64_t f = 0; f < flips; ++f) {
      mutated[rng.UniformU64(mutated.size())] ^=
          static_cast<char>(1u << rng.UniformU64(8));
    }
    ReplicationRound round;
    if (!ReadRoundFrom(mutated, 2, &round).ok()) continue;
    for (const ShardFrame& frame : round.frames) {
      EXPECT_LT(frame.shard, 2u);
      EXPECT_LE(frame.bytes.size(), serve::kMaxFrameBytes);
    }
    if (!replica->ApplyFrames(round.frames).ok()) {
      EXPECT_EQ(Observe(*replica, probes, false), before) << "trial " << trial;
    }
  }
}

// A cold round may carry, per shard, a full frame followed by deltas
// chained onto it: the replica it builds answers like the primary.
TEST(ServeWireTest, FromFramesAcceptsAFullFramePlusDeltasPerShard) {
  auto primary = ShardedEngine::Create(WindowedOptions());
  ASSERT_NE(primary, nullptr);
  const auto items = MakeZipfStream(uint64_t{1} << 16, 1.2, 3600, 21);
  const std::vector<uint64_t> probes(items.begin(), items.begin() + 64);
  primary->UpdateBatch(
      std::vector<uint64_t>(items.begin(), items.begin() + 2500));
  std::vector<ShardBaseline> baselines;
  std::vector<ShardFrame> chain = CaptureRound(*primary, &baselines).frames;
  primary->UpdateBatch(
      std::vector<uint64_t>(items.begin() + 2500, items.end()));
  const ReplicationRound deltas = CaptureRound(*primary, &baselines);
  ASSERT_EQ(deltas.frames.size(), 2u);
  for (const ShardFrame& frame : deltas.frames) {
    ASSERT_TRUE(frame.delta);
    chain.push_back(frame);
  }

  Status status;
  auto replica = ShardedEngine::FromFrames(chain, 2, ReplicaExec(), &status);
  ASSERT_NE(replica, nullptr) << status.ToString();
  EXPECT_EQ(Observe(*replica, probes, true), Observe(*primary, probes, true));
  EXPECT_EQ(replica->ShardItemCounts(), primary->ShardItemCounts());
  EXPECT_EQ(replica->ItemsProcessed(), deltas.items);
}

// A delta for a shard the round gave no full frame has nothing to chain
// onto: the round is refused and no engine is built.
TEST(ServeWireTest, FromFramesRefusesADeltaWithNoBase) {
  auto primary = ShardedEngine::Create(WindowedOptions());
  ASSERT_NE(primary, nullptr);
  const auto items = MakeZipfStream(uint64_t{1} << 16, 1.2, 3600, 23);
  primary->UpdateBatch(
      std::vector<uint64_t>(items.begin(), items.begin() + 2500));
  std::vector<ShardBaseline> baselines;
  const ReplicationRound cold = CaptureRound(*primary, &baselines);
  primary->UpdateBatch(
      std::vector<uint64_t>(items.begin() + 2500, items.end()));
  const ReplicationRound deltas = CaptureRound(*primary, &baselines);
  ASSERT_EQ(cold.frames.size(), 2u);
  ASSERT_EQ(deltas.frames.size(), 2u);
  ASSERT_TRUE(deltas.frames[1].delta);

  Status status;
  EXPECT_EQ(ShardedEngine::FromFrames({cold.frames[0], deltas.frames[1]}, 2,
                                      ReplicaExec(), &status),
            nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  // A delta ahead of its shard's full frame has no base either.
  EXPECT_EQ(ShardedEngine::FromFrames(
                {cold.frames[0], deltas.frames[1], cold.frames[1]}, 2,
                ReplicaExec(), &status),
            nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(ShardedEngine::FromFrames(deltas.frames, 2, ReplicaExec(), &status),
            nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

// Restore == replica: a checkpoint directory written by Checkpoint then
// CheckpointDelta restores to exactly the engine a replica builds from
// the frames captured at the same two points.
TEST(ServeWireTest, RestoreAnswersLikeAReplicaOfTheSameFrames) {
  const std::string dir = testing::TempDir() + "/restore_equals_replica";
  std::filesystem::remove_all(dir);
  auto primary = ShardedEngine::Create(WindowedOptions());
  ASSERT_NE(primary, nullptr);
  const auto items = MakeZipfStream(uint64_t{1} << 16, 1.2, 3600, 29);
  const std::vector<uint64_t> probes(items.begin(), items.begin() + 64);

  primary->UpdateBatch(
      std::vector<uint64_t>(items.begin(), items.begin() + 2500));
  ASSERT_TRUE(primary->Checkpoint(dir).ok());
  std::vector<ShardBaseline> baselines;
  const ReplicationRound cold = CaptureRound(*primary, &baselines);
  primary->UpdateBatch(
      std::vector<uint64_t>(items.begin() + 2500, items.end()));
  ASSERT_TRUE(primary->CheckpointDelta(dir).ok());
  const ReplicationRound round = CaptureRound(*primary, &baselines);
  for (const ShardFrame& frame : round.frames) EXPECT_TRUE(frame.delta);
  size_t delta_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".delta") ++delta_files;
  }
  EXPECT_EQ(delta_files, 2u);

  Status status;
  auto restored = ShardedEngine::Restore(dir, ReplicaExec(), &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  auto replica =
      ShardedEngine::FromFrames(cold.frames, 2, ReplicaExec(), &status);
  ASSERT_NE(replica, nullptr) << status.ToString();
  ASSERT_TRUE(replica->ApplyFrames(round.frames).ok());

  const Observed seen = Observe(*restored, probes, true);
  EXPECT_EQ(seen, Observe(*replica, probes, true));
  EXPECT_EQ(restored->ShardItemCounts(), replica->ShardItemCounts());
  EXPECT_EQ(seen, Observe(*primary, probes, true));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace l1hh
