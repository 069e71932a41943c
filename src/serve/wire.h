// The serving wire shared by l1hh_serve and l1hh_replica: the line codec
// both binaries speak (docs/ENGINE.md, "The serving core"), the `bin N`
// batch framing, and both ends of the replication stream
// (docs/SNAPSHOTS.md, "Warm-standby replication").
//
// A replication round, primary to replica, is
//
//   rconf shards=<K> algo=<A>            (cold rounds only: `replicate`)
//   frame <full|delta> <shard> <nbytes>  then exactly nbytes of snapshot
//                                        ("L1HHSNAP") or delta ("L1HHDELT")
//                                        container bytes; zero or more
//   audit <rate> <eps> <phi> <m> <n>     then n "<key> <count>" lines
//                                        (auditing primaries only)
//   rsync <items>                        the primary's applied count the
//                                        round brings the replica to
//
// ReadRound only parses: it hands back the whole round so the caller can
// commit it in one step (ShardedEngine::ApplyFrames), and a stream cut
// off before `rsync` commits nothing.
#ifndef L1HH_SERVE_WIRE_H_
#define L1HH_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/sharded_engine.h"
#include "util/status.h"

namespace l1hh {
namespace serve {

/// A line longer than this (newline excluded) is refused: the server
/// replies "err line too long" and closes, as for a desynced `bin` header.
inline constexpr size_t kMaxLineBytes = 4096;
/// A `bin N` batch above this is a protocol error, not a workload (guards
/// a garbage length from allocating the machine away).
inline constexpr uint64_t kMaxBinaryBatch = uint64_t{1} << 26;
/// A replication frame above this is a protocol error, not a snapshot.
inline constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 28;
/// Plausibility caps on the rconf shard count (the engine's own cap: no
/// primary has more shards) and an audit header's key count.
inline constexpr uint64_t kMaxReplicaShards = ShardedEngine::kMaxShards;
inline constexpr uint64_t kMaxAuditKeys = uint64_t{1} << 20;

bool WriteAll(int fd, const void* data, size_t n);
bool WriteLine(int fd, const std::string& line);

/// The whitespace-separated fields of one text line.
std::vector<std::string> Fields(const std::string& line);

/// Decimal u64: digits, then optional trailing spaces; false for anything
/// else (a sign, leading blanks, junk, or out of range).
bool ParseU64(const char* text, uint64_t* out);

/// One finite decimal, nothing after it.
bool ParseDouble(const std::string& text, double* out);

/// A heavy-hitter threshold for the `heavy <phi>` verb and every --phi
/// flag: one finite decimal in (0, 1], nothing after it.
bool ParsePhi(const std::string& text, double* phi);
inline constexpr const char* kPhiRangeError = "phi must be in (0, 1]";

/// The command-line flag at argv[*i], as `--key=value` or `--key value`
/// (then *i moves past the value).  False, after saying why on stderr,
/// when the value is missing or empty.
bool SplitFlag(int argc, char** argv, int* i, std::string* key,
               std::string* value);

/// "flag <key>: malformed value '<value>'" on stderr; returns false.
bool MalformedFlag(const std::string& key, const std::string& value);

/// "unknown flag: <key>" on stderr, with a did-you-mean hint when one of
/// `known` is a near miss; returns false.
bool PrintUnknownFlag(const std::string& key,
                      std::span<const char* const> known);

/// Buffered reader that supports both newline framing (text requests)
/// and exact-length reads (`bin N` payloads, replication frames).
class LineReader {
 public:
  /// `before_block`, when set, runs before ReadLine waits on a socket
  /// with no bytes ready (a connection hands on the work it staged).
  explicit LineReader(int fd, std::function<void()> before_block = {})
      : fd_(fd), before_block_(std::move(before_block)) {}

  /// Strips the trailing newline; false on EOF, on a read error, or on a
  /// line longer than kMaxLineBytes (then too_long() is true).
  bool ReadLine(std::string* line);
  bool ReadExact(char* out, size_t n);
  bool too_long() const { return too_long_; }

 private:
  // Drops the consumed prefix, then reads one chunk.
  bool Fill();

  int fd_;
  std::function<void()> before_block_;
  std::string buffer_;
  size_t pos_ = 0;
  bool too_long_ = false;
};

/// Parses a "bin <N>" request line; false for a non-digit N or
/// N > kMaxBinaryBatch.
bool ParseBinHeader(const std::string& line, uint64_t* count);

/// Reads the `count` little-endian u64 ids that follow a bin header into
/// *items (host order); false, with *items empty, on a truncated payload.
bool ReadBinPayload(LineReader& reader, uint64_t count,
                    std::vector<uint64_t>* items);

// ---- Replication --------------------------------------------------------

/// Exact shadow truth an auditing primary ships with a round: the keys'
/// counts at stream position `items` under its auditor's options.
struct AuditShadow {
  uint64_t sample_rate = 0;
  double epsilon = 0.0;
  double phi = 0.0;
  uint64_t items = 0;
  std::vector<std::pair<uint64_t, uint64_t>> keys;
};

/// One round as it crosses the wire (the rconf line aside).  Frames read
/// back carry only shard, kind and bytes; their clocks live in the bytes.
struct ReplicationRound {
  std::vector<ShardFrame> frames;
  std::optional<AuditShadow> audit;
  uint64_t items = 0;
};

std::string RconfLine(size_t num_shards, const std::string& algorithm);
Status ParseRconf(const std::string& line, size_t* num_shards,
                  std::string* algorithm);

/// Writes the round's frames, audit block (when present) and rsync line;
/// false on an I/O error.
bool WriteRound(int fd, const ReplicationRound& round);

/// Reads one round up to and including its rsync line.  Any malformed
/// line (frame shard >= num_shards, nbytes > kMaxFrameBytes, unknown
/// kind, missing field, audit key count > kMaxAuditKeys, torn shadow,
/// an unexpected line) is Corruption; a stream that ends mid-round is
/// IOError.
Status ReadRound(LineReader& reader, size_t num_shards,
                 ReplicationRound* round);

}  // namespace serve
}  // namespace l1hh

#endif  // L1HH_SERVE_WIRE_H_
