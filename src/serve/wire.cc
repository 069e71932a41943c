#include "serve/wire.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <poll.h>
#include <unistd.h>

namespace l1hh {
namespace serve {
namespace {

size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

// Why a ReadLine inside a round came back empty-handed.
Status ReadFailure(const LineReader& reader) {
  if (reader.too_long()) {
    return Status::Corruption("replication line longer than " +
                              std::to_string(kMaxLineBytes) + " bytes");
  }
  return Status::IOError("replication stream ended mid-round");
}

Status ReadAudit(LineReader& reader, const std::string& header,
                 AuditShadow* audit) {
  const std::vector<std::string> f = Fields(header);
  uint64_t nkeys = 0;
  if (f.size() != 6 || !ParseU64(f[1].c_str(), &audit->sample_rate) ||
      !ParseDouble(f[2], &audit->epsilon) ||
      !ParseDouble(f[3], &audit->phi) ||
      !ParseU64(f[4].c_str(), &audit->items) ||
      !ParseU64(f[5].c_str(), &nkeys) || nkeys > kMaxAuditKeys) {
    return Status::Corruption("malformed audit header '" + header + "'");
  }
  audit->keys.reserve(static_cast<size_t>(nkeys));
  std::string line;
  for (uint64_t i = 0; i < nkeys; ++i) {
    if (!reader.ReadLine(&line)) return ReadFailure(reader);
    const std::vector<std::string> pair = Fields(line);
    uint64_t key = 0, count = 0;
    if (pair.size() != 2 || !ParseU64(pair[0].c_str(), &key) ||
        !ParseU64(pair[1].c_str(), &count)) {
      return Status::Corruption("torn audit shadow at '" + line + "'");
    }
    audit->keys.emplace_back(key, count);
  }
  return Status::Ok();
}

}  // namespace

bool WriteAll(int fd, const void* data, size_t n) {
  const char* bytes = static_cast<const char*>(data);
  size_t done = 0;
  while (done < n) {
    const ssize_t wrote = ::write(fd, bytes + done, n - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(wrote);
  }
  return true;
}

bool WriteLine(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  return WriteAll(fd, framed.data(), framed.size());
}

std::vector<std::string> Fields(const std::string& line) {
  // The blanks `istream >> std::string` skips in the C locale.
  constexpr const char* kBlanks = " \t\n\v\f\r";
  std::vector<std::string> fields;
  for (size_t at = line.find_first_not_of(kBlanks); at != std::string::npos;
       at = line.find_first_not_of(kBlanks, at)) {
    const size_t end = std::min(line.find_first_of(kBlanks, at), line.size());
    fields.push_back(line.substr(at, end - at));
    at = end;
  }
  return fields;
}

bool ParseU64(const char* text, uint64_t* out) {
  // strtoull alone would also take leading blanks and a sign.
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || errno == ERANGE) return false;
  while (*end == ' ') ++end;
  if (*end != '\0') return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParsePhi(const std::string& text, double* phi) {
  return ParseDouble(text, phi) && *phi > 0.0 && *phi <= 1.0;
}

bool SplitFlag(int argc, char** argv, int* i, std::string* key,
               std::string* value) {
  *key = argv[*i];
  const size_t eq = key->find('=');
  if (eq != std::string::npos) {
    *value = key->substr(eq + 1);
    key->resize(eq);
  } else if (*i + 1 < argc) {
    *value = argv[++*i];
  } else {
    std::fprintf(stderr, "flag %s needs a value\n", key->c_str());
    return false;
  }
  if (value->empty()) {
    std::fprintf(stderr, "flag %s needs a non-empty value\n", key->c_str());
    return false;
  }
  return true;
}

bool MalformedFlag(const std::string& key, const std::string& value) {
  std::fprintf(stderr, "flag %s: malformed value '%s'\n", key.c_str(),
               value.c_str());
  return false;
}

bool PrintUnknownFlag(const std::string& key,
                      std::span<const char* const> known) {
  std::string best;
  size_t best_distance = 3;  // suggest only near misses
  for (const char* flag : known) {
    const size_t d = EditDistance(key, flag);
    if (d < best_distance) {
      best_distance = d;
      best = flag;
    }
  }
  const std::string hint = best.empty() ? "" : " (did you mean " + best + "?)";
  std::fprintf(stderr, "unknown flag: %s%s\n", key.c_str(), hint.c_str());
  return false;
}

bool LineReader::ReadLine(std::string* line) {
  size_t scanned = 0;  // bytes past pos_ already known to hold no newline
  while (true) {
    const size_t nl = buffer_.find('\n', pos_ + scanned);
    if (nl != std::string::npos && nl - pos_ <= kMaxLineBytes) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      return true;
    }
    scanned = buffer_.size() - pos_;
    if (nl != std::string::npos || scanned > kMaxLineBytes) {
      too_long_ = true;
      return false;
    }
    if (!Fill()) return false;
  }
}

bool LineReader::ReadExact(char* out, size_t n) {
  const size_t buffered = std::min(n, buffer_.size() - pos_);
  std::memcpy(out, buffer_.data() + pos_, buffered);
  pos_ += buffered;
  size_t got = buffered;
  while (got < n) {
    const ssize_t r = ::read(fd_, out + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  return true;
}

bool LineReader::Fill() {
  // Compacting here rather than after every line keeps the per-line cost
  // free of a memmove over the rest of the buffer.
  if (pos_ != 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  if (before_block_) {
    pollfd ready{fd_, POLLIN, 0};
    if (::poll(&ready, 1, 0) != 1) before_block_();
  }
  char chunk[4096];
  const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
  if (n < 0 && errno == EINTR) return true;
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

bool ParseBinHeader(const std::string& line, uint64_t* count) {
  return line.rfind("bin ", 0) == 0 && ParseU64(line.c_str() + 4, count) &&
         *count <= kMaxBinaryBatch;
}

bool ReadBinPayload(LineReader& reader, uint64_t count,
                    std::vector<uint64_t>* items) {
  items->resize(static_cast<size_t>(count));
  if (!reader.ReadExact(reinterpret_cast<char*>(items->data()),
                        items->size() * sizeof(uint64_t))) {
    items->clear();
    return false;
  }
  // The wire format is little-endian u64; byte-swap on a big-endian host
  // so snapshots of the served stream stay portable.
  if constexpr (std::endian::native == std::endian::big) {
    for (uint64_t& item : *items) item = __builtin_bswap64(item);
  }
  return true;
}

std::string RconfLine(size_t num_shards, const std::string& algorithm) {
  return "rconf shards=" + std::to_string(num_shards) + " algo=" + algorithm;
}

Status ParseRconf(const std::string& line, size_t* num_shards,
                  std::string* algorithm) {
  const std::vector<std::string> f = Fields(line);
  uint64_t shards = 0;
  if (f.size() != 3 || f[0] != "rconf" || f[1].rfind("shards=", 0) != 0 ||
      f[2].rfind("algo=", 0) != 0 || f[2].size() == 5 ||
      !ParseU64(f[1].c_str() + 7, &shards) || shards == 0 ||
      shards > kMaxReplicaShards) {
    return Status::Corruption("malformed rconf '" + line + "'");
  }
  *num_shards = static_cast<size_t>(shards);
  *algorithm = f[2].substr(5);
  return Status::Ok();
}

bool WriteRound(int fd, const ReplicationRound& round) {
  for (const ShardFrame& frame : round.frames) {
    const std::string header =
        std::string("frame ") + (frame.delta ? "delta" : "full") + " " +
        std::to_string(frame.shard) + " " +
        std::to_string(frame.bytes.size());
    if (!WriteLine(fd, header) ||
        !WriteAll(fd, frame.bytes.data(), frame.bytes.size())) {
      return false;
    }
  }
  if (round.audit.has_value()) {
    const AuditShadow& audit = *round.audit;
    char header[160];
    std::snprintf(header, sizeof(header), "audit %llu %.17g %.17g %llu %zu\n",
                  static_cast<unsigned long long>(audit.sample_rate),
                  audit.epsilon, audit.phi,
                  static_cast<unsigned long long>(audit.items),
                  audit.keys.size());
    std::string block = header;
    for (const auto& [key, count] : audit.keys) {
      block += std::to_string(key) + " " + std::to_string(count) + "\n";
    }
    if (!WriteAll(fd, block.data(), block.size())) return false;
  }
  return WriteLine(fd, "rsync " + std::to_string(round.items));
}

Status ReadRound(LineReader& reader, size_t num_shards,
                 ReplicationRound* round) {
  *round = ReplicationRound{};
  std::vector<bool> seen(num_shards, false);
  std::string line;
  while (true) {
    if (!reader.ReadLine(&line)) return ReadFailure(reader);
    const std::vector<std::string> f = Fields(line);
    const std::string verb = f.empty() ? std::string() : f[0];
    if (verb == "frame") {
      uint64_t shard = 0, nbytes = 0;
      // One frame per shard per round bounds what a round can buffer.
      if (f.size() != 4 || (f[1] != "full" && f[1] != "delta") ||
          !ParseU64(f[2].c_str(), &shard) || shard >= num_shards ||
          seen[static_cast<size_t>(shard)] ||
          !ParseU64(f[3].c_str(), &nbytes) || nbytes > kMaxFrameBytes) {
        return Status::Corruption("malformed frame header '" + line + "'");
      }
      seen[static_cast<size_t>(shard)] = true;
      ShardFrame frame;
      frame.shard = static_cast<size_t>(shard);
      frame.delta = f[1] == "delta";
      frame.bytes.resize(static_cast<size_t>(nbytes));
      if (!reader.ReadExact(reinterpret_cast<char*>(frame.bytes.data()),
                            frame.bytes.size())) {
        return Status::IOError("replication stream ended inside a frame");
      }
      round->frames.push_back(std::move(frame));
      continue;
    }
    if (verb == "audit") {
      AuditShadow audit;
      const Status s = ReadAudit(reader, line, &audit);
      if (!s.ok()) return s;
      round->audit = std::move(audit);
      continue;
    }
    if (verb == "rsync" && f.size() == 2 &&
        ParseU64(f[1].c_str(), &round->items)) {
      return Status::Ok();
    }
    return Status::Corruption("unexpected line from primary: '" + line +
                              "'");
  }
}

}  // namespace serve
}  // namespace l1hh
