#include "io/snapshot.h"

#include <cstring>
#include <optional>
#include <utility>

#include "group/grouped_summary.h"
#include "io/durable_file.h"
#include "util/bit_stream.h"
#include "util/crc32.h"
#include "window/sliding_window_summary.h"

namespace l1hh {
namespace {

constexpr char kMagic[8] = {'L', '1', 'H', 'H', 'S', 'N', 'A', 'P'};
constexpr char kDeltaMagic[8] = {'L', '1', 'H', 'H', 'D', 'E', 'L', 'T'};
constexpr char kGroupedMagic[8] = {'L', '1', 'H', 'H', 'G', 'R', 'U', 'P'};
constexpr size_t kPreambleBytes = 8 + 4 + 8;  // magic + version + stream_bits
constexpr size_t kTrailerBytes = 4;           // CRC-32
constexpr size_t kMaxNameLength = 128;

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t ParseU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ParseU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Domain check on header options BEFORE they reach a factory: adapter
/// constructors divide by epsilon/phi and cast the results to integers,
/// so a hostile value (0, denormal, negative, NaN) in a CRC-resealed
/// container would be UB or an uncaught length_error, not a Status.
Status ValidateHeaderOptions(const SummaryOptions& opt) {
  const auto in_unit = [](double v) { return v > 1e-9 && v <= 1.0; };
  if (!in_unit(opt.epsilon) || !in_unit(opt.phi) || !in_unit(opt.delta)) {
    return Status::Corruption(
        "snapshot header options out of domain (epsilon/phi/delta must be "
        "in (0, 1])");
  }
  if (opt.universe_size < 2) {
    return Status::Corruption(
        "snapshot header universe_size is implausible");
  }
  return Status::Ok();
}

void WriteNameAndOptions(BitWriter& out, const std::string& name,
                         const SummaryOptions& opt) {
  out.WriteBits(name.size(), 8);
  for (const char c : name) {
    out.WriteBits(static_cast<uint8_t>(c), 8);
  }
  out.WriteDouble(opt.epsilon);
  out.WriteDouble(opt.phi);
  out.WriteDouble(opt.delta);
  out.WriteU64(opt.universe_size);
  out.WriteU64(opt.stream_length);
  out.WriteU64(opt.seed);
  out.WriteU64(opt.window_size);
  out.WriteU64(opt.window_buckets);
}

void WriteHeader(BitWriter& out, const Summary& summary) {
  WriteNameAndOptions(out, std::string(summary.Name()), summary.Options());
  out.WriteU64(summary.ItemsProcessed());
}

/// Wraps a finished bit stream in the outer framing: magic, version,
/// stream_bits, the words, and the CRC trailer.
void SealContainer(const char (&magic)[8], uint32_t version,
                   const BitWriter& stream, std::vector<uint8_t>* out) {
  const std::vector<uint64_t>& words = stream.words();
  out->clear();
  out->reserve(kPreambleBytes + words.size() * 8 + kTrailerBytes);
  out->insert(out->end(), magic, magic + sizeof(magic));
  AppendU32(*out, version);
  AppendU64(*out, stream.size_bits());
  out->resize(kPreambleBytes + words.size() * 8);
  uint8_t* p = out->data() + kPreambleBytes;
  for (const uint64_t word : words) {  // little-endian, one store a word
    for (int i = 0; i < 8; ++i) *p++ = static_cast<uint8_t>(word >> (8 * i));
  }
  AppendU32(*out, Crc32(out->data(), out->size()));
}

/// Validates the outer framing (magic, version, CRC, length consistency)
/// shared by snapshot and delta containers, and unpacks the bit stream.
/// *words must outlive *reader.
Status OpenContainer(std::span<const uint8_t> bytes,
                     const char (&magic)[8], uint32_t version,
                     const char* kind, std::vector<uint64_t>* words,
                     std::optional<BitReader>* reader) {
  const std::string what(kind);
  if (bytes.size() < kPreambleBytes + kTrailerBytes) {
    return Status::Corruption(what + " too short (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), magic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a l1hh " + what + " (bad magic)");
  }
  const uint32_t file_version = ParseU32(bytes.data() + 8);
  if (file_version != version) {
    return Status::InvalidArgument(
        "unsupported " + what + " format version " +
        std::to_string(file_version) + " (this build reads version " +
        std::to_string(version) + ")");
  }
  // CRC over everything but the trailer, checked BEFORE trusting any
  // variable-length field: random corruption and truncation both land here.
  const uint32_t expected_crc = ParseU32(bytes.data() + bytes.size() - 4);
  const uint32_t actual_crc = Crc32(bytes.data(), bytes.size() - 4);
  if (expected_crc != actual_crc) {
    return Status::Corruption(what + " CRC mismatch (file corrupt)");
  }
  const uint64_t stream_bits = ParseU64(bytes.data() + 12);
  const uint64_t stream_words = (stream_bits + 63) / 64;
  if (kPreambleBytes + stream_words * 8 + kTrailerBytes != bytes.size()) {
    return Status::Corruption(
        what + " length disagrees with its header (" +
        std::to_string(bytes.size()) + " bytes for " +
        std::to_string(stream_bits) + " stream bits)");
  }
  words->resize(stream_words);
  for (uint64_t w = 0; w < stream_words; ++w) {
    (*words)[w] = ParseU64(bytes.data() + kPreambleBytes + w * 8);
  }
  reader->emplace(words->data(), words->size(),
                  static_cast<size_t>(stream_bits));
  return Status::Ok();
}

Status ReadName(BitReader& in, const char* kind, std::string* name) {
  const uint64_t name_length = in.ReadBits(8);
  if (name_length == 0 || name_length > kMaxNameLength) {
    return Status::Corruption(std::string(kind) +
                              " algorithm name has implausible length " +
                              std::to_string(name_length));
  }
  name->clear();
  name->reserve(name_length);
  for (uint64_t i = 0; i < name_length; ++i) {
    name->push_back(static_cast<char>(in.ReadBits(8)));
  }
  return Status::Ok();
}

void ReadOptions(BitReader& in, SummaryOptions* opt) {
  opt->epsilon = in.ReadDouble();
  opt->phi = in.ReadDouble();
  opt->delta = in.ReadDouble();
  opt->universe_size = in.ReadU64();
  opt->stream_length = in.ReadU64();
  opt->seed = in.ReadU64();
  opt->window_size = in.ReadU64();
  opt->window_buckets = in.ReadU64();
}

/// Validates the container around the bit stream (magic, version, length
/// consistency, CRC) and parses the bit-stream header into *info.  On
/// success *words holds the unpacked bit-stream and *reader is positioned
/// at the first payload bit; *words must outlive *reader.
Status ParseContainer(std::span<const uint8_t> bytes, SnapshotInfo* info,
                      std::vector<uint64_t>* words,
                      std::optional<BitReader>* reader) {
  Status s = OpenContainer(bytes, kMagic, kSnapshotFormatVersion,
                           "snapshot", words, reader);
  if (!s.ok()) return s;
  BitReader& in = **reader;

  s = ReadName(in, "snapshot", &info->algorithm);
  if (!s.ok()) return s;
  ReadOptions(in, &info->options);
  info->items_processed = in.ReadU64();
  info->payload_bits = in.ReadU64();
  info->total_bytes = bytes.size();
  if (in.overflow()) return in.status();
  if (info->payload_bits != in.remaining_bits()) {
    return Status::Corruption(
        "snapshot payload length mismatch: header claims " +
        std::to_string(info->payload_bits) + " bits, container holds " +
        std::to_string(in.remaining_bits()));
  }
  return ValidateHeaderOptions(info->options);
}

}  // namespace

Status SaveSummary(const Summary& summary, std::vector<uint8_t>* out) {
  if (!summary.SupportsSnapshot()) {
    return Status::FailedPrecondition(std::string(summary.Name()) +
                                      " does not support snapshots");
  }
  // The header field announcing the payload's bit length precedes the
  // payload: write a placeholder, then patch in the length once known.
  BitWriter stream;
  WriteHeader(stream, summary);
  const size_t length_at = stream.size_bits();
  stream.WriteU64(0);
  const Status saved = summary.SaveTo(stream);
  if (!saved.ok()) return saved;
  stream.PatchU64(length_at, stream.size_bits() - length_at - 64);

  SealContainer(kMagic, kSnapshotFormatVersion, stream, out);
  return Status::Ok();
}

Status SaveSummaryToFile(const Summary& summary, const std::string& path) {
  std::vector<uint8_t> bytes;
  const Status s = SaveSummary(summary, &bytes);
  if (!s.ok()) return s;
  return DurableWriteFile(path, bytes);
}

Status ReadSnapshotInfo(std::span<const uint8_t> bytes, SnapshotInfo* info) {
  std::vector<uint64_t> words;
  std::optional<BitReader> reader;
  return ParseContainer(bytes, info, &words, &reader);
}

std::unique_ptr<Summary> LoadSummary(std::span<const uint8_t> bytes,
                                     Status* status) {
  Status local;
  Status& out_status = status != nullptr ? *status : local;

  SnapshotInfo info;
  std::vector<uint64_t> words;
  std::optional<BitReader> reader;
  out_status = ParseContainer(bytes, &info, &words, &reader);
  if (!out_status.ok()) return nullptr;

  Status make_status;
  std::unique_ptr<Summary> summary =
      MakeSummary(info.algorithm, info.options, &make_status);
  if (summary == nullptr) {
    // The factory's own reason: "unknown summary algorithm" for a name
    // this build does not register, the specific windowed refusal
    // (hostile geometry, non-mergeable inner) for a windowed: header.
    out_status = std::move(make_status);
    return nullptr;
  }
  if (!summary->SupportsSnapshot()) {
    out_status = Status::FailedPrecondition(
        "'" + info.algorithm + "' does not support snapshots");
    return nullptr;
  }
  out_status = summary->LoadFrom(*reader);
  if (!out_status.ok()) return nullptr;
  if (reader->overflow()) {
    out_status = reader->status();
    return nullptr;
  }
  if (reader->remaining_bits() != 0) {
    out_status = Status::Corruption(
        "snapshot payload has " + std::to_string(reader->remaining_bits()) +
        " trailing bits after '" + info.algorithm + "' state");
    return nullptr;
  }
  out_status = Status::Ok();
  return summary;
}

std::unique_ptr<Summary> LoadSummaryFromFile(const std::string& path,
                                             Status* status) {
  Status local;
  Status& out_status = status != nullptr ? *status : local;
  std::vector<uint8_t> bytes;
  out_status = ReadFileBytes(path, &bytes);
  if (!out_status.ok()) return nullptr;
  return LoadSummary(bytes, status);
}

// ---- Delta snapshots ----------------------------------------------------

Status SaveSummaryDelta(const Summary& summary, uint64_t base_rotations,
                        uint64_t base_items, std::vector<uint8_t>* out) {
  const auto* window = dynamic_cast<const SlidingWindowSummary*>(&summary);
  if (window == nullptr) {
    return Status::FailedPrecondition(
        std::string(summary.Name()) +
        " is not a sliding window; delta snapshots only exist for "
        "windowed:<algo> structures");
  }
  if (base_rotations > window->rotations() ||
      base_items > window->ItemsProcessed()) {
    return Status::InvalidArgument(
        "delta base (" + std::to_string(base_rotations) + " rotations, " +
        std::to_string(base_items) + " items) is ahead of the summary (" +
        std::to_string(window->rotations()) + " rotations, " +
        std::to_string(window->ItemsProcessed()) + " items)");
  }
  // The base's live bucket keeps absorbing items until the first
  // post-base rotation, so the dirty tail is one bucket per rotation
  // crossed PLUS the current live bucket.
  const uint64_t bucket_count = window->rotations() - base_rotations + 1;
  if (bucket_count >= window->num_buckets()) {
    return Status::InvalidArgument(
        "delta tail of " + std::to_string(bucket_count) +
        " buckets would cover the whole " +
        std::to_string(window->num_buckets()) +
        "-bucket ring; write a full snapshot instead");
  }

  BitWriter stream;
  WriteNameAndOptions(stream, std::string(window->Name()), window->Options());
  stream.WriteU64(base_rotations);
  stream.WriteU64(base_items);
  stream.WriteU64(window->rotations());
  stream.WriteU64(window->ItemsProcessed());
  stream.WriteU64(bucket_count);
  const Status saved = window->SaveTailTo(stream, bucket_count);
  if (!saved.ok()) return saved;

  SealContainer(kDeltaMagic, kDeltaFormatVersion, stream, out);
  return Status::Ok();
}

Status ApplySummaryDelta(std::span<const uint8_t> bytes, Summary* target) {
  if (target == nullptr) {
    return Status::InvalidArgument("delta target is null");
  }
  std::vector<uint64_t> words;
  std::optional<BitReader> reader;
  Status s = OpenContainer(bytes, kDeltaMagic, kDeltaFormatVersion, "delta",
                           &words, &reader);
  if (!s.ok()) return s;
  BitReader& in = *reader;

  std::string name;
  s = ReadName(in, "delta", &name);
  if (!s.ok()) return s;
  SummaryOptions options;
  ReadOptions(in, &options);
  const uint64_t base_rotations = in.ReadU64();
  const uint64_t base_items = in.ReadU64();
  const uint64_t new_rotations = in.ReadU64();
  const uint64_t new_total_items = in.ReadU64();
  const uint64_t bucket_count = in.ReadU64();
  if (in.overflow()) return in.status();
  s = ValidateHeaderOptions(options);
  if (!s.ok()) return s;

  if (name != target->Name()) {
    return Status::Corruption("delta is for '" + name + "' but target is '" +
                              std::string(target->Name()) + "'");
  }
  if (!(options == target->Options())) {
    return Status::Corruption(
        "delta options do not match the target summary (different "
        "construction parameters or seed)");
  }
  auto* window = dynamic_cast<SlidingWindowSummary*>(target);
  if (window == nullptr) {
    return Status::FailedPrecondition(
        std::string(target->Name()) +
        " is not a sliding window; cannot apply a delta");
  }
  s = window->ApplyTail(in, base_rotations, base_items, new_rotations,
                        new_total_items, bucket_count);
  if (!s.ok()) return s;
  if (in.overflow()) return in.status();
  if (in.remaining_bits() != 0) {
    return Status::Corruption(
        "delta payload has " + std::to_string(in.remaining_bits()) +
        " trailing bits after the bucket tail");
  }
  return Status::Ok();
}

// ---- Grouped snapshots --------------------------------------------------

Status SaveGrouped(const GroupedSummary& grouped, std::vector<uint8_t>* out) {
  const GroupedSummaryOptions& opt = grouped.options();
  if (opt.algorithm.empty() || opt.algorithm.size() > kMaxNameLength) {
    return Status::InvalidArgument(
        "grouped snapshot cannot encode algorithm name of length " +
        std::to_string(opt.algorithm.size()));
  }
  BitWriter stream;
  WriteNameAndOptions(stream, opt.algorithm, opt.summary);
  stream.WriteCounter(opt.max_groups);
  stream.WriteCounter(opt.memory_budget_bytes);
  grouped.SaveGroups(stream);
  SealContainer(kGroupedMagic, kGroupedFormatVersion, stream, out);
  return Status::Ok();
}

Status SaveGroupedToFile(const GroupedSummary& grouped,
                         const std::string& path) {
  std::vector<uint8_t> bytes;
  const Status s = SaveGrouped(grouped, &bytes);
  if (!s.ok()) return s;
  return DurableWriteFile(path, bytes);
}

std::unique_ptr<GroupedSummary> LoadGrouped(std::span<const uint8_t> bytes,
                                            Status* status) {
  Status local;
  Status& out_status = status != nullptr ? *status : local;

  std::vector<uint64_t> words;
  std::optional<BitReader> reader;
  out_status = OpenContainer(bytes, kGroupedMagic, kGroupedFormatVersion,
                             "grouped snapshot", &words, &reader);
  if (!out_status.ok()) return nullptr;
  BitReader& in = *reader;

  GroupedSummaryOptions opt;
  out_status = ReadName(in, "grouped snapshot", &opt.algorithm);
  if (!out_status.ok()) return nullptr;
  ReadOptions(in, &opt.summary);
  opt.max_groups = in.ReadCounter();
  opt.memory_budget_bytes = in.ReadCounter();
  if (in.overflow()) {
    out_status = in.status();
    return nullptr;
  }
  // Same domain gate as single snapshots: these options reach every
  // per-group factory construction.
  out_status = ValidateHeaderOptions(opt.summary);
  if (!out_status.ok()) return nullptr;

  std::unique_ptr<GroupedSummary> grouped =
      GroupedSummary::Create(opt, &out_status);
  if (grouped == nullptr) return nullptr;
  out_status = grouped->LoadGroups(in);
  if (!out_status.ok()) return nullptr;
  if (in.remaining_bits() != 0) {
    out_status = Status::Corruption(
        "grouped snapshot has " + std::to_string(in.remaining_bits()) +
        " trailing bits after the group table");
    return nullptr;
  }
  out_status = Status::Ok();
  return grouped;
}

}  // namespace l1hh
