// Versioned snapshot container for summaries — the persistence layer that
// makes the paper's headline bit-size claim measurable on the wire.
//
// Every structure in this library already serializes itself bit-exactly
// (util/bit_stream.h); a snapshot wraps that payload in a self-describing
// container so a file written today can be validated, rejected, or
// reconstructed by a different process later:
//
//   bytes  0..7   magic "L1HHSNAP"
//   bytes  8..11  format version (u32 LE) — readers reject other versions
//   bytes 12..19  stream_bits (u64 LE): valid bits in the bit-stream section
//   bytes 20..    bit-stream section, ceil(stream_bits / 64) u64 LE words:
//                   registry name (8-bit length + 8-bit chars)
//                   SummaryOptions: epsilon, phi, delta (doubles),
//                     universe_size, stream_length, seed,
//                     window_size, window_buckets (u64s)
//                   items_processed (u64)
//                   payload_bits (u64)
//                   payload: exactly payload_bits bits from Summary::SaveTo
//   last 4 bytes  CRC-32 (IEEE) over every preceding byte (u32 LE)
//
// Corrupt, truncated, over-long, or version-bumped input always returns a
// Status error — never UB, never a crash (tests/snapshot_roundtrip_test.cc
// fuzzes this under the sanitizer CI job).  `payload_bits` is the honest
// bit-size of the structure state itself, the number the bench layer
// compares against SpaceBits() and the paper's space bound.
//
// Byte-level format spec and compatibility rules: docs/SNAPSHOTS.md.
#ifndef L1HH_IO_SNAPSHOT_H_
#define L1HH_IO_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "summary/summary.h"
#include "util/status.h"

namespace l1hh {

/// The format this build writes; readers accept exactly this version.
/// v2: SummaryOptions gained window_size/window_buckets (two u64s after
/// the seed) for the `windowed:<algo>` container, and bdw_optimal's
/// T2/T3 payloads switched to the sparse gap-coded cell encoding.
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Header fields of a snapshot, readable without reconstructing the
/// summary (used by `l1hh_cli load`).
struct SnapshotInfo {
  std::string algorithm;          // registry name, e.g. "bdw_optimal"
  SummaryOptions options;         // construction options incl. seed
  uint64_t items_processed = 0;   // stream position at save time
  uint64_t payload_bits = 0;      // bit-size of the structure state
  uint64_t total_bytes = 0;       // whole container incl. header + CRC
};

/// Serializes `summary` (which must SupportsSnapshot) into a
/// self-describing byte container.
Status SaveSummary(const Summary& summary, std::vector<uint8_t>* out);

/// SaveSummary + crash-safe file write: the bytes go through the
/// write-tmp -> fsync -> rename -> fsync-directory protocol
/// (src/io/durable_file.h), so a crash leaves either the complete old
/// file or the complete new one — never a torn snapshot under a valid
/// name.  I/O failures are Status::IOError with the errno text.
Status SaveSummaryToFile(const Summary& summary, const std::string& path);

/// Parses and validates a container header (magic, version, CRC, length
/// consistency) without touching the payload.
Status ReadSnapshotInfo(std::span<const uint8_t> bytes, SnapshotInfo* info);

/// Reconstructs the summary a container describes: validates the header,
/// creates the registered algorithm from the embedded options, and
/// restores the payload.  Returns nullptr with the reason in *status
/// (always set when non-null) on any failure.
std::unique_ptr<Summary> LoadSummary(std::span<const uint8_t> bytes,
                                     Status* status = nullptr);
std::unique_ptr<Summary> LoadSummaryFromFile(const std::string& path,
                                             Status* status = nullptr);

// ---- Delta snapshots (sliding windows only) ----------------------------
//
// A `windowed:<algo>` summary is mostly immutable between checkpoints:
// sealed buckets never change, so the state at rotation R1 differs from
// the state at rotation R0 only in the buckets sealed after R0 plus the
// live bucket.  A delta container carries exactly that tail — the
// incremental-checkpoint and replication unit (docs/SNAPSHOTS.md):
//
//   bytes  0..7   magic "L1HHDELT"
//   bytes  8..11  delta format version (u32 LE)
//   bytes 12..19  stream_bits (u64 LE)
//   bytes 20..    bit-stream: name, SummaryOptions (same encoding as a
//                 snapshot), base_rotations, base_items, new_rotations,
//                 new_total_items, bucket_count, then the bucket payloads
//   last 4 bytes  CRC-32 over every preceding byte
//
// Applying a delta requires the target to BE the delta's base (same
// name/options, rotations == base_rotations, items == base_items);
// anything else is a Corruption, never a silently wrong window.

inline constexpr uint32_t kDeltaFormatVersion = 1;

/// Serializes the tail of `summary` (a SlidingWindowSummary) that changed
/// since a base checkpoint taken at (base_rotations, base_items).
/// FailedPrecondition for non-windowed summaries; InvalidArgument when the
/// base clocks do not precede the current state or the tail would cover
/// the whole ring (write a full snapshot instead).
Status SaveSummaryDelta(const Summary& summary, uint64_t base_rotations,
                        uint64_t base_items, std::vector<uint8_t>* out);

/// Applies a delta container onto `target`, which must be the exact base
/// state the delta was computed against.
Status ApplySummaryDelta(std::span<const uint8_t> bytes, Summary* target);

// ---- Grouped snapshots (src/group/grouped_summary.h) -------------------
//
// One container for a whole GroupedSummary — every live per-group summary,
// the recency order, and the eviction counters — so per-tenant monitoring
// state rides the same durable-write machinery as single summaries:
//
//   bytes  0..7   magic "L1HHGRUP"
//   bytes  8..11  grouped format version (u32 LE)
//   bytes 12..19  stream_bits (u64 LE)
//   bytes 20..    bit-stream: per-group algorithm name + base
//                 SummaryOptions (same encoding as a snapshot header),
//                 max_groups, memory_budget_bytes, then the
//                 GroupedSummary::SaveGroups payload (totals, eviction
//                 counters, and each group's key + bit-framed state in
//                 MRU->LRU order)
//   last 4 bytes  CRC-32 over every preceding byte
//
// Same hostility contract as the other containers: corrupt, truncated,
// version-bumped, or domain-violating input is a Status, never UB
// (tests/grouped_summary_test.cc fuzzes this).

/// Version 3 of the container family: the first grouped format.
inline constexpr uint32_t kGroupedFormatVersion = 3;

class GroupedSummary;

/// Serializes a whole grouped summary into a self-describing container.
Status SaveGrouped(const GroupedSummary& grouped, std::vector<uint8_t>* out);
/// SaveGrouped + the crash-safe write-tmp/fsync/rename file protocol.
Status SaveGroupedToFile(const GroupedSummary& grouped,
                         const std::string& path);

/// Reconstructs a GroupedSummary from a container: validates the framing
/// and header options, rebuilds the instance from the embedded
/// GroupedSummaryOptions, and restores every group (per-group seeds are
/// re-derived from the base seed, so restored groups continue their exact
/// random sequences).  Returns nullptr with the reason in *status.
std::unique_ptr<GroupedSummary> LoadGrouped(std::span<const uint8_t> bytes,
                                            Status* status = nullptr);

}  // namespace l1hh

#endif  // L1HH_IO_SNAPSHOT_H_
