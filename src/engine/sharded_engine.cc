#include "engine/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "io/durable_file.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/random.h"
#include "window/sliding_window_summary.h"

namespace l1hh {
namespace {

// Worker idle policy: spin a little (items usually arrive back-to-back),
// then yield, then sleep — so an idle engine does not burn a core, which
// matters on machines where workers share cores with the producers.
class IdleBackoff {
 public:
  void Idle() {
    ++idle_rounds_;
    if (idle_rounds_ < 64) return;
    if (idle_rounds_ < 256) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  void Reset() { idle_rounds_ = 0; }

 private:
  unsigned idle_rounds_ = 0;
};

// Yields a parked worker spins through, waiting for the other workers
// to arrive, before it blocks.  Idle workers notice a pause within one
// idle backoff sleep, and spinning that long keeps a condition-variable
// wake off the critical path of a cheap query; a spin that holds the
// core instead starves the late worker when threads outnumber cores.
constexpr int kArrivalYields = 256;

// Checkpoint files carry both the shard index and the generation that
// wrote them, so a delta chain spanning generations never collides with
// its own base and retention can prune by name.  docs/SNAPSHOTS.md has
// the full directory layout.
std::string ShardFullFileName(size_t shard, uint64_t gen) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard-%04zu.g%06llu.l1hh", shard,
                static_cast<unsigned long long>(gen));
  return name;
}

std::string ShardDeltaFileName(size_t shard, uint64_t gen) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard-%04zu.g%06llu.delta", shard,
                static_cast<unsigned long long>(gen));
  return name;
}

constexpr const char* kManifestPrefix = "MANIFEST.";
constexpr const char* kManifestHeader = "l1hh-checkpoint v2";

std::string ManifestFileName(uint64_t gen) {
  char name[32];
  std::snprintf(name, sizeof(name), "MANIFEST.%06llu",
                static_cast<unsigned long long>(gen));
  return name;
}

// Extracts <gen> from a MANIFEST.<gen> file name; false for anything else
// (including a bare pre-v2 "MANIFEST", which this build no longer reads).
bool ParseManifestGeneration(const std::string& name, uint64_t* gen) {
  const std::string prefix(kManifestPrefix);
  if (name.size() <= prefix.size() ||
      name.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  uint64_t g = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    g = g * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *gen = g;
  return true;
}

/// Manifest generations present in `dir`, newest first.
std::vector<uint64_t> ListManifestGenerations(const std::string& dir) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t gen = 0;
    if (ParseManifestGeneration(entry.path().filename().string(), &gen)) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end(), std::greater<uint64_t>());
  return gens;
}

// One shard's record in a parsed manifest: the clocks its chain replays
// to and the chain itself — full base snapshot first, deltas in apply
// order.  Every manifest is self-contained (it lists complete chains),
// so restoring a generation never consults an older manifest.
struct ManifestShard {
  uint64_t applied = 0;
  uint64_t rotations = 0;
  std::vector<std::string> files;
};

struct Manifest {
  std::string algorithm;
  uint64_t num_shards = 0;
  uint64_t generation = 0;
  uint64_t items_processed = 0;
  std::vector<ManifestShard> shards;
};

/// Checkpoint writes chain files with fixed name shapes; anything else in
/// a manifest (path separators, a delta in base position, a foreign
/// name) is tampering, not a checkpoint we wrote.
bool PlausibleChainFileName(const std::string& file, uint64_t shard,
                            bool is_full) {
  char prefix[24];
  std::snprintf(prefix, sizeof(prefix), "shard-%04llu.g",
                static_cast<unsigned long long>(shard));
  const std::string suffix = is_full ? ".l1hh" : ".delta";
  return file.size() > std::strlen(prefix) + suffix.size() &&
         file.compare(0, std::strlen(prefix), prefix) == 0 &&
         file.compare(file.size() - suffix.size(), suffix.size(), suffix) ==
             0 &&
         file.find('/') == std::string::npos;
}

Status ParseManifestFile(const std::string& path, Manifest* manifest) {
  std::vector<uint8_t> raw;
  const Status read = ReadFileBytes(path, &raw);
  if (!read.ok()) return read;
  std::istringstream in(std::string(raw.begin(), raw.end()));
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return Status::Corruption("unrecognized manifest header in '" + path +
                              "'");
  }
  *manifest = Manifest{};
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("malformed manifest line '" + line +
                                "' in '" + path + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "algorithm") {
      manifest->algorithm = value;
    } else if (key == "num_shards") {
      manifest->num_shards = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "generation") {
      manifest->generation = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "items_processed") {
      manifest->items_processed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "shard") {
      // "shard=IDX APPLIED ROTATIONS FILE[+FILE...]", in index order.
      std::istringstream fields(value);
      uint64_t index = 0;
      ManifestShard shard;
      std::string chain;
      if (!(fields >> index >> shard.applied >> shard.rotations >> chain) ||
          index != manifest->shards.size()) {
        return Status::Corruption("malformed shard record '" + value +
                                  "' in '" + path + "'");
      }
      for (size_t start = 0; start <= chain.size();) {
        const size_t plus = chain.find('+', start);
        const size_t end = plus == std::string::npos ? chain.size() : plus;
        shard.files.push_back(chain.substr(start, end - start));
        if (!PlausibleChainFileName(shard.files.back(), index,
                                    shard.files.size() == 1)) {
          return Status::Corruption("unexpected shard file name '" +
                                    shard.files.back() + "' in '" + path +
                                    "'");
        }
        if (plus == std::string::npos) break;
        start = plus + 1;
      }
      manifest->shards.push_back(std::move(shard));
    } else {
      // Unknown keys are rejected, not skipped: a v2 reader must not
      // half-understand a future manifest.
      return Status::InvalidArgument("unknown manifest key '" + key +
                                     "' in '" + path + "'");
    }
  }
  if (manifest->algorithm.empty() || manifest->num_shards == 0 ||
      manifest->shards.size() != manifest->num_shards) {
    return Status::Corruption(
        "manifest '" + path + "' is incomplete (algorithm='" +
        manifest->algorithm +
        "', num_shards=" + std::to_string(manifest->num_shards) + ", " +
        std::to_string(manifest->shards.size()) + " shard records)");
  }
  return Status::Ok();
}

/// Best-effort retention after a new generation lands: keep the newest
/// two parseable manifests and every chain file they reference; remove
/// older manifests, orphaned shard files, and stray .tmp leftovers from
/// interrupted writes.  Failures here are ignored — retention never
/// outranks the checkpoint that just completed.
void PruneCheckpoints(const std::string& dir) {
  std::error_code ec;
  std::set<std::string> keep;
  size_t kept = 0;
  for (const uint64_t gen : ListManifestGenerations(dir)) {
    const std::string name = ManifestFileName(gen);
    if (kept < 2) {
      Manifest manifest;
      if (ParseManifestFile((std::filesystem::path(dir) / name).string(),
                            &manifest)
              .ok()) {
        keep.insert(name);
        for (const ManifestShard& shard : manifest.shards) {
          keep.insert(shard.files.begin(), shard.files.end());
        }
        ++kept;
        continue;
      }
      // An unparseable manifest is dead weight; fall through and drop it.
    }
    std::filesystem::remove(std::filesystem::path(dir) / name, ec);
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (keep.count(name) != 0) continue;
    const bool stray_tmp = name.ends_with(kDurableTmpSuffix);
    const bool chain_file =
        name.rfind("shard-", 0) == 0 &&
        (name.ends_with(".l1hh") || name.ends_with(".delta"));
    if (stray_tmp || chain_file) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

// What every shard set entering an engine from outside must satisfy — a
// checkpoint generation (Restore), a replica's cold round (FromFrames),
// or a round committed over live shards; all three commit through
// ApplyFrames.  `reference` is the engine's own shard 0 (for a cold round,
// the empty shard Create built from frame 0's header).  `*rotations` gets
// the common window rotation count (0 when not windowed).
Status ValidateShardSet(const std::vector<const Summary*>& shards,
                        const Summary& reference, uint64_t* rotations) {
  *rotations = 0;
  // All shards must come from ONE engine: same structure, options and
  // seed, or a partition report would be measured against totals of
  // foreign shards.  Catch a spliced-in foreign shard here, as a Status.
  const SummaryOptions base = reference.Options();
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s]->Name() != reference.Name() ||
        !(shards[s]->Options() == base)) {
      return Status::Corruption(
          "shard " + std::to_string(s) + " holds '" +
          std::string(shards[s]->Name()) + "' built with different options "
          "or seed than this engine's '" + std::string(reference.Name()) +
          "'; not shards of one engine");
    }
  }

  // Windowed shards additionally require rotation-aligned rings: every
  // shard window must have crossed the same number of global bucket
  // boundaries, or the rings would not be bucket-wise mergeable.
  const auto* window0 = dynamic_cast<const SlidingWindowSummary*>(shards[0]);
  if (window0 == nullptr) return Status::Ok();
  const uint64_t restored_rotations = window0->rotations();
  for (size_t s = 1; s < shards.size(); ++s) {
    const auto* window = static_cast<const SlidingWindowSummary*>(shards[s]);
    if (window->rotations() != restored_rotations) {
      return Status::Corruption(
          "shard " + std::to_string(s) + " rotated " +
          std::to_string(window->rotations()) + " times, shard 0 " +
          std::to_string(restored_rotations) +
          "; not windows of one lockstep engine");
    }
  }
  uint64_t total = 0;
  for (const Summary* summary : shards) total += summary->ItemsProcessed();
  const uint64_t stride = window0->bucket_width();
  // The rotation protocol admits floor((total-1)/stride) rotations for
  // any item total — and, exactly AT a boundary, one more: a
  // multi-producer capture can catch the state where the boundary
  // claimant has rotated but its boundary item is not yet applied
  // (single-producer lazy rotation only ever captures the former).
  // Derive by DIVISION: the rotation count comes off the wire, and
  // multiplying by it could wrap u64 past this check.
  const uint64_t lazy_rotations = total == 0 ? 0 : (total - 1) / stride;
  const bool at_boundary = total != 0 && total % stride == 0;
  // Also bound it so the global clock arithmetic in UpdateColumn
  // ((bucket + 1) * stride) cannot wrap u64 (which would mis-split
  // claims and silently break rotation).
  if (lazy_rotations >= ~uint64_t{0} / stride - 1) {
    return Status::Corruption("implausible combined item count " +
                              std::to_string(total));
  }
  const bool plausible =
      restored_rotations == lazy_rotations ||
      (at_boundary && restored_rotations == total / stride);
  if (!plausible) {
    return Status::Corruption(
        "window rotation count " + std::to_string(restored_rotations) +
        " disagrees with the combined item count " + std::to_string(total) +
        " (bucket width " + std::to_string(stride) + " implies " +
        std::to_string(lazy_rotations) +
        (at_boundary ? " or " + std::to_string(total / stride) : "") + ")");
  }
  *rotations = restored_rotations;
  return Status::Ok();
}

// The one decoder for shard state arriving from outside: a checkpoint
// chain, a replica's cold round, or a round over live shards.  Decodes
// `frames` in order into `*staged` (one slot per shard).  A full frame
// replaces the shard's slot; a delta applies in place onto the slot this
// round already staged, or else onto a Save/Load copy of `live[shard]`.
// Nothing live is touched.
Status StageFrames(const std::vector<ShardFrame>& frames,
                   const std::vector<const Summary*>& live,
                   std::vector<std::unique_ptr<Summary>>* staged) {
  for (const ShardFrame& frame : frames) {
    if (frame.shard >= staged->size()) {
      return Status::InvalidArgument(
          "frame for shard " + std::to_string(frame.shard) + " of a " +
          std::to_string(staged->size()) + "-shard engine");
    }
    std::unique_ptr<Summary>& slot = (*staged)[frame.shard];
    Status s;
    if (!frame.delta) {
      slot = LoadSummary(frame.bytes, &s);
      if (!s.ok()) return s;
      continue;
    }
    if (slot == nullptr) {
      std::vector<uint8_t> bytes;
      s = SaveSummary(*live[frame.shard], &bytes);
      if (s.ok()) slot = LoadSummary(bytes, &s);
      if (!s.ok()) return s;
    }
    s = ApplySummaryDelta(frame.bytes, slot.get());
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// Adds `ns` to the calling thread's open span as phase `name`.
void AddSpanPhase(const char* name, uint64_t ns) {
  obs::QuerySpan* span = obs::QuerySpan::Current();
  if (span != nullptr) span->AddPhase(name, ns);
}

// Records one pass over every shard summary — a query's partition gather
// or MergedView's one-shot merge — as the open span's merge_rebuild
// phase and in l1hh_engine_merge_rebuilds_total / _merge_rebuild_ns.
void RecordCrossShardPass(uint64_t ns) {
  AddSpanPhase("merge_rebuild", ns);
  if (!obs::Enabled()) return;
  static obs::Counter* const passes =
      obs::GetCounter("l1hh_engine_merge_rebuilds_total");
  static obs::Histogram* const pass_ns =
      obs::GetHistogram("l1hh_engine_merge_rebuild_ns");
  passes->Inc();
  pass_ns->Observe(ns);
}

// Times the enclosed scope as one cross-shard pass run on this thread.
class CrossShardPass {
 public:
  CrossShardPass() : t0_(obs::TraceRing::NowNs()) {}
  ~CrossShardPass() { RecordCrossShardPass(obs::TraceRing::NowNs() - t0_); }
  CrossShardPass(const CrossShardPass&) = delete;
  CrossShardPass& operator=(const CrossShardPass&) = delete;

 private:
  uint64_t t0_;
};

}  // namespace

// ---- Producer handle --------------------------------------------------

ShardedEngine::Producer::Producer(ShardedEngine* engine, size_t slot)
    : engine_(engine), slot_(slot) {}

ShardedEngine::Producer::~Producer() {
  // Slot 0 is the engine's own handle; it dies with the engine and is
  // never recycled through RegisterProducer.
  if (slot_ != 0) engine_->ReleaseProducer(slot_);
}

void ShardedEngine::Producer::Update(uint64_t item, uint64_t weight) {
  for (uint64_t i = 0; i < weight; ++i) UpdateColumn(&item, 1);
}

void ShardedEngine::Producer::UpdateBatch(std::span<const uint64_t> items) {
  UpdateColumn(items.data(), items.size());
}

void ShardedEngine::Producer::UpdateColumn(const uint64_t* items, size_t n) {
  ShardedEngine& e = *engine_;
  if (!e.windowed()) {
    PartitionPush(items, n);
    return;
  }
  // One fetch_add claims a contiguous global position range (bucket
  // membership is decided by position, never by arrival order).  Each
  // bucket's chunk is enqueued only once that bucket's rotation fired,
  // so shard buckets always partition the same global position range.
  const uint64_t start = e.global_pos_.fetch_add(n, std::memory_order_relaxed);
  size_t offset = 0;
  while (offset < n) {
    const uint64_t pos = start + offset;
    const uint64_t bucket = pos / e.rotation_stride_;
    if (bucket > e.rotations_done_.load(std::memory_order_acquire)) {
      if (pos == bucket * e.rotation_stride_) {
        // This claim owns the bucket's first position, so it performs
        // the lockstep rotation (lazy, matching the standalone ring: the
        // boundary bucket stays live until the first item PAST the
        // boundary arrives, which is this one).
        e.RotateAtBoundary(bucket);
      } else {
        // Another claim owns the boundary; wait for its rotation.
        IdleBackoff backoff;
        while (e.rotations_done_.load(std::memory_order_acquire) < bucket) {
          backoff.Idle();
        }
      }
    }
    const size_t take = static_cast<size_t>(std::min<uint64_t>(
        n - offset, (bucket + 1) * e.rotation_stride_ - pos));
    PartitionPush(items + offset, take);
    offset += take;
  }
}

void ShardedEngine::Producer::PartitionPush(const uint64_t* items, size_t n) {
  ShardedEngine& e = *engine_;
  const size_t num_shards = e.shards_.size();
  if (num_shards == 1 || n == 1) {
    // One run: no sweep needed (ShardOf is the sweep below, one item).
    e.PushBlocking(slot_, num_shards == 1 ? 0 : e.ShardOf(*items), items, n);
    return;
  }
  // Tile so the scratch stays cache-resident; each tile makes one
  // contiguous ring push per occupied shard.
  constexpr size_t kTile = 8192;
  part_shards_.resize(std::min(n, kTile));
  part_scratch_.resize(std::min(n, kTile));
  part_starts_.assign(num_shards + 1, 0);
  part_cursors_.assign(num_shards, 0);
  // The sweep below must agree with ShardOf (Mix64 then mod) bit for
  // bit — one-item slices route through ShardOf above, and queries and
  // tests locate an item's shard with it.  For power-of-two K the modulo
  // reduces to a mask, which keeps the hot loop free of the 64-bit
  // divide and lets the compiler pipeline the mix across items.
  const bool pow2 = (num_shards & (num_shards - 1)) == 0;
  const uint64_t mask = num_shards - 1;
  for (size_t base = 0; base < n; base += kTile) {
    const size_t take = std::min(kTile, n - base);
    // Pass 1: shard ids (a pure Mix64 sweep) plus the per-shard
    // histogram.
    std::fill(part_starts_.begin(), part_starts_.end(), 0);
    if (pow2) {
      for (size_t i = 0; i < take; ++i) {
        const auto s = static_cast<uint32_t>(Mix64(items[base + i]) & mask);
        part_shards_[i] = s;
        ++part_starts_[s + 1];
      }
    } else {
      for (size_t i = 0; i < take; ++i) {
        const auto s =
            static_cast<uint32_t>(Mix64(items[base + i]) % num_shards);
        part_shards_[i] = s;
        ++part_starts_[s + 1];
      }
    }
    for (size_t s = 1; s <= num_shards; ++s) {
      part_starts_[s] += part_starts_[s - 1];
    }
    // Pass 2: scatter into contiguous per-shard runs.
    for (size_t s = 0; s < num_shards; ++s) part_cursors_[s] = part_starts_[s];
    for (size_t i = 0; i < take; ++i) {
      part_scratch_[part_cursors_[part_shards_[i]]++] = items[base + i];
    }
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t count = part_starts_[s + 1] - part_starts_[s];
      if (count == 0) continue;
      e.PushBlocking(slot_, s, part_scratch_.data() + part_starts_[s], count);
    }
  }
}

// ---- Construction -----------------------------------------------------

ShardedEngine::Shard::Shard(size_t producer_slots, size_t ring_capacity) {
  rings.reserve(producer_slots);
  for (size_t p = 0; p < producer_slots; ++p) {
    rings.push_back(std::make_unique<SpscRing<uint64_t>>(ring_capacity));
  }
}

std::unique_ptr<ShardedEngine> ShardedEngine::Create(
    const ShardedEngineOptions& options, Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<ShardedEngine> {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  };
  if (options.num_shards == 0 || options.num_shards > kMaxShards) {
    return fail(Status::InvalidArgument(
        "num_shards " + std::to_string(options.num_shards) +
        " is out of range [1, " + std::to_string(kMaxShards) + "]"));
  }
  if (options.max_producers == 0) {
    return fail(Status::InvalidArgument(
        "max_producers must be >= 1 (slot 0 is the engine's own)"));
  }
  if (options.max_producers > kMaxProducerSlots) {
    return fail(Status::InvalidArgument(
        "max_producers " + std::to_string(options.max_producers) +
        " exceeds the sanity cap " + std::to_string(kMaxProducerSlots)));
  }
  Status make_status;
  auto probe = MakeSummary(options.algorithm, options.summary, &make_status);
  if (probe == nullptr) {
    // The factory's own reason: "unknown summary algorithm" for a bad
    // name, the specific windowed refusal (non-mergeable inner, hostile
    // geometry) for a windowed: spelling.
    return fail(std::move(make_status));
  }
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine(options));
  engine->shards_[0]->summary = std::move(probe);
  for (size_t s = 1; s < engine->shards_.size(); ++s) {
    engine->shards_[s]->summary =
        MakeSummary(options.algorithm, options.summary);
  }
  engine->BindWindows(/*restored_rotations=*/0);
  engine->StartWorkers();
  if (status != nullptr) *status = Status::Ok();
  return engine;
}

void ShardedEngine::BindWindows(uint64_t restored_rotations) {
  windows_.clear();
  if (dynamic_cast<SlidingWindowSummary*>(shards_[0]->summary.get()) ==
      nullptr) {
    return;
  }
  windows_.reserve(shards_.size());
  for (auto& shard : shards_) {
    auto* window =
        static_cast<SlidingWindowSummary*>(shard->summary.get());
    // Shard-local update counts must never rotate a ring: all K rings
    // rotate together at global bucket boundaries, driven from here.
    window->set_external_rotation(true);
    windows_.push_back(window);
  }
  rotation_stride_ = windows_[0]->bucket_width();
  // Runs before the workers start (Create) or with them parked
  // (ApplyFrames); either way slot 0's enqueued counters are final here.
  uint64_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) total += ShardEnqueued(s);
  global_pos_.store(total, std::memory_order_relaxed);
  rotations_done_.store(restored_rotations, std::memory_order_relaxed);
}

ShardedEngine::ShardedEngine(const ShardedEngineOptions& options)
    : options_(options) {
  // drain_batch == 0 would make every worker pop nothing forever and
  // Flush spin-wait indefinitely; clamp rather than hang.
  options_.drain_batch = std::max<size_t>(options_.drain_batch, 1);
  options_.max_producers = std::max<size_t>(options_.max_producers, 1);
  slots_.reserve(options_.max_producers);
  for (size_t p = 0; p < options_.max_producers; ++p) {
    slots_.push_back(std::make_unique<ProducerSlot>(options_.num_shards));
  }
  shard_counts_.resize(options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(options_.max_producers,
                                options_.queue_capacity));
  }
  slots_[0]->active = true;
  controller_.reset(new Producer(this, 0));
}

ShardedEngine::~ShardedEngine() {
  // Contract: external Producer handles are already destroyed (or idle
  // forever), so the enqueued counters are final; drain everything.
  Flush();
  {
    // Publish stop under park_mutex_ so a worker deciding to park cannot
    // miss it (the park predicate re-checks under the same mutex).
    std::lock_guard<std::mutex> lock(park_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  resume_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ShardedEngine::StartWorkers() {
  const size_t shard_count = shards_.size();
  size_t thread_count = options_.num_threads == 0 ? shard_count
                                                  : options_.num_threads;
  thread_count = std::min(std::max<size_t>(thread_count, 1), shard_count);
  workers_.reserve(thread_count);
  // Contiguous shard ranges, remainder spread over the first threads, so
  // every shard has exactly one consumer.
  const size_t base = shard_count / thread_count;
  const size_t extra = shard_count % thread_count;
  size_t first = 0;
  for (size_t t = 0; t < thread_count; ++t) {
    const size_t count = base + (t < extra ? 1 : 0);
    const size_t last = first + count;
    workers_.emplace_back(
        [this, first, last] { WorkerLoop(first, last); });
    first = last;
  }
}

// ---- Worker pool + pause gate -----------------------------------------

void ShardedEngine::WorkerLoop(size_t first_shard, size_t last_shard) {
  std::vector<uint64_t> batch(options_.drain_batch);
  // Resolved once per worker (registry lookup is a cold mutexed path);
  // increments below are relaxed striped adds, once per drained BATCH.
  obs::Counter* const items_ctr =
      obs::GetCounter("l1hh_engine_items_applied_total");
  obs::Histogram* const drain_hist =
      obs::GetHistogram("l1hh_engine_drain_batch_items");
  IdleBackoff backoff;
  while (true) {
    if (pause_.load(std::memory_order_acquire)) {
      WorkerPark(first_shard, last_shard);
    }
    size_t drained = 0;
    for (size_t s = first_shard; s < last_shard; ++s) {
      Shard& shard = *shards_[s];
      // Round-robin over the shard's P producer rings, one batch each,
      // so no slot can starve another.
      for (auto& ring : shard.rings) {
        const size_t n = ring->PopBatch(batch.data(), batch.size());
        if (n == 0) continue;
        drained += n;
        // Columnar drain: same state as UpdateBatch (the differential
        // battery pins the equivalence) but the adapters' slice-tuned
        // loops — count_min runs its hash pre-pass per drained batch.
        shard.summary->UpdateColumn(batch.data(), n);
        // Release-publish the summary mutations; Flush acquires.
        shard.applied.fetch_add(n, std::memory_order_release);
        if (obs::Enabled()) {
          // Occupancy at pop time was n plus whatever is still queued.
          // Single-writer high-water (this worker owns the shard), so a
          // plain load/compare/store suffices — no RMW on the hot path.
          const uint64_t occ = n + ring->ApproxSize();
          if (occ > shard.ring_high_water.load(std::memory_order_relaxed)) {
            shard.ring_high_water.store(occ, std::memory_order_relaxed);
          }
          drain_hist->Observe(n);
          items_ctr->Inc(n);
        }
      }
    }
    if (drained != 0) {
      backoff.Reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // One more pass raced nothing in: all owned rings were empty and no
      // producer can enqueue after stop (the destructor flushed first).
      return;
    }
    backoff.Idle();
  }
}

void ShardedEngine::WorkerPark(size_t first_shard, size_t last_shard) {
  std::unique_lock<std::mutex> lock(park_mutex_);
  const uint64_t round = park_round_;
  const ShardTask* const task = park_task_;
  lock.unlock();
  // Arrive: publish this worker's shard counts.  The arrival count
  // orders them before any reader that sees every worker arrived.
  for (size_t s = first_shard; s < last_shard; ++s) {
    const Summary& summary = *shards_[s]->summary;
    shard_counts_[s] = {summary.CoveredItems(), summary.PartitionSamples()};
  }
  const size_t workers = workers_.size();
  const auto all_arrived = [&] {
    return arrived_workers_.load(std::memory_order_acquire) == workers;
  };
  lock.lock();
  const bool last =
      arrived_workers_.fetch_add(1, std::memory_order_acq_rel) + 1 == workers;
  if (last) last_arrival_ns_ = obs::TraceRing::NowNs();
  lock.unlock();
  if (task != nullptr) {
    PartitionTotals totals;
    if (task->needs_totals) {
      // Every worker's counts, without a round trip through the pausing
      // thread: spin (kArrivalYields), then block.
      if (last) {
        arrive_cv_.notify_all();
      } else {
        for (int spin = 0; spin < kArrivalYields && !all_arrived(); ++spin) {
          std::this_thread::yield();
        }
        if (!all_arrived()) {
          lock.lock();
          arrive_cv_.wait(lock, all_arrived);
          lock.unlock();
        }
      }
      totals = PartitionTotalsLocked();
    }
    for (size_t s = first_shard; s < last_shard; ++s) task->run(s, totals);
  }
  lock.lock();
  if (++parked_workers_ == workers_.size()) park_cv_.notify_all();
  resume_cv_.wait(lock, [&] {
    return park_round_ != round || !pause_.load(std::memory_order_relaxed) ||
           stop_.load(std::memory_order_relaxed);
  });
}

uint64_t ShardedEngine::PauseWorkers(const ShardTask* task) {
  static obs::Histogram* const park_hist =
      obs::GetHistogram("l1hh_engine_park_wait_ns");
  const uint64_t t0 = obs::TraceRing::NowNs();
  std::unique_lock<std::mutex> lock(park_mutex_);
  ++park_round_;
  park_task_ = task;
  parked_workers_ = 0;
  arrived_workers_.store(0, std::memory_order_relaxed);
  pause_.store(true, std::memory_order_release);
  park_cv_.wait(lock, [this] { return parked_workers_ == workers_.size(); });
  // All workers are inside WorkerPark, done with the task, their
  // summaries untouched; the mutex handoff orders their last drains and
  // task results before our reads.
  park_task_ = nullptr;
  if (obs::Enabled()) park_hist->Observe(last_arrival_ns_ - t0);
  return last_arrival_ns_;
}

void ShardedEngine::ResumeWorkers() {
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    pause_.store(false, std::memory_order_release);
  }
  resume_cv_.notify_all();
}

template <typename Fn>
decltype(auto) ShardedEngine::ParkedLocked(const ShardTask* task, Fn&& fn) {
  const uint64_t t0 = obs::TraceRing::NowNs();
  Flush();
  const uint64_t arrived_ns = PauseWorkers(task);
  const uint64_t joined_ns = obs::TraceRing::NowNs();
  const uint64_t task_ns = task != nullptr ? joined_ns - arrived_ns : 0;
  AddSpanPhase("park_wait", joined_ns - t0 - task_ns);
  struct Resume {
    ShardedEngine* engine;
    ~Resume() { engine->ResumeWorkers(); }
  } resume{this};
  return fn(task_ns);
}

template <typename Fn>
decltype(auto) ShardedEngine::WithWorkersParked(Fn&& fn) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return ParkedLocked(nullptr,
                      [&](uint64_t) -> decltype(auto) { return fn(); });
}

// ---- Ingestion --------------------------------------------------------

size_t ShardedEngine::ShardOf(uint64_t item) const {
  // Mix before reducing: raw ids are often sequential, and a plain modulo
  // would stripe them instead of hashing them.
  return shards_.size() == 1
             ? 0
             : static_cast<size_t>(Mix64(item) % shards_.size());
}

void ShardedEngine::PushBlocking(size_t slot, size_t shard_index,
                                 const uint64_t* data, size_t n) {
  SpscRing<uint64_t>& ring = *shards_[shard_index]->rings[slot];
  IdleBackoff backoff;
  size_t done = 0;
  while (done < n) {
    const size_t pushed = ring.PushSome(data + done, n - done);
    if (pushed == 0) {
      backoff.Idle();  // backpressure: ring full, wait for the drain
      continue;
    }
    backoff.Reset();
    done += pushed;
  }
  slots_[slot]->enqueued[shard_index].value.fetch_add(
      n, std::memory_order_release);
}

void ShardedEngine::RotateAtBoundary(uint64_t bucket) {
  static obs::Histogram* const wait_hist =
      obs::GetHistogram("l1hh_engine_rotation_wait_ns");
  static obs::Counter* const rotations_ctr =
      obs::GetCounter("l1hh_engine_rotations_total");
  const bool obs_on = obs::Enabled();
  const uint64_t t0 = obs_on ? obs::TraceRing::NowNs() : 0;
  IdleBackoff backoff;
  // Every earlier bucket has its own boundary owner; wait for all of
  // them, then for every position before this boundary to be applied
  // (positions at or past it are still gated, so applied cannot
  // overshoot).  Both waits happen OUTSIDE state_mutex_: a concurrent
  // query holds that mutex while the workers are parked, and applied
  // could never advance if we held it here.
  while (rotations_done_.load(std::memory_order_acquire) < bucket - 1) {
    backoff.Idle();
  }
  while (ItemsProcessed() < bucket * rotation_stride_) backoff.Idle();
  {
    // All rings are empty (everything enqueued is applied) and every
    // producer is gated, so the workers cannot touch the summaries; the
    // mutex excludes the only other writers/readers — queries and
    // checkpoints.
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (auto* window : windows_) window->Rotate();
    // Release-publish: a producer that acquires the new count also sees
    // the rotated windows, and its subsequent ring pushes carry that
    // ordering through to the workers.
    rotations_done_.store(bucket, std::memory_order_release);
  }
  if (obs_on) {
    const uint64_t waited = obs::TraceRing::NowNs() - t0;
    wait_hist->Observe(waited);
    rotations_ctr->Inc();
    obs::Trace(obs::Severity::kDebug, "engine.rotation",
               static_cast<int64_t>(bucket), static_cast<int64_t>(waited));
  }
}

void ShardedEngine::Update(uint64_t item, uint64_t weight) {
  controller_->Update(item, weight);
}

void ShardedEngine::UpdateBatch(std::span<const uint64_t> items) {
  controller_->UpdateBatch(items);
}

void ShardedEngine::UpdateColumn(const uint64_t* items, size_t n) {
  controller_->UpdateColumn(items, n);
}

// ---- Producer slots ---------------------------------------------------

std::unique_ptr<ShardedEngine::Producer> ShardedEngine::RegisterProducer(
    Status* status) {
  std::lock_guard<std::mutex> lock(producers_mutex_);
  for (size_t p = 1; p < slots_.size(); ++p) {
    if (slots_[p]->active) continue;
    slots_[p]->active = true;
    if (status != nullptr) *status = Status::Ok();
    obs::GetCounter("l1hh_engine_producer_claims_total")->Inc();
    obs::Trace(obs::Severity::kInfo, "engine.slot_claim",
               static_cast<int64_t>(p));
    return std::unique_ptr<Producer>(new Producer(this, p));
  }
  obs::GetCounter("l1hh_engine_producer_claim_failures_total")->Inc();
  obs::Trace(obs::Severity::kWarn, "engine.slot_exhausted",
             static_cast<int64_t>(slots_.size() - 1));
  if (status != nullptr) {
    *status = Status::FailedPrecondition(
        "all " + std::to_string(slots_.size() - 1) +
        " external producer slots are live (max_producers = " +
        std::to_string(slots_.size()) +
        " includes the engine's own slot 0)");
  }
  return nullptr;
}

void ShardedEngine::ReleaseProducer(size_t slot) {
  // The mutex orders the departing owner's last pushes before any claim
  // by the slot's next owner.
  std::lock_guard<std::mutex> lock(producers_mutex_);
  slots_[slot]->active = false;
  obs::GetCounter("l1hh_engine_producer_releases_total")->Inc();
  obs::Trace(obs::Severity::kInfo, "engine.slot_release",
             static_cast<int64_t>(slot));
}

size_t ShardedEngine::active_producers() const {
  std::lock_guard<std::mutex> lock(producers_mutex_);
  size_t live = 0;
  for (size_t p = 1; p < slots_.size(); ++p) {
    if (slots_[p]->active) ++live;
  }
  return live;
}

// ---- Quiescence + queries ---------------------------------------------

uint64_t ShardedEngine::ShardEnqueued(size_t shard_index) const {
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->enqueued[shard_index].value.load(
        std::memory_order_acquire);
  }
  return total;
}

uint64_t ShardedEngine::ItemsProcessed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->applied.load(std::memory_order_acquire);
  }
  return total;
}

void ShardedEngine::Flush() {
  static obs::Histogram* const flush_hist =
      obs::GetHistogram("l1hh_engine_flush_wait_ns");
  static obs::Counter* const flush_ctr =
      obs::GetCounter("l1hh_engine_flushes_total");
  const bool obs_on = obs::Enabled();
  const uint64_t t0 = obs_on ? obs::TraceRing::NowNs() : 0;
  IdleBackoff backoff;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t target = ShardEnqueued(s);
    while (shards_[s]->applied.load(std::memory_order_acquire) < target) {
      backoff.Idle();
    }
  }
  if (obs_on) {
    flush_hist->Observe(obs::TraceRing::NowNs() - t0);
    flush_ctr->Inc();
  }
}

std::vector<uint64_t> ShardedEngine::ShardItemCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->applied.load(std::memory_order_acquire));
  }
  return counts;
}

EngineMetrics ShardedEngine::Metrics() const {
  EngineMetrics m;
  m.num_shards = shards_.size();
  m.num_threads = workers_.size();
  m.max_producers = slots_.size();
  m.rotations = rotations_done_.load(std::memory_order_acquire);
  m.shard_applied.reserve(shards_.size());
  m.ring_high_water.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const uint64_t applied = shard->applied.load(std::memory_order_acquire);
    m.shard_applied.push_back(applied);
    m.items_applied += applied;
    m.ring_high_water.push_back(
        shard->ring_high_water.load(std::memory_order_relaxed));
  }
  std::lock_guard<std::mutex> lock(producers_mutex_);
  m.slot_enqueued.resize(slots_.size(), 0);
  m.slot_active.resize(slots_.size(), 0);
  for (size_t p = 0; p < slots_.size(); ++p) {
    uint64_t enqueued = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      enqueued +=
          slots_[p]->enqueued[s].value.load(std::memory_order_acquire);
    }
    m.slot_enqueued[p] = enqueued;
    const bool live = p == 0 || slots_[p]->active;
    m.slot_active[p] = live ? 1 : 0;
    if (p > 0 && live) ++m.active_producers;
  }
  return m;
}

void ShardedEngine::PublishMetrics() const {
  const EngineMetrics m = Metrics();
  obs::GetGauge("l1hh_engine_active_producers")
      ->Set(static_cast<int64_t>(m.active_producers));
  obs::GetGauge("l1hh_engine_max_producers")
      ->Set(static_cast<int64_t>(m.max_producers));
  for (size_t s = 0; s < m.num_shards; ++s) {
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    obs::GetGauge("l1hh_engine_shard_applied", label)
        ->Set(static_cast<int64_t>(m.shard_applied[s]));
    obs::GetGauge("l1hh_engine_ring_occupancy_high_water", label)
        ->Set(static_cast<int64_t>(m.ring_high_water[s]));
  }
  for (size_t p = 0; p < m.slot_enqueued.size(); ++p) {
    obs::GetGauge("l1hh_engine_slot_enqueued",
                  "slot=\"" + std::to_string(p) + "\"")
        ->Set(static_cast<int64_t>(m.slot_enqueued[p]));
  }
}

PartitionTotals ShardedEngine::PartitionTotalsLocked() const {
  PartitionTotals totals;
  for (const PartitionTotals& counts : shard_counts_) {
    totals.covered_items += counts.covered_items;
    totals.samples += counts.samples;
  }
  return totals;
}

const Summary& ShardedEngine::MergedView() {
  // LEGACY contract (see header): controller thread only, producers
  // quiescent — the returned reference is read after the workers resume.
  return WithWorkersParked([this]() -> const Summary& {
    if (shards_.size() == 1) return *shards_[0]->summary;
    CrossShardPass pass;
    // A fresh empty instance absorbs every shard.  All shards were
    // constructed from the same options/seed and the caller guarantees a
    // mergeable structure, so the merges cannot fail; if one does,
    // surface it loudly (a silent partial merge would corrupt the
    // snapshot taken from it).
    auto merged = MakeSummary(options_.algorithm, options_.summary);
    for (const auto& shard : shards_) {
      const Status s = merged->Merge(*shard->summary);
      if (!s.ok()) {
        std::fprintf(stderr, "ShardedEngine: shard merge failed: %s\n",
                     s.ToString().c_str());
        std::abort();
      }
    }
    if (merged_ == nullptr || !merged->SupportsSnapshot()) {
      merged_ = std::move(merged);
      return *merged_;
    }
    // Refill the existing instance through its own snapshot codec, so a
    // reference handed out by an earlier call reads the current merge.
    BitWriter out;
    Status s = merged->SaveTo(out);
    if (s.ok()) {
      BitReader in(out);
      s = merged_->LoadFrom(in);
    }
    if (!s.ok()) {
      std::fprintf(stderr, "ShardedEngine: merged view refill failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
    return *merged_;
  });
}

double ShardedEngine::Estimate(uint64_t item) {
  return EstimateBatch({item}).front();
}

std::vector<double> ShardedEngine::EstimateBatch(
    const std::vector<uint64_t>& items) {
  // Inert (flattened) when a serving front end already opened a verb span
  // on this thread; stands alone for direct embedders.
  obs::QuerySpan span("estimate");
  return WithWorkersParked([&] {
    std::vector<double> estimates;
    estimates.reserve(items.size());
    PartitionTotals totals;
    {
      CrossShardPass pass;
      totals = PartitionTotalsLocked();
    }
    obs::ScopedPhase report("report");
    for (const uint64_t item : items) {
      estimates.push_back(
          shards_[ShardOf(item)]->summary->PartitionEstimate(item, totals));
    }
    return estimates;
  });
}

std::vector<ItemEstimate> ShardedEngine::HeavyHitters(double phi) {
  obs::QuerySpan span("heavy");
  // Every shard reports on its own worker against the global totals.
  std::vector<std::vector<ItemEstimate>> parts(shards_.size());
  const ShardTask gather{
      [&](size_t s, const PartitionTotals& totals) {
        parts[s] = shards_[s]->summary->PartitionHeavyHitters(phi, totals);
      },
      /*needs_totals=*/true};
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ParkedLocked(&gather, RecordCrossShardPass);
  }
  // Each item is counted by its owning shard alone, so the union of the
  // partition reports holds every item once.
  obs::ScopedPhase sort("report");
  std::vector<ItemEstimate> report;
  for (const auto& part : parts) {
    report.insert(report.end(), part.begin(), part.end());
  }
  SortByEstimateDesc(report);
  return report;
}

uint64_t ShardedEngine::CoveredItems() {
  return WithWorkersParked(
      [this] { return PartitionTotalsLocked().covered_items; });
}

size_t ShardedEngine::MemoryUsageBytes() {
  return WithWorkersParked([this] {
    size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->summary->MemoryUsageBytes();
      for (const auto& ring : shard->rings) {
        total += ring->capacity() * sizeof(uint64_t);
      }
    }
    return total;
  });
}

// ---- Checkpoint / Restore ---------------------------------------------

Status ShardedEngine::CaptureFramesLocked(
    const std::vector<ShardBaseline>& baselines, uint32_t max_delta_chain,
    std::vector<ShardFrame>* frames, uint64_t* total_applied) {
  // Each shard's worker encodes its own frame into the shard's slot; a
  // clean shard's slot stays empty.
  std::vector<std::optional<ShardFrame>> captured(shards_.size());
  std::vector<Status> status(shards_.size());
  const ShardTask capture{[&](size_t s, const PartitionTotals&) {
    const uint64_t applied =
        shards_[s]->applied.load(std::memory_order_acquire);
    const uint64_t rotations =
        windows_.empty() ? 0 : windows_[s]->rotations();
    const ShardBaseline base =
        s < baselines.size() ? baselines[s] : ShardBaseline{};
    if (base.valid && base.applied == applied &&
        base.rotations == rotations) {
      return;  // clean: the consumer already holds exactly this state
    }
    ShardFrame& frame = captured[s].emplace();
    frame.shard = s;
    frame.applied = applied;
    frame.rotations = rotations;
    // A delta only exists for a windowed shard whose baseline precedes
    // the live clocks, whose dirty tail still fits inside the ring, and
    // whose chain has not hit the replay-length bound.
    frame.delta =
        base.valid && !windows_.empty() && base.chain < max_delta_chain &&
        base.applied <= applied && base.rotations <= rotations &&
        rotations - base.rotations + 1 < windows_[s]->num_buckets();
    status[s] = frame.delta
                    ? SaveSummaryDelta(*shards_[s]->summary, base.rotations,
                                       base.applied, &frame.bytes)
                    : SaveSummary(*shards_[s]->summary, &frame.bytes);
  }};
  const uint64_t applied = ParkedLocked(&capture, [this](uint64_t ns) {
    AddSpanPhase("capture", ns);
    return ItemsProcessed();
  });
  // Joined in shard order, so the frames are exactly what a serial pass
  // over the shards would have captured.
  frames->clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!status[s].ok()) return status[s];
    if (captured[s].has_value()) frames->push_back(std::move(*captured[s]));
  }
  if (total_applied != nullptr) *total_applied = applied;
  return Status::Ok();
}

Status ShardedEngine::CaptureFrames(
    const std::vector<ShardBaseline>& baselines, uint32_t max_delta_chain,
    std::vector<ShardFrame>* frames, uint64_t* total_applied) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return CaptureFramesLocked(baselines, max_delta_chain, frames,
                             total_applied);
}

Status ShardedEngine::WriteCheckpoint(const std::string& dir,
                                      bool incremental) {
  const char* const kind = incremental ? "delta" : "full";
  obs::Trace(obs::Severity::kInfo, "checkpoint.begin", incremental ? 1 : 0);
  const uint64_t t0 = obs::TraceRing::NowNs();
  uint64_t frame_bytes = 0;
  uint64_t full_frames = 0;
  uint64_t delta_frames = 0;
  const Status result = [&]() -> Status {
    // The state mutex keeps other checkpoints out from the manifest read
    // to the manifest write; the workers are parked only for the capture.
    std::lock_guard<std::mutex> lock(state_mutex_);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("cannot create checkpoint directory '" + dir +
                             "': " + ec.message());
    }
    const std::vector<uint64_t> gens = ListManifestGenerations(dir);

    // Baselines come from the newest parseable manifest ON DISK — not
    // from engine memory — so incremental checkpointing survives process
    // restarts and never trusts a generation it cannot re-read.
    Manifest base_manifest;
    bool have_base = false;
    if (incremental) {
      for (const uint64_t gen : gens) {
        Manifest candidate;
        if (ParseManifestFile(
                (std::filesystem::path(dir) / ManifestFileName(gen))
                    .string(),
                &candidate)
                .ok() &&
            candidate.algorithm == options_.algorithm &&
            candidate.num_shards == shards_.size()) {
          base_manifest = std::move(candidate);
          have_base = true;
          break;
        }
      }
    }
    std::vector<ShardBaseline> baselines;
    if (have_base) {
      baselines.resize(shards_.size());
      for (size_t s = 0; s < shards_.size(); ++s) {
        baselines[s].valid = true;
        baselines[s].applied = base_manifest.shards[s].applied;
        baselines[s].rotations = base_manifest.shards[s].rotations;
        baselines[s].chain = static_cast<uint32_t>(
            base_manifest.shards[s].files.size() - 1);
      }
    }
    std::vector<ShardFrame> frames;
    uint64_t total_applied = 0;
    Status s = CaptureFramesLocked(baselines, kMaxDeltaChain, &frames,
                                   &total_applied);
    if (!s.ok()) return s;

    const uint64_t gen = (gens.empty() ? 0 : gens.front()) + 1;
    // Each shard's manifest record: the baseline chain carried forward,
    // overridden by whatever this generation captured for it.
    std::vector<ManifestShard> records(shards_.size());
    if (have_base) records = base_manifest.shards;
    for (ShardFrame& frame : frames) {
      ManifestShard& record = records[frame.shard];
      record.applied = frame.applied;
      record.rotations = frame.rotations;
      frame_bytes += frame.bytes.size();
      if (frame.delta) {
        ++delta_frames;
        record.files.push_back(ShardDeltaFileName(frame.shard, gen));
      } else {
        ++full_frames;
        record.files.clear();
        record.files.push_back(ShardFullFileName(frame.shard, gen));
      }
      s = DurableWriteFile(
          (std::filesystem::path(dir) / record.files.back()).string(),
          std::span<const uint8_t>(frame.bytes));
      if (!s.ok()) return s;
    }
    // The manifest goes last: until its durable rename lands, Restore
    // still resolves to the previous generation, so a crash at any
    // earlier write point costs nothing.
    std::ostringstream text;
    text << kManifestHeader << "\n"
         << "algorithm=" << options_.algorithm << "\n"
         << "num_shards=" << shards_.size() << "\n"
         << "generation=" << gen << "\n"
         << "items_processed=" << total_applied << "\n";
    for (size_t sh = 0; sh < records.size(); ++sh) {
      text << "shard=" << sh << ' ' << records[sh].applied << ' '
           << records[sh].rotations << ' ';
      for (size_t f = 0; f < records[sh].files.size(); ++f) {
        if (f != 0) text << '+';
        text << records[sh].files[f];
      }
      text << "\n";
    }
    s = DurableWriteFile(
        (std::filesystem::path(dir) / ManifestFileName(gen)).string(),
        text.str());
    if (!s.ok()) return s;
    PruneCheckpoints(dir);
    return Status::Ok();
  }();
  if (result.ok()) {
    obs::GetCounter("l1hh_io_checkpoints_total",
                    std::string("kind=\"") + kind + "\"")
        ->Inc();
    obs::GetCounter("l1hh_io_checkpoint_frames_total", "kind=\"full\"")
        ->Inc(full_frames);
    obs::GetCounter("l1hh_io_checkpoint_frames_total", "kind=\"delta\"")
        ->Inc(delta_frames);
    obs::GetCounter("l1hh_io_checkpoint_bytes_total")->Inc(frame_bytes);
    obs::GetHistogram("l1hh_io_checkpoint_ns")
        ->Observe(obs::TraceRing::NowNs() - t0);
    obs::Trace(obs::Severity::kInfo, "checkpoint.commit",
               static_cast<int64_t>(full_frames + delta_frames),
               static_cast<int64_t>(frame_bytes));
  } else {
    obs::GetCounter("l1hh_io_checkpoint_failures_total")->Inc();
    obs::Trace(obs::Severity::kWarn, "checkpoint.fail");
  }
  return result;
}

Status ShardedEngine::Checkpoint(const std::string& dir) {
  return WriteCheckpoint(dir, /*incremental=*/false);
}

Status ShardedEngine::CheckpointDelta(const std::string& dir) {
  return WriteCheckpoint(dir, /*incremental=*/true);
}

std::unique_ptr<ShardedEngine> ShardedEngine::Restore(
    const std::string& dir, const ShardedEngineOptions& exec,
    Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<ShardedEngine> {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  };
  const std::vector<uint64_t> gens = ListManifestGenerations(dir);
  if (gens.empty()) {
    return fail(Status::InvalidArgument(
        "'" + dir + "' is not a checkpoint directory (no " +
        kManifestPrefix + "<gen>)"));
  }
  // Newest complete generation wins: any failure inside a generation —
  // torn manifest, missing or corrupt chain file, inconsistent clocks —
  // falls back to the next older one, so a crash mid-checkpoint costs at
  // most the work since the previous checkpoint, never the directory.
  Status newest_error;
  for (const uint64_t gen : gens) {
    Status attempt;
    auto engine = RestoreGeneration(dir, gen, exec, &attempt);
    if (engine != nullptr) {
      if (status != nullptr) *status = Status::Ok();
      return engine;
    }
    // This generation was torn or corrupt; fall back to the next older
    // one (counted so operators can see silent data-loss near-misses).
    obs::GetCounter("l1hh_io_restore_fallbacks_total")->Inc();
    obs::Trace(obs::Severity::kWarn, "checkpoint.fallback",
               static_cast<int64_t>(gen));
    if (newest_error.ok()) newest_error = std::move(attempt);
  }
  return fail(std::move(newest_error));
}

std::unique_ptr<ShardedEngine> ShardedEngine::RestoreGeneration(
    const std::string& dir, uint64_t generation,
    const ShardedEngineOptions& exec, Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<ShardedEngine> {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  };
  const std::string manifest_path =
      (std::filesystem::path(dir) / ManifestFileName(generation)).string();
  Manifest manifest;
  Status s = ParseManifestFile(manifest_path, &manifest);
  if (!s.ok()) return fail(std::move(s));

  // Each chain becomes frames in manifest order — the full file, then its
  // deltas — and goes through the same decoder as a replica's cold round.
  // Every delta's embedded base clocks must match the state the previous
  // file replayed to (ApplyTail enforces it), so a chain spliced across
  // checkpoints is a Corruption here, not a silently wrong window.
  std::vector<ShardFrame> frames;
  for (size_t sh = 0; sh < manifest.shards.size(); ++sh) {
    const std::vector<std::string>& files = manifest.shards[sh].files;
    for (size_t f = 0; f < files.size(); ++f) {
      ShardFrame& frame = frames.emplace_back();
      frame.shard = sh;
      frame.delta = f != 0;
      s = ReadFileBytes((std::filesystem::path(dir) / files[f]).string(),
                        &frame.bytes);
      if (!s.ok()) return fail(std::move(s));
    }
  }
  auto engine = FromFrames(frames, manifest.shards.size(), exec, status);
  if (engine == nullptr) return nullptr;

  // The built engine must be the one the manifest describes.
  if (engine->algorithm() != manifest.algorithm) {
    return fail(Status::Corruption(
        "shard files hold '" + engine->algorithm() + "', manifest '" +
        manifest_path + "' says '" + manifest.algorithm + "'"));
  }
  const std::vector<uint64_t> applied = engine->ShardItemCounts();
  const uint64_t rotations =
      engine->rotations_done_.load(std::memory_order_acquire);
  for (size_t sh = 0; sh < manifest.shards.size(); ++sh) {
    const ManifestShard& record = manifest.shards[sh];
    if (applied[sh] != record.applied || rotations != record.rotations) {
      return fail(Status::Corruption(
          "shard " + std::to_string(sh) + " chain replays to " +
          std::to_string(applied[sh]) + " items and " +
          std::to_string(rotations) + " rotations, manifest '" +
          manifest_path + "' says " + std::to_string(record.applied) +
          " and " + std::to_string(record.rotations)));
    }
  }
  return engine;
}

std::unique_ptr<ShardedEngine> ShardedEngine::FromFrames(
    const std::vector<ShardFrame>& frames, size_t num_shards,
    const ShardedEngineOptions& exec, Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<ShardedEngine> {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  };
  // Every shard's chain must open with a full frame.  Checked on the
  // frames alone, so a hostile shard count allocates nothing.
  std::set<size_t> opened;
  for (const ShardFrame& frame : frames) {
    if (!frame.delta) {
      opened.insert(frame.shard);
    } else if (opened.count(frame.shard) == 0) {
      return fail(Status::InvalidArgument(
          "delta frame for shard " + std::to_string(frame.shard) +
          " has no base: no full frame precedes it"));
    }
  }
  if (num_shards == 0 || opened.size() != num_shards ||
      *opened.rbegin() >= num_shards) {
    return fail(Status::InvalidArgument(
        "a cold round opens each of its " + std::to_string(num_shards) +
        " shards with a full frame; this one opens " +
        std::to_string(opened.size()) + " shard(s) of [0, " +
        std::to_string(num_shards) + ")"));
  }
  // Frame 0 is a full frame: its header names the algorithm and options
  // (domain-checked before any factory runs).
  SnapshotInfo info;
  Status s = ReadSnapshotInfo(frames[0].bytes, &info);
  if (!s.ok()) return fail(std::move(s));
  ShardedEngineOptions options = exec;
  options.algorithm = info.algorithm;
  options.summary = info.options;
  options.num_shards = num_shards;
  std::unique_ptr<ShardedEngine> engine = Create(options, status);
  if (engine == nullptr) return nullptr;
  s = engine->ApplyFrames(frames);
  if (!s.ok()) return fail(std::move(s));
  return engine;
}

Status ShardedEngine::ApplyFrames(const std::vector<ShardFrame>& frames) {
  return WithWorkersParked([&] {
    // Stage the round off to the side; nothing live changes until every
    // frame decoded and the resulting shard set validated, so a refused
    // frame leaves the engine at the previous committed round.
    std::vector<const Summary*> views;
    for (const auto& shard : shards_) views.push_back(shard->summary.get());
    std::vector<std::unique_ptr<Summary>> staged(shards_.size());
    Status valid = StageFrames(frames, views, &staged);
    if (!valid.ok()) return valid;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (staged[s] != nullptr) views[s] = staged[s].get();
    }
    uint64_t rotations = 0;
    valid = ValidateShardSet(views, *shards_[0]->summary, &rotations);
    if (!valid.ok()) return valid;
    // Commit.  A frame-fed engine has no producers, so slot 0's enqueued
    // counter absorbs the clock change (u64 wrap handles a shrink) and the
    // Flush targets stay equal to the applied counts.
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (staged[s] == nullptr) continue;
      const uint64_t before =
          shards_[s]->applied.load(std::memory_order_relaxed);
      const uint64_t after = staged[s]->ItemsProcessed();
      shards_[s]->summary = std::move(staged[s]);
      shards_[s]->applied.store(after, std::memory_order_release);
      slots_[0]->enqueued[s].value.fetch_add(after - before,
                                             std::memory_order_release);
    }
    BindWindows(rotations);
    return Status::Ok();
  });
}

std::unique_ptr<ShardedEngine> ShardedEngine::Restore(const std::string& dir,
                                                      Status* status) {
  return Restore(dir, ShardedEngineOptions{}, status);
}

}  // namespace l1hh
