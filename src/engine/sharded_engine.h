// ShardedEngine — the scale-out layer over the unified Summary interface.
// Architecture walkthrough: docs/ENGINE.md.
//
// The paper's structures are mergeable (Misra-Gries and Space-Saving by
// the classic merge, the linear sketches cell-wise, BdwSimple by sample
// concatenation, BdwOptimal by epoch-reconciled table sums), which is
// exactly the property Woodruff's survey singles out as the route to
// distributed and parallel deployment.  The engine exploits it: the item
// universe is hash-partitioned across K shards, each shard owns an
// independent instance of one factory-registered Summary (same name,
// same options, same seed — the Merge compatibility precondition), and
// every shard is fed through lock-free SPSC ring buffers drained in
// batches by a pool of worker threads.  Global answers need no merge:
// every occurrence of an item lands on one shard, so a point query asks
// the owning shard and a report is the union of every shard's partition
// report against the global totals (Summary::PartitionHeavyHitters).
//
// Ingestion is a K x P ring GRID: P producer slots (slot 0 belongs to the
// engine's own Update/UpdateBatch entry points; slots 1..P-1 are claimed
// with RegisterProducer) each own one SPSC ring PER SHARD, so P producer
// threads push concurrently without a CAS loop — every ring still has
// exactly one producer (its slot owner) and exactly one consumer (the
// worker that owns the shard, draining all P of the shard's rings
// round-robin in batches).  Quiescence is producer-aware: each slot keeps
// a per-shard enqueued counter, each shard keeps one applied counter, and
// Flush waits until applied catches the acquire-summed enqueued targets.
//
// Because shards see disjoint substreams (every occurrence of an item
// lands on the same shard), the union of the partition reports answers
// for the concatenated stream as a single summary would, and MergedView's
// one-shot merge does too — within each structure's documented merge
// error (see docs/ALGORITHMS.md's mergeability table).  This includes the
// paper's space-optimal Algorithm 2 (`bdw_optimal`), whose accelerated-
// counter epochs follow a schedule shared by all shards and are
// reconciled at merge time (core/bdw_optimal.h).  Structures that do
// not support Merge (lossy_counting, sticky_sampling) are refused at
// construction for K > 1 rather than silently answering wrong; K == 1
// degenerates to a single-summary engine (still useful for moving
// ingestion off the caller's thread).
//
// ---- Thread-safety contract (what tests/multi_producer_test.cc,
// tests/sharded_engine_test.cc and the CI TSan job enforce) -------------
//
//   * Update / UpdateBatch on the ENGINE are slot 0's producer side: one
//     thread at a time (the controller).  Each Producer handle from
//     RegisterProducer owns its own slot and may ingest from its own
//     thread CONCURRENTLY with the controller and with other handles; a
//     single handle must not be shared between threads without external
//     synchronization (it owns the SPSC producer side of its rings and
//     its partition-pass scratch).
//   * The engine's internal workers are the only ring consumers, and
//     each shard is owned by exactly one worker.
//   * Flush / Estimate / HeavyHitters / CoveredItems / MemoryUsageBytes
//     / Checkpoint are safe from ANY thread, concurrently with live
//     producers: they serialize on an internal state mutex, wait for
//     every item enqueued at entry to be applied, park the workers, and
//     read the shard summaries only while parked (results are copied
//     out, giving readers snapshot isolation).  Items enqueued while
//     the query runs are simply not in that snapshot yet.
//   * MergedView still returns a REFERENCE into engine state, so it
//     keeps the stricter legacy contract: controller thread only, no
//     concurrently-active producer handles, reference valid until the
//     next non-const engine call.  Concurrent callers want HeavyHitters
//     / Estimate, which copy.
//   * ItemsProcessed / ShardItemCounts / ShardOf and the plain getters
//     are safe from any thread at any time (atomic reads or immutable
//     state); the counts they report lag ingestion until a Flush.
//   * Destroy (or stop using) every Producer handle before destroying
//     the engine; destroy a handle on its owning thread (or after
//     joining it).
//
// Every item reaches a ring through one route, Producer::UpdateColumn
// (Update is a one-item column, UpdateBatch its span spelling).
//
// Windowed summaries add a global rotation clock shared by all
// producers: positions in the global stream are claimed with a single
// fetch_add, a bucket's items may only be enqueued once every earlier
// bucket has rotated, and the producer that claims a bucket's first
// position performs the rotation after waiting for the global applied
// count to reach the boundary.  See Producer::UpdateColumn and
// docs/ENGINE.md#windowed-rotation-under-p-producers.
#ifndef L1HH_ENGINE_SHARDED_ENGINE_H_
#define L1HH_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/spsc_ring.h"
#include "summary/summary.h"
#include "util/status.h"

namespace l1hh {

class SlidingWindowSummary;

struct ShardedEngineOptions {
  /// Registry name of the per-shard summary (see RegisteredSummaryNames).
  std::string algorithm = "misra_gries";
  /// Construction parameters handed verbatim to every shard.  The shared
  /// seed is what makes the shard summaries Merge-compatible.
  SummaryOptions summary;
  /// Number of hash partitions (>= 1).  K > 1 requires the algorithm to
  /// support Merge.
  size_t num_shards = 4;
  /// Worker threads draining the shard rings; 0 means one per shard.
  /// Each shard is serviced by exactly one worker (SPSC consumer side).
  size_t num_threads = 0;
  /// Per-ring capacity in items (rounded up to a power of two).  Memory
  /// scales as num_shards * max_producers rings.
  size_t queue_capacity = size_t{1} << 16;
  /// Maximum items a worker applies per UpdateBatch drain.
  size_t drain_batch = 1024;
  /// Total producer slots, INCLUDING slot 0 (the engine's own
  /// Update/UpdateBatch path).  max_producers - 1 handles can be live at
  /// once via RegisterProducer; the default 1 reserves no external slots
  /// and reproduces the legacy single-producer engine exactly.
  size_t max_producers = 1;
};

/// What a checkpoint consumer (the on-disk manifest, or a replica's sync
/// protocol) already holds for one shard: the clocks of the shard state it
/// has, and how many deltas are already chained onto its base snapshot.
/// CaptureFrames compares these against the live clocks to decide, per
/// shard, between no frame (clean), a delta frame, or a full frame.
struct ShardBaseline {
  bool valid = false;      // false: nothing held; always emit a full frame
  uint64_t applied = 0;    // shard items applied at the baseline
  uint64_t rotations = 0;  // shard window rotations at the baseline (0 when
                           // the algorithm is not windowed)
  uint32_t chain = 0;      // deltas already stacked on the baseline's base
};

/// One captured shard state: a full snapshot container ("L1HHSNAP") or a
/// delta container ("L1HHDELT") chained onto the caller's baseline, plus
/// the clocks the bytes advance the shard to.
struct ShardFrame {
  size_t shard = 0;
  bool delta = false;
  uint64_t applied = 0;    // shard items applied after this frame
  uint64_t rotations = 0;  // shard rotations after this frame
  std::vector<uint8_t> bytes;
};

/// Point-in-time telemetry snapshot for ONE engine instance, for in-process
/// callers (the process-wide obs::Registry aggregates across instances; this
/// struct is the per-engine view).  Counter semantics:
///   * items_applied / shard_applied — items drained into shard summaries
///     (== enqueued after a Flush; lags ingestion otherwise).
///   * ring_high_water[k] — max occupancy ever observed on shard k's rings
///     by its owning worker (backpressure headroom diagnostic).
///   * slot_enqueued[p] — items enqueued by producer slot p summed over
///     shards (slot 0 is the engine's own Update path).
///   * rotations — completed lockstep window rotations (0 when not
///     windowed).
struct EngineMetrics {
  uint64_t items_applied = 0;
  uint64_t rotations = 0;
  size_t num_shards = 0;
  size_t num_threads = 0;
  size_t max_producers = 0;
  size_t active_producers = 0;
  std::vector<uint64_t> shard_applied;
  std::vector<uint64_t> ring_high_water;
  std::vector<uint64_t> slot_enqueued;
  std::vector<uint8_t> slot_active;  // 1 = slot live (slot 0 always)
};

class ShardedEngine {
 public:
  /// A claimed producer slot: an independent ingestion endpoint with its
  /// own ring per shard and its own partition-pass scratch.  Obtain via
  /// RegisterProducer; destroying the handle returns the slot for reuse
  /// (items already enqueued stay enqueued).  One thread per handle.
  class Producer {
   public:
    ~Producer();
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    /// Enqueues `weight` occurrences of `item` as `weight` one-item
    /// columns; blocks like UpdateColumn.
    void Update(uint64_t item, uint64_t weight = 1);

    /// Enqueues a batch; the span spelling of UpdateColumn.
    void UpdateBatch(std::span<const uint64_t> items);

    /// Columnar ingest, the engine's one route: a per-batch partition
    /// pass (tiled shard-id sweep -> counting prefix sum -> scatter into
    /// contiguous per-shard runs, one ring push per shard per tile), so
    /// each shard receives its items in slice order; windowed engines
    /// split the slice at global bucket boundaries first.  Blocks only on
    /// backpressure or, when windowed, on the global rotation gate.
    void UpdateColumn(const uint64_t* items, size_t n);

    /// This handle's slot index in [1, max_producers).
    size_t slot() const { return slot_; }

   private:
    friend class ShardedEngine;
    Producer(ShardedEngine* engine, size_t slot);

    // Partitions one slice (a windowed engine's: one bucket's chunk)
    // and pushes each shard's run; the only caller of PushBlocking.
    void PartitionPush(const uint64_t* items, size_t n);

    ShardedEngine* engine_;
    size_t slot_;
    // Partition-pass scratch (tile-sized, slot-local).
    std::vector<uint32_t> part_shards_;
    std::vector<size_t> part_starts_;
    std::vector<size_t> part_cursors_;
    std::vector<uint64_t> part_scratch_;
  };

  /// Validates options, builds the shard summaries, and starts the worker
  /// pool.  Returns nullptr (with the reason in *status when given) if the
  /// algorithm is unregistered, K == 0, max_producers is 0 or implausibly
  /// large, or K > 1 for a non-mergeable structure.
  static std::unique_ptr<ShardedEngine> Create(
      const ShardedEngineOptions& options, Status* status = nullptr);

  /// Stops and joins the workers; pending queued items are drained first.
  /// All Producer handles must have been destroyed (or gone idle forever)
  /// before this runs.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Claims a free producer slot and returns its handle, or nullptr with
  /// FailedPrecondition in *status when all max_producers - 1 slots are
  /// live.  Safe from any thread; slots released by a destroyed handle
  /// are reclaimed (the mutex handing the slot over also orders the old
  /// owner's pushes before the new owner's).
  std::unique_ptr<Producer> RegisterProducer(Status* status = nullptr);

  /// Enqueues `weight` occurrences of `item` on slot 0 (unit-weight
  /// stream semantics, matching Summary::Update) as one-item columns.
  void Update(uint64_t item, uint64_t weight = 1);

  /// Enqueues a batch on slot 0 (the partition-pass route, see
  /// Producer::UpdateColumn).
  void UpdateBatch(std::span<const uint64_t> items);

  /// Columnar ingest on slot 0: the partition-pass route (see
  /// Producer::UpdateColumn).  Same single-controller-thread contract as
  /// Update/UpdateBatch.
  void UpdateColumn(const uint64_t* items, size_t n);

  /// Blocks until every item enqueued BEFORE the call (summed over all
  /// producer slots with acquire ordering) has been applied to its shard
  /// summary.  Safe from any thread; concurrent producers may keep
  /// enqueueing, their new items are simply not waited for.
  void Flush();

  /// Point query answered by the owning shard (ShardOf) alone, against
  /// the global totals: the sampling-based structures renormalise over
  /// the combined sample of all shards (Summary::PartitionEstimate), so
  /// a shard's local ~K-fold inflation never reaches the caller.
  /// Flushes; safe from any thread, even with live producers (snapshot
  /// isolation — see contract above).
  double Estimate(uint64_t item);

  /// Point queries for a whole key list under ONE flush/park cycle (an
  /// audit pass over k keys costs one pause, not k).  Returns estimates
  /// positionally matching `items`.  Same thread-safety and
  /// snapshot-isolation contract as Estimate.
  std::vector<double> EstimateBatch(const std::vector<uint64_t>& items);

  /// Global report: the union of every shard's partition report, each
  /// thresholded against the global totals (Summary::
  /// PartitionHeavyHitters), sorted by SortByEstimateDesc.  No merge.
  /// Flushes; safe from any thread, even with live producers (snapshot
  /// isolation).
  std::vector<ItemEstimate> HeavyHitters(double phi);

  /// A one-shot merge of every shard: the summary of the full ingested
  /// stream, rebuilt on every call (the queries above never need it; it
  /// serves snapshot export and whole-summary inspection).  The merge
  /// refills one engine-owned instance, so references from earlier calls
  /// keep pointing at the current merge.  With K == 1 this is the lone
  /// shard itself.  Flushes.  LEGACY contract: controller thread only,
  /// no concurrently-active Producer handles, reference valid until the
  /// next non-const engine call.
  const Summary& MergedView();

  /// Total items applied across all shards (== enqueued after Flush).
  uint64_t ItemsProcessed() const;

  /// The stream suffix the reports answer for: the sum of the shards'
  /// CoveredItems() — every applied item, or for a windowed engine the
  /// global window.  Flushes and parks the workers first; safe from any
  /// thread.
  uint64_t CoveredItems();

  /// Shard summaries + rings, in bytes.  Flushes and parks the workers
  /// first; safe from any thread.
  size_t MemoryUsageBytes();

  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const { return workers_.size(); }
  /// Total producer slots including slot 0.
  size_t max_producers() const { return slots_.size(); }
  /// Currently-live external Producer handles (slots 1..P-1 in use).
  size_t active_producers() const;
  const std::string& algorithm() const { return options_.algorithm; }

  // ---- Checkpoint / Restore (docs/SNAPSHOTS.md, docs/ENGINE.md) ---------

  /// Flush-quiesces, parks the workers, then writes a restartable FULL
  /// checkpoint into `dir` (created if missing): one self-describing
  /// snapshot file per shard (src/io/snapshot.h) plus a generation-
  /// numbered MANIFEST.<gen> recording the algorithm, the shard count,
  /// and each shard's clocks and file chain.  Every file goes through
  /// the crash-safe write-tmp/fsync/rename protocol and the manifest is
  /// written last, so a crash at ANY point leaves the previous
  /// generation intact and restorable — never a torn or mixed-epoch
  /// checkpoint.  The newest and previous generations are retained;
  /// older manifests and the files only they referenced are pruned.
  /// Safe from any thread, even with live producers (the checkpoint
  /// captures the flushed prefix).  I/O failures are Status::IOError.
  Status Checkpoint(const std::string& dir);

  /// Incremental checkpoint: like Checkpoint, but reads the newest
  /// complete manifest in `dir` and writes only what changed since it.
  /// A shard whose clocks did not move keeps its existing file chain
  /// verbatim (no bytes written); a dirty windowed shard whose tail
  /// still fits the ring appends one delta container to its chain; a
  /// dirty plain shard — or a chain past kMaxDeltaChain, or a window
  /// that rotated a full ring — falls back to a fresh full snapshot.
  /// The new MANIFEST.<gen> is self-contained: it lists each shard's
  /// complete chain (base + deltas), so Restore never consults older
  /// manifests.  With no prior manifest this IS a full checkpoint.
  /// After touching 1 of K shards the checkpoint writes O(1 shard)
  /// bytes + one manifest (tests/checkpoint_fault_test.cc pins this).
  Status CheckpointDelta(const std::string& dir);

  /// Deltas chained onto one base before CheckpointDelta rewrites the
  /// shard in full: bounds both restore replay length and the growth of
  /// a chain's on-disk footprint.
  static constexpr uint32_t kMaxDeltaChain = 12;

  /// Flush-quiesces, parks the workers, and captures each shard's state
  /// as an in-memory frame against `baselines` (what the consumer
  /// already holds): clean shards emit nothing, dirty windowed shards
  /// within `max_delta_chain` emit a delta container, everything else a
  /// full snapshot container.  Pass an empty vector for a cold consumer
  /// (all full frames).  `*total_applied` gets the global applied count
  /// the frames bring the consumer to.  This is the shared capture step
  /// behind CheckpointDelta and the replication stream (src/serve/);
  /// ApplyFrames is its inverse.  Safe from any thread.
  Status CaptureFrames(const std::vector<ShardBaseline>& baselines,
                       uint32_t max_delta_chain,
                       std::vector<ShardFrame>* frames,
                       uint64_t* total_applied);

  /// Builds a frame-fed engine (a replica) from a cold round: for every
  /// shard in [0, num_shards), a full frame, optionally followed by delta
  /// frames that chain onto it, decoded in order.  CaptureFrames against
  /// empty baselines emits the plain case; Restore feeds each checkpoint
  /// chain through here.  A round that leaves a shard without state, a
  /// delta with no full frame before it, or zero shards is refused.  The
  /// shard set must pass the same validation as ApplyFrames (same
  /// structure, options and seed on every shard; windows aligned on
  /// rotations); `exec` supplies only the execution knobs, as for
  /// Restore.  Returns nullptr with the reason in *status otherwise.
  static std::unique_ptr<ShardedEngine> FromFrames(
      const std::vector<ShardFrame>& frames, size_t num_shards,
      const ShardedEngineOptions& exec, Status* status = nullptr);

  /// The inverse of CaptureFrames: commits one round of frames (full
  /// snapshot or delta containers; frames for the same shard apply in
  /// order) as ONE atomic step under the state mutex.  Every frame goes
  /// through the same decoder as FromFrames and is staged off to the side
  /// (a delta onto a copy of the shard), and the resulting shard set must
  /// match this engine's shard 0 in structure, options and seed and pass
  /// FromFrames' validation.  A refused round (Corruption,
  /// InvalidArgument) leaves the engine exactly at its previous committed
  /// round and a query never sees shards of two rounds.  Safe from any
  /// thread concurrently with queries; meant for frame-fed engines, which
  /// have no producers (the frames replace shard state wholesale).
  Status ApplyFrames(const std::vector<ShardFrame>& frames);

  /// Rebuilds an engine from a Checkpoint directory and resumes ingestion
  /// exactly where it left off: same algorithm, same per-shard options and
  /// seed (read from the shard snapshot headers), same shard count, and
  /// per-shard summaries restored bit-exactly — continuing the run is
  /// indistinguishable from never having stopped.  Generations are tried
  /// newest-first: if the newest manifest or any file it references is
  /// missing, truncated, or corrupt, Restore falls back to the previous
  /// complete generation, so a crash mid-checkpoint (or a stale manifest
  /// over a lost delta) costs at most one checkpoint of progress, never
  /// the directory.  Each shard's chain (full file, then deltas) is read
  /// as frames and decoded by FromFrames, the same path as a replica's
  /// cold round; the built engine must then match the manifest's
  /// algorithm and per-shard item and rotation clocks, or the generation
  /// is Corruption.  `exec` supplies only the execution knobs
  /// (num_threads, queue_capacity, drain_batch, max_producers); its
  /// algorithm/summary/num_shards fields are ignored in favor of the
  /// checkpoint's.  Returns nullptr with the reason in *status when no
  /// generation is restorable.
  static std::unique_ptr<ShardedEngine> Restore(
      const std::string& dir, const ShardedEngineOptions& exec,
      Status* status = nullptr);
  static std::unique_ptr<ShardedEngine> Restore(const std::string& dir,
                                                Status* status = nullptr);

  /// The owning shard of an item — stable for the engine's lifetime.
  size_t ShardOf(uint64_t item) const;

  /// True when the per-shard summaries are `windowed:<algo>` containers.
  /// Windowed operation changes one thing about ingestion: bucket
  /// rotation is driven by the GLOBAL stream position, not each shard's
  /// local count — producers claim position ranges off one atomic clock,
  /// split them at global bucket boundaries, and the claimant of a
  /// boundary position rotates all K shard rings together once the
  /// global applied count reaches the boundary, so bucket i covers the
  /// same global position range on every shard and the rings stay
  /// bucket-wise mergeable (docs/WINDOWS.md#sharded-windows).
  bool windowed() const { return !windows_.empty(); }

  /// Items applied per shard (exact after Flush); the balance diagnostic
  /// surfaced by the CLI and the throughput bench.
  std::vector<uint64_t> ShardItemCounts() const;

  /// Telemetry snapshot for THIS engine (see EngineMetrics).  Safe from
  /// any thread at any time: every field is read from atomics or
  /// mutex-guarded slot flags; values lag ingestion until a Flush.
  EngineMetrics Metrics() const;

  /// Publishes the per-shard and per-slot gauges from Metrics() into the
  /// process-wide obs::Registry (labels shard="k" / slot="p").  Called at
  /// scrape time by the serve front end and the CLI — gauges are
  /// point-in-time, so there is no need to maintain them on the hot path.
  void PublishMetrics() const;

 private:
  // A cache line per counter: the per-(slot, shard) enqueued counters
  // are written by different producer threads and must not false-share.
  struct alignas(64) PaddedCounter {
    std::atomic<uint64_t> value{0};
  };

  // Each shard owns one ring PER PRODUCER SLOT (rings[p] is slot p's),
  // its summary, and the applied item count.  `applied` is published
  // with release order after every drain, so a thread that observes
  // applied == sum(enqueued) also observes the summary mutations behind
  // it.  The matching enqueued counts live in ProducerSlot, one per
  // shard, so each is written by exactly one producer thread.
  struct Shard {
    Shard(size_t producer_slots, size_t ring_capacity);
    std::vector<std::unique_ptr<SpscRing<uint64_t>>> rings;
    std::unique_ptr<Summary> summary;
    alignas(64) std::atomic<uint64_t> applied{0};
    // Max ring occupancy ever observed by the owning worker (single
    // writer: plain load/compare/store-relaxed, no RMW needed).
    alignas(64) std::atomic<uint64_t> ring_high_water{0};
  };

  // One producer slot: the live flag (guarded by producers_mutex_) and
  // the per-shard enqueued counters this slot's owner publishes.
  struct ProducerSlot {
    explicit ProducerSlot(size_t num_shards) : enqueued(num_shards) {}
    bool active = false;
    std::vector<PaddedCounter> enqueued;
  };

  explicit ShardedEngine(const ShardedEngineOptions& options);

  void StartWorkers();
  void WorkerLoop(size_t first_shard, size_t last_shard);
  // Parks this worker until pause_ clears (or stop_); workers check the
  // flag once per drain pass, so a pause request completes in at most
  // one drain_batch per ring.
  void WorkerPark();
  // Waits for every worker to park (call with state_mutex_ held, after
  // Flush).  While paused the shard summaries are safe to read/write
  // from the pausing thread.
  void PauseWorkers();
  void ResumeWorkers();
  // Runs `fn` under state_mutex_ with everything enqueued before the call
  // applied and the workers parked (the shard summaries are then safe to
  // touch), resuming them on the way out.  The flush and
  // park are timed as the open span's park_wait phase.
  template <typename Fn>
  decltype(auto) WithWorkersParked(Fn&& fn);
  // Blocks until all n items are enqueued on `shard`'s ring for `slot`.
  void PushBlocking(size_t slot, size_t shard_index, const uint64_t* data,
                    size_t n);
  // Releases a slot claimed by RegisterProducer (Producer destructor).
  void ReleaseProducer(size_t slot);
  // Sum of every slot's enqueued counter for one shard / for all shards,
  // acquire-ordered (the Flush targets).
  uint64_t ShardEnqueued(size_t shard_index) const;
  uint64_t TotalApplied() const;
  // Captures the per-shard SlidingWindowSummary pointers (or clears them
  // for a plain algorithm) and switches the windows to external rotation;
  // `restored_rotations` seeds the global rotation clock after Restore.
  void BindWindows(uint64_t restored_rotations);
  // The claimant of bucket `bucket`'s first position waits for bucket-1
  // to have rotated and for the global applied count to reach the
  // boundary, then rotates every shard window under state_mutex_ and
  // release-publishes rotations_done_.
  void RotateAtBoundary(uint64_t bucket);
  // The whole-stream totals every shard's partition report is measured
  // against.  Requires state_mutex_ held AND workers parked (it reads
  // the shard summaries), like every *Locked helper.
  PartitionTotals PartitionTotalsLocked() const;
  // CaptureFrames body; requires state_mutex_ held and workers parked.
  Status CaptureFramesLocked(const std::vector<ShardBaseline>& baselines,
                             uint32_t max_delta_chain,
                             std::vector<ShardFrame>* frames,
                             uint64_t* total_applied);
  // ApplyFrames body; requires state_mutex_ held and workers parked.
  Status ApplyFramesLocked(const std::vector<ShardFrame>& frames);
  // Shared Checkpoint / CheckpointDelta body: capture frames against the
  // newest on-disk manifest (when `incremental`), write the changed
  // files, seal the new generation with its manifest, prune old ones.
  Status WriteCheckpoint(const std::string& dir, bool incremental);
  // One restore attempt against generation `generation` of `dir`: reads
  // every chain as frames, builds the engine with FromFrames, and checks
  // it against the manifest.  Restore walks generations newest-first
  // until one succeeds.
  static std::unique_ptr<ShardedEngine> RestoreGeneration(
      const std::string& dir, uint64_t generation,
      const ShardedEngineOptions& exec, Status* status);

  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ProducerSlot>> slots_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};

  // Slot 0's handle: the engine's own Update/UpdateBatch delegate to it.
  std::unique_ptr<Producer> controller_;

  // Slot claim/release (RegisterProducer / ~Producer).
  mutable std::mutex producers_mutex_;

  // Serializes the read side (queries, checkpoint, rotation): exactly
  // one thread at a time may pause the workers and touch shard
  // summaries or merged_.
  std::mutex state_mutex_;

  // Worker pause gate: pause_ is checked once per drain pass; parked
  // workers wait on resume_cv_, the pausing thread waits on park_cv_
  // until parked_workers_ == workers_.size().
  std::atomic<bool> pause_{false};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::condition_variable resume_cv_;
  size_t parked_workers_ = 0;

  // MergedView's instance (guarded by state_mutex_), refilled by every
  // call; null until the first K > 1 MergedView.
  std::unique_ptr<Summary> merged_;

  // Windowed operation: the shard windows in external-rotation mode
  // (mutated only under state_mutex_), the global bucket width, the
  // atomic position clock producers claim ranges from, and the count of
  // completed lockstep rotations (release-published by the rotating
  // claimant, acquire-read by gated producers).
  std::vector<SlidingWindowSummary*> windows_;
  uint64_t rotation_stride_ = 0;
  alignas(64) std::atomic<uint64_t> global_pos_{0};
  alignas(64) std::atomic<uint64_t> rotations_done_{0};
};

}  // namespace l1hh

#endif  // L1HH_ENGINE_SHARDED_ENGINE_H_
