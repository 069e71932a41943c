#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "engine/sharded_engine.h"
#include "summary/summary.h"

namespace perfbench {

namespace {

constexpr uint64_t kChunk = kBinBatch;  // items per traced call
constexpr uint64_t kApplyItemsBdw = uint64_t{1} << 21;
constexpr uint64_t kApplyItemsMg = uint64_t{1} << 22;
constexpr uint64_t kPushItems = uint64_t{1} << 20;
constexpr int kMergeReps = 5;
constexpr uint64_t kQueryRounds = 20;  // trailing rounds timed in-process

double DurationS(const Tracer& tracer, uint32_t id) {
  const Span& span = tracer.Get(id);
  return span.end_s - span.start_s;
}

l1hh::SummaryOptions SummaryOptionsFor(const Workload& w) {
  l1hh::SummaryOptions options;
  options.epsilon = w.epsilon;
  options.phi = w.phi;
  options.universe_size = kUniverse;
  options.stream_length = w.m();
  options.seed = 1;  // the server's --seed
  return options;
}

// The server's engine shape for `w`, with rings large enough that
// `ring_items` pushes never block.
l1hh::ShardedEngineOptions EngineOptionsFor(const Workload& w,
                                            uint64_t ring_items) {
  l1hh::ShardedEngineOptions options;
  options.algorithm = w.algorithm;
  options.summary = SummaryOptionsFor(w);
  options.num_shards = kShards;
  options.max_producers = 2;  // slot 0 plus one registered producer
  options.queue_capacity = static_cast<size_t>(ring_items);
  return options;
}

// Single-thread UpdateColumn on a bare summary.  Returns ns/item and
// sets *memory_bytes at the end of the stream.
double ProbeApply(const Workload& w, const std::vector<uint64_t>& stream,
                  uint64_t items, Tracer& tracer, double* memory_bytes) {
  auto summary = l1hh::MakeSummary(w.algorithm, SummaryOptionsFor(w));
  const uint32_t root = tracer.Begin("summary", "apply", 0, items);
  double busy_s = 0;
  for (uint64_t i = 0; i < items; i += kChunk) {
    const uint64_t n = std::min(kChunk, items - i);
    const uint32_t id = tracer.Begin("summary", "UpdateColumn", root, n);
    summary->UpdateColumn(stream.data() + i, n);
    tracer.End(id);
    busy_s += DurationS(tracer, id);
  }
  const uint32_t mem = tracer.Begin("summary", "MemoryUsageBytes", root);
  *memory_bytes = static_cast<double>(summary->MemoryUsageBytes());
  tracer.End(mem);
  tracer.End(root);
  return busy_s * 1e9 / static_cast<double>(items);
}

enum class PushKind { kUpdate, kBatch, kColumn };

struct PushResult {
  double ns_per_item = 0;
  double drain_ms = 0;
  double shard_skew = 0;
};

// Producer-side time of one ingest entry point, then the Flush that
// drains what the workers have not applied yet.
PushResult ProbePush(const Workload& w, PushKind kind,
                     const std::vector<uint64_t>& stream, Tracer& tracer,
                     Ops& ops) {
  PushResult result;
  const uint64_t items = std::min<uint64_t>(kPushItems, stream.size());
  auto engine = l1hh::ShardedEngine::Create(EngineOptionsFor(w, items));
  ops.Attempt();
  auto producer = engine == nullptr ? nullptr : engine->RegisterProducer();
  if (producer == nullptr) {
    ops.Fail("engine: cannot create engine or producer");
    return result;
  }
  static const char* const kNames[] = {"Producer::Update",
                                       "Producer::UpdateBatch",
                                       "Producer::UpdateColumn"};
  const char* name = kNames[static_cast<int>(kind)];
  const uint32_t root = tracer.Begin("engine", "push", 0, items);
  double busy_s = 0;
  for (uint64_t i = 0; i < items; i += kChunk) {
    const uint64_t n = std::min(kChunk, items - i);
    const uint64_t* data = stream.data() + i;
    const uint32_t id = tracer.Begin("engine", name, root, n);
    switch (kind) {
      case PushKind::kUpdate:
        for (uint64_t j = 0; j < n; ++j) producer->Update(data[j]);
        break;
      case PushKind::kBatch:
        producer->UpdateBatch({data, static_cast<size_t>(n)});
        break;
      case PushKind::kColumn:
        producer->UpdateColumn(data, static_cast<size_t>(n));
        break;
    }
    tracer.End(id);
    busy_s += DurationS(tracer, id);
  }
  const uint32_t flush = tracer.Begin("engine", "Flush", root, items);
  engine->Flush();
  tracer.End(flush);
  tracer.End(root);
  result.ns_per_item = busy_s * 1e9 / static_cast<double>(items);
  result.drain_ms = DurationS(tracer, flush) * 1e3;
  const std::vector<uint64_t> counts = engine->ShardItemCounts();
  const uint64_t max = *std::max_element(counts.begin(), counts.end());
  result.shard_skew = static_cast<double>(max) * counts.size() /
                      static_cast<double>(items);
  producer.reset();
  return result;
}

// 4-way Merge into a fresh instance, then HeavyHitters: the engine's
// merge_rebuild + report, on the end state of `w`'s stream split by the
// engine's own shard map.
void ProbeMergeReport(const Workload& w, const std::vector<uint64_t>& stream,
                      Tracer& tracer, Ops& ops, double* merge_ms,
                      double* report_ms) {
  const l1hh::SummaryOptions options = SummaryOptionsFor(w);
  auto router = l1hh::ShardedEngine::Create(EngineOptionsFor(w, 1));
  ops.Attempt();
  if (router == nullptr) {
    ops.Fail("engine: cannot create engine");
    return;
  }
  std::vector<std::vector<uint64_t>> parts(kShards);
  for (const uint64_t item : stream) parts[router->ShardOf(item)].push_back(item);
  std::vector<std::unique_ptr<l1hh::Summary>> shards;
  for (const auto& part : parts) {
    shards.push_back(l1hh::MakeSummary(w.algorithm, options));
    shards.back()->UpdateColumn(part.data(), part.size());
  }
  std::vector<double> merges, reports;
  for (int rep = 0; rep < kMergeReps; ++rep) {
    const uint32_t root = tracer.Begin("summary", "merge_report", 0);
    auto merged = l1hh::MakeSummary(w.algorithm, options);
    double merge_s = 0;
    for (const auto& shard : shards) {
      const uint32_t id = tracer.Begin("summary", "Merge", root,
                                       shard->ItemsProcessed());
      const l1hh::Status status = merged->Merge(*shard);
      tracer.End(id);
      merge_s += DurationS(tracer, id);
      ops.Attempt();
      if (!status.ok()) ops.Fail("summary: merge failed: " + status.ToString());
    }
    const uint32_t id = tracer.Begin("summary", "HeavyHitters", root);
    const auto report = merged->HeavyHitters(w.phi);
    tracer.End(id);
    tracer.End(root);
    merges.push_back(merge_s * 1e3);
    reports.push_back(DurationS(tracer, id) * 1e3);
  }
  *merge_ms = Median(merges);
  *report_ms = Median(reports);
}

struct QueryResult {
  double heavy_fresh_ms = 0;
  double heavy_warm_ms = 0;
  double estimate_ms = 0;
  double capture_ms = 0;
  double frame_bytes = 0;
};

// `w`'s rounds in-process: each of the last kQueryRounds rounds pushes a
// burst, flushes, and times a fresh HeavyHitters (merge cache stale), a
// warm one (cache hit), an Estimate, and CaptureFrames against the
// baselines the previous capture left, as a replica connection holds.
QueryResult ProbeQueries(const Workload& w, const std::vector<uint64_t>& stream,
                         Tracer& tracer, Ops& ops) {
  QueryResult result;
  auto engine = l1hh::ShardedEngine::Create(EngineOptionsFor(w, kPushItems));
  ops.Attempt();
  auto producer = engine == nullptr ? nullptr : engine->RegisterProducer();
  if (producer == nullptr) {
    ops.Fail("engine: cannot create engine or producer");
    return result;
  }
  const uint64_t rounds = std::min(kQueryRounds, w.rounds);
  const uint64_t warm_items = w.m() - rounds * w.burst;
  producer->UpdateColumn(stream.data(), warm_items);
  std::vector<l1hh::ShardBaseline> baselines(kShards);
  std::vector<l1hh::ShardFrame> frames;
  uint64_t total = 0;
  engine->CaptureFrames({}, l1hh::ShardedEngine::kMaxDeltaChain, &frames,
                        &total);
  auto hold = [&baselines](const std::vector<l1hh::ShardFrame>& captured) {
    for (const l1hh::ShardFrame& frame : captured) {
      l1hh::ShardBaseline& baseline = baselines[frame.shard];
      baseline.chain = frame.delta ? baseline.chain + 1 : 0;
      baseline.valid = true;
      baseline.applied = frame.applied;
      baseline.rotations = frame.rotations;
    }
  };
  hold(frames);
  std::vector<double> fresh, warm, estimate, capture;
  double bytes = 0;
  for (uint64_t r = 0; r < rounds; ++r) {
    const uint32_t root = tracer.Begin("engine", "round", 0, w.burst);
    producer->UpdateColumn(stream.data() + warm_items + r * w.burst, w.burst);
    engine->Flush();
    uint32_t id = tracer.Begin("engine", "HeavyHitters", root);
    const auto report = engine->HeavyHitters(w.phi);
    tracer.End(id);
    fresh.push_back(DurationS(tracer, id) * 1e3);
    id = tracer.Begin("engine", "HeavyHitters", root);
    engine->HeavyHitters(w.phi);
    tracer.End(id);
    warm.push_back(DurationS(tracer, id) * 1e3);
    id = tracer.Begin("engine", "Estimate", root);
    engine->Estimate(report.empty() ? stream.front() : report.front().item);
    tracer.End(id);
    estimate.push_back(DurationS(tracer, id) * 1e3);
    id = tracer.Begin("io", "CaptureFrames", root);
    const l1hh::Status status = engine->CaptureFrames(
        baselines, l1hh::ShardedEngine::kMaxDeltaChain, &frames, &total);
    tracer.End(id);
    tracer.End(root);
    ops.Attempt();
    if (!status.ok()) {
      ops.Fail("io: CaptureFrames failed: " + status.ToString());
      return result;
    }
    capture.push_back(DurationS(tracer, id) * 1e3);
    for (const l1hh::ShardFrame& frame : frames) bytes += frame.bytes.size();
    hold(frames);
  }
  producer.reset();
  result.heavy_fresh_ms = Median(fresh);
  result.heavy_warm_ms = Median(warm);
  result.estimate_ms = Median(estimate);
  result.capture_ms = Median(capture);
  result.frame_bytes = bytes / static_cast<double>(rounds);
  return result;
}

// Wall ns per item on one ingesting connection (wall time x connections
// pushing / items) for `w`'s ingest phase, from one trial cut to a single
// query round.  Each connection's server thread decodes and pushes its own
// items, so this minus the engine's push cost is serve's self time.
double WireNsPerItem(const Workload& w, uint64_t seed,
                     const std::string& serve_binary, Ops& ops) {
  Workload probe = w;
  probe.rounds = 1;
  const Inputs inputs(probe, seed);
  const TrialResult trial = RunTrial(probe, inputs, serve_binary, false, ops);
  return trial.ingest_s * probe.client_threads() * 1e9 /
         static_cast<double>(probe.ingest_items);
}

// The value of one series (`name{labels}`) in a `metrics` scrape.
double ScrapedValue(const std::vector<std::string>& lines,
                    const std::string& series, double fallback) {
  for (const std::string& line : lines) {
    if (line.size() > series.size() && line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      return std::strtod(line.c_str() + series.size() + 1, nullptr);
    }
  }
  return fallback;
}

// Sum / count of a scraped histogram, scaled.
double ScrapedMean(const std::vector<std::string>& lines,
                   const std::string& name, const std::string& labels,
                   double scale) {
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  const double count = ScrapedValue(lines, name + "_count" + suffix, 0);
  if (count == 0) return 0;
  return ScrapedValue(lines, name + "_sum" + suffix, 0) / count * scale;
}

}  // namespace

uint32_t Tracer::Begin(const char* layer, const char* name, uint32_t parent,
                       uint64_t items) {
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.layer = layer;
  span.name = name;
  span.items = items;
  span.start_s = NowS();
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(uint32_t id) { spans_[id - 1].end_s = NowS(); }

std::vector<LayerMetric> RunLayers(const Workload& workload, uint64_t seed,
                                   const std::string& serve_binary,
                                   Tracer& tracer, Ops& ops,
                                   std::vector<TrialResult>* trials) {
  const Workload& bin = *FindWorkload("bin_ingest_bdw");
  const Workload& text = *FindWorkload("text_ingest_mg");
  const Workload& fresh = *FindWorkload("fresh_query_bdw");

  // serve: one scraped trial of this workload, and the wire cost of each
  // ingest format.
  {
    const Inputs inputs(workload, seed);
    trials->push_back(RunTrial(workload, inputs, serve_binary, true, ops));
  }
  const TrialResult& trial = trials->back();
  const std::vector<std::string>& scrape = trial.metrics_lines;
  const double wire_bin = WireNsPerItem(bin, seed, serve_binary, ops);
  const double wire_text = WireNsPerItem(text, seed, serve_binary, ops);

  // summary, engine and io, in-process on each workload's own stream.
  const std::vector<uint64_t> bin_stream =
      MakeStream(bin.ingest_items, seed);
  const std::vector<uint64_t> text_stream =
      MakeStream(text.ingest_items, seed);
  const std::vector<uint64_t> fresh_stream =
      MakeStream(fresh.m(), seed);
  double mem_bdw = 0, mem_mg = 0, merge_ms = 0, report_ms = 0;
  const double apply_bdw =
      ProbeApply(bin, bin_stream, kApplyItemsBdw, tracer, &mem_bdw);
  const double apply_mg =
      ProbeApply(text, text_stream, kApplyItemsMg, tracer, &mem_mg);
  ProbeMergeReport(fresh, fresh_stream, tracer, ops, &merge_ms, &report_ms);
  const PushResult update = ProbePush(text, PushKind::kUpdate, text_stream, tracer, ops);
  const PushResult batch = ProbePush(bin, PushKind::kBatch, bin_stream, tracer, ops);
  const PushResult column = ProbePush(bin, PushKind::kColumn, bin_stream, tracer, ops);
  const QueryResult queries = ProbeQueries(fresh, fresh_stream, tracer, ops);

  double high_water = 0;
  for (int s = 0; s < kShards; ++s) {
    high_water = std::max(
        high_water,
        ScrapedValue(scrape,
                     "l1hh_engine_ring_occupancy_high_water{shard=\"" +
                         std::to_string(s) + "\"}",
                     0));
  }
  auto phase_ms = [&scrape](const char* phase) {
    // Mean per heavy query, so the phases add up to heavy_server_ms.
    const double heavies =
        ScrapedValue(scrape, "l1hh_query_latency_ns_count{verb=\"heavy\"}", 0);
    const double sum = ScrapedValue(
        scrape,
        std::string("l1hh_query_phase_ns_sum{phase=\"") + phase +
            "\",verb=\"heavy\"}",
        0);
    return heavies == 0 ? 0 : sum / heavies / 1e6;
  };
  const double items = static_cast<double>(workload.m());

  const std::string ingest = "ingest_items_per_s";
  const std::string heavy = "heavy_p50_ms";
  return {
      {"summary.apply_ns_per_item.bdw_optimal", "ns/item", "lower", "summary",
       ingest, bin.name, apply_bdw},
      {"summary.apply_ns_per_item.misra_gries", "ns/item", "lower", "summary",
       ingest, text.name, apply_mg},
      {"summary.merge_ms.bdw_optimal", "ms", "lower", "summary", heavy,
       fresh.name, merge_ms},
      {"summary.report_ms.bdw_optimal", "ms", "lower", "summary", heavy,
       fresh.name, report_ms},
      {"summary.memory_bytes.bdw_optimal", "bytes", "lower", "summary",
       "server_peak_rss_mb", "all", mem_bdw},
      {"summary.memory_bytes.misra_gries", "bytes", "lower", "summary",
       "server_peak_rss_mb", "all", mem_mg},
      {"engine.push_ns_per_item.update", "ns/item", "lower", "engine", ingest,
       text.name, update.ns_per_item},
      {"engine.push_ns_per_item.batch", "ns/item", "lower", "engine", ingest,
       bin.name, batch.ns_per_item},
      {"engine.push_ns_per_item.column", "ns/item", "lower", "engine", ingest,
       "none (not on serve's path)", column.ns_per_item},
      {"engine.drain_ms", "ms", "lower", "engine", ingest,
       bin.name + "," + text.name, batch.drain_ms},
      {"engine.shard_skew", "ratio", "lower", "engine", ingest,
       bin.name + "," + text.name, batch.shard_skew},
      {"engine.heavy_fresh_ms", "ms", "lower", "engine", heavy, fresh.name,
       queries.heavy_fresh_ms},
      {"engine.heavy_warm_ms", "ms", "lower", "engine", heavy, fresh.name,
       queries.heavy_warm_ms},
      {"engine.estimate_ms", "ms", "lower", "engine", "estimate_p50_ms",
       fresh.name, queries.estimate_ms},
      {"engine.drain_batch_items_mean", "items", "higher", "engine", ingest,
       bin.name + "," + text.name,
       ScrapedMean(scrape, "l1hh_engine_drain_batch_items", "", 1)},
      {"engine.ring_high_water_max", "items", "lower", "engine", ingest,
       bin.name + "," + text.name, high_water},
      {"engine.flush_wait_ms", "ms", "lower", "engine", ingest,
       bin.name + "," + text.name,
       ScrapedMean(scrape, "l1hh_engine_flush_wait_ns", "", 1e-6)},
      {"io.capture_frames_ms", "ms", "lower", "io", "sync_p50_ms", fresh.name,
       queries.capture_ms},
      {"io.frame_bytes", "bytes", "lower", "io", "sync_bytes", fresh.name,
       queries.frame_bytes},
      {"serve.heavy_phase_ms.park_wait", "ms", "lower", "serve", heavy,
       fresh.name, phase_ms("park_wait")},
      {"serve.heavy_phase_ms.merge_rebuild", "ms", "lower", "serve", heavy,
       fresh.name, phase_ms("merge_rebuild")},
      {"serve.heavy_phase_ms.report", "ms", "lower", "serve", heavy,
       fresh.name, phase_ms("report")},
      {"serve.heavy_phase_ms.reply_write", "ms", "lower", "serve", heavy,
       fresh.name, phase_ms("reply_write")},
      {"serve.heavy_server_ms", "ms", "lower", "serve", heavy, fresh.name,
       ScrapedMean(scrape, "l1hh_query_latency_ns", "verb=\"heavy\"", 1e-6)},
      {"serve.wire_self_ns_per_item.text", "ns/item", "lower", "serve", ingest,
       text.name, wire_text - update.ns_per_item},
      {"serve.wire_self_ns_per_item.bin", "ns/item", "lower", "serve", ingest,
       bin.name, wire_bin - batch.ns_per_item},
      {"serve.cpu_ns_per_item", "ns/item", "lower", "serve", ingest, text.name,
       trial.exit.cpu_s * 1e9 / items},
  };
}

}  // namespace perfbench
