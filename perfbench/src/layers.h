// The traced run: per-layer metrics for the four modules a served request
// crosses — serve (tools/l1hh_serve.cc), engine (src/engine), summary
// (src/summary + src/core) and io (src/io).
//
// Layer numbers come from two sources.  In-process probes call each
// layer's public functions on the same streams and options the workloads
// send, and the benchmark records one span around every call (a span per
// 8192-item chunk for the per-item Producer::Update).  The serve and
// engine histograms the server already exports are read from a `metrics`
// scrape at the end of a traced trial.  Spans stay in memory and are
// written out when the run ends.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "score.h"
#include "workload.h"

namespace perfbench {

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: a probe's root span
  const char* layer = "";
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  uint64_t items = 0;
};

class Tracer {
 public:
  // `layer` and `name` must be string literals.
  uint32_t Begin(const char* layer, const char* name, uint32_t parent,
                 uint64_t items = 0);
  void End(uint32_t id);
  const Span& Get(uint32_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// One per-layer metric, with the end-to-end metric and workload it maps to.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
  std::string layer;
  std::string moves;     // end-to-end metric it should move
  std::string workload;  // where that shows
  double value = 0;
};

// Runs the in-process probes and one scraped trial of `workload`, and
// returns every per-layer metric.  Failures are counted in `ops`.
std::vector<LayerMetric> RunLayers(const Workload& workload, uint64_t seed,
                                   const std::string& serve_binary,
                                   Tracer& tracer, Ops& ops,
                                   std::vector<TrialResult>* trials);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
