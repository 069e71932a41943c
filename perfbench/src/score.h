// Exact-truth scoring of served answers and failure accounting for the
// requests that produced them.
#ifndef PERFBENCH_SCORE_H_
#define PERFBENCH_SCORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "protocol.h"
#include "summary/summary.h"

namespace perfbench {

// Replays stored reply lines, then reports a short reply: a line read on
// another thread, or a forged reply in the self-test.
class ReplayLines : public LineSource {
 public:
  explicit ReplayLines(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}
  bool ReadLine(std::string* line) override {
    if (next_ == lines_.size()) return false;
    *line = lines_[next_++];
    return true;
  }

 private:
  std::vector<std::string> lines_;
  size_t next_ = 0;
};

// Median of a sample; 0 for an empty one.
double Median(std::vector<double> values);

// Every operation the client attempts — a server spawn, a request that
// expects a reply, a server exit — and the ones that failed, with why.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for the record

  void Attempt() { ++attempted; }
  void Fail(const std::string& why);
};

// Exact item counts of one generated stream, built outside timed code.
class Truth {
 public:
  Truth(const std::vector<uint64_t>& stream, uint64_t universe);
  uint64_t m() const { return m_; }
  uint64_t Count(uint64_t item) const {
    return item < counts_.size() ? counts_[item] : 0;
  }
  // Items with f >= threshold, by descending count.
  std::vector<uint64_t> AtLeast(double threshold) const;

 private:
  uint64_t m_ = 0;
  std::vector<uint32_t> counts_;
};

// A final `heavy` answer scored against Definition 1.
struct Score {
  double recall = 0;               // share of f >= phi*m items returned
  uint64_t true_heavy = 0;         // |{f >= phi*m}|
  uint64_t missed = 0;             // true heavy items not returned
  uint64_t contract_violations = 0;  // f <= (phi-eps)*m or |f~ - f| > eps*m

  // Definition 1 holds: nothing heavy missed, nothing returned wrongly.
  bool Holds() const { return missed == 0 && contract_violations == 0; }
};

Score ScoreReport(const Truth& truth, double epsilon, double phi,
                  const std::vector<l1hh::ItemEstimate>& report);

// Reply readers.  Each counts one attempted op and, on an `err` line, a
// short or missing reply, or a malformed one, counts it failed and
// returns nullopt.
std::optional<l1hh::ItemEstimate> ReadEstimate(LineSource& in, Ops& ops);
std::optional<std::vector<l1hh::ItemEstimate>> ReadHeavy(LineSource& in,
                                                         Ops& ops);
// `ok <n>`: the items the server has applied.
std::optional<uint64_t> ReadFlushAck(LineSource& in, Ops& ops);
// ... where an ack whose n differs from the items sent is a failure too.
bool ExpectFlushAck(LineSource& in, uint64_t items_sent, Ops& ops);

}  // namespace perfbench

#endif  // PERFBENCH_SCORE_H_
