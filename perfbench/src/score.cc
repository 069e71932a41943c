#include "score.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

namespace perfbench {

namespace {

constexpr size_t kKeptFailures = 8;

bool ParseU64(const std::string& text, size_t from, uint64_t* out) {
  if (from >= text.size()) return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str() + from, &end, 10);
  if (end == text.c_str() + from || *end != '\0') return false;
  *out = value;
  return true;
}

// One "<item> <estimate>" pair, the body line of `heavy` and the tail of
// `est`.
bool ParsePair(const std::string& text, l1hh::ItemEstimate* out) {
  char* end = nullptr;
  out->item = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != ' ') return false;
  const char* value = end + 1;
  out->estimate = std::strtod(value, &end);
  return end != value && *end == '\0' && std::isfinite(out->estimate);
}

// Reads the first line of a reply; an `err` line or a missing reply is a
// failed op.
bool ReadReplyLine(LineSource& in, const char* verb, std::string* line,
                   Ops& ops) {
  if (!in.ReadLine(line)) {
    ops.Fail(std::string(verb) + ": short or missing reply");
    return false;
  }
  if (line->rfind("err", 0) == 0) {
    ops.Fail(std::string(verb) + ": " + *line);
    return false;
  }
  return true;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void Ops::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < kKeptFailures) failures.push_back(why);
}

Truth::Truth(const std::vector<uint64_t>& stream, uint64_t universe)
    : m_(stream.size()), counts_(universe, 0) {
  for (const uint64_t item : stream) ++counts_[item];
}

std::vector<uint64_t> Truth::AtLeast(double threshold) const {
  std::vector<uint64_t> items;
  for (uint64_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] >= threshold) items.push_back(i);
  }
  std::sort(items.begin(), items.end(), [this](uint64_t a, uint64_t b) {
    return counts_[a] > counts_[b] || (counts_[a] == counts_[b] && a < b);
  });
  return items;
}

Score ScoreReport(const Truth& truth, double epsilon, double phi,
                  const std::vector<l1hh::ItemEstimate>& report) {
  Score score;
  const double m = static_cast<double>(truth.m());
  std::unordered_set<uint64_t> returned;
  for (const l1hh::ItemEstimate& entry : report) {
    returned.insert(entry.item);
    const double f = static_cast<double>(truth.Count(entry.item));
    if (f <= (phi - epsilon) * m || std::abs(entry.estimate - f) > epsilon * m) {
      ++score.contract_violations;
    }
  }
  const std::vector<uint64_t> heavy = truth.AtLeast(phi * m);
  score.true_heavy = heavy.size();
  for (const uint64_t item : heavy) {
    if (returned.count(item) == 0) ++score.missed;
  }
  score.recall = heavy.empty() ? 1.0
                               : static_cast<double>(heavy.size() - score.missed) /
                                     static_cast<double>(heavy.size());
  return score;
}

std::optional<l1hh::ItemEstimate> ReadEstimate(LineSource& in, Ops& ops) {
  ops.Attempt();
  std::string line;
  if (!ReadReplyLine(in, "estimate", &line, ops)) return std::nullopt;
  l1hh::ItemEstimate entry;
  if (line.rfind("est ", 0) != 0 || !ParsePair(line.substr(4), &entry)) {
    ops.Fail("estimate: malformed reply '" + line + "'");
    return std::nullopt;
  }
  return entry;
}

std::optional<std::vector<l1hh::ItemEstimate>> ReadHeavy(LineSource& in,
                                                         Ops& ops) {
  ops.Attempt();
  std::string line;
  if (!ReadReplyLine(in, "heavy", &line, ops)) return std::nullopt;
  uint64_t count = 0;
  if (line.rfind("hh ", 0) != 0 || !ParseU64(line, 3, &count)) {
    ops.Fail("heavy: malformed reply '" + line + "'");
    return std::nullopt;
  }
  std::vector<l1hh::ItemEstimate> report(count);
  for (l1hh::ItemEstimate& entry : report) {
    if (!in.ReadLine(&line)) {
      ops.Fail("heavy: short reply");
      return std::nullopt;
    }
    if (!ParsePair(line, &entry)) {
      ops.Fail("heavy: malformed entry '" + line + "'");
      return std::nullopt;
    }
  }
  return report;
}

std::optional<uint64_t> ReadFlushAck(LineSource& in, Ops& ops) {
  ops.Attempt();
  std::string line;
  if (!ReadReplyLine(in, "flush", &line, ops)) return std::nullopt;
  uint64_t applied = 0;
  if (line.rfind("ok ", 0) != 0 || !ParseU64(line, 3, &applied)) {
    ops.Fail("flush: malformed reply '" + line + "'");
    return std::nullopt;
  }
  return applied;
}

bool ExpectFlushAck(LineSource& in, uint64_t items_sent, Ops& ops) {
  const std::optional<uint64_t> applied = ReadFlushAck(in, ops);
  if (!applied.has_value()) return false;
  if (*applied != items_sent) {
    ops.Fail("flush: ack " + std::to_string(*applied) + " != " +
             std::to_string(items_sent) + " items sent");
    return false;
  }
  return true;
}

}  // namespace perfbench
