// l1hh_cli — command-line front end for the library.
//
// Algorithms are selected by registry name (see `l1hh_cli list`); every
// structure behind the unified l1hh::Summary interface is available.
//
//   l1hh_cli list                             # registered algorithm names
//   l1hh_cli generate --kind=zipf --alpha=1.1 --n=16777216 --m=1000000
//       [--seed=1]                            # one item id per line, stdout
//   l1hh_cli run --algo=bdw_optimal [--epsilon=0.01 --phi=0.05 ...]
//                                             # self-generated --kind stream
//                                             # (default zipf), reports HH
//                                             # + recall vs truth
//   l1hh_cli run --algo=misra_gries --shards=4 [--threads=2]
//                                             # same run through the sharded
//                                             # parallel engine (src/engine/)
//   l1hh_cli run --algo=count_min --save=run.l1hh
//                                             # ... and snapshot the summary
//                                             # (sharded: the merged view)
//   l1hh_cli run --algo=windowed:count_min --window=1000000 --buckets=8
//                                             # heavy in the LAST W items:
//                                             # the bucket-ring container
//                                             # (src/window/, docs/WINDOWS.md);
//                                             # --window auto-wraps a bare
//                                             # --algo name
//   l1hh_cli run --algo=misra_gries --format=json
//                                             # machine-readable one-line
//                                             # JSON report (also: merge)
//   l1hh_cli run --algo=space_saving --shards=4 --stats[=json]
//                                             # print the telemetry registry
//                                             # after the run (exposition
//                                             # text or JSON; with
//                                             # --format=json it embeds as a
//                                             # "metrics" object — see
//                                             # docs/OBSERVABILITY.md)
//   l1hh_cli generate --groups=4 --m=1000000  # "group item" per line: G
//                                             # tenants' Zipf streams,
//                                             # clustered in runs of 64
//   l1hh_cli run --algo=space_saving --group-col --groups=4
//                                             # per-tenant heavy hitters
//                                             # (src/group/, docs/GROUPED.md):
//                                             # one summary per group key,
//                                             # per-group recall vs truth
//   l1hh_cli heavy --algo=misra_gries --m=<length> [--phi=...]
//                                             # reads ids from stdin
//   l1hh_cli heavy --algo=space_saving --group-col
//                                             # stdin is "group item" lines;
//                                             # report per observed group
//   l1hh_cli save --algo=count_min --out=a.l1hh --m=<FULL stream length>
//                                             # ingest stdin, write snapshot
//                                             # (see docs/SNAPSHOTS.md)
//   l1hh_cli load a.l1hh [--phi=...]          # print a snapshot's header +
//                                             # heavy-hitter report
//   l1hh_cli merge a.l1hh b.l1hh [--phi=P]    # coordinator: merge snapshots
//                                             # from N processes, report HH
//   l1hh_cli max --epsilon=0.01 --m=<length>  # approximate maximum
//   l1hh_cli min --epsilon=0.05 --n=<universe> --m=<length>
//
// Flags accept both `--key=value` and `--key value`; unknown flags are
// rejected (with a did-you-mean hint), never silently ignored, nor is a
// malformed number (src/serve/wire.h, shared with l1hh_serve), nor a flag
// the command does not read (kFlagCommands names the commands that read
// each flag).  Legacy
// names (optimal, simple, mg, spacesaving) are accepted as --algo aliases.
// `l1hh_cli --algo=<name>` with no command is shorthand for `run`.
// stdin ids are whole decimal u64 fields (one per line; two for
// --group-col); a malformed line exits 2 naming its line number.
// With no arguments at all, runs a self-contained demo.
//
// Distributed workflow (docs/SNAPSHOTS.md has the worked version): N
// processes each `save` a summary of their partition — built with the
// SAME --epsilon/--phi/--seed and with --m set to the FULL combined
// stream length — and a coordinator `merge`s the snapshot files into one
// Definition-1-conformant report.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/epsilon_maximum.h"
#include "core/epsilon_minimum.h"
#include "engine/sharded_engine.h"
#include "group/grouped_summary.h"
#include "io/durable_file.h"
#include "io/snapshot.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "stream/stream_generator.h"
#include "summary/evaluation.h"
#include "summary/summary.h"

namespace {

using namespace l1hh;

struct Args {
  std::string command;
  std::string kind = "zipf";
  std::string algorithm = "bdw_optimal";
  double alpha = 1.1;
  double epsilon = 0.01;
  double phi = 0.05;
  bool phi_given = false;  // load/merge default to the snapshot's phi
  double delta = 0.05;
  uint64_t n = uint64_t{1} << 24;
  // 0 = "not given": stdin-reading commands fall back to the piped stream's
  // length; generate/run fall back to kDefaultM.
  uint64_t m = 0;
  uint64_t seed = 1;
  // Sharded-engine knobs for `run`: shards=1 runs the summary directly;
  // shards>1 ingests through ShardedEngine (threads=0 -> one per shard).
  uint64_t shards = 1;
  uint64_t threads = 0;
  // Sliding-window knobs: --window=1000000 answers for the last million
  // items via the windowed:<algo> container (auto-wrapping a bare --algo
  // name; the value is a plain integer — no 1e6 spellings); W is covered
  // by --buckets tumbling sub-windows (0 = the default 8).
  uint64_t window = 0;
  uint64_t buckets = 0;
  // Report format for run/merge: "text" (default) or "json" — one JSON
  // object per run with the scored fields, for CI smokes to assert on.
  std::string format = "text";
  // Grouped (per-key) mode: --group-col switches run/heavy to the
  // GroupedSummary path (src/group/), where heavy reads "group item"
  // lines from stdin and run generates --groups tenants itself; --groups
  // also makes `generate` emit two-column grouped output.
  bool group_col = false;
  uint64_t groups = 0;
  // Telemetry printing for `run`: empty = off, "text" prints the registry
  // as Prometheus-style exposition lines after the report, "json" prints
  // one {"metrics":{...}} object (with --format=json either value embeds
  // a "metrics" object in the run report instead).
  std::string stats;
  // Accuracy audit for `run`: --audit[=RATE] replays the generated
  // stream through an AccuracyAuditor (hash-sampled exact shadow,
  // src/obs/audit.h) and reports the observed eps-ratio and shadow
  // recall beside the ground-truth score.
  bool audit = false;
  uint64_t audit_rate = 64;
  // Snapshot paths: --out for `save`, --save for `run`, positionals for
  // `load` / `merge`.
  std::string out;
  std::string save_path;
  std::vector<std::string> positional;
  // Every flag given, for the per-command check in Parse.
  std::vector<std::string> given;
};

constexpr uint64_t kDefaultM = 1 << 20;

std::string CanonicalAlgoName(const std::string& name) {
  // Aliases apply inside a windowed: spelling too (windowed:mg).
  if (IsWindowedSummaryName(name)) {
    return std::string(kWindowedPrefix) +
           CanonicalAlgoName(name.substr(kWindowedPrefix.size()));
  }
  if (name == "optimal") return "bdw_optimal";
  if (name == "simple") return "bdw_simple";
  if (name == "mg") return "misra_gries";
  if (name == "spacesaving") return "space_saving";
  return name;
}

const char* const kCommands[] = {"list", "generate", "run",   "heavy", "save",
                                 "load", "merge",    "max",   "min"};

/// Every flag the parser understands and the commands that read it ("run"
/// includes the bare `l1hh_cli --algo=...` shorthand).  Only run and
/// merge emit JSON (--format); the telemetry registry only fills during
/// a run (--stats); the auditor replays a run's generated stream
/// (--audit); --group-col needs a GroupedSummary to drive.
struct FlagCommands {
  const char* flag;
  std::vector<std::string_view> commands;
};
const FlagCommands kFlagCommands[] = {
    {"--kind", {"generate", "run"}},
    {"--algo", {"run", "heavy", "save"}},
    {"--algorithm", {"run", "heavy", "save"}},
    {"--alpha", {"generate", "run"}},
    {"--epsilon", {"run", "heavy", "save", "max", "min"}},
    {"--phi", {"run", "heavy", "save", "load", "merge"}},
    {"--delta", {"run", "heavy", "save", "max", "min"}},
    {"--n", {"generate", "run", "heavy", "save", "max", "min"}},
    {"--m", {"generate", "run", "heavy", "save", "max", "min"}},
    {"--seed", {"generate", "run", "heavy", "save", "max", "min"}},
    {"--shards", {"run"}},
    {"--threads", {"run"}},
    {"--out", {"save"}},
    {"--save", {"run"}},
    {"--window", {"run", "heavy", "save"}},
    {"--buckets", {"run", "heavy", "save"}},
    {"--format", {"run", "merge"}},
    {"--group-col", {"run", "heavy"}},
    {"--groups", {"generate", "run"}},
    {"--stats", {"run"}},
    {"--audit", {"run"}},
};

/// "run", "run and merge", "generate, run and heavy".
std::string Readers(const FlagCommands& f) {
  std::string out;
  for (size_t i = 0; i < f.commands.size(); ++i) {
    if (i > 0) out += i + 1 == f.commands.size() ? " and " : ", ";
    out += f.commands[i];
  }
  return out;
}

bool Parse(int argc, char** argv, Args* out) {
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    out->command = argv[i];
    ++i;
  }
  std::string key, value;
  for (; i < argc; ++i) {
    key = argv[i];
    if (key.rfind("--", 0) != 0) {
      // Bare tokens after the command are positional arguments (the
      // snapshot files of `load` / `merge`).
      out->positional.push_back(key);
      continue;
    }
    if (key == "--group-col") {
      // A boolean flag: its presence is the value.
      out->group_col = true;
      out->given.push_back(key);
      continue;
    }
    if (key == "--stats" || key.rfind("--stats=", 0) == 0) {
      // Presence-only (defaults to text exposition) or --stats=json;
      // intercepted here so bare --stats never swallows the next token.
      out->stats = key == "--stats" ? "text" : key.substr(8);
      out->given.push_back("--stats");
      if (out->stats != "text" && out->stats != "json") {
        std::fprintf(stderr, "--stats must be text or json\n");
        return false;
      }
      continue;
    }
    if (key == "--audit" || key.rfind("--audit=", 0) == 0) {
      // Presence-only (default sampling rate) or --audit=RATE; like
      // --stats, intercepted so bare --audit never swallows a token.
      out->audit = true;
      out->given.push_back("--audit");
      if (key != "--audit") {
        if (!serve::ParseU64(key.c_str() + 8, &out->audit_rate)) {
          return serve::MalformedFlag("--audit", key.substr(8));
        }
        if (out->audit_rate == 0) {
          std::fprintf(stderr, "--audit rate must be >= 1\n");
          return false;
        }
      }
      continue;
    }
    if (!serve::SplitFlag(argc, argv, &i, &key, &value)) return false;
    out->given.push_back(key);
    bool ok = true;
    if (key == "--kind") {
      out->kind = value;
    } else if (key == "--algo" || key == "--algorithm") {
      out->algorithm = CanonicalAlgoName(value);
    } else if (key == "--alpha") {
      ok = serve::ParseDouble(value, &out->alpha);
    } else if (key == "--epsilon") {
      ok = serve::ParseDouble(value, &out->epsilon);
    } else if (key == "--phi") {
      if (!serve::ParsePhi(value, &out->phi)) {
        std::fprintf(stderr, "--phi: %s\n", serve::kPhiRangeError);
        return false;
      }
      out->phi_given = true;
    } else if (key == "--delta") {
      ok = serve::ParseDouble(value, &out->delta);
    } else if (key == "--n") {
      ok = serve::ParseU64(value.c_str(), &out->n);
    } else if (key == "--m") {
      ok = serve::ParseU64(value.c_str(), &out->m);
    } else if (key == "--seed") {
      ok = serve::ParseU64(value.c_str(), &out->seed);
    } else if (key == "--shards") {
      ok = serve::ParseU64(value.c_str(), &out->shards);
    } else if (key == "--threads") {
      ok = serve::ParseU64(value.c_str(), &out->threads);
    } else if (key == "--out") {
      out->out = value;
    } else if (key == "--save") {
      out->save_path = value;
    } else if (key == "--window") {
      ok = serve::ParseU64(value.c_str(), &out->window);
    } else if (key == "--buckets") {
      ok = serve::ParseU64(value.c_str(), &out->buckets);
    } else if (key == "--format") {
      out->format = value;
    } else if (key == "--groups") {
      ok = serve::ParseU64(value.c_str(), &out->groups);
    } else {
      std::vector<const char*> known;
      for (const FlagCommands& f : kFlagCommands) known.push_back(f.flag);
      return serve::PrintUnknownFlag(key, known);
    }
    if (!ok) return serve::MalformedFlag(key, value);
  }
  if (out->epsilon <= 0 || out->delta <= 0) {
    std::fprintf(stderr, "--epsilon and --delta must be > 0\n");
    return false;
  }
  if (out->shards == 0) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return false;
  }
  if (out->kind != "zipf" && out->kind != "uniform") {
    std::fprintf(stderr, "unknown --kind %s (zipf|uniform)\n",
                 out->kind.c_str());
    return false;
  }
  const std::string& command = out->command.empty() ? "run" : out->command;
  // The commands that build --algo turn an unknown name away first, with
  // the hint; every other refusal of a name is the structure's own.
  std::string_view inner = out->algorithm;
  if (IsWindowedSummaryName(inner)) inner.remove_prefix(kWindowedPrefix.size());
  const std::vector<std::string> names = RegisteredSummaryNames();
  if ((command == "run" || command == "heavy" || command == "save") &&
      std::find(names.begin(), names.end(), inner) == names.end()) {
    std::fprintf(stderr,
                 "--algo %s: unknown summary algorithm '%s'; try `l1hh_cli "
                 "list`\n",
                 out->algorithm.c_str(), std::string(inner).c_str());
    return false;
  }
  // A flag the command does not read would be silently ignored — reject
  // it, naming the commands that read it.  An unknown command is left to
  // main's usage text.
  if (std::find(std::begin(kCommands), std::end(kCommands), command) !=
      std::end(kCommands)) {
    for (const FlagCommands& f : kFlagCommands) {
      if (std::find(f.commands.begin(), f.commands.end(), command) ==
              f.commands.end() &&
          std::find(out->given.begin(), out->given.end(), f.flag) !=
              out->given.end()) {
        std::fprintf(stderr, "%s is supported by %s\n", f.flag,
                     Readers(f).c_str());
        return false;
      }
    }
  }
  // The stream generators draw from a universe of n items; an empty one
  // has nothing to draw.
  if (out->n == 0) {
    std::fprintf(stderr, "--n must be >= 1\n");
    return false;
  }
  if (out->format != "text" && out->format != "json") {
    std::fprintf(stderr, "--format must be text or json\n");
    return false;
  }
  // The auditor shadows the WHOLE stream; a window forgets, a grouped
  // run has no single global summary to audit — reject both.
  if (out->audit) {
    if (out->window != 0 || IsWindowedSummaryName(out->algorithm)) {
      std::fprintf(stderr, "--audit cannot be combined with --window\n");
      return false;
    }
    if (out->group_col) {
      std::fprintf(stderr, "--audit cannot be combined with --group-col\n");
      return false;
    }
  }
  // A GroupedSummary is a single-threaded object; the sharded engine has
  // no per-key routing (yet).
  if (out->group_col && out->shards > 1) {
    std::fprintf(stderr, "--group-col does not combine with --shards\n");
    return false;
  }
  // --buckets shapes a window; on a plain algorithm with no --window it
  // would be silently ignored — reject, like any other unusable flag.
  if (out->buckets != 0 && out->window == 0 &&
      !IsWindowedSummaryName(out->algorithm)) {
    std::fprintf(stderr,
                 "--buckets requires --window=W or a windowed:<algo> "
                 "--algo name\n");
    return false;
  }
  // --window asks for sliding-window semantics; wrap a bare algorithm
  // name in the windowed container so `run --algo=count_min
  // --window=1000000` and `run --algo=windowed:count_min
  // --window=1000000` mean the same thing.
  if (out->window != 0 && !IsWindowedSummaryName(out->algorithm)) {
    out->algorithm = std::string(kWindowedPrefix) + out->algorithm;
  }
  return true;
}

/// Reads stdin rows of exactly columns.size() decimal u64 fields
/// (whitespace separated; blank and # lines skipped): field c of each row
/// is appended to *columns[c].  A malformed line prints `stdin line <N>:
/// malformed ... (want <want>)` and returns false; the caller exits 2.
bool ReadStdinRows(const std::vector<std::vector<uint64_t>*>& columns,
                   const char* want) {
  std::string line;
  std::vector<uint64_t> row(columns.size());
  for (unsigned long long number = 1; std::getline(std::cin, line);
       ++number) {
    const std::vector<std::string> fields = serve::Fields(line);
    if (fields.empty() || line[0] == '#') continue;
    bool ok = fields.size() == columns.size();
    for (size_t c = 0; ok && c < fields.size(); ++c) {
      ok = serve::ParseU64(fields[c].c_str(), &row[c]);
    }
    if (!ok) {
      std::fprintf(stderr, "stdin line %llu: malformed '%s' (want %s)\n",
                   number, line.c_str(), want);
      return false;
    }
    for (size_t c = 0; c < columns.size(); ++c) columns[c]->push_back(row[c]);
  }
  return true;
}

/// Parallel columns, same index = same row — the shape
/// GroupedSummary::UpdateColumn takes directly.
struct GroupedColumns {
  std::vector<uint64_t> groups;
  std::vector<uint64_t> items;
  std::vector<std::vector<uint64_t>> tenant;  // generated: per-tenant streams
};

/// `m` items of the --kind stream over a universe of --n items.
std::vector<uint64_t> MakeStream(const Args& a, uint64_t m, uint64_t seed) {
  return a.kind == "uniform" ? MakeUniformStream(a.n, m, seed)
                             : MakeZipfStream(a.n, a.alpha, m, seed);
}

/// The --kind stream as the run reports name it.
std::string StreamLabel(const Args& a) {
  if (a.kind == "uniform") return "uniform";
  char label[32];
  std::snprintf(label, sizeof(label), "zipf(alpha=%.2f)", a.alpha);
  return label;
}

/// The multi-tenant stream shared by `generate --groups` and `run
/// --group-col`: every tenant draws its own independently-seeded stream
/// of m/G items, and rows arrive clustered in runs of 64 — the shape a
/// columnar scan of a partitioned table produces, which is what the
/// grouped run-detection fast path is built for.
GroupedColumns MakeGroupedStream(const Args& a, uint64_t tenants,
                                 uint64_t m_total) {
  const uint64_t per_tenant = std::max<uint64_t>(1, m_total / tenants);
  GroupedColumns out;
  out.tenant.resize(tenants);
  for (uint64_t t = 0; t < tenants; ++t) {
    const uint64_t seed = a.seed + 101 * t;
    out.tenant[t] = MakeStream(a, per_tenant, seed);
  }
  out.groups.reserve(per_tenant * tenants);
  out.items.reserve(per_tenant * tenants);
  constexpr uint64_t kRun = 64;
  for (uint64_t base = 0; base < per_tenant; base += kRun) {
    const uint64_t take = std::min(kRun, per_tenant - base);
    for (uint64_t t = 0; t < tenants; ++t) {
      for (uint64_t i = 0; i < take; ++i) {
        out.groups.push_back(t);
        out.items.push_back(out.tenant[t][base + i]);
      }
    }
  }
  return out;
}

SummaryOptions ToSummaryOptions(const Args& a, uint64_t stream_length) {
  SummaryOptions opt;
  opt.epsilon = a.epsilon;
  opt.phi = a.phi;
  opt.delta = a.delta;
  opt.universe_size = a.n;
  opt.stream_length = stream_length;
  opt.seed = a.seed;
  opt.window_size = a.window;
  if (a.buckets != 0) opt.window_buckets = a.buckets;
  return opt;
}

/// Reports a refused --algo; returns exit code 2.  Parse already turned
/// an unknown name away, so this is an engine or option refusal.
int Refused(const std::string& why) {
  std::fprintf(stderr, "%s\n", why.c_str());
  return 2;
}

int Refused(const Args& a, const Status& status) {
  return Refused("--algo " + a.algorithm + ": " + status.ToString());
}

/// --algo over stdin's ids, declared stream length `m`; nullptr after
/// reporting a refusal.
std::unique_ptr<Summary> DriveSummary(const Args& a, uint64_t m,
                                      const std::vector<uint64_t>& items) {
  Status status;
  auto summary = MakeSummary(a.algorithm, ToSummaryOptions(a, m), &status);
  if (summary == nullptr) {
    Refused(a, status);
  } else {
    summary->UpdateBatch(items);
  }
  return summary;
}

int CmdList() {
  for (const auto& name : RegisteredSummaryNames()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int CmdGenerate(const Args& a) {
  const uint64_t m = a.m != 0 ? a.m : kDefaultM;
  if (a.groups != 0) {
    const GroupedColumns gs = MakeGroupedStream(a, a.groups, m);
    for (size_t i = 0; i < gs.items.size(); ++i) {
      std::printf("%llu %llu\n",
                  static_cast<unsigned long long>(gs.groups[i]),
                  static_cast<unsigned long long>(gs.items[i]));
    }
    return 0;
  }
  for (const uint64_t x : MakeStream(a, m, a.seed)) {
    std::printf("%llu\n", static_cast<unsigned long long>(x));
  }
  return 0;
}

/// Drives one registered summary over `items` and prints its report.
int CmdHeavy(const Args& a, const std::vector<uint64_t>& items) {
  const uint64_t m = a.m != 0 ? a.m : items.size();
  const auto summary = DriveSummary(a, m, items);
  if (summary == nullptr) return 2;
  const auto hitters = summary->HeavyHitters(a.phi);
  // Windowed: the report (and its percentages) cover the ring's suffix,
  // not the whole stream.  CoveredItems == ItemsProcessed for plain
  // structures, so the generic surface handles both.
  const bool windowed = IsWindowedSummaryName(summary->Name());
  const uint64_t over = windowed ? summary->CoveredItems() : m;
  std::printf("# %s: %zu heavy hitters at phi=%.3f over %s%llu items "
              "(%zu bytes)\n",
              a.algorithm.c_str(), hitters.size(), a.phi,
              windowed ? "the last " : "m=",
              static_cast<unsigned long long>(over),
              summary->MemoryUsageBytes());
  for (const auto& hh : hitters) {
    std::printf("%-20s %12llu %14.0f %8.2f%%\n", a.algorithm.c_str(),
                static_cast<unsigned long long>(hh.item), hh.estimate,
                100.0 * hh.estimate / static_cast<double>(over));
  }
  return 0;
}

/// `heavy --group-col`: stdin is "group item" rows; one lazily-created
/// summary per observed group key, reported group by group.
int CmdHeavyGrouped(const Args& a) {
  GroupedColumns in;
  if (!ReadStdinRows({&in.groups, &in.items},
                     "\"group item\": two decimal ids")) {
    return 2;
  }
  GroupedSummaryOptions grouped_options;
  grouped_options.algorithm = a.algorithm;
  grouped_options.summary =
      ToSummaryOptions(a, a.m != 0 ? a.m : in.items.size());
  Status status;
  auto grouped = GroupedSummary::Create(grouped_options, &status);
  if (grouped == nullptr) return Refused(a, status);
  grouped->UpdateColumn(in.groups.data(), in.items.data(), in.items.size());
  std::printf("# %s: %zu groups over %llu rows (%zu bytes)\n",
              a.algorithm.c_str(), grouped->group_count(),
              static_cast<unsigned long long>(grouped->ItemsProcessed()),
              grouped->MemoryUsageBytes());
  for (const uint64_t g : grouped->GroupKeys()) {
    const Summary* summary = grouped->Find(g);
    const auto hitters = grouped->HeavyHitters(g, a.phi);
    const auto over = static_cast<double>(summary->CoveredItems());
    std::printf("# group %llu: %zu heavy hitters at phi=%.3f over %llu "
                "items\n",
                static_cast<unsigned long long>(g), hitters.size(), a.phi,
                static_cast<unsigned long long>(summary->ItemsProcessed()));
    for (const auto& hh : hitters) {
      std::printf("%-12llu %12llu %14.0f %8.2f%%\n",
                  static_cast<unsigned long long>(g),
                  static_cast<unsigned long long>(hh.item), hh.estimate,
                  over > 0 ? 100.0 * hh.estimate / over : 0.0);
    }
  }
  return 0;
}

/// Ingests stdin into one summary and writes a snapshot file.  In the
/// distributed workflow every worker runs this over its own partition,
/// with --m set to the FULL combined stream length (the sampling-based
/// structures size their rate by it) and identical contract flags.
int CmdSave(const Args& a, const std::vector<uint64_t>& items) {
  if (a.out.empty()) {
    std::fprintf(stderr, "save needs --out=FILE\n");
    return 2;
  }
  const auto summary = DriveSummary(a, a.m != 0 ? a.m : items.size(), items);
  if (summary == nullptr) return 2;
  const Status saved = SaveSummaryToFile(*summary, a.out);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("saved %s: %zu items -> %s (%zu bytes in memory)\n",
              a.algorithm.c_str(), items.size(), a.out.c_str(),
              summary->MemoryUsageBytes());
  return 0;
}

void PrintSnapshotHeader(const char* path, const SnapshotInfo& info) {
  std::printf("# %s: algo=%s  eps=%.4f  phi=%.4f  delta=%.4f  n=%llu  "
              "m=%llu  seed=%llu  items=%llu  payload=%llu bits  "
              "file=%llu bytes\n",
              path, info.algorithm.c_str(), info.options.epsilon,
              info.options.phi, info.options.delta,
              static_cast<unsigned long long>(info.options.universe_size),
              static_cast<unsigned long long>(info.options.stream_length),
              static_cast<unsigned long long>(info.options.seed),
              static_cast<unsigned long long>(info.items_processed),
              static_cast<unsigned long long>(info.payload_bits),
              static_cast<unsigned long long>(info.total_bytes));
}

void PrintReport(const Summary& summary, double phi) {
  const auto hitters = summary.HeavyHitters(phi);
  // A windowed summary answers for its covered suffix, not everything it
  // ever ingested; report percentages against what the report is over.
  // CoveredItems/Options are the generic surface for exactly this.
  const bool windowed = IsWindowedSummaryName(summary.Name());
  const uint64_t over = summary.CoveredItems();
  const auto m = static_cast<double>(over);
  if (windowed) {
    const SummaryOptions options = summary.Options();
    std::printf("# %zu heavy hitters at phi=%.3f over the last %llu of "
                "%llu ingested items (window of %llu in %llu buckets)\n",
                hitters.size(), phi, static_cast<unsigned long long>(over),
                static_cast<unsigned long long>(summary.ItemsProcessed()),
                static_cast<unsigned long long>(options.window_size),
                static_cast<unsigned long long>(options.window_buckets));
  } else {
    std::printf("# %zu heavy hitters at phi=%.3f over %llu ingested "
                "items\n",
                hitters.size(), phi,
                static_cast<unsigned long long>(over));
  }
  for (const auto& hh : hitters) {
    std::printf("%-24llu %14.0f %8.2f%%\n",
                static_cast<unsigned long long>(hh.item), hh.estimate,
                m > 0 ? 100.0 * hh.estimate / m : 0.0);
  }
}

/// Prints a snapshot's header and heavy-hitter report.
int CmdLoad(const Args& a) {
  if (a.positional.size() != 1) {
    std::fprintf(stderr, "usage: l1hh_cli load <snapshot> [--phi=P]\n");
    return 2;
  }
  const std::string& path = a.positional[0];
  // One file read; the header peek and the reconstruction each parse the
  // shared buffer (twice through the container — fine on a CLI path, and
  // it guarantees both views describe the same bytes).
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes).ok()) {
    std::fprintf(stderr, "load failed: cannot read '%s'\n", path.c_str());
    return 1;
  }
  // A grouped container (`run --group-col --save=FILE`) reloads into the
  // per-group report; the magic in the first 8 bytes says which family
  // this file is.
  if (bytes.size() >= 8 && std::memcmp(bytes.data(), "L1HHGRUP", 8) == 0) {
    Status status;
    auto grouped = LoadGrouped(bytes, &status);
    if (grouped == nullptr) {
      std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("# %s: grouped, %zu groups, %llu items, %llu evicted "
                "groups, file=%zu bytes\n",
                path.c_str(), grouped->group_count(),
                static_cast<unsigned long long>(grouped->ItemsProcessed()),
                static_cast<unsigned long long>(grouped->evicted_groups()),
                bytes.size());
    for (const uint64_t g : grouped->GroupKeys()) {
      const Summary* summary = grouped->Find(g);
      const double phi = a.phi_given ? a.phi : summary->Options().phi;
      const auto over = static_cast<double>(summary->CoveredItems());
      for (const auto& hh : grouped->HeavyHitters(g, phi)) {
        std::printf("%-12llu %12llu %14.0f %8.2f%%\n",
                    static_cast<unsigned long long>(g),
                    static_cast<unsigned long long>(hh.item), hh.estimate,
                    over > 0 ? 100.0 * hh.estimate / over : 0.0);
      }
    }
    return 0;
  }
  SnapshotInfo info;
  Status status = ReadSnapshotInfo(bytes, &info);
  std::unique_ptr<Summary> summary;
  if (status.ok()) summary = LoadSummary(bytes, &status);
  if (summary == nullptr) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  PrintSnapshotHeader(path.c_str(), info);
  PrintReport(*summary, a.phi_given ? a.phi : info.options.phi);
  return 0;
}

/// The telemetry registry as one JSON object: exposition line names
/// (label quotes escaped) keyed to their integer values.
std::string MetricsJsonObject() {
  std::string out = "{";
  bool first = true;
  for (const std::string& line : obs::Registry::Get().ExpositionLines()) {
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string key;
    for (const char c : line.substr(0, space)) {
      if (c == '"') key += '\\';
      key += c;
    }
    out += (first ? "\"" : ",\"") + key + "\":" + line.substr(space + 1);
    first = false;
  }
  out += "}";
  return out;
}

/// `--stats[=json]` output when it is NOT embedded in a JSON run report:
/// raw exposition lines, or one {"metrics":{...}} object on one line.
void PrintStats(const std::string& mode) {
  if (mode == "json") {
    std::printf("{\"metrics\":%s}\n", MetricsJsonObject().c_str());
    return;
  }
  std::fputs(obs::Registry::Get().Exposition().c_str(), stdout);
}

/// Machine-readable `run` report (--format=json): one JSON object on one
/// line, so CI smokes can assert on fields instead of grepping prose.
/// Keys are stable; `window` is null for non-windowed runs.  With
/// `--stats` a "metrics" object (the telemetry registry) rides along.
void PrintJsonRunReport(const Args& a, const SummaryRunResult& r,
                        uint64_t m, const obs::AuditReport* audit) {
  std::printf("{\"command\":\"run\",\"algo\":\"%s\",\"m\":%llu,"
              "\"epsilon\":%.6g,\"phi\":%.6g,\"seed\":%llu,"
              "\"shards\":%llu,\"threads\":%llu,",
              a.algorithm.c_str(), static_cast<unsigned long long>(m),
              a.epsilon, a.phi, static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(a.shards),
              static_cast<unsigned long long>(a.threads));
  if (r.windowed) {
    // The EFFECTIVE geometry (defaulted/rounded by the window factory),
    // not the raw flags — so "covered" <= "size" always holds.
    std::printf("\"window\":{\"size\":%llu,\"buckets\":%llu,"
                "\"covered\":%llu},",
                static_cast<unsigned long long>(r.window_size),
                static_cast<unsigned long long>(r.window_buckets),
                static_cast<unsigned long long>(r.scored_items));
  } else {
    std::printf("\"window\":null,");
  }
  std::printf("\"true_heavies\":%zu,\"recalled\":%zu,\"reported\":%zu,"
              "\"recall\":%.6f,\"precision\":%.6f,"
              "\"max_abs_estimate_error\":%.3f,\"space_bits\":%zu,"
              "\"update_ns\":%.1f,\"report\":[",
              r.true_heavies, r.recalled, r.report.size(), r.recall,
              r.precision, r.max_abs_err, r.memory_bytes * 8,
              r.update_ns);
  for (size_t i = 0; i < r.report.size(); ++i) {
    std::printf("%s{\"item\":%llu,\"estimate\":%.1f,\"exact\":%llu}",
                i == 0 ? "" : ",",
                static_cast<unsigned long long>(r.report[i].item),
                r.report[i].estimate,
                static_cast<unsigned long long>(r.report_exact[i]));
  }
  std::printf("]");
  if (audit != nullptr) {
    std::printf(",\"audit\":{\"rate\":%llu,\"shadow_keys\":%zu,"
                "\"audited_keys\":%zu,\"max_abs_error\":%.3f,"
                "\"eps_ratio\":%.6f,\"shadow_heavies\":%zu,"
                "\"recall\":%.6f}",
                static_cast<unsigned long long>(a.audit_rate),
                audit->shadow_keys, audit->audited_keys,
                audit->max_abs_error, audit->eps_ratio,
                audit->shadow_heavies, audit->recall);
  }
  if (!a.stats.empty()) {
    std::printf(",\"metrics\":%s", MetricsJsonObject().c_str());
  }
  std::printf("}\n");
}

/// Coordinator end of the distributed workflow: loads every snapshot,
/// merges them into one summary, and prints the combined report.
int CmdMerge(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr,
                 "usage: l1hh_cli merge <snapshot>... [--phi=P]\n");
    return 2;
  }
  Status status;
  std::unique_ptr<Summary> merged;
  for (const std::string& path : a.positional) {
    auto next = LoadSummaryFromFile(path, &status);
    if (next == nullptr) {
      std::fprintf(stderr, "merge: cannot load '%s': %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    if (merged == nullptr) {
      merged = std::move(next);
      continue;
    }
    status = merged->Merge(*next);
    if (!status.ok()) {
      std::fprintf(stderr, "merge: '%s' + '%s': %s\n",
                   a.positional[0].c_str(), path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }
  const double phi = a.phi_given ? a.phi : merged->Options().phi;
  if (a.format == "json") {
    // No ground truth at a coordinator; the JSON carries the merged
    // report and the size accounting (recall/precision are `run` fields).
    const auto hitters = merged->HeavyHitters(phi);
    std::printf("{\"command\":\"merge\",\"algo\":\"%s\",\"snapshots\":%zu,"
                "\"items\":%llu,\"phi\":%.6g,\"space_bits\":%zu,"
                "\"report\":[",
                std::string(merged->Name()).c_str(), a.positional.size(),
                static_cast<unsigned long long>(merged->ItemsProcessed()),
                phi, merged->MemoryUsageBytes() * 8);
    for (size_t i = 0; i < hitters.size(); ++i) {
      std::printf("%s{\"item\":%llu,\"estimate\":%.1f}",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(hitters[i].item),
                  hitters[i].estimate);
    }
    std::printf("]}\n");
    return 0;
  }
  std::printf("# merged %zu snapshot(s), algo=%s\n", a.positional.size(),
              std::string(merged->Name()).c_str());
  PrintReport(*merged, phi);
  return 0;
}

/// Reports `run --save=FILE`: false after "--save failed", else "<what>
/// written to FILE", on stderr in json mode (stdout holds one object).
bool Saved(const Args& a, const Status& saved, const char* what) {
  if (!saved.ok()) {
    std::fprintf(stderr, "--save failed: %s\n", saved.ToString().c_str());
    return false;
  }
  std::fprintf(a.format == "json" ? stderr : stdout, "%s written to %s\n",
               what, a.save_path.c_str());
  return true;
}

/// `run --group-col`: self-contained grouped accuracy run.  Generates
/// --groups tenants' Zipf streams (clustered in runs, as MakeGroupedStream
/// documents), ingests them through GroupedSummary::UpdateColumn, and
/// scores every tenant's report against its own exact ground truth — the
/// per-group analogue of CmdRun's Definition-1 scoring.
int CmdRunGrouped(const Args& a) {
  const uint64_t tenants = a.groups != 0 ? a.groups : 2;
  const uint64_t m_total = a.m != 0 ? a.m : kDefaultM;
  const GroupedColumns gs = MakeGroupedStream(a, tenants, m_total);
  const uint64_t per_tenant = gs.items.size() / tenants;
  GroupedSummaryOptions grouped_options;
  grouped_options.algorithm = a.algorithm;
  // Per-tenant stream length: every tenant's summary sizes itself (and
  // the bdw thresholds derive) from ITS stream, not the union.
  grouped_options.summary = ToSummaryOptions(a, per_tenant);
  Status status;
  auto grouped = GroupedSummary::Create(grouped_options, &status);
  if (grouped == nullptr) return Refused(a, status);
  const auto start = std::chrono::steady_clock::now();
  grouped->UpdateColumn(gs.groups.data(), gs.items.data(), gs.items.size());
  const double update_ns = NsPerItem(start, gs.items.size());

  // Each tenant's report scored against its own stream.
  std::vector<SummaryRunResult> scores(tenants);
  bool all_recalled = true;
  for (uint64_t t = 0; t < tenants; ++t) {
    scores[t].report = grouped->HeavyHitters(t, a.phi);
    ScoreSummaryReport(scores[t], gs.tenant[t], a.phi, a.epsilon);
    all_recalled = all_recalled && scores[t].recalled == scores[t].true_heavies;
  }

  if (!a.stats.empty()) grouped->PublishMetrics();
  if (a.format == "json") {
    std::printf("{\"command\":\"run\",\"grouped\":true,\"algo\":\"%s\","
                "\"tenants\":%llu,\"m_per_tenant\":%llu,\"epsilon\":%.6g,"
                "\"phi\":%.6g,\"seed\":%llu,\"update_ns\":%.1f,"
                "\"space_bits\":%zu,\"groups\":[",
                a.algorithm.c_str(),
                static_cast<unsigned long long>(tenants),
                static_cast<unsigned long long>(per_tenant), a.epsilon,
                a.phi, static_cast<unsigned long long>(a.seed), update_ns,
                grouped->MemoryUsageBytes() * 8);
    for (uint64_t t = 0; t < tenants; ++t) {
      const SummaryRunResult& s = scores[t];
      std::printf("%s{\"group\":%llu,\"items\":%llu,\"true_heavies\":%zu,"
                  "\"recalled\":%zu,\"reported\":%zu,\"recall\":%.6f}",
                  t == 0 ? "" : ",", static_cast<unsigned long long>(t),
                  static_cast<unsigned long long>(s.scored_items),
                  s.true_heavies, s.recalled, s.report.size(), s.recall);
    }
    std::printf("]");
    if (!a.stats.empty()) {
      std::printf(",\"metrics\":%s", MetricsJsonObject().c_str());
    }
    std::printf("}\n");
  } else {
    std::printf("algo=%s  grouped: %llu tenants x %llu %s "
                "items  eps=%.3f  phi=%.3f  seed=%llu  %.1f ns/item\n",
                a.algorithm.c_str(),
                static_cast<unsigned long long>(tenants),
                static_cast<unsigned long long>(per_tenant),
                StreamLabel(a).c_str(),
                a.epsilon, a.phi,
                static_cast<unsigned long long>(a.seed), update_ns);
    std::printf("%-12s %12s %14s %10s %10s\n", "group", "items",
                "true-heavies", "recalled", "reported");
    for (uint64_t t = 0; t < tenants; ++t) {
      const SummaryRunResult& s = scores[t];
      std::printf("%-12llu %12llu %14zu %10zu %10zu\n",
                  static_cast<unsigned long long>(t),
                  static_cast<unsigned long long>(s.scored_items),
                  s.true_heavies, s.recalled, s.report.size());
    }
    std::printf("groups: %zu live   memory: %zu bytes\n",
                grouped->group_count(), grouped->MemoryUsageBytes());
    if (!a.stats.empty()) PrintStats(a.stats);
  }
  if (!a.save_path.empty() &&
      !Saved(a, SaveGroupedToFile(*grouped, a.save_path), "grouped snapshot")) {
    return 1;
  }
  return all_recalled ? 0 : 1;
}

/// Self-contained accuracy run: generates the stream and scores the
/// report against exact ground truth via the shared evaluation harness.
int CmdRun(const Args& a) {
  if (a.group_col) return CmdRunGrouped(a);
  const uint64_t m_arg = a.m != 0 ? a.m : kDefaultM;
  const auto stream = MakeStream(a, m_arg, a.seed);
  const SummaryOptions options = ToSummaryOptions(a, stream.size());
  // A sharded --save exports the one-shot merge of every shard
  // (ShardedEngine::MergedView), which only a mergeable structure has.
  if (a.shards > 1 && !a.save_path.empty()) {
    const auto probe = MakeSummary(a.algorithm, options);
    if (probe != nullptr && !probe->SupportsMerge()) {
      std::fprintf(stderr,
                   "--save with --shards>1 needs a mergeable --algo; '%s' "
                   "does not support Merge (use --shards=1)\n",
                   a.algorithm.c_str());
      return 2;
    }
  }
  std::unique_ptr<Summary> summary;
  std::unique_ptr<ShardedEngine> engine;
  const SummaryRunResult r =
      a.shards > 1 ? RunShardedSummary(a.algorithm, options, stream, a.phi,
                                       a.shards, a.threads, &engine)
                   : RunRegisteredSummary(a.algorithm, options, stream,
                                          a.phi, &summary);
  if (!r.ok) return Refused(r.error);
  // Scrape-time gauges (per-shard applied/high-water, per-slot enqueued)
  // are published by the engine; counters/histograms are already live.
  if (!a.stats.empty() && engine != nullptr) engine->PublishMetrics();
  // --audit: the run already consumed the stream, and sampling is by key
  // identity with exact per-key counts, so replaying the same generated
  // stream into the auditor AFTER the fact builds the identical shadow an
  // inline tap would have.
  obs::AuditReport audit_report;
  if (a.audit) {
    obs::AuditorOptions audit_options;
    audit_options.sample_rate = a.audit_rate;
    audit_options.seed = a.seed;
    audit_options.epsilon = a.epsilon;
    audit_options.phi = a.phi;
    obs::AccuracyAuditor auditor(audit_options);
    auditor.ObserveColumn(stream.data(), stream.size());
    if (engine != nullptr) {
      audit_report =
          serve::AuditEngine(auditor, *engine, engine->ItemsProcessed());
    } else {
      audit_report = auditor.AuditSummary(*summary);
    }
  }
  if (a.format == "json") {
    PrintJsonRunReport(a, r, m_arg, a.audit ? &audit_report : nullptr);
  } else {
    std::printf("algo=%s  %s  n=%llu  m=%llu  eps=%.3f  "
                "phi=%.3f  seed=%llu\n",
                a.algorithm.c_str(), StreamLabel(a).c_str(),
                static_cast<unsigned long long>(a.n),
                static_cast<unsigned long long>(m_arg), a.epsilon, a.phi,
                static_cast<unsigned long long>(a.seed));
    if (a.shards > 1) {
      std::printf("engine: %llu shards, %llu threads (0 = one per shard), "
                  "%.1f ns/item end-to-end\n",
                  static_cast<unsigned long long>(a.shards),
                  static_cast<unsigned long long>(a.threads), r.update_ns);
    }
    if (r.windowed) {
      std::printf("window: last %llu of %llu items covered; recall/exact "
                  "columns score that suffix\n",
                  static_cast<unsigned long long>(r.scored_items),
                  static_cast<unsigned long long>(m_arg));
    }
    std::printf("%-24s %14s %14s %9s\n", "item", "estimate", "exact",
                "err");
    for (size_t i = 0; i < r.report.size(); ++i) {
      const double f = static_cast<double>(r.report_exact[i]);
      std::printf("%-24llu %14.0f %14.0f %8.2f%%\n",
                  static_cast<unsigned long long>(r.report[i].item),
                  r.report[i].estimate, f,
                  f > 0 ? 100.0 * (r.report[i].estimate - f) / f : 0.0);
    }
    std::printf("true phi-heavy items: %zu   recalled: %zu   reported: "
                "%zu   memory: %zu bytes\n",
                r.true_heavies, r.recalled, r.report.size(),
                r.memory_bytes);
    if (a.audit) {
      std::printf("audit: rate=1/%llu shadow_keys=%zu audited=%zu "
                  "max_abs_err=%.1f eps_ratio=%.4f recall=%.3f (%zu/%zu "
                  "shadow heavies)\n",
                  static_cast<unsigned long long>(a.audit_rate),
                  audit_report.shadow_keys, audit_report.audited_keys,
                  audit_report.max_abs_error, audit_report.eps_ratio,
                  audit_report.recall, audit_report.recalled,
                  audit_report.shadow_heavies);
    }
    if (!a.stats.empty()) PrintStats(a.stats);
  }
  if (!a.save_path.empty()) {
    // Sharded runs snapshot the merged view — one file a coordinator can
    // merge with other runs, same as a single-summary snapshot.
    const Summary& state = a.shards > 1 ? engine->MergedView() : *summary;
    if (!Saved(a, SaveSummaryToFile(state, a.save_path), "snapshot")) return 1;
  }
  return r.recalled == r.true_heavies ? 0 : 1;
}

/// `max` (EpsilonMaximum) or `min` (EpsilonMinimum) over stdin's ids.
template <typename Sketch>
int CmdExtreme(const Args& a, const std::vector<uint64_t>& items) {
  typename Sketch::Options opt;
  opt.epsilon = a.epsilon;
  opt.delta = a.delta;
  opt.universe_size = a.n;
  opt.stream_length = a.m != 0 ? a.m : items.size();
  Sketch sketch(opt, a.seed);
  for (const uint64_t x : items) sketch.Insert(x);
  const auto r = sketch.Report();
  std::printf("approx-%s item %llu  count ~%.0f  (sketch: %zu bits)\n",
              a.command.c_str(), static_cast<unsigned long long>(r.item),
              r.estimated_count, sketch.SpaceBits());
  return 0;
}

int Demo() {
  std::printf("l1hh demo: 2^20 Zipf(1.2) items, phi=5%%, eps=1%%\n");
  Args a;
  a.alpha = 1.2;
  a.seed = 7;
  return CmdRun(a);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    return Demo();
  }
  if (!Parse(argc, argv, &args)) {
    return 2;
  }
  if (args.command == "list") return CmdList();
  if (args.command == "generate") return CmdGenerate(args);
  if (args.command.empty() || args.command == "run") return CmdRun(args);
  if (args.command == "load") return CmdLoad(args);
  if (args.command == "merge") return CmdMerge(args);
  // Validate the command BEFORE draining stdin, so a typo'd command prints
  // usage instead of blocking on a terminal until EOF.
  if (args.command != "heavy" && args.command != "save" &&
      args.command != "max" && args.command != "min") {
    std::fprintf(
        stderr,
        "usage: l1hh_cli list|generate|run|heavy|save|load|merge|max|min "
        "[flags]\n"
        "  run    [--algo --kind --shards --threads --save=FILE ...]  "
        "self-scored run\n"
        "         [--group-col --groups=G]        per-tenant grouped run\n"
        "  heavy  --algo=NAME --m=M [--phi=P]     report HH over stdin "
        "ids\n"
        "         [--group-col]                   stdin is \"group item\" "
        "rows\n"
        "  save   --algo=NAME --out=FILE --m=M    ingest stdin, write "
        "snapshot\n"
        "  load   <snapshot> [--phi=P]            print snapshot header + "
        "report\n"
        "  merge  <snapshot>... [--phi=P]         combine worker "
        "snapshots\n"
        "see the header comment of tools/l1hh_cli.cc and "
        "docs/SNAPSHOTS.md\n");
    return 2;
  }
  // Grouped heavy reads the two-column form itself.
  if (args.command == "heavy" && args.group_col) {
    return CmdHeavyGrouped(args);
  }
  std::vector<uint64_t> items;
  if (!ReadStdinRows({&items}, "one decimal id")) return 2;
  if (args.command == "heavy") return CmdHeavy(args, items);
  if (args.command == "save") return CmdSave(args, items);
  if (args.command == "max") return CmdExtreme<EpsilonMaximum>(args, items);
  return CmdExtreme<EpsilonMinimum>(args, items);
}
