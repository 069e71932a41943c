#!/usr/bin/env python3
"""Serving benchmark for l1hh_serve: build, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (which pulls in the library and l1hh_serve from the
tree) into .bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild only
what changed.  l1hh_perfbench forks the freshly built server and drives it;
see perfbench/README.md for the workloads and metrics.

The last stdout line is one JSON object with exactly the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  The line before it is the full record: every
metric with its layer mapping, sample counts, scores, and provenance (nproc,
compiler, build type, source revision, seed, load average and the CPU steal
share over the run).  The same record, and with --trace 1 the spans, are
written under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("src", "tools", "perfbench")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once, then builds l1hh_perfbench and the server."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/l1hh_serve.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} missing; run from an l1hh source checkout")
            return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "l1hh_perfbench", "l1hh_serve"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out


def cmake_cache(out, key):
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def cpu_times():
    """The aggregate /proc/stat cpu line: (steal, total) jiffies."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return ""


def source_revision():
    """The git commit when there is one, and always a digest of the sources."""
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = got.stdout.strip() if got.returncode == 0 else ""
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()


def provenance(out, seed, steal0, total0, load0):
    steal1, total1 = cpu_times()
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    git_sha, digest = source_revision()
    return {
        "nproc": os.cpu_count(),
        "compiler": version.stdout.splitlines()[0] if version.stdout else compiler,
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "git_sha": git_sha or None,
        "source_sha256": digest,
        "seed": seed,
        "loadavg_start": load0,
        "loadavg_end": loadavg(),
        "steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out = build()
    if out is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    bench = [os.path.join(out, "l1hh_perfbench"),
             "--serve=" + os.path.join(out, "l1hh_serve")]
    if args.self_test:
        return subprocess.run(bench + ["--self-test"], cwd=OUT_DIR,
                              timeout=RUN_TIMEOUT_S).returncode

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    bench += [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        bench.append(f"--spans=spans-{tag}.json")
    steal0, total0 = cpu_times()
    load0 = loadavg()
    try:
        run = subprocess.run(bench, cwd=OUT_DIR, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: l1hh_perfbench timed out")
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"perfbench: l1hh_perfbench exited with status {run.returncode}")
        return 2
    record = json.loads(lines[-1])
    record["provenance"] = provenance(out, args.seed, steal0, total0, load0)
    expected = declared_metrics(args.trace)
    if set(record["metrics"]) != expected:
        log("perfbench: reported metrics do not match BENCHMARK.json:",
            sorted(set(record["metrics"]) ^ expected))
        return 2
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
