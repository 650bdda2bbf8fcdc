#!/usr/bin/env python3
"""Build the H2P twin benchmark from this checkout's sources and run it.

Usage, from the root of the checkout:

    python3 h2pbench/run.py --workload paper|fleet-sweep|daemon|all \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 h2pbench/run.py --selftest
    python3 h2pbench/run.py --record-golden --seed N

The benchmark is compiled (Release) into .bench_build/h2pbench/build on
first use; results and span logs go to .bench_build/h2pbench/out. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds the end_to_end
metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). The exit code is non-zero when the build fails, a metric
is missing, or any output failed its correctness check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_build" / "h2pbench"
BUILD_DIR = WORK_DIR / "build"
OUT_DIR = WORK_DIR / "out"
WORKLOADS = ["paper", "fleet-sweep", "daemon"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build @target incrementally."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("h2pbench: configure failed")
            return None
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("h2pbench: build failed")
        return None
    return BUILD_DIR / target


def git_sha():
    if not (ROOT / ".git").exists():
        return ""
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else ""


def source_digest():
    """sha256 over the twin's and the benchmark's sources (no git needed)."""
    h = hashlib.sha256()
    for top in ("src", "h2pbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def contract_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, args, workload, sha, digest):
    """Run one workload; returns (exit code, result dict or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", str(BENCH_DIR / "golden.txt"),
           "--out-dir", str(OUT_DIR.relative_to(ROOT)),
           "--git-sha", sha or "none", "--source-digest", digest]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"h2pbench: {workload} produced no output")
        return proc.returncode or 1, None
    for line in lines[:-1]:
        print(line)
    try:
        full = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        log(f"h2pbench: {workload} did not end with a result line")
        return proc.returncode or 1, None
    metrics = {}
    for name in contract_metrics(args.trace):
        m = full["metrics"].get(name)
        if m is None or m["value"] is None:
            log(f"h2pbench: {workload} did not report {name}")
            return 1, None
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}
    return proc.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (args.workload or args.selftest or args.record_golden):
        p.error("one of --workload, --selftest, --record-golden is required")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.selftest:
        binary = build("h2pbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([str(binary)], cwd=OUT_DIR).returncode

    binary = build("h2pbench")
    if binary is None:
        return 1
    if args.record_golden:
        return subprocess.run([str(binary), "--record-golden", "--seed",
                               str(args.seed)], cwd=ROOT).returncode

    sha, digest = git_sha(), source_digest()
    if args.workload != "all":
        code, result = run_workload(binary, args, args.workload, sha, digest)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return code

    # All three in turn; the summary line prefixes each metric with its
    # workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, args, workload, sha, digest)
        worst = worst or code
        if result is None:
            return code or 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
