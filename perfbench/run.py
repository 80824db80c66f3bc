#!/usr/bin/env python3
"""Builds and runs the TreeServer end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The benchmark is its own CMake package (perfbench/CMakeLists.txt) that
compiles the library from src/. It is configured once into the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
repository root) and rebuilt incrementally on every call. The build log
goes to stderr; stdout carries the benchmark's record, and its last
line is the JSON result. The exit code is non-zero when the build, the
arithmetic self-test or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train_exact_inproc", "train_hist_tcp", "serve_fleet_online",
             "score_bulk"]
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (first time) and builds; returns True on success."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
           "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when the result line is
    well-formed and reports exactly the metrics BENCHMARK.json lists."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are wrong"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "units differ %s" % (missing, extra, units)
    return None


def run_workload(binary, workload, args, spans_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.json" % (workload, args.seed))
        cmd += ["--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        # Keep the record for the reader, but never end stdout on a
        # result line when the run failed.
        print("\n".join("# " + l for l in lines))
        print("%s: exit code %d" % (workload, proc.returncode), file=sys.stderr)
        return proc.returncode or 1
    error = check_result(lines[-1], args.trace)
    if error:
        print("\n".join(lines[:-1]))
        print("%s: %s" % (workload, error), file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: arithmetic self-test failed", file=sys.stderr)
        return 2

    binary = os.path.join(out, "perfbench")
    spans_dir = os.path.join(out, "spans")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        status = run_workload(binary, w, args, spans_dir) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
