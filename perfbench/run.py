#!/usr/bin/env python3
"""End-to-end benchmark of Grapple: time to verdict in memory and out of
core, and warm throughput and tail latency of the analysis service.

    python3 perfbench/run.py --workload batch-hbase|ooc-hdfs|svc-cold|svc-warm \\
        [--seed N] [--seconds S] [--trace 0|1] \\
        [--subject-seed M] [--inject-solve-us U]

Run from the root of a checkout. The first run builds perfbench/perf_bench
(CMake, Release) from the checkout's sources into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Everything the run writes stays under that directory.

--seed draws the method orders of the subject's text (see README.md);
--subject-seed replaces the generator's preset seed. --inject-solve-us makes
every constraint solve busy-wait until that many microseconds have passed,
through the public EngineTuning::simulated_solve_latency_us (the sensitivity
self-test in compare.py uses it).

With --trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (layers.py), whose spans also land in
<build dir>/traces/. The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import layers

WORKLOADS = ("batch-hbase", "ooc-hdfs", "svc-cold", "svc-warm")

END_TO_END_UNITS = {
    "check_s": "s",
    "setup_s": "s",
    "checks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Every run must end well inside 180 s; perf_bench stops itself at 120 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def child_env(build_dir):
    """The environment for every child: temporary files go under the build
    directory, and the program's own tracing, metrics dumps and profiler
    stay off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRAPPLE_")}
    env["TMPDIR"] = str(build_dir / "tmp")
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def build(root, build_dir):
    """Configures (once) and builds perf_bench; returns its path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    cmake_dir = build_dir / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append([cmake, "-S", str(root / "perfbench"), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(cmake_dir), "--target", "perf_bench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env(build_dir), timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    binary = cmake_dir / "perf_bench"
    return binary if binary.exists() else None


def run_perf_bench(binary, args, build_dir, work_dir, trace_out):
    """Runs perf_bench once; returns its result object or None."""
    cmd = [str(binary), "--workload", args.workload, "--seconds", str(args.seconds),
           "--work-dir", str(work_dir)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.subject_seed is not None:
        cmd += ["--subject-seed", str(args.subject_seed)]
    if args.inject_solve_us:
        cmd += ["--inject-solve-us", str(args.inject_solve_us)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=child_env(build_dir), timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perf_bench timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perf_bench exited with code %d" % done.returncode)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--subject-seed", type=int)
    parser.add_argument("--inject-solve-us", type=int, default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        return 1

    tag = "%s-seed%s" % (args.workload, "preset" if args.seed is None else args.seed)
    work_dir = build_dir / "work" / ("%s-%d" % (tag, os.getpid()))
    trace_out = None
    if args.trace:
        (build_dir / "traces").mkdir(parents=True, exist_ok=True)
        trace_out = build_dir / "traces" / (tag + ".spans.json")
    try:
        result = run_perf_bench(binary, args, build_dir, work_dir, trace_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result is None:
        return 1

    if args.trace:
        with open(trace_out) as f:
            values = layers.per_layer_metrics(json.load(f), result)
        units = layers.metric_units()
    else:
        values = result["metrics"]
        units = END_TO_END_UNITS

    for message in result["errors"]:
        log("verdict failure: " + message)
    for name, unit in units.items():
        print("%-40s %14.6g %s" % (name, values[name], unit))
    print("samples: " + json.dumps(result["samples"]))
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1,
        "attempted": max(attempted, 1),
        "failed": failed if attempted >= 1 else max(failed, 1),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
