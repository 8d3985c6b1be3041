#!/usr/bin/env python3
"""Collect, summarize and compare perfbench runs.

    # N runs of one workload, one per seed, into a file
    python3 perfbench/compare.py collect --workload batch-hbase --seeds 1-10 --out a.json
    # Spread of each end-to-end metric (IQR / median) against its bound
    python3 perfbench/compare.py spread a.json
    # The same seeds on two versions (or settings): which metrics moved
    python3 perfbench/compare.py diff base.json change.json
    # Sensitivity self-test: a known slowdown must read as a regression
    python3 perfbench/compare.py selftest

Comparison rule (diff), per end-to-end metric, over the seeds both files
hold. Runs pair up by seed, so each pair sees the same inputs; run the two
sides alternately (selftest does), so that each pair also shares the
machine's state:
  * delta = the median over pairs of the change's relative difference from
    its base run, signed so that positive is worse;
  * noise = the base runs' run-to-run spread: the median difference between
    consecutive base runs (in seed order, the order they ran), as a share of
    their median. The machine drifts over minutes, so the spread across all
    base runs (also printed) overstates what a pair sees;
  * "regression" when delta > noise and the change is worse in at least nine
    tenths of the pairs; "improvement" the mirror image; otherwise
    "unchanged" when |delta| is within the metric's bound from
    BENCHMARK.json, else "unresolved".
Run every file of one comparison from the same checkout build and with the
same --seconds; numbers compare only at equal seeds and subject seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, inject_us=0, subject_seed=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if inject_us:
        cmd += ["--inject-solve-us", str(inject_us)]
    if subject_seed is not None:
        cmd += ["--subject-seed", str(subject_seed)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("compare.py: run failed: " + " ".join(cmd))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("compare.py: incorrect verdicts: " + " ".join(cmd))
    return result


def values_of(runs, metric):
    return [runs[seed]["metrics"][metric]["value"] for seed in sorted(runs, key=int)]


def spread(values):
    """(Q3 - Q1) / median, with Python's default quartiles."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def run_to_run(values):
    """Median |difference| between consecutive values, as a share of their
    median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    return statistics.median(abs(b - a) for a, b in zip(values, values[1:])) / abs(median)


def cmd_collect(args):
    runs = {}
    seconds = args.seconds or load_spec()[1]
    for seed in parse_seeds(args.seeds):
        runs[str(seed)] = run_once(args.workload, seed, seconds, args.inject_solve_us,
                                   args.subject_seed)
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 6) for k, v in runs[str(seed)]["metrics"].items()})),
            flush=True)
    with open(args.out, "w") as f:
        json.dump({"workload": args.workload, "seconds": seconds,
                   "inject_solve_us": args.inject_solve_us, "runs": runs}, f, indent=1)
    return 0


def cmd_spread(args):
    """Exits 1 when a spread exceeds its bound (setup_s is exempt, as in the
    acceptance rule); also marks the spreads below a third of the bound."""
    metrics, _ = load_spec()
    ok = True
    for path in args.files:
        with open(path) as f:
            doc = json.load(f)
        print("%s (%s, %d runs)" % (path, doc["workload"], len(doc["runs"])))
        for name, spec in metrics.items():
            values = values_of(doc["runs"], name)
            s = spread(values)
            if name == "setup_s":
                status = "not gated"
            elif s <= spec["bound"] / 3:
                status = "below a third of the bound"
            elif s <= spec["bound"]:
                status = "within the bound"
            else:
                status = "OUTSIDE THE BOUND"
                ok = False
            print("  %-16s median %12.6g  spread %6.2f%%  bound %4.0f%%  %s" % (
                name, statistics.median(values), 100 * s, 100 * spec["bound"], status))
    return 0 if ok else 1


def diff(base, change, metrics):
    """Verdict per metric (see the module docstring)."""
    seeds = sorted(set(base["runs"]) & set(change["runs"]), key=int)
    if not seeds:
        raise SystemExit("compare.py: the two files share no seed")
    verdicts = {}
    for name, spec in metrics.items():
        sign = 1 if spec["better"] == "lower" else -1
        b = [base["runs"][s]["metrics"][name]["value"] for s in seeds]
        c = [change["runs"][s]["metrics"][name]["value"] for s in seeds]
        mb, mc = statistics.median(b), statistics.median(c)
        delta = statistics.median(sign * (y - x) / x if x else 0.0 for x, y in zip(b, c))
        noise = run_to_run(b)
        worse = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        better = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
        if delta > noise and worse >= 0.9 * len(seeds):
            verdict = "regression"
        elif -delta > noise and better >= 0.9 * len(seeds):
            verdict = "improvement"
        elif abs(delta) <= spec["bound"]:
            verdict = "unchanged"
        else:
            verdict = "unresolved"
        verdicts[name] = verdict
        print("  %-16s base %12.6g  change %12.6g  delta %+7.2f%%  noise %6.2f%% "
              "(spread %6.2f%%)  worse %d/%d  %s" % (
                  name, mb, mc, 100 * delta, 100 * noise, 100 * spread(b), worse, len(seeds),
                  verdict))
    return verdicts


def cmd_diff(args):
    metrics, _ = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    verdicts = diff(base, change, metrics)
    return 1 if "regression" in verdicts.values() else 0


def cmd_selftest(args):
    """Runs batch-hbase with and without an injected per-solve busy-wait,
    alternating which goes first, and requires the diff to flag check_s."""
    metrics, run_seconds = load_spec()
    seconds = args.seconds or run_seconds
    base = {"runs": {}}
    slow = {"runs": {}}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = [(base, 0), (slow, args.inject_solve_us)]
        for side, inject in (order if i % 2 == 0 else order[::-1]):
            side["runs"][str(seed)] = run_once("batch-hbase", seed, seconds, inject)
        print("seed %d: check_s %.4f -> %.4f" % (
            seed, base["runs"][str(seed)]["metrics"]["check_s"]["value"],
            slow["runs"][str(seed)]["metrics"]["check_s"]["value"]), flush=True)
    for side, name in ((base, "base"), (slow, "injected")):
        with open("%s-%s.json" % (args.out_prefix, name), "w") as f:
            json.dump(dict(side, workload="batch-hbase", seconds=seconds), f, indent=1)
    print("batch-hbase, %d us per solve injected:" % args.inject_solve_us)
    verdicts = diff(base, slow, metrics)
    flagged = verdicts["check_s"] == "regression"
    print("self-test %s: check_s read as %s" % ("passed" if flagged else "FAILED",
                                                verdicts["check_s"]))
    return 0 if flagged else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--inject-solve-us", type=int, default=0)
    p.add_argument("--subject-seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_collect)
    p = sub.add_parser("spread")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("change")
    p.set_defaults(fn=cmd_diff)
    p = sub.add_parser("selftest")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--inject-solve-us", type=int, default=6)
    p.add_argument("--out-prefix",
                   default=str(ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") /
                               "selftest"),
                   help="runs are kept in <prefix>-base.json and <prefix>-injected.json")
    p.set_defaults(fn=cmd_selftest)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
