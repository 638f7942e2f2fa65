#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --label set1 --seeds 1-10 [--workload NAME ...]

Runs ``perfbench/run.py --workload W --seed S --trace 0`` once per workload
and seed, one run at a time, and prints per
workload and end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the median,
next to the metric's bound, and the median time one run took.  The figures are saved to
``.bench_build/steadiness-LABEL.json``; given two labels with ``--compare``
it prints how far the second set's medians moved from the first's.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def collect(spec, workloads, seed_list):
    out = {}
    for workload in workloads:
        runs = []
        took = []
        for seed in seed_list:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took.append(time.perf_counter() - start)
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not line["correct"]:
                sys.exit("%s seed %d: exit %d, %s" % (workload, seed, done.returncode, done.stderr[-2000:]))
            runs.append(line)
        out[workload] = {
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "run_s": took,
            "metrics": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                        for m in spec["end_to_end"]},
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", nargs="*")
    parser.add_argument("--compare", metavar="FIRST_LABEL")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    path = BUILD / ("steadiness-%s.json" % args.label)
    if args.compare:
        first = json.loads((BUILD / ("steadiness-%s.json" % args.compare)).read_text())
        second = json.loads(path.read_text())
        for workload in second:
            for name, s in second[workload]["metrics"].items():
                f = first[workload]["metrics"][name]
                shift = s["median"] / f["median"] - 1
                print("%-15s %-12s %s %.4g -> %.4g  moved %+.2f%%  bound %.0f%%" % (
                    workload, name, "ok  " if shift <= bounds[name] else "WORSE",
                    f["median"], s["median"], 100 * shift, 100 * bounds[name]))
        return 0
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    result = collect(spec, workloads, seeds(args.seeds))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    for workload, res in result.items():
        for name, s in res["metrics"].items():
            print("%-15s %-12s median %.4g  q1 %.4g  q3 %.4g  spread %.2f%%  bound %.0f%%" % (
                workload, name, s["median"], s["q1"], s["q3"], 100 * s["spread"], 100 * bounds[name]))
        print("%-15s failed share %s, one run took %.1f s" % (
            workload, sorted(set(res["failed_share"])), statistics.median(res["run_s"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
