#!/usr/bin/env python3
"""Process-level benchmark of the qcoha command line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` is the run length; without it, ``run_seconds`` of BENCHMARK.json.

Run from the root of a checkout.  Every program process is
``python3 -m qcoha ...`` on ``src/`` of that checkout, started one at a time
by ``launcher.py`` with a user's default environment (no PYTHONUNBUFFERED),
its stdin written whole and closed.  Each operation's output is checked by
``checks.py``; a check failure makes the run exit 1.

The harness, the launcher and the program all run on one CPU.  The launcher
times a fixed calibration loop on it before, during and after every program
process, and every wall time reported is scaled to the CPU speed at which
that loop takes CAL_REF_S (see ``speed_scaled``).

``--trace 0`` times the workload: ``setup_s`` (median of SETUP_REPS trivial
one-shot processes), then whole rounds of the workload's fixed jobs until
their unscaled wall times add up to the run length (at least one round),
reporting the median round's ``wall_s`` and ``peak_rss_mb``.  ``--trace 1``
runs one untraced round, then the same jobs under ``tracer.py`` (spans, then
QLaurent counts) and reports the per-layer metrics.  The last line of stdout
is one JSON object; the metric names and units are those of BENCHMARK.json.
A result file per run goes to ``.bench_build/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import List, Optional

from checks import Outcome, check_job
from workloads import WORKLOADS, Job, operations, setup_job

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
SETUP_REPS = 7
# the calibration loop's time at the reference speed, about the median of
# its times on the 2-CPU sandbox where the benchmark was written
CAL_REF_S = 0.025
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


@dataclass
class Finished:
    wall_s: float
    cal_s: List[float]  # calibration times while it ran
    exit_code: int
    maxrss_kb: int
    cpu_s: float
    out: bytes


@dataclass
class Round:
    wall_s: float  # speed-scaled
    raw_wall_s: float
    cal_s: List[float]  # between the processes
    cal_during_s: List[List[float]]  # while each process ran
    peak_rss_mb: float
    cpu_s: float
    finished: List[Finished]


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    # bytecode is cached, as for an installed package, but outside the tree
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """The small process (launcher.py) that starts every program process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run_round(self, jobs: List[Job], prefix: List[str], summaries: Optional[List[Path]] = None) -> Round:
        """Run the jobs one after another; the round's wall time is the sum of
        the processes' wall times, each from spawn to exit."""
        work = BUILD / "work"
        specs = []
        for i, job in enumerate(jobs):
            argv = prefix + job.argv
            if summaries is not None:
                argv = prefix + [str(summaries[i]), "--"] + job.argv
            stdin = None
            if job.stdin is not None:
                stdin = work / ("stdin-%d" % i)
                stdin.write_bytes(job.stdin)
                stdin = str(stdin)
            specs.append({"argv": argv, "stdin": stdin, "stdout": str(work / ("stdout-%d" % i)),
                          "stderr": str(work / ("stderr-%d" % i))})
        self.proc.stdin.write(json.dumps({"jobs": specs}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        finished = [
            Finished(out=Path(spec["stdout"]).read_bytes(), **res)
            for spec, res in zip(specs, reply["jobs"])
        ]
        return Round(
            wall_s=speed_scaled(finished, reply["cal_s"]),
            raw_wall_s=sum(f.wall_s for f in finished),
            cal_s=reply["cal_s"],
            cal_during_s=[f.cal_s for f in finished],
            peak_rss_mb=max(f.maxrss_kb for f in finished) / 1024,
            cpu_s=sum(f.cpu_s for f in finished),
            finished=finished,
        )


def speed_scaled(finished: List[Finished], cals: List[float]) -> float:
    """Sum of the processes' wall times, each scaled to the reference speed by
    the mean of the calibration times right before, while and right after it
    ran.  The calibrations made while it ran took CPU time from it, so that
    time comes off its wall time first.

    The sandbox's CPUs change speed by up to a factor of three, each on its own,
    for seconds to minutes at a time, and every process on a CPU slows alike.
    Over ten 20 s runs of the same work, the unscaled medians spread by up to
    29.5 % and the scaled ones by at most 6.8 % (perfbench/README.md)."""
    total = 0.0
    for i, fin in enumerate(finished):
        speed = [cals[i], cals[i + 1]] + fin.cal_s
        total += (fin.wall_s - sum(fin.cal_s)) * CAL_REF_S / statistics.mean(speed)
    return total


def check_round(jobs: List[Job], rnd: Round, memo: dict) -> Outcome:
    """Check every job's output.  Output byte-identical to an output already
    checked for the same job gets that check's outcome again."""
    outcome = Outcome()
    for i, (job, fin) in enumerate(zip(jobs, rnd.finished)):
        key = (i, fin.exit_code, fin.out)
        if key not in memo:
            memo[key] = check_job(job, fin.exit_code, fin.out)
        outcome.add(memo[key])
    return outcome


def read_summaries(paths: List[Path]) -> List[dict]:
    """Read and remove the tracer's summaries, so that none is read twice."""
    out = []
    for path in paths:
        if not path.is_file():
            raise SystemExit("the traced process wrote no summary %s" % path)
        out.append(json.loads(path.read_bytes()))
        path.unlink()
    return out


def _sum(summaries, layer, field):
    return sum(s["layers"].get(layer, {}).get(field, 0) for s in summaries)


def layer_metrics(summaries, counts, traced: Round, untraced: Round) -> dict:
    caches = [s["basis_cache"] or {} for s in summaries]
    m = {
        "cli.import_ms": statistics.median(s["import_ms"] for s in summaries),
        "cli.self_ms": _sum(summaries, "cli", "self_ms"),
        "cli.cpu_s": untraced.cpu_s,
        "kernel.table_builds": _sum(summaries, "kernel.table_build", "calls"),
        "kernel.table_build_ms": _sum(summaries, "kernel.table_build", "total_ms"),
        "kernel.table_terms": _sum(summaries, "kernel.table_build", "count"),
        "kernel.pairwise_kernel_calls": _sum(summaries, "kernel.pairwise_kernel", "calls"),
        "kernel.pairwise_kernel_ms": _sum(summaries, "kernel.pairwise_kernel", "self_ms"),
        "kernel.identity_ms": _sum(summaries, "kernel.identity", "self_ms"),
        "partition_algebra.basis_cache_hits": sum(c.get("hits", 0) for c in caches),
        "partition_algebra.basis_cache_misses": sum(c.get("misses", 0) for c in caches),
        "partition_algebra.basis_cache_size": sum(c.get("size", 0) for c in caches),
        "qlaurent.add_calls": _sum(counts, "qlaurent.add", "count"),
        "qlaurent.mul_calls": _sum(counts, "qlaurent.mul", "count"),
        "mpoly.mul_calls": _sum(summaries, "mpoly.mul", "calls"),
        "mpoly.mul_ms": _sum(summaries, "mpoly.mul", "self_ms"),
        "shuffle_algebra.shuffle_product_ms": _sum(summaries, "shuffle_algebra.shuffle_product", "self_ms"),
        "bipartite.product_via_graphs_ms": _sum(summaries, "bipartite.product_via_graphs", "self_ms"),
        "bipartite.orientations": _sum(summaries, "bipartite.product_via_graphs", "count"),
        "serialization.element_to_json_ms": _sum(summaries, "serialization.element_to_json", "self_ms"),
        "serialization.render_text_ms": _sum(summaries, "serialization.render_text", "self_ms"),
        "serialization.render_latex_ms": _sum(summaries, "serialization.render_latex", "self_ms"),
        "serialization.bytes_out": sum(len(f.out) for f in traced.finished),
        "trace.wall_s": traced.wall_s,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for product in ("product", "product_elements"):
        layer = "partition_algebra." + product
        m[layer + "_calls"] = _sum(summaries, layer, "calls")
        m[layer + "_ms"] = _sum(summaries, layer, "self_ms")
        m[layer + "_terms"] = _sum(summaries, layer, "count")
    for suite in ("assoc", "lemma31", "iso", "graphs"):
        m["suites.%s.checked" % suite] = _sum(summaries, "suites." + suite, "count")
        m["suites.%s.ms" % suite] = _sum(summaries, "suites." + suite, "total_ms")
    return m


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(ALLOWED_CPUS),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    jobs = WORKLOADS[name](seed)
    program = [sys.executable, "-m", "qcoha"]
    outcome = Outcome()
    memo: dict = {}
    setup = [setup_job()]
    samples = {}
    launcher = Launcher(program_env())
    try:
        # the first process writes the bytecode cache; it is checked, not timed
        outcome.add(check_round(setup, launcher.run_round(setup, program), {}))
        if not trace:
            setups = []
            for _ in range(SETUP_REPS):
                rnd = launcher.run_round(setup, program)
                outcome.add(check_round(setup, rnd, {}))
                setups.append(rnd)
            rounds = []
            while sum(r.raw_wall_s for r in rounds) < seconds:
                rnd = launcher.run_round(jobs, program)
                outcome.add(check_round(jobs, rnd, memo))
                rnd.finished = []  # checked; keep the harness small
                rounds.append(rnd)
            metrics = {
                "setup_s": statistics.median(r.wall_s for r in setups),
                "wall_s": statistics.median(r.wall_s for r in rounds),
                "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
            }
            samples = {
                "setup_s": [r.wall_s for r in setups],
                "setup_raw_s": [r.raw_wall_s for r in setups],
                "wall_s": [r.wall_s for r in rounds],
                "raw_wall_s": [r.raw_wall_s for r in rounds],
                "cal_s": [r.cal_s for r in setups + rounds],
                "cal_during_s": [r.cal_during_s for r in rounds],
                "peak_rss_mb": [r.peak_rss_mb for r in rounds],
                "requests_per_round": sum(operations(j) for j in jobs),
            }
        else:
            untraced = launcher.run_round(jobs, program)
            outcome.add(check_round(jobs, untraced, memo))
            tracer = [sys.executable, str(HERE / "tracer.py")]
            paths = [BUILD / "work" / ("trace-%d.json" % i) for i in range(len(jobs))]
            traced = launcher.run_round(jobs, tracer + ["spans"], paths)
            summaries = read_summaries(paths)
            counted = launcher.run_round(jobs, tracer + ["counts"], paths)
            counts = read_summaries(paths)
            for rnd in (traced, counted):
                for job, fin, ref in zip(jobs, rnd.finished, untraced.finished):
                    if (fin.exit_code, fin.out) != (ref.exit_code, ref.out):
                        outcome.wrong.append("%r: traced output differs from untraced" % (job.argv,))
            metrics = layer_metrics(summaries, counts, traced, untraced)
    finally:
        launcher.close()
    return {"outcome": outcome, "metrics": metrics, "samples": samples}


def declared_units(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(outcome: Outcome, metrics: dict, units: dict) -> dict:
    if set(metrics) != set(units):
        raise SystemExit(
            "metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), sorted(units))
        )
    return {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcoha" / "cli.py").is_file():
        print("no program to run: %s has no src/qcoha; run from a checkout root" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = declared_units(spec, bool(args.trace))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    # one CPU for the harness, the launcher and the program: the calibration
    # loop then times the CPU the program runs on
    os.sched_setaffinity(0, {ALLOWED_CPUS[-1]})
    (BUILD / "work").mkdir(parents=True, exist_ok=True)
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, seconds, bool(args.trace))
        outcome = res["outcome"]
        line = result_line(outcome, res["metrics"], units)
        record = dict(line, workload=name, seed=args.seed, seconds=seconds, trace=args.trace,
                      environment=environment(), samples=res["samples"],
                      wrong=outcome.wrong[:20], refused=outcome.refused[:20])
        path = BUILD / "results" / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(record, indent=1) + "\n")
        for problem in (outcome.wrong + outcome.refused)[:20]:
            print("%s: %s" % (name, problem), file=sys.stderr)
        results[name] = line
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, line in results.items():
            shown = "  ".join("%s=%.6g %s" % (k, v["value"], v["unit"]) for k, v in line["metrics"].items())
            print("%-15s attempted=%d failed=%d  %s" % (name, line["attempted"], line["failed"], shown))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
