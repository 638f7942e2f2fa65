"""Start the program processes of a round, from a process that stays small.

On Linux a child's ``ru_maxrss`` is at least the peak RSS of the process that
started it (exec records the old address space's high-water mark), so the
harness, which holds and parses program output, cannot start the program
itself without inflating ``peak_rss_mb``.  This launcher reads one JSON line
per round on stdin:

    {"jobs": [{"argv": [...], "stdin": PATH or null, "stdout": PATH, "stderr": PATH}]}

runs the jobs one after another (stdin written whole through a pipe, then
closed) and answers with one JSON line:

    {"cal_s": [len(jobs) + 1 calibration times: before the first job, after each],
     "jobs": [{"wall_s", "cal_s": [calibration times while it ran],
               "exit_code", "maxrss_kb", "cpu_s"}]}

It never reads program output, so its own RSS stays far below the program's.
"""
import json
import os
import subprocess
import sys
import threading
from time import perf_counter, thread_time

KILL_AFTER_S = 150  # a stuck program process is killed and reported by its exit code
CAL_REPS = 3  # loops per calibration between jobs; one while a job runs
SAMPLE_EVERY_S = 1.0


def calibrate(reps):
    """Median CPU time of a fixed pure-Python loop, dict and tuple work as in
    the program.  Timed on the CPU the program runs on, it gives that CPU's
    speed at that moment."""
    times = []
    for _ in range(reps):
        start = thread_time()
        acc = {}
        for i in range(60000):
            key = (i % 31, i % 17, i % 7)
            acc[key] = acc.get(key, 0) + i * 7
        sorted(acc.items())
        times.append(thread_time() - start)
    return sorted(times)[reps // 2]


class Sampler(threading.Thread):
    """Calibrates every SAMPLE_EVERY_S while a job runs, so that a long job's
    speed is followed through it.  The CPU time this takes is the program's
    loss; the harness subtracts it from the job's wall time."""

    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.cals = []

    def run(self):
        while not self.done.wait(SAMPLE_EVERY_S):
            self.cals.append(calibrate(1))


def run_job(job):
    stdin = None
    if job["stdin"] is not None:
        with open(job["stdin"], "rb") as fh:
            stdin = fh.read()
    sampler = Sampler()
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            job["argv"],
            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
            stdout=out,
            stderr=err,
        )
        watchdog = threading.Timer(KILL_AFTER_S, proc.kill)
        watchdog.start()
        sampler.start()
        try:
            if stdin is not None:
                try:
                    proc.stdin.write(stdin)
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        finally:
            watchdog.cancel()
            sampler.done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cal_s": sampler.cals,
        "exit_code": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main():
    for line in sys.stdin:
        jobs = json.loads(line)["jobs"]
        cals = [calibrate(CAL_REPS)]
        results = []
        for job in jobs:
            results.append(run_job(job))
            cals.append(calibrate(CAL_REPS))
        sys.stdout.write(json.dumps({"cal_s": cals, "jobs": results}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
