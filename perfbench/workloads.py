"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of jobs, one program process each.  Its pairs
(d, mu, nu) start from base pairs drawn once from a fixed stream; the seed
adds to each pair its own offset c in SHIFT_RANGE (to every part of mu and of
nu) and orders the requests.  Because mu*nu shifted by c is mu*nu with every
key shifted by c, the work and the output size are the same for every seed,
while every product, and so every output the checks see, differs.  All parts
stay two-digit numbers, so even the byte counts are equal.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

# (d, m, n): one one-shot process each, (d-1)*m*n from 27 down to 12
ONESHOT_SHAPES = ((4, 3, 3), (3, 3, 3), (4, 2, 3), (2, 4, 4), (3, 2, 3), (4, 2, 2))
ONESHOT_MAX_PART = 5

# (m, n) -> distinct requests per d, for d = 2, 3, 4; each is sent twice
BATCH_COUNTS = {(1, 1): 40, (1, 2): 60, (2, 1): 60, (2, 2): 90, (2, 3): 36, (3, 2): 36}
BATCH_D = (2, 3, 4)
BATCH_MAX_PART = 9

ORACLE_SUITES = ("lemma31", "iso", "graphs")

BASE_SEED = 0
SHIFT_RANGE = (10, 80)  # with parts <= 9 and exponents <= 9, every key part has two digits

Pair = Tuple[int, Tuple[int, ...], Tuple[int, ...]]  # (d, mu, nu)


@dataclass
class Job:
    """One program process: its argv after ``-m qcoha``, its stdin, and what
    the harness checks its output against."""

    argv: List[str]
    kind: str  # "multiply", "batch" or "verify"
    pairs: List[Pair] = field(default_factory=list)  # multiply / batch requests
    suite: Optional[str] = None
    stdin: Optional[bytes] = None


def _partition(rng: random.Random, length: int, max_part: int) -> Tuple[int, ...]:
    return tuple(sorted(rng.randint(0, max_part) for _ in range(length)))


def _parts_arg(p: Tuple[int, ...]) -> str:
    return ",".join(str(v) for v in p)


def multiply_job(d: int, mu: Tuple[int, ...], nu: Tuple[int, ...]) -> Job:
    argv = ["multiply", "--d", str(d), "--left", _parts_arg(mu), "--right", _parts_arg(nu)]
    return Job(argv=argv, kind="multiply", pairs=[(d, mu, nu)])


def batch_job(pairs: List[Pair]) -> Job:
    lines = [
        json.dumps({"cmd": "multiply", "d": d, "left": list(mu), "right": list(nu)})
        for d, mu, nu in pairs
    ]
    return Job(
        argv=["batch"], kind="batch", pairs=pairs, stdin=("\n".join(lines) + "\n").encode()
    )


def setup_job() -> Job:
    """The trivial one-shot whose wall time is ``setup_s``."""
    return multiply_job(1, (0,), (0,))


def _base_pairs(shapes, max_part: int) -> List[Pair]:
    """Distinct base pairs, ``count`` per (d, m, n, count), the same for every seed."""
    rng = random.Random(BASE_SEED)
    pairs: List[Pair] = []
    for d, m, n, count in shapes:
        drawn = set()
        while len(drawn) < count:
            drawn.add((d, _partition(rng, m, max_part), _partition(rng, n, max_part)))
        pairs.extend(sorted(drawn))
    return pairs


def _shift(rng: random.Random, pairs: List[Pair]) -> List[Pair]:
    """Each pair with its own seeded offset, redrawn until the pair is new."""
    out: List[Pair] = []
    taken = set()
    for d, mu, nu in pairs:
        while True:
            c = rng.randint(*SHIFT_RANGE)
            pair = (d, tuple(v + c for v in mu), tuple(v + c for v in nu))
            if pair not in taken:
                break
        taken.add(pair)
        out.append(pair)
    return out


def oneshot(seed: int) -> List[Job]:
    base = _base_pairs([(d, m, n, 1) for d, m, n in ONESHOT_SHAPES], ONESHOT_MAX_PART)
    return [multiply_job(*pair) for pair in _shift(random.Random(seed), base)]


def batch(seed: int) -> List[Job]:
    """Every distinct request once (each basis product a cache miss), then
    all of them again in a fresh order (each a cache hit)."""
    rng = random.Random(seed)
    shapes = [(d, m, n, count) for d in BATCH_D for (m, n), count in BATCH_COUNTS.items()]
    pairs = _shift(rng, _base_pairs(shapes, BATCH_MAX_PART))
    rng.shuffle(pairs)
    replay = list(pairs)
    rng.shuffle(replay)
    return [batch_job(pairs + replay)]


def verify_assoc(seed: int) -> List[Job]:
    return [Job(argv=["verify", "assoc"], kind="verify", suite="assoc")]


def verify_oracles(seed: int) -> List[Job]:
    return [Job(argv=["verify", s], kind="verify", suite=s) for s in ORACLE_SUITES]


WORKLOADS = {
    "oneshot": oneshot,
    "batch": batch,
    "verify-assoc": verify_assoc,
    "verify-oracles": verify_oracles,
}


def operations(job: Job) -> int:
    """Operations one job attempts: one per request, or one per process."""
    return len(job.pairs) if job.kind == "batch" else 1
