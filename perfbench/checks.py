"""Output checks made apart from the program.

Nothing here imports qcoha or compares against stored output.  A multiply
result is checked through facts of the kernel prod (x_s - q x_t)**(d-1) over
the (d-1)*m*n edges (t, s) of the complete bipartite multigraph:

* every key is weakly increasing, has length m+n and weight
  |mu|+|nu|+(d-1)mn;
* at q = 0 only the shift-and-sort partition survives, with value 1;
* the coefficients sum to (1-q)**((d-1)mn), the kernel at x_i = 1;
* for small products (d**(mn) <= ENUM_LIMIT) the whole product equals an
  enumeration of one exponent i in [0, d-1] per edge.

A verify report must pass, list no failures, and count exactly the instances
of the suite's default grid.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Tuple

ENUM_LIMIT = 5000
ENUM_SAMPLE = 20  # enumerated pairs per job at most

Key = Tuple[int, ...]
Poly = Dict[int, Fraction]  # power of q -> nonzero coefficient


def _rational(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError("coefficient %r is not a string" % (text,))
    return Fraction(text)


def parse_coeff(obj) -> Poly:
    offset = obj["offset"]
    if not isinstance(offset, int):
        raise ValueError("offset %r is not an integer" % (offset,))
    out = {}
    for i, text in enumerate(obj["coeffs"]):
        c = _rational(text)
        if c:
            out[offset + i] = c
    return out


def parse_element(doc) -> Dict[Key, Poly]:
    out: Dict[Key, Poly] = {}
    for term in doc["terms"]:
        key = tuple(term["partition"])
        if key in out:
            raise ValueError("duplicate key %r" % (key,))
        out[key] = parse_coeff(term["coeff"])
    return out


def shift_sort(d: int, mu: Key, nu: Key) -> Key:
    shift = len(mu) * (d - 1)
    return tuple(sorted(mu + tuple(v + shift for v in nu)))


def one_minus_q_power(e: int) -> Poly:
    return {k: Fraction((-1) ** k * comb(e, k)) for k in range(e + 1)}


def enumerate_product(d: int, mu: Key, nu: Key) -> Dict[Key, Poly]:
    """The product by brute force over one exponent i per edge (t, s).

    Edge (t, s) adds i to mu_t and d-1-i to nu_s and weighs the term by
    binom(d-1, i) * (-q)**i.
    """
    e = d - 1
    n = len(nu)
    out: Dict[Key, Poly] = {}
    for choice in itertools.product(range(d), repeat=len(mu) * n):
        a = list(mu)
        b = list(nu)
        weight = 1
        for edge, i in enumerate(choice):
            t, s = divmod(edge, n)
            a[t] += i
            b[s] += e - i
            weight *= comb(e, i)
        power = sum(choice)
        coeff = out.setdefault(tuple(sorted(a + b)), {})
        coeff[power] = coeff.get(power, 0) + (-weight if power % 2 else weight)
    cleaned = {}
    for key, coeff in out.items():
        nonzero = {p: Fraction(c) for p, c in coeff.items() if c}
        if nonzero:
            cleaned[key] = nonzero
    return cleaned


def enumerable(d: int, mu: Key, nu: Key) -> bool:
    return d ** (len(mu) * len(nu)) <= ENUM_LIMIT


def multiply_problems(d: int, mu: Key, nu: Key, doc, full: bool = False) -> List[str]:
    """Every way a multiply result document disagrees with the kernel facts."""
    try:
        if doc.get("d") != d:
            return ["d is %r, want %d" % (doc.get("d"), d)]
        element = parse_element(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return ["malformed element: %r" % (exc,)]
    label = "%r*%r d=%d" % (mu, nu, d)
    problems = []
    length = len(mu) + len(nu)
    weight = sum(mu) + sum(nu) + (d - 1) * len(mu) * len(nu)
    for key in element:
        if any(key[i] > key[i + 1] for i in range(len(key) - 1)):
            problems.append("%s: key %r is not weakly increasing" % (label, key))
        if len(key) != length or sum(key) != weight:
            problems.append("%s: key %r is off the grading (%d, %d)" % (label, key, length, weight))
    at_zero = {}
    total: Poly = {}
    for key, coeff in element.items():
        if min(coeff, default=0) < 0:
            problems.append("%s: key %r has a negative power of q" % (label, key))
        if coeff.get(0):
            at_zero[key] = coeff[0]
        for p, c in coeff.items():
            total[p] = total.get(p, 0) + c
    if at_zero != {shift_sort(d, mu, nu): 1}:
        problems.append("%s: q=0 leaves %r" % (label, at_zero))
    total = {p: c for p, c in total.items() if c}
    if total != one_minus_q_power((d - 1) * len(mu) * len(nu)):
        problems.append("%s: coefficients sum to %r, not (1-q)**%d" % (label, total, (d - 1) * len(mu) * len(nu)))
    if full and element != enumerate_product(d, mu, nu):
        problems.append("%s: differs from the edge enumeration" % label)
    return problems


def _grid_size(max_len: int, max_part: int) -> int:
    """Weakly increasing tuples of length <= max_len with parts in [0, max_part]."""
    return sum(comb(max_part + k, k) for k in range(max_len + 1))


# instances each suite checks at its defaults, from its grid
EXPECTED_CHECKED = {
    # 3 values of d: every pair (q=0 check) and every triple, plus 50 random triples
    "assoc": 3 * (_grid_size(2, 2) ** 2 + _grid_size(2, 2) ** 3) + 50,
    # 3 values of d, every pair
    "iso": 3 * _grid_size(2, 2) ** 2,
    # 2 values of d, block sizes (l, m, n) in {1, 2}**3
    "lemma31": 2 * 2 ** 3,
    # every pair at d = 2, plus 4 boundary pairs
    "graphs": _grid_size(3, 3) ** 2 + 4,
}


def report_problems(suite: str, doc) -> List[str]:
    try:
        problems = []
        if doc["name"] != suite:
            problems.append("report names suite %r" % (doc["name"],))
        if doc["passed"] is not True:
            problems.append("%s: passed is %r" % (suite, doc["passed"]))
        if doc["failures"]:
            problems.append("%s: %d failures" % (suite, len(doc["failures"])))
        if doc["checked"] != EXPECTED_CHECKED[suite]:
            problems.append("%s: checked %r, want %d" % (suite, doc["checked"], EXPECTED_CHECKED[suite]))
        return problems
    except (KeyError, TypeError) as exc:
        return ["%s: malformed report: %r" % (suite, exc)]


@dataclass
class Outcome:
    """Operations attempted and failed.  ``wrong`` holds the check failures:
    a wrong answer, a missing response or a non-zero exit code; any of them
    makes the run incorrect.  ``refused`` holds the requests the program
    declined with ``ok: false``; they count as failed operations only."""

    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    refused: List[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong.extend(other.wrong)
        self.refused.extend(other.refused)

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong.extend(problems)

    def refuse(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.refused.append(message)


def _load(text: str):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, "not JSON: %r" % (exc,)


def check_job(job, exit_code: int, out: bytes) -> Outcome:
    """Check one finished job's stdout; one operation per request or process.

    A non-zero exit code (a crash, or the launcher's watchdog) and a missing
    response are check failures, like a wrong answer."""
    outcome = Outcome()
    text = out.decode("utf-8", "replace")
    exited = [] if exit_code == 0 else ["%r: exit code %d" % (job.argv, exit_code)]
    if job.kind == "verify":
        doc, err = _load(text)
        outcome.record(exited + ([err] if err else report_problems(job.suite, doc)))
        return outcome
    sample = set()
    for pair in job.pairs:
        if len(sample) < ENUM_SAMPLE and enumerable(*pair):
            sample.add(pair)
    if job.kind == "multiply":
        doc, err = _load(text)
        d, mu, nu = job.pairs[0]
        outcome.record(exited or ([err] if err else multiply_problems(d, mu, nu, doc, job.pairs[0] in sample)))
        return outcome
    outcome.wrong.extend(exited)
    lines = text.splitlines()
    if len(lines) > len(job.pairs):
        outcome.wrong.append("batch wrote %d lines for %d requests" % (len(lines), len(job.pairs)))
    enumerated = set()
    for i, (d, mu, nu) in enumerate(job.pairs):
        if i >= len(lines):
            outcome.record(["request %d: no response" % i])
            continue
        resp, err = _load(lines[i])
        if err:
            outcome.record([err])
        elif resp.get("ok") is not True:
            outcome.refuse("request %d: %r" % (i, resp.get("error")))
        else:
            pair = (d, mu, nu)
            full = pair in sample and pair not in enumerated
            enumerated.add(pair)
            outcome.record(multiply_problems(d, mu, nu, resp["result"], full))
    return outcome
