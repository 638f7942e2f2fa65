"""Verification suites: the grids behind the CLI's verify command.

Each suite walks an exhaustive grid of small inputs (plus, for associativity,
a seeded batch of random triples) and returns one CheckReport.  Every product
a suite computes is also run through the grading checks, so a grading bug
cannot hide behind a passing identity.  Products stay key-major arrays, folded
into QLaurent values only to word a failed check.

The random triples are drawn at lengths the exhaustive grid does not reach.
Structure-constant tables grow steeply with the block sizes, so each sampled
triple is admitted only when a lattice-point count predicts that all four
tables it needs stay within a fixed cost limit; rejected draws are skipped
deterministically and the sampling continues from the same seeded stream.

Every suite predicts the work of its whole grid from its bounds alone,
before it computes anything, and raises ResourceLimitError when the
prediction passes GRID_WORK_LIMIT (see ``_check_grid``).  The rows an
associativity check stages are not known from its lengths, so that suite
also charges them to a budget of the same limit as it runs (see
``suite_assoc``).
"""
from __future__ import annotations

import random
from itertools import chain, groupby
from math import comb
from typing import Dict, Iterable, List, Sequence, Tuple

from .bipartite import _graph_model_reports
from .errors import ResourceLimitError
from .kernel import DEFAULT_TERM_CAP, check_loop_count, verify_coefficient_identity
from .partition_algebra import (
    _capped_basis_product,
    check_associativity,
    grading_failures,
    quasi_commutativity_report,
    shift_sort_product,
)
from .partitions import Partition, partitions_up_to
from .reports import CheckReport
from .shuffle_algebra import (
    verify_augmented_rule,
    verify_homomorphism,
    verify_monomial_rule,
    verify_subset_sum_identity,
)

DEFAULT_SEED = 1729
DEFAULT_COST_LIMIT = 30_000

# The most work a suite's grid may be predicted to take, in the units of
# ``_check_grid``.  No default grid predicts more than 8 % of it (prop41 at
# its defaults), and the slowest grids just under it take about 20 s.
GRID_WORK_LIMIT = 500_000_000
# the fixed work of one check (its Python calls), in the same units
CHECK_WORK = 10_000


def _table_points(m: int, n: int, d: int) -> int:
    """Lattice points in the exponent box of a kernel with the right degree.

    Upper bound on (and in practice close to) the number of structure
    constants the (m, n, d) table stores; the admission gate for random
    triples sums these over the four tables an associativity check needs.
    """
    if m == 0 or n == 0 or d == 1:
        return 1
    bounds = [n * (d - 1)] * m + [m * (d - 1)] * n
    total = m * n * (d - 1)
    counts = [1] + [0] * total
    for b in bounds:
        acc = [0] * (total + 1)
        for s, c in enumerate(counts):
            if c:
                top = min(b, total - s)
                for v in range(top + 1):
                    acc[s + v] += c
        counts = acc
    return counts[total]


def triple_cost(p: int, r: int, s: int, d: int) -> int:
    """Predicted total table size for both parenthesizations of a triple."""
    return (
        _table_points(p, r, d)
        + _table_points(r, s, d)
        + _table_points(p + r, s, d)
        + _table_points(p, r + s, d)
    )


def _kernel_terms(m: int, n: int, d: int) -> int:
    """Upper bound on the monomials of the (m, n) kernel, in constant time.

    A first-block exponent lies in [0, n(d-1)] and a second-block one in
    [0, m(d-1)], and the total degree m*n*(d-1) fixes the last of them.
    ``_table_points`` counts them exactly, but its work grows with d, and a
    prediction must stay cheap for any d a request sends.
    """
    if m == 0 or n == 0 or d <= 1:
        return 1
    return (n * (d - 1) + 1) ** (m - 1) * (m * (d - 1) + 1) ** n


def _lengths(max_len: int, max_part: int):
    """(length, partitions, their rearrangements) for each length of a grid."""
    for n in range(max_len + 1):
        yield n, comb(n + max_part, n), (max_part + 1) ** n


def _length_pairs(max_len: int, max_part: int):
    """(m, n, pairs, rearrangement pairs) for the grid pairs of lengths (m, n)."""
    for m, pm, wm in _lengths(max_len, max_part):
        for n, pn, wn in _lengths(max_len, max_part):
            yield m, n, pm * pn, wm * wn


def _check_grid(suite: str, work: Iterable[int], d_values: Sequence[int] = ()) -> None:
    """Raise ResourceLimitError, before any check runs, if a grid is too large.

    ``work`` yields the predicted work of the grid's checks, a group at a
    time: each check counts CHECK_WORK plus, for each term its polynomials
    or orientations stage, one unit per column.  Each group is at least
    CHECK_WORK, so the running sum passes the limit after a bounded number
    of groups however large the bounds are.  A loop count below 1 is
    reported first, as the checks themselves would.
    """
    for d in d_values:
        check_loop_count(d)
    total = 0
    for units in work:
        total += units
        if total > GRID_WORK_LIMIT:
            raise ResourceLimitError(
                "verify %s: the grid is predicted to exceed the work limit %d"
                % (suite, GRID_WORK_LIMIT)
            )


class _WorkBudget:
    """The work one suite call may still do, in the units of ``_check_grid``.

    Called with the units of the next piece of work, before that work runs,
    it raises ResourceLimitError once the running total passes
    GRID_WORK_LIMIT.  Each suite call makes its own, so a batch response
    depends only on its own request.
    """

    def __init__(self, suite: str):
        self.suite = suite
        self.left = GRID_WORK_LIMIT

    def __call__(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise ResourceLimitError(
                "verify %s: the checks exceed the work limit %d"
                % (self.suite, GRID_WORK_LIMIT)
            )


def _product_work(m: int, n: int, d: int) -> int:
    """Predicted work of one product of partitions of lengths m and n."""
    return CHECK_WORK + _kernel_terms(m, n, d) * (m + n + 1)


def _graph_work(m: int, n: int) -> int:
    """Predicted work of one orientation sum of lengths m and n: one
    orientation per subset of the m*n edges, and the table product."""
    return _product_work(m, n, 2) + 2 ** (m * n) * (m + n + 1)


def _graded_rows(mu: Partition, nu: Partition, d: int, grading_fails: List[str]):
    """The cached product mu * nu, its keys' grading checked on the way."""
    product = _capped_basis_product(mu, nu, d, DEFAULT_TERM_CAP)
    grading_fails.extend(grading_failures(mu, nu, d, product[0]))
    return product


def _random_partition(rng: random.Random, max_len: int, max_part: int) -> Partition:
    length = rng.randint(0, max_len)
    return tuple(sorted(rng.randint(0, max_part) for _ in range(length)))


def suite_assoc(
    d_values: Sequence[int] = (1, 2, 3),
    max_len: int = 2,
    max_part: int = 2,
    random_triples: int = 50,
    random_max_len: int = 3,
    random_max_part: int = 3,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Associativity, exhaustively on a small grid plus seeded random triples.

    Also confirms, on the same grid, that setting q = 0 in each pairwise
    product collapses it to the single shift-and-sort term: its power-0 rows
    must be that one key with coefficient 1.

    The rows a triple stages cannot be told from its lengths alone, so the
    work is limited twice.  Before any check, the random triples at
    CHECK_WORK each, and the grid's pairs and triples, each triple with the
    kernel terms of the two tables its sides build from, must stay within
    GRID_WORK_LIMIT.  Then, as the checks run, every check spends CHECK_WORK,
    and every side of a triple the rows its basis products are built from
    and the rows it stages, times their width, from one budget of
    GRID_WORK_LIMIT, each charged before that work runs (see
    ``_bilinear_keys``).
    """
    k = _kernel_terms

    def grid_work(d: int):
        # lengths are taken lazily: a huge max_len passes the limit early
        for l, pl, _ in _lengths(max_len, max_part):
            for m, pm, _ in _lengths(max_len, max_part):
                # the q = 0 checks of the pairs, then the triples
                yield pl * pm * CHECK_WORK
                for n, pn, _ in _lengths(max_len, max_part):
                    tables = k(l + m, n, d) + k(l, m + n, d)
                    yield pl * pm * pn * (CHECK_WORK + tables * (l + m + n + 1))

    _check_grid(
        "assoc",
        chain([random_triples * CHECK_WORK], *map(grid_work, d_values)),
        d_values,
    )
    budget = _WorkBudget("assoc")
    parts = partitions_up_to(max_len, max_part)
    failures: List[str] = []
    grading: List[str] = []
    checked = 0
    for d in d_values:
        for mu in parts:
            for nu in parts:
                budget(CHECK_WORK)
                keys, counts, powers, coeffs = _graded_rows(mu, nu, d, grading)
                firsts = counts.cumsum() - counts  # a power 0 comes first in its key
                zero = powers[firsts] == 0
                at_zero = dict(zip(map(tuple, keys[zero].tolist()), coeffs[firsts[zero]].tolist()))
                want = {shift_sort_product(mu, nu, d): 1}
                if at_zero != want:
                    failures.append(
                        "q=0 of %r * %r (d=%d) is %r, want %r"
                        % (mu, nu, d, at_zero, want)
                    )
                checked += 1
                for w in parts:
                    budget(CHECK_WORK)
                    rep = check_associativity(mu, nu, w, d, budget)
                    checked += 1
                    if not rep.passed:
                        failures.extend(rep.failures)
    rng = random.Random(seed)
    accepted = 0
    attempts = 0
    sampled: List[str] = []
    while accepted < random_triples:
        attempts += 1
        if attempts > 1000 * max(1, random_triples):
            raise ResourceLimitError(
                "could not find %d random triples under cost limit %d"
                % (random_triples, DEFAULT_COST_LIMIT)
            )
        d = rng.choice(tuple(d_values))
        mu = _random_partition(rng, random_max_len, random_max_part)
        nu = _random_partition(rng, random_max_len, random_max_part)
        w = _random_partition(rng, random_max_len, random_max_part)
        if triple_cost(len(mu), len(nu), len(w), d) > DEFAULT_COST_LIMIT:
            continue
        accepted += 1
        sampled.append("random d=%d %r %r %r" % (d, mu, nu, w))
        budget(CHECK_WORK)
        _graded_rows(mu, nu, d, grading)
        rep = check_associativity(mu, nu, w, d, budget)
        checked += 1
        if not rep.passed:
            failures.extend(rep.failures)
    failures.extend(grading)
    return CheckReport(
        name="assoc",
        passed=not failures,
        checked=checked,
        failures=failures,
        instances=sampled,
    )


def suite_iso(
    d_values: Sequence[int] = (1, 2, 3), max_len: int = 2, max_part: int = 2
) -> CheckReport:
    """Image of every table product equals the brute-force shuffle product."""
    _check_grid(
        "iso",
        (
            # the shuffle stages every rearrangement pair with the kernel, once per split
            pairs * _product_work(m, n, d)
            + comb(m + n, m) * words * _kernel_terms(m, n, d) * (m + n + 1)
            for d in d_values
            for m, n, pairs, words in _length_pairs(max_len, max_part)
        ),
        d_values,
    )
    parts = partitions_up_to(max_len, max_part)
    failures: List[str] = []
    grading: List[str] = []
    checked = 0
    for d in d_values:
        for mu in parts:
            for nu in parts:
                _graded_rows(mu, nu, d, grading)
                checked += 1
                failures.extend(verify_homomorphism(mu, nu, d).failures)
    failures.extend(grading)
    return CheckReport(name="iso", passed=not failures, checked=checked, failures=failures)


def suite_quasi(
    d_values: Sequence[int] = (1, 2, 3), max_len: int = 2, max_part: int = 2
) -> CheckReport:
    """Signed commutation on the grid, flagging where the unsigned form differs.

    The signed relation must hold everywhere; the unsigned one must fail on
    exactly the pairs whose exponent (d-1)|mu||nu| is odd, and every such
    pair is listed in the report's instances.
    """
    _check_grid(
        "quasi",
        (
            # mu * nu and nu * mu
            2 * pairs * _product_work(m, n, d)
            for d in d_values
            for m, n, pairs, _ in _length_pairs(max_len, max_part)
        ),
        d_values,
    )
    parts = partitions_up_to(max_len, max_part)
    failures: List[str] = []
    grading: List[str] = []
    flagged: List[str] = []
    checked = 0
    for d in d_values:
        for mu in parts:
            for nu in parts:
                rep = quasi_commutativity_report(mu, nu, d)
                _graded_rows(mu, nu, d, grading)
                checked += 1
                if not rep.signed_matches:
                    failures.append(
                        "signed relation fails for %r %r d=%d" % (mu, nu, d)
                    )
                # products are never zero, so at odd exponent the unsigned
                # and signed candidates cannot both match
                should_differ = rep.exponent % 2 == 1
                if rep.unsigned_matches and should_differ:
                    failures.append(
                        "unsigned form unexpectedly holds for %r %r d=%d" % (mu, nu, d)
                    )
                if not rep.unsigned_matches:
                    if rep.exponent % 2 == 0:
                        failures.append(
                            "unsigned form fails at even exponent for %r %r d=%d"
                            % (mu, nu, d)
                        )
                    flagged.append(
                        "unsigned differs: mu=%r nu=%r d=%d exponent=%d"
                        % (mu, nu, d, rep.exponent)
                    )
    failures.extend(grading)
    return CheckReport(
        name="quasi",
        passed=not failures,
        checked=checked,
        failures=failures,
        instances=flagged,
    )


BOUNDARY_GRAPH_PAIRS: Tuple[Tuple[Partition, Partition], ...] = (
    ((0, 1, 2, 3), (1, 2, 3)),
    ((1, 2, 3), (0, 1, 2, 3)),
    ((0,) * 12, (3,)),
    ((3,), (0,) * 12),
)


def suite_graphs(
    max_len: int = 3, max_part: int = 3, boundary_pairs: bool = True
) -> CheckReport:
    """Orientation-sum product vs table product at d = 2, pair by pair.

    The grid covers all pairs up to the given length and part bounds; the
    boundary pairs push the edge count to 12, half the default 24-bit
    orientation budget.  Each run of consecutive pairs of one shape has its
    orientation sums staged together, and the pairs are reported in grid
    order.
    """
    boundary = BOUNDARY_GRAPH_PAIRS if boundary_pairs else ()
    _check_grid(
        "graphs",
        chain(
            (pairs * _graph_work(m, n) for m, n, pairs, _ in _length_pairs(max_len, max_part)),
            (_graph_work(len(mu), len(nu)) for mu, nu in boundary),
        ),
    )
    parts = partitions_up_to(max_len, max_part)
    failures: List[str] = []
    grading: List[str] = []
    checked = 0
    pairs = [(mu, nu) for mu in parts for nu in parts] + list(boundary)
    # each run of consecutive pairs of one shape is staged together
    for _, run in groupby(pairs, key=lambda pair: (len(pair[0]), len(pair[1]))):
        run = list(run)
        for (mu, nu), report in zip(run, _graph_model_reports(run)):
            _graded_rows(mu, nu, 2, grading)
            checked += 1
            failures.extend(report.failures)
    failures.extend(grading)
    return CheckReport(
        name="graphs", passed=not failures, checked=checked, failures=failures
    )


def suite_kernel_identity(
    block_range: Sequence[int] = (1, 2), d_values: Sequence[int] = (2, 3)
) -> CheckReport:
    """Structure-constant convolution identity over all small block triples."""
    k = _kernel_terms
    _check_grid(
        "lemma31",
        (
            # each side convolves two tables, once as arrays and once as polynomials
            CHECK_WORK
            + 2 * (k(l, m, d) * k(l + m, n, d) + k(l, m + n, d) * k(m, n, d)) * (l + m + n + 1)
            for d in d_values
            for l in block_range
            for m in block_range
            for n in block_range
        ),
        d_values,
    )
    failures: List[str] = []
    checked = 0
    for d in d_values:
        for l in block_range:
            for m in block_range:
                for n in block_range:
                    rep = verify_coefficient_identity(l, m, n, d)
                    checked += 1
                    if not rep.passed:
                        failures.append(
                            "identity fails at l=%d m=%d n=%d d=%d" % (l, m, n, d)
                        )
                        failures.extend(rep.failures)
    return CheckReport(
        name="lemma31", passed=not failures, checked=checked, failures=failures
    )


def suite_augmented_rule(max_len: int = 4, max_part: int = 3) -> CheckReport:
    """Both classical product rules against direct polynomial expansion.

    Covers the augmented-times-monomial rule and the rational monomial rule
    on every equal-length pair up to the bounds.
    """
    _check_grid(
        "prop41",
        (
            # two rules per pair, each multiplying the rearrangements of both
            # and reading the product back through n - 1 transpositions
            2 * (count * count * CHECK_WORK + words * words * (n + 1) * n)
            for n, count, words in _lengths(max_len, max_part)
        ),
    )
    failures: List[str] = []
    checked = 0
    by_len: Dict[int, List[Partition]] = {}
    for p in partitions_up_to(max_len, max_part):
        by_len.setdefault(len(p), []).append(p)
    for _, group in sorted(by_len.items()):
        for lam in group:
            for mu in group:
                rep = verify_augmented_rule(lam, mu)
                checked += 1
                if not rep.passed:
                    failures.extend(rep.failures)
                rep = verify_monomial_rule(lam, mu)
                checked += 1
                if not rep.passed:
                    failures.extend(rep.failures)
    return CheckReport(
        name="prop41", passed=not failures, checked=checked, failures=failures
    )


def suite_subset_sum(max_len: int = 3, max_part: int = 3) -> CheckReport:
    """The variable-splitting identity on every pair up to the bounds."""
    _check_grid(
        "prop43",
        (
            # the rearrangement pairs, once per split of the variables
            pairs * CHECK_WORK + comb(m + n, m) * words * (m + n + 1)
            for m, n, pairs, words in _length_pairs(max_len, max_part)
        ),
    )
    failures: List[str] = []
    checked = 0
    parts = partitions_up_to(max_len, max_part)
    for lam in parts:
        for mu in parts:
            rep = verify_subset_sum_identity(lam, mu)
            checked += 1
            if not rep.passed:
                failures.extend(rep.failures)
    return CheckReport(
        name="prop43", passed=not failures, checked=checked, failures=failures
    )


def suite_grading(
    d_values: Sequence[int] = (1, 2, 3), max_len: int = 2, max_part: int = 2
) -> CheckReport:
    """Length and weight grading of every term of every grid product."""
    _check_grid(
        "grading",
        (
            pairs * _product_work(m, n, d)
            for d in d_values
            for m, n, pairs, _ in _length_pairs(max_len, max_part)
        ),
        d_values,
    )
    parts = partitions_up_to(max_len, max_part)
    failures: List[str] = []
    checked = 0
    for d in d_values:
        for mu in parts:
            for nu in parts:
                _graded_rows(mu, nu, d, failures)
                checked += 1
    return CheckReport(
        name="grading", passed=not failures, checked=checked, failures=failures
    )


SUITES = {
    "assoc": suite_assoc,
    "iso": suite_iso,
    "quasi": suite_quasi,
    "graphs": suite_graphs,
    "lemma31": suite_kernel_identity,
    "prop41": suite_augmented_rule,
    "prop43": suite_subset_sum,
    "grading": suite_grading,
}
