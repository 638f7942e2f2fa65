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

Each suite describes its grid once, in three pieces: a lazy stream of
cases, the predicted work of one case, and the checks, which walk a stream
of cases and yield the failures of each check they run.  ``_run`` does the
rest.  Before any check it sums the work of every case in the stream and
raises ResourceLimitError once the sum passes GRID_WORK_LIMIT (see
``_check_grid``); then it walks the same stream again through the checks
and reports.  So the prediction counts exactly the cases that are checked,
and a huge bound is refused after a bounded walk.  The rows an
associativity check stages are not known from its lengths, so that suite
also charges them to a budget of the same limit as it runs (see
``suite_assoc``).
"""
from __future__ import annotations

import random
from functools import partial
from itertools import chain, groupby, product, starmap
from math import comb
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

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
from .partitions import (
    Partition,
    distinct_permutation_count,
    iter_partitions,
    partitions_of_length,
)
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


def _check_grid(suite: str, work: Iterable[int], d_values: Sequence[int] = ()) -> None:
    """Raise ResourceLimitError, before any check runs, if a grid is too large.

    ``work`` yields the predicted work of a grid's cases, one case at a time,
    after any work the cases do not show: each check counts CHECK_WORK plus,
    for each term its polynomials or orientations stage, one unit per
    column.  Every case runs at least one check, so the running sum passes
    the limit after a bounded number of cases however large the bounds are.
    A loop count below 1 is reported first, as the checks themselves would.
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


def _run(
    suite: str,
    cases: Callable[[], Iterator[tuple]],
    work: Callable[..., int],
    checks: Callable[[Iterator[tuple]], Iterator[List[str]]],
    d_values: Sequence[int] = (),
    fixed: int = 0,
    grading: Sequence[str] = (),
    instances: Sequence[str] = (),
) -> CheckReport:
    """Predict a grid's work, refuse it or check it, and report.

    ``cases()`` starts a fresh walk of the grid's cases, tuples that
    ``work`` takes as its arguments.  ``fixed``, the work the stream does
    not show, and then the work of every case go to ``_check_grid``.
    ``checks`` walks the same stream and yields the failures of each check
    it runs; it adds grading failures to ``grading``, reported after every
    check failure, and notes to ``instances``.
    """
    _check_grid(suite, chain([fixed], starmap(work, cases())), d_values)
    failures: List[str] = []
    checked = 0
    for found in checks(cases()):
        failures.extend(found)
        checked += 1
    failures.extend(grading)
    return CheckReport(suite, not failures, checked, failures, list(instances))


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


def _words(mu: Partition, nu: Partition) -> int:
    """The pairs of a rearrangement of mu and one of nu."""
    return distinct_permutation_count(mu) * distinct_permutation_count(nu)


def _grid_pairs(max_len: int, max_part: int) -> Iterator[Tuple[Partition, Partition]]:
    """Every pair of grid partitions, lazily, in grid order."""
    walk = partial(iter_partitions, max_len, max_part)
    return ((mu, nu) for mu in walk() for nu in walk())


def _loop_pairs(d_values: Sequence[int], max_len: int, max_part: int):
    """Cases (d, mu, nu): every grid pair at each loop count, lazily."""
    return ((d, mu, nu) for d in d_values for mu, nu in _grid_pairs(max_len, max_part))


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

    def cases():
        # a pair's q = 0 check (w None), then its triples
        for d, mu, nu in _loop_pairs(d_values, max_len, max_part):
            yield d, mu, nu, None
            for w in iter_partitions(max_len, max_part):
                yield d, mu, nu, w

    def work(d, mu, nu, w) -> int:
        if w is None:
            return CHECK_WORK
        l, m, n = len(mu), len(nu), len(w)
        tables = _kernel_terms(l + m, n, d) + _kernel_terms(l, m + n, d)
        return CHECK_WORK + tables * (l + m + n + 1)

    grading: List[str] = []
    sampled: List[str] = []

    def checks(grid):
        budget = _WorkBudget("assoc")
        for d, mu, nu, w in grid:
            budget(CHECK_WORK)
            if w is not None:
                yield check_associativity(mu, nu, w, d, budget).failures
                continue
            keys, counts, powers, coeffs = _graded_rows(mu, nu, d, grading)
            firsts = counts.cumsum() - counts  # a power 0 comes first in its key
            zero = powers[firsts] == 0
            at_zero = dict(zip(map(tuple, keys[zero].tolist()), coeffs[firsts[zero]].tolist()))
            want = {shift_sort_product(mu, nu, d): 1}
            yield [] if at_zero == want else [
                "q=0 of %r * %r (d=%d) is %r, want %r" % (mu, nu, d, at_zero, want)
            ]
        rng = random.Random(seed)
        accepted = 0
        attempts = 0
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
            yield check_associativity(mu, nu, w, d, budget).failures

    fixed = random_triples * CHECK_WORK
    return _run("assoc", cases, work, checks, d_values, fixed, grading, sampled)


def suite_iso(
    d_values: Sequence[int] = (1, 2, 3), max_len: int = 2, max_part: int = 2
) -> CheckReport:
    """Image of every table product equals the brute-force shuffle product."""

    def work(d, mu, nu) -> int:
        m, n = len(mu), len(nu)
        # the shuffle stages every rearrangement pair with the kernel, once per split
        shuffled = comb(m + n, m) * _words(mu, nu) * _kernel_terms(m, n, d) * (m + n + 1)
        return _product_work(m, n, d) + shuffled

    grading: List[str] = []

    def checks(cases):
        for d, mu, nu in cases:
            _graded_rows(mu, nu, d, grading)
            yield verify_homomorphism(mu, nu, d).failures

    cases = partial(_loop_pairs, d_values, max_len, max_part)
    return _run("iso", cases, work, checks, d_values, grading=grading)


def suite_quasi(
    d_values: Sequence[int] = (1, 2, 3), max_len: int = 2, max_part: int = 2
) -> CheckReport:
    """Signed commutation on the grid, flagging where the unsigned form differs.

    The signed relation must hold everywhere; the unsigned one must fail on
    exactly the pairs whose exponent (d-1)|mu||nu| is odd, and every such
    pair is listed in the report's instances.
    """

    def work(d, mu, nu) -> int:
        # mu * nu and nu * mu
        return 2 * _product_work(len(mu), len(nu), d)

    grading: List[str] = []
    flagged: List[str] = []

    def checks(cases):
        for d, mu, nu in cases:
            rep = quasi_commutativity_report(mu, nu, d)
            _graded_rows(mu, nu, d, grading)
            found = []
            if not rep.signed_matches:
                found.append("signed relation fails for %r %r d=%d" % (mu, nu, d))
            # products are never zero, so at odd exponent the unsigned
            # and signed candidates cannot both match
            should_differ = rep.exponent % 2 == 1
            if rep.unsigned_matches and should_differ:
                found.append("unsigned form unexpectedly holds for %r %r d=%d" % (mu, nu, d))
            if not rep.unsigned_matches:
                if rep.exponent % 2 == 0:
                    found.append(
                        "unsigned form fails at even exponent for %r %r d=%d" % (mu, nu, d)
                    )
                flagged.append(
                    "unsigned differs: mu=%r nu=%r d=%d exponent=%d"
                    % (mu, nu, d, rep.exponent)
                )
            yield found

    cases = partial(_loop_pairs, d_values, max_len, max_part)
    return _run("quasi", cases, work, checks, d_values, grading=grading, instances=flagged)


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
    order.  The cases are the pairs, not the runs, so no run is built
    before its work has been counted.
    """
    boundary = BOUNDARY_GRAPH_PAIRS if boundary_pairs else ()
    grading: List[str] = []

    def checks(pairs):
        for _, run in groupby(pairs, key=lambda pair: (len(pair[0]), len(pair[1]))):
            run = list(run)
            for (mu, nu), report in zip(run, _graph_model_reports(run)):
                _graded_rows(mu, nu, 2, grading)
                yield report.failures

    def cases():
        return chain(_grid_pairs(max_len, max_part), boundary)

    def work(mu, nu) -> int:
        return _graph_work(len(mu), len(nu))

    return _run("graphs", cases, work, checks, grading=grading)


def suite_kernel_identity(
    block_range: Sequence[int] = (1, 2), d_values: Sequence[int] = (2, 3)
) -> CheckReport:
    """Structure-constant convolution identity over all small block triples."""

    def work(d, l, m, n) -> int:
        k = partial(_kernel_terms, d=d)
        # each side convolves two tables, once as arrays and once as polynomials
        tables = k(l, m) * k(l + m, n) + k(l, m + n) * k(m, n)
        return CHECK_WORK + 2 * tables * (l + m + n + 1)

    def checks(cases):
        for d, l, m, n in cases:
            rep = verify_coefficient_identity(l, m, n, d)
            yield [] if rep.passed else [
                "identity fails at l=%d m=%d n=%d d=%d" % (l, m, n, d)
            ] + rep.failures

    cases = partial(product, d_values, block_range, block_range, block_range)
    return _run("lemma31", cases, work, checks, d_values)


def suite_augmented_rule(max_len: int = 4, max_part: int = 3) -> CheckReport:
    """Both classical product rules against direct polynomial expansion.

    Covers the augmented-times-monomial rule and the rational monomial rule
    on every equal-length pair up to the bounds.
    """

    def cases():
        for n in range(max_len + 1):
            for lam in partitions_of_length(n, max_part):
                for mu in partitions_of_length(n, max_part):
                    yield lam, mu

    def work(lam, mu) -> int:
        n = len(lam)
        # two rules, each multiplying the rearrangements of both and reading
        # the product back through n - 1 transpositions
        return 2 * (CHECK_WORK + _words(lam, mu) * (n + 1) * n)

    def checks(cases):
        for lam, mu in cases:
            yield verify_augmented_rule(lam, mu).failures
            yield verify_monomial_rule(lam, mu).failures

    return _run("prop41", cases, work, checks)


def suite_subset_sum(max_len: int = 3, max_part: int = 3) -> CheckReport:
    """The variable-splitting identity on every pair up to the bounds."""

    def work(lam, mu) -> int:
        m, n = len(lam), len(mu)
        # the rearrangement pairs, once per split of the variables
        return CHECK_WORK + comb(m + n, m) * _words(lam, mu) * (m + n + 1)

    def checks(cases):
        for lam, mu in cases:
            yield verify_subset_sum_identity(lam, mu).failures

    return _run("prop43", partial(_grid_pairs, max_len, max_part), work, checks)


def suite_grading(
    d_values: Sequence[int] = (1, 2, 3), max_len: int = 2, max_part: int = 2
) -> CheckReport:
    """Length and weight grading of every term of every grid product."""

    def work(d, mu, nu) -> int:
        return _product_work(len(mu), len(nu), d)

    grading: List[str] = []

    def checks(cases):
        for d, mu, nu in cases:
            _graded_rows(mu, nu, d, grading)
            yield []

    cases = partial(_loop_pairs, d_values, max_len, max_part)
    return _run("grading", cases, work, checks, d_values, grading=grading)


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
