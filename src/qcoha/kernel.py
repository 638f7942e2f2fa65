"""The kernel polynomial of the product and its monomial coefficient table.

For block sizes (m, n) and loop count d the kernel is the product of
``(x_s - q * x_t) ** (d - 1)`` over every pair with t in the first block of m
variables and s in the second block of n variables.  An optional shift places
the two blocks after ``shift`` unused leading variables (``g --shift``).

The structure-constant table folds the factors into integer arrays: one row
of exponents per monomial and its signed integer weight.  The fold runs on
packed 1-D keys under one certified ``RowLayout``, since a factor adds the
same key offset to every row, and the exponents are unpacked once, at the
end, into the narrowest integer dtype that holds them.  Every coefficient
of the kernel is a signed q-monomial ``N(a, b) * (-q)**|a|``, whose power is
the row sum of the first-block exponents, so integers carry the whole table,
and ``coefficient_bound`` sizes them here and in ``partition_algebra``.  The
symmetry check and ``g --table`` read the arrays.  A basis product reads
them merged over the runs of equal parts of its factors (``merged_table``, a
bounded cache keyed by the run lengths): rows that differ by a permutation
within a run re-key to one key at one power, so each run's columns are
sorted within every row and the rows are grouped on the table's own layout,
into narrow arrays.  At the ``verify assoc`` defaults that halves the rows
the builds re-key.
``pairwise_kernel`` expands the same factors into an ``MPoly`` instead,
multiplying one factor at a time.  The factorization identity multiplies
those expansions, and the convolution identity runs the same product on the
four tables lifted into ``MPoly``, so they check the fold and the merge
apart from the table code; what they share with it is the packed row
format of ``packed``, checked against a dict on its own by
``tests/test_packed.py``.  Both expansions collect like monomials after
every factor, which never leaves more than the stored terms times the
factor's, and a configurable cap on that product, checked before each
factor, raises ResourceLimitError.  ``check_kernel_size`` refuses a kernel
that cannot fit the cap before anything of its size is built.

Integer rows are packed, grouped and unpacked by ``packed``: a certified
``RowLayout`` gives each row one 1-D sort key and unpacks keys into rows of
its ``row_dtype``, the narrowest integer dtype its bounds allow, so no
caller picks one.  The table fold, the merge, the basis products and the
bilinear core of ``partition_algebra`` group on keys (``group_keys``) and
keep only the surviving keys; ``verify_symmetry`` groups whole rows
(``group_rows``).  The orientation sum (``bipartite``), the shuffle
oracle's ``_key_major`` split and the brute force in ``perfbench/checks.py``
share none of it.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError
from .mpoly import MPoly, embed, multiply
from .packed import RowLayout, group_keys, group_rows, narrowest_dtype, pack_rows
from .partitions import multiplicity
from .qlaurent import DEFAULT_TERM_CAP, ONE, QLaurent, Rational, as_rational
from .reports import CheckReport

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class KernelSpec:
    """Block sizes, loop count, and optional leading shift."""

    m: int
    n: int
    d: int
    shift: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("block sizes must be at least 1")
        check_loop_count(self.d)
        if self.shift < 0:
            raise ValueError("shift must be non-negative")

    @property
    def arity(self) -> int:
        return self.shift + self.m + self.n


def check_loop_count(d: int) -> None:
    if d < 1:
        raise ValueError("the loop count d must be at least 1")


def check_term_cap(term_cap: int) -> None:
    # a negative cap is malformed input, not a limit that every d would hit
    if term_cap < 0:
        raise ValueError("term cap must be non-negative, got %d" % term_cap)


def _check_projected(rows: int, width: int, term_cap: int) -> None:
    # before a factor of ``width`` terms is folded into ``rows`` stored terms
    if rows * width > term_cap:
        raise ResourceLimitError(
            "projected term count %d exceeds cap %d" % (rows * width, term_cap)
        )


def check_kernel_size(spec: KernelSpec, term_cap: int) -> None:
    """Refuse a kernel too large for ``term_cap`` before anything of its
    size is built: its pairs, its rows, its coefficient bound or its layout.

    While the leading factors, in ``block_pairs`` order, form a forest, no
    two of their terms share a monomial (a leaf's exponent gives its edge's
    term), so a fold stages exactly d**j rows after j of them; those are
    checked as the fold checks them, with its message.  They are the first
    m + 1 factors, or all of them when m or n is 1.  Past them, terms of one
    power of q never cancel (``coefficient_bound``), so the kernel has at
    least (d-1)*m*n + 1 terms, one per power, and each of its rows holds
    ``spec.arity`` cells; either past the cap is refused.  At d = 1 nothing
    is folded and the cap has never applied, so the kernel's one row is
    refused only past the larger of the cap and DEFAULT_TERM_CAP.
    """
    check_term_cap(term_cap)
    m, n, d = spec.m, spec.n, spec.d
    limit = term_cap
    if d > 1:
        rows = 1
        # ends within log_d(term_cap) + 1 steps, however many factors
        for _ in range(m * n if min(m, n) == 1 else m + 1):
            _check_projected(rows, d, term_cap)
            rows *= d
        _check_projected(1, (d - 1) * m * n + 1, term_cap)
    else:
        limit = max(term_cap, DEFAULT_TERM_CAP)
    if spec.arity > limit:
        raise ResourceLimitError("kernel arity %d exceeds cap %d" % (spec.arity, limit))


def _check_pair(arity: int, s: int, t: int) -> None:
    if not (0 <= s < arity and 0 <= t < arity) or s == t:
        raise ValueError("bad variable pair (%d, %d)" % (s, t))


def pairwise_kernel(
    arity: int,
    pairs: Sequence[Tuple[int, int]],
    d: int,
    q_value: Optional[Rational] = None,
    term_cap: int = DEFAULT_TERM_CAP,
) -> MPoly:
    """Expand the product of (x_s - q * x_t)**(d-1) over (s, t) pairs.

    The factors are multiplied in one at a time as polynomials on integer
    rows, and the term cap is checked before each one.
    ``q_value`` substitutes a rational constant for q in every factor, which
    is how the q = 1 and q = 0 degenerations are built independently of the
    generic expansion; the cap then counts the substituted terms.
    """
    check_loop_count(d)
    check_term_cap(term_cap)
    exp = d - 1
    acc = MPoly.constant(arity, ONE)
    if exp == 0 or not pairs:
        return acc
    # the first factor is checked before any coefficient is built, so a huge
    # d is refused at once, and a bad first pair still before it
    _check_pair(arity, *pairs[0])
    _check_projected(1, exp + 1, term_cap)
    # one factor: sum_i binom(exp, i) * (-q)**i * x_t**i * x_s**(exp - i)
    if q_value is None:
        factor_coeffs = [
            QLaurent.term(-comb(exp, i) if i & 1 else comb(exp, i), i)
            for i in range(exp + 1)
        ]
    else:
        qv = as_rational(q_value)
        factor_coeffs = [
            QLaurent.const(comb(exp, i) * (-qv) ** i) for i in range(exp + 1)
        ]
    for s, t in pairs:
        _check_pair(arity, s, t)
        _check_projected(len(acc), exp + 1, term_cap)
        factor = {}
        for i, coeff in enumerate(factor_coeffs):
            e = [0] * arity
            e[t], e[s] = i, exp - i
            factor[tuple(e)] = coeff
        acc = multiply(acc, MPoly(arity, factor))
    return acc


def block_pairs(spec: KernelSpec) -> List[Tuple[int, int]]:
    """(second-block, first-block) variable index pairs for a kernel spec."""
    lo = range(spec.shift, spec.shift + spec.m)
    hi = range(spec.shift + spec.m, spec.arity)
    return [(s, t) for s in hi for t in lo]


def kernel_polynomial(
    spec: KernelSpec,
    term_cap: int = DEFAULT_TERM_CAP,
    q_value: Optional[Rational] = None,
) -> MPoly:
    """The expanded kernel for a spec, homogeneous of degree (d-1)*m*n."""
    return pairwise_kernel(spec.arity, block_pairs(spec), spec.d, q_value, term_cap)


def coefficient_bound(e: int) -> int:
    """The largest |coefficient| of a kernel with ``e`` linear factors.

    A kernel with m*n pairs and loop count d is the product of
    e = (d-1)*m*n linear factors ``x_s - q * x_t``.  Each monomial of the
    expansion picks one term from every factor, and a pick with p factors
    of ``-q * x_t`` carries ``(-q)**p``.  So every weight of power p has the
    sign ``(-1)**p``, terms of one power never cancel, and setting every
    variable to 1 leaves ``(1 - q)**e``: the |weights| of power p sum to
    ``binom(e, p)``.  Any sum of weights that share one power, a weight
    itself or the coefficient of a basis product that merges several, is
    therefore at most ``binom(e, p) <= binom(e, e // 2)`` in absolute value.
    The bound grows with e, so it also covers every partial fold of fewer
    factors.
    """
    return comb(e, e // 2)


@dataclass(frozen=True, eq=False)
class StructureConstantTable:
    """The kernel's monomials as integer arrays, split at the first block.

    Row r of ``exps`` is the exponent vector (a, b) of one monomial, first
    block in the first m columns; its coefficient is ``weights[r] *
    q**powers[r]``, where the power is the row sum of a and the weight is the
    signed integer ``N(a, b) * (-1)**|a|``, never zero.  Rows are distinct and
    in lexicographic order, which is the (a, b) order since every a has
    length m.  ``exps`` takes the narrowest integer dtype that holds
    (d-1)*max(m, n), the largest exponent (int8 up to 127), and readers widen
    it before arithmetic that could leave it; ``powers`` is int64.
    ``weights`` is int64 when ``coefficient_bound((d-1)*m*n)``
    fits it, and dtype=object otherwise.  ``staged`` holds the row count
    after each folded factor, so a cap can be checked against a cached table
    exactly as a cold build would check it.
    """

    spec: KernelSpec
    exps: np.ndarray
    weights: np.ndarray
    staged: Tuple[int, ...]

    @cached_property
    def powers(self) -> np.ndarray:
        """The power of q of each row: the sum of its first-block exponents."""
        return self.exps[:, : self.spec.m].sum(axis=1, dtype=np.int64)

    def check_cap(self, term_cap: int) -> None:
        """Raise the ResourceLimitError a cold build under ``term_cap`` raises."""
        for before in self.staged[:-1]:
            _check_projected(before, self.spec.d, term_cap)

    def __len__(self):
        return len(self.weights)


def _table_layout(m: int, n: int, exp: int) -> RowLayout:
    """The layout of a table's exponent rows: every low is 0, a first-block
    column lies within exp*n and a second-block column within exp*m."""
    return RowLayout([0] * (m + n), [exp * n] * m + [exp * m] * n)


def structure_constants(
    spec: KernelSpec, term_cap: int = DEFAULT_TERM_CAP
) -> StructureConstantTable:
    """Fold the kernel's m*n factors (x_s - q*x_t)**(d-1) into integer arrays.

    Each factor turns a row into d rows, ``binom(d-1, i) * (-1)**i`` times the
    row with i added to x_t and d-1-i to x_s, and the rows are then grouped.
    A staged weight and every partial sum of its group share one sign and
    stay within the group's sum, so ``coefficient_bound`` certifies them all.

    The rows are folded as packed keys under one ``RowLayout``, so nothing
    2-D is staged: every low is 0, and in every partial fold a first-block
    column stays within (d-1)*n and a second-block column within (d-1)*m.
    Packing is linear, so the row with i added to x_t and d-1-i to x_s has
    the key plus ``(i << shift_t) + ((d-1-i) << shift_s)``, and each factor
    stages d such copies of the keys for one ``group_keys``.  The keys are
    int64, or Python ints past 63 bits, and are unpacked once, at the end,
    in the layout's row dtype: the narrowest integer dtype that holds the
    largest exponent (d-1)*max(m, n).
    """
    if spec.shift != 0:
        raise ValueError("structure constants require an unshifted kernel")
    check_term_cap(term_cap)
    m, n, exp = spec.m, spec.n, spec.d - 1
    if exp:
        # the first factor's check, before the coefficient bound and the
        # layout, whose sizes grow with d and with m + n
        _check_projected(1, exp + 1, term_cap)
    dtype = np.int64 if coefficient_bound(exp * m * n) <= _INT64_MAX else object
    layout = _table_layout(m, n, exp)
    keys = np.zeros(1, dtype=layout.dtype)
    weights = np.ones(1, dtype=dtype)
    staged = [1]
    if exp:
        steps = np.arange(exp + 1, dtype=layout.dtype)
        factor = np.array(
            [-comb(exp, i) if i & 1 else comb(exp, i) for i in range(exp + 1)],
            dtype=dtype,
        )
        for s, t in block_pairs(spec):
            _check_projected(len(weights), exp + 1, term_cap)
            moves = (steps << layout.shifts[t]) + ((exp - steps) << layout.shifts[s])
            keys = (keys[:, None] + moves).ravel()
            weights = (weights[:, None] * factor).ravel()
            index, weights = group_keys(keys, weights)
            keys = keys[index]
            staged.append(len(weights))
    # row-major: a basis build sorts copies of the rows within each row
    exps = np.ascontiguousarray(layout.unpack(keys))
    return StructureConstantTable(spec, exps, weights, tuple(staged))


# twice the 50 tables ``verify assoc`` builds at its defaults, its largest
# working set, so a long batch stays bounded without evicting a suite's tables
TABLE_CACHE_SIZE = 128
_TABLE_CACHE: Dict[Tuple[int, int, int], StructureConstantTable] = {}


def structure_table(
    m: int, n: int, d: int, term_cap: int = DEFAULT_TERM_CAP
) -> StructureConstantTable:
    """Memoized table per (m, n, d), least recently used first out.

    The cache is idempotent: a race at worst recomputes the same value, and
    entries are never mutated after construction.  The cap is checked on
    every call, against the staged row counts of a cached table, so whether
    the table was cached (or evicted) never changes which requests fail.
    """
    check_term_cap(term_cap)
    key = (m, n, d)
    hit = _TABLE_CACHE.get(key)
    if hit is None:
        hit = structure_constants(KernelSpec(m=m, n=n, d=d), term_cap)
    else:
        hit.check_cap(term_cap)
        del _TABLE_CACHE[key]
    # a dict keeps insertion order: re-inserted, the key is the most recently
    # used, and the first key is the least
    _TABLE_CACHE[key] = hit
    while len(_TABLE_CACHE) > TABLE_CACHE_SIZE:
        del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    return hit


# about three times the 348 run patterns ``verify assoc`` meets at its
# defaults, whose merged tables hold 0.9 MB of arrays
MERGED_CACHE_SIZE = 1024


@lru_cache(maxsize=MERGED_CACHE_SIZE)
def merged_table(m: int, n: int, d: int, runs: Tuple[int, ...]):
    """The (m, n, d) table with its rows merged over runs of equal parts.

    ``runs`` are the lengths of the runs of equal parts of a basis product's
    first factor, then those of its second, and cover the m + n columns in
    order.  The product re-keys a row (a, b) by the sorted (mu + a, nu + b),
    so two rows that differ by a permutation within runs give the same key
    and, since a run never crosses the first block, the same power.  Each
    run's columns are sorted within every row, and the rows are grouped on
    the table's packed layout: the weights of a group share the sign of
    their power, so a merged weight lies within ``coefficient_bound``.
    This rule reads only equal parts, never the table's symmetry, so
    ``verify_symmetry`` stays independent of it.

    Returns (exps, powers, weights): distinct rows in lexicographic order,
    the exponents in the table's dtype, the powers in the narrowest dtype
    of [0, (d-1)*m*n] and the weights in the narrowest within
    +-``coefficient_bound((d-1)*m*n)``, never the table's own.  A build
    with every run of length 1 has nothing to merge and reads the table
    instead.  Callers check their own term cap first and must not mutate
    the returned arrays.
    """
    table = structure_table(m, n, d, sys.maxsize)
    exps = table.exps.copy()
    for stop, run in zip(accumulate(runs), runs):
        if run > 1:
            exps[:, stop - run : stop].sort(axis=1)
    keys = pack_rows(_table_layout(m, n, d - 1), exps)
    index, weights = group_keys(keys, table.weights)
    e = (d - 1) * m * n
    bound = coefficient_bound(e)
    return (
        exps[index],
        table.powers[index].astype(narrowest_dtype(0, e)),
        weights.astype(narrowest_dtype(-bound, bound)),
    )


def verify_symmetry(table: StructureConstantTable) -> CheckReport:
    """Check invariance under permuting within each block.

    Every monomial whose block parts are a rearrangement of another's must
    carry the same coefficient, and all rearrangements must be present.  On
    the arrays: sorting each block of a row gives its orbit, and each orbit
    must hold m!/multiplicity(a) * n!/multiplicity(b) rows and one weight
    (the power, the row sum of a, is the same across an orbit).  Only a
    failing orbit is looked up row by row, to word the failure.
    """
    m, n = table.spec.m, table.spec.n
    exps = table.exps
    orbits = np.concatenate([np.sort(exps[:, :m], axis=1), np.sort(exps[:, m:], axis=1)], axis=1)
    ones = np.ones(len(exps), dtype=np.int64)
    keys, sizes, _ = group_rows(orbits, ones)
    # the distinct weights of each orbit: its distinct (orbit, weight) rows
    pairs, _, _ = group_rows(np.column_stack([orbits, table.weights]), ones)
    _, weight_counts, _ = group_rows(pairs[:, :-1], ones[: len(pairs)])
    split = lambda row: (tuple(row[:m]), tuple(row[m:]))
    failures: List[str] = []
    for key, size, count in zip(keys.tolist(), sizes.tolist(), weight_counts.tolist()):
        ka, kb = split(key)
        expected = factorial(m) // multiplicity(ka) * (factorial(n) // multiplicity(kb))
        if size != expected:
            failures.append(
                "orbit of a=%r b=%r has %d of %d rearrangements" % (ka, kb, size, expected)
            )
        elif count > 1:
            # the orbit's rows in stored order: the first that differs from the first
            rows = np.flatnonzero((orbits == key).all(axis=1))
            weights = table.weights[rows]
            differs = rows[np.flatnonzero(weights != weights[0])[0]]
            failures.append(
                "coefficient at a=%r b=%r differs from a=%r b=%r"
                % (split(exps[differs].tolist()) + split(exps[rows[0]].tolist()))
            )
    return CheckReport(
        name="kernel-symmetry m=%d n=%d d=%d" % (m, n, table.spec.d),
        passed=not failures,
        checked=len(exps),
        failures=failures,
    )


def _factorization_sides(kernel, l: int, m: int, n: int) -> Tuple[MPoly, MPoly]:
    """Both sides of ``K_lm * K_{l+m,n} == K_{l,m+n} * K_mn`` for blocks (l, m, n).

    ``kernel(rows, cols)`` is that K on its own blocks' variables; K_lm is
    placed on the first l+m of the l+m+n variables and K_mn on the last m+n.
    """
    lm, lmn, l_mn, mn = (kernel(*shape) for shape in ((l, m), (l + m, n), (l, m + n), (m, n)))
    arity = l + m + n
    return embed(lm, arity, range(l + m)) * lmn, l_mn * embed(mn, arity, range(l, arity))


def _as_mpoly(table: StructureConstantTable) -> MPoly:
    """The table as a polynomial on its m+n variables.

    ``MPoly.from_rows`` sizes the weights by their own sum of |weights|,
    which passes int64 before any weight does.
    """
    rows = np.column_stack([table.exps, table.powers])
    return MPoly.from_rows(table.spec.m + table.spec.n, rows, table.weights)


def _convolution_check(
    l: int, m: int, n: int, d: int, term_cap: int
) -> Tuple[int, List[str]]:
    """Distinct (a, b, c) over both convolution sides, and the first mismatch.

    The four tables are lifted into ``MPoly`` and multiplied as in the
    factorization identity: the coefficient of x**(a, b, c) on either side
    is that side of the convolution identity.
    """
    left, right = _factorization_sides(
        lambda rows, cols: _as_mpoly(structure_table(rows, cols, d, term_cap)), l, m, n
    )
    if left == right:
        return len(left), []
    # grouped rows are canonical: unequal sides differ at some (a, b, c)
    left, right = left.terms, right.terms
    keys = sorted(set(left) | set(right))
    key = next(k for k in keys if left.get(k) != right.get(k))
    split = key[:l], key[l : l + m], key[l + m :]
    return len(keys), [
        "convolution mismatch at (a,b,c)=%r: %r vs %r" % (split, left.get(key), right.get(key))
    ]


def verify_coefficient_identity(
    l: int, m: int, n: int, d: int, term_cap: int = DEFAULT_TERM_CAP
) -> CheckReport:
    """Two independent consistency checks for three blocks of sizes (l, m, n).

    First, the convolution identity between the four coefficient tables: for
    every split exponent (a, b, c),
      sum over a1+a2=a, b1+b2=b of C[l,m](a1,b1) * C[l+m,n]((a2,b2),c)
      == sum over b1+b2=b, c1+c2=c of C[l,m+n](a,(b2,c2)) * C[m,n](b1,c1).
    Both sides are the coefficients of the product below, run on the four
    tables lifted into ``MPoly``, which certifies each product's weights
    from the actual sums of its factors' |weights|.  Second, the underlying
    polynomial identity: the (l,m) kernel times the (l+m,n) kernel equals
    the (l,m+n) kernel times the (m,n) kernel shifted past the first l
    variables; it is expanded from the factors themselves and never reads
    the tables.  ``checked`` counts the distinct (a, b, c) on either side,
    plus one for the polynomial identity.
    """
    checked, failures = _convolution_check(l, m, n, d, term_cap)
    left_poly, right_poly = _factorization_sides(
        lambda rows, cols: kernel_polynomial(KernelSpec(rows, cols, d), term_cap), l, m, n
    )
    checked += 1
    if left_poly != right_poly:
        failures.append("kernel factorization identity fails as polynomials")

    return CheckReport(
        name="coefficient-identity l=%d m=%d n=%d d=%d" % (l, m, n, d),
        passed=not failures,
        checked=checked,
        failures=failures,
    )
