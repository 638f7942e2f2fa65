"""The kernel polynomial of the product and its monomial coefficient table.

For block sizes (m, n) and loop count d the kernel is the product of
``(x_s - q * x_t) ** (d - 1)`` over every pair with t in the first block of m
variables and s in the second block of n variables.  An optional shift places
the two blocks after ``shift`` unused leading variables, which is how the
factorization identity for three blocks is expressed.

The structure-constant table folds the factors into integer arrays: one row
of exponents per monomial and its signed integer weight.  Every coefficient
of the kernel is a signed q-monomial ``N(a, b) * (-q)**|a|``, whose power is
the row sum of the first-block exponents, so integers carry the whole table,
and every reader (the basis products, the convolution identity, the symmetry
check and ``g --table``) reads the arrays; the table has no QLaurent view.
``pairwise_kernel`` expands the same factors into an ``MPoly`` instead,
multiplying one factor at a time with the polynomial module's own row
grouping; it stays where the polynomial itself is under test (the
factorization identity, the shuffle oracle and the q-substituted builds), so
those checks share no grouping code with the tables they check.  Both
expansions collect like monomials after every factor, which never leaves more
than the stored terms times the factor's, and a configurable cap on that
product, checked before each factor, raises ResourceLimitError.

Integer rows group in one place: ``RowLayout`` packs each row within
certified column bounds into one 1-D sort key, ``pack_rows`` stages blocks
of rows as keys (one copy per power shift), and ``group_keys`` sums weights
over equal keys.  ``group_rows`` is that core on a matrix, returning the
first row of each group; the basis products and the bilinear core of
``partition_algebra`` run the same core and unpack only the surviving keys.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import comb, factorial
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError
from .mpoly import Exponent, MPoly, embed, multiply
from .partitions import multiplicity
from .qlaurent import ONE, QLaurent, Rational, as_rational
from .reports import CheckReport

DEFAULT_TERM_CAP = 5_000_000
_INT64_MIN = int(np.iinfo(np.int64).min)
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


class RowLayout:
    """The packed sort key of integer rows whose columns lie within bounds.

    ``lows`` and ``spans`` are two lists of Python ints, one entry per
    column: every entry of column c lies in [lows[c], lows[c] + spans[c]].
    Each column, less its low, takes the bits its span needs, first column
    highest, and a column of span 0 takes none, so the key of a row is the
    row times ``scale`` less ``base``, and it orders rows lexicographically.
    The key is int64 when those bits fit in 63 and every low fits in int64,
    and a Python int (dtype=object) otherwise.  An int64 key is packed on
    uint64 words: a partial sum may wrap modulo 2**64, the key itself is
    below 2**63 and exact.  A bound that is too narrow makes fields overlap
    and merges distinct rows, so pass only bounds that are proven.
    """

    def __init__(self, lows: List[int], spans: List[int]):
        self.lows = lows
        self.spans = spans
        self.widths = [span.bit_length() for span in spans]
        self.shifts = list(accumulate(self.widths[:0:-1], initial=0))[::-1]
        bits = self.shifts[0] + self.widths[0]
        fits = bits <= 63 and _INT64_MIN <= min(lows) and max(lows) <= _INT64_MAX
        self.dtype = np.int64 if fits else object
        scale = [1 << shift if width else 0 for shift, width in zip(self.shifts, self.widths)]
        self.base = sum(map(mul, lows, scale))
        self.step = scale[-1]
        self.scale = np.array(scale, dtype=np.uint64 if fits else object)
        self._fields = None

    def words(self, values: np.ndarray) -> np.ndarray:
        """Integers as the key's words: uint64 modulo 2**64, or Python ints."""
        if self.dtype is object:
            return values.astype(object, copy=False)
        if values.dtype == object:
            return (values % (1 << 64)).astype(np.uint64)
        if values.dtype == np.int64:
            return values.view(np.uint64)
        # a narrower integer is widened, not reinterpreted: a view would read
        # several of its entries as one word
        return values.astype(np.uint64)

    def unpack(self, keys: np.ndarray, dtype) -> np.ndarray:
        """The rows, of the given dtype, whose packed keys are ``keys``.

        The caller certifies that ``dtype`` holds every row; an integer dtype
        narrower than the key's is written straight from its fields.
        """
        if self._fields is None:
            masks = [(1 << width) - 1 for width in self.widths]
            self._fields = [np.array(a, dtype=self.dtype) for a in (self.shifts, masks, self.lows)]
        shifts, masks, lows = self._fields
        rows = keys[:, None] >> shifts
        rows &= masks
        if rows.dtype == dtype:
            rows += lows
            return rows
        if dtype != object and rows.dtype != object:
            return np.add(rows, lows, out=np.empty(rows.shape, dtype), casting="unsafe")
        # rows past int64 are summed as Python ints
        return (rows.astype(object) + lows.astype(object)).astype(dtype, copy=False)


def pack_rows(layout: RowLayout, blocks) -> np.ndarray:
    """Stage blocks of rows as packed keys, concatenated in order.

    A block (parts, powers, shifts) holds the rows whose last column is
    ``powers`` and whose other columns are ``parts``; with ``powers`` None,
    ``parts`` holds the whole rows.  Each block is packed once, and each s
    in ``shifts`` stages one copy of its keys: those of its rows with s
    added to every power.  Every staged row must lie within the layout's
    bounds.
    """
    scale, step, base = layout.scale, layout.step, layout.base
    fixed = layout.dtype is not object
    keys = []
    for parts, powers, shifts in blocks:
        if powers is None:
            core = layout.words(parts) @ scale
        else:
            core = layout.words(parts) @ scale[:-1] + layout.words(powers) * scale[-1]
        for s in shifts:
            offset = s * step - base
            keys.append(core + (np.uint64(offset % (1 << 64)) if fixed else offset))
    keys = np.concatenate(keys) if len(keys) > 1 else keys[0]
    return keys.view(np.int64) if fixed else keys


def group_keys(keys: np.ndarray, weights: np.ndarray):
    """Sum ``weights`` over equal packed keys.

    Returns the index in ``keys`` of the first of each distinct key, in
    increasing key order, with its sum, and drops keys whose sum is zero.
    ``weights`` may be int64 or object; the caller certifies that int64
    sums cannot overflow.
    """
    order = keys.argsort()
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = first.nonzero()[0]
    sums = np.add.reduceat(weights[order], starts)
    keep = sums != 0
    return order[starts[keep]], sums[keep]


def group_rows(rows: np.ndarray, weights: np.ndarray, bounds=None):
    """Sum ``weights`` over equal rows of an integer matrix.

    Returns the distinct rows in lexicographic order with their sums, and
    drops rows whose sum is zero.  It is the packing core on whole rows:
    each row is packed into one 1-D key (``RowLayout``, ``pack_rows``), the
    keys are grouped (``group_keys``), and the first row of each group is
    returned, so rows of any length and size group exactly.
    ``bounds=(lows, spans)`` are the layout's column bounds, which saves the
    column reductions; without it the bounds are the column minima and
    ranges.
    """
    if not len(weights):
        return rows, weights
    if bounds is None:
        # one contiguous row per column: column reductions are several times
        # faster on it than along axis 0 of a tall matrix
        cols = np.array(rows.T)
        # spans in Python ints: an int64 column may range wider than int64
        lows = cols.min(axis=1).tolist()
        bounds = lows, [hi - lo for hi, lo in zip(cols.max(axis=1).tolist(), lows)]
    keys = pack_rows(RowLayout(*bounds), [(rows, None, (0,))])
    index, sums = group_keys(keys, weights)
    return rows[index], sums


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
        if not (0 <= s < arity and 0 <= t < arity) or s == t:
            raise ValueError("bad variable pair (%d, %d)" % (s, t))
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


@dataclass(frozen=True, eq=False)
class StructureConstantTable:
    """The kernel's monomials as integer arrays, split at the first block.

    Row r of ``exps`` is the exponent vector (a, b) of one monomial, first
    block in the first m columns; its coefficient is ``weights[r] *
    q**powers[r]``, where the power is the row sum of a and the weight is the
    signed integer ``N(a, b) * (-1)**|a|``, never zero.  Rows are distinct and
    in lexicographic order, which is the (a, b) order since every a has
    length m.  ``weights`` is int64 when ``2**((d-1)*m*n)``, the sum
    of all ``|weights|``, certifies it, and dtype=object otherwise.  ``staged``
    holds the row count after each folded factor, so a cap can be checked
    against a cached table exactly as a cold build would check it.
    """

    spec: KernelSpec
    exps: np.ndarray
    weights: np.ndarray
    staged: Tuple[int, ...]

    @cached_property
    def powers(self) -> np.ndarray:
        """The power of q of each row: the sum of its first-block exponents."""
        return self.exps[:, : self.spec.m].sum(axis=1)

    def check_cap(self, term_cap: int) -> None:
        """Raise the ResourceLimitError a cold build under ``term_cap`` raises."""
        for before in self.staged[:-1]:
            _check_projected(before, self.spec.d, term_cap)

    def __len__(self):
        return len(self.weights)


def structure_constants(
    spec: KernelSpec, term_cap: int = DEFAULT_TERM_CAP
) -> StructureConstantTable:
    """Fold the kernel's m*n factors (x_s - q*x_t)**(d-1) into integer arrays.

    Each factor turns a row into d rows, ``binom(d-1, i) * (-1)**i`` times the
    row with i added to x_t and d-1-i to x_s, and the rows are then grouped.
    """
    if spec.shift != 0:
        raise ValueError("structure constants require an unshifted kernel")
    check_term_cap(term_cap)
    m, n, exp = spec.m, spec.n, spec.d - 1
    dtype = np.int64 if exp * m * n < 63 else object
    exps = np.zeros((1, m + n), dtype=np.int64)
    weights = np.ones(1, dtype=dtype)
    staged = [1]
    if exp:
        steps = np.arange(exp + 1)
        factor = np.array(
            [-comb(exp, i) if i & 1 else comb(exp, i) for i in range(exp + 1)],
            dtype=dtype,
        )
        for s, t in block_pairs(spec):
            rows = len(weights)
            _check_projected(rows, exp + 1, term_cap)
            exps = np.repeat(exps, exp + 1, axis=0)
            exps[:, t] += np.tile(steps, rows)
            exps[:, s] += np.tile(exp - steps, rows)
            weights = (weights[:, None] * factor).ravel()
            exps, weights = group_rows(exps, weights)
            staged.append(len(weights))
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
    keys, sizes = group_rows(orbits, ones)
    # the distinct weights of each orbit: its distinct (orbit, weight) rows
    pairs, _ = group_rows(np.column_stack([orbits, table.weights]), ones)
    _, weight_counts = group_rows(pairs[:, :-1], ones[: len(pairs)])
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


# rows of one table-pair convolution staged and grouped at a time
STAGE_ROWS = 1 << 16


def _padded(table: StructureConstantTable, offset: int, width: int, dtype):
    """The table's rows placed at column ``offset`` of ``width``, power last."""
    m, n = table.spec.m, table.spec.n
    rows = np.zeros((len(table), width + 1), dtype=np.int64)
    rows[:, offset : offset + m + n] = table.exps
    rows[:, width] = table.powers
    return rows, table.weights.astype(dtype)


def _convolve(first, second):
    """Group the sums of every row of ``first`` with every row of ``second``.

    Each operand is (rows, weights); a sum's weight is the product of its
    two weights.  The cartesian sums are staged about STAGE_ROWS at a time,
    grouped, and the groups regrouped once at the end.
    """
    (rows_a, w_a), (rows_b, w_b) = sorted((first, second), key=lambda t: len(t[1]))
    step_b = min(len(w_b), STAGE_ROWS)
    step_a = max(1, STAGE_ROWS // step_b)
    width = rows_a.shape[1]
    rows, weights = [], []
    for i in range(0, len(w_a), step_a):
        for j in range(0, len(w_b), step_b):
            block_a, block_b = slice(i, i + step_a), slice(j, j + step_b)
            r, w = group_rows(
                (rows_a[block_a, None] + rows_b[None, block_b]).reshape(-1, width),
                (w_a[block_a, None] * w_b[None, block_b]).ravel(),
            )
            rows.append(r)
            weights.append(w)
    return group_rows(np.concatenate(rows), np.concatenate(weights))


def _as_laurent_dict(rows: np.ndarray, weights: np.ndarray, l: int, m: int):
    """Grouped (a, b, c, power) rows as {(a, b, c): QLaurent}."""
    terms: Dict[Tuple[Exponent, Exponent, Exponent], Dict[int, int]] = {}
    for row, w in zip(rows.tolist(), weights.tolist()):
        key = (tuple(row[:l]), tuple(row[l : l + m]), tuple(row[l + m : -1]))
        terms.setdefault(key, {})[row[-1]] = w
    return {key: QLaurent.from_dict(t) for key, t in terms.items()}


def _convolution_check(
    l: int, m: int, n: int, d: int, term_cap: int
) -> Tuple[int, List[str]]:
    """Distinct (a, b, c) over both convolution sides, and the first mismatch.

    Each table is padded to l+m+n exponent columns at its block offset plus
    a q-power column, and the rows of each side's cartesian product are
    summed and grouped.  Either side's sum of |weight| products is
    2**((d-1)*(lm+ln+mn)), so the weights are int64 when that is below 2**63
    and Python ints otherwise.
    """
    t_lm, t_lmn, t_l_mn, t_mn = (
        structure_table(rows, cols, d, term_cap)
        for rows, cols in ((l, m), (l + m, n), (l, m + n), (m, n))
    )
    width = l + m + n
    dtype = np.int64 if (d - 1) * (l * m + l * n + m * n) < 63 else object
    lhs = _convolve(_padded(t_lm, 0, width, dtype), _padded(t_lmn, 0, width, dtype))
    rhs = _convolve(_padded(t_l_mn, 0, width, dtype), _padded(t_mn, l, width, dtype))
    # distinct (a, b, c) over both sides: the rows less their power column
    keys, _ = group_rows(
        np.concatenate([lhs[0], rhs[0]])[:, :width],
        np.ones(len(lhs[1]) + len(rhs[1]), dtype=np.int64),
    )
    failures: List[str] = []
    if not (np.array_equal(lhs[0], rhs[0]) and np.array_equal(lhs[1], rhs[1])):
        left = _as_laurent_dict(*lhs, l, m)
        right = _as_laurent_dict(*rhs, l, m)
        for key in sorted(set(left) | set(right)):
            if left.get(key) != right.get(key):
                failures.append(
                    "convolution mismatch at (a,b,c)=%r: %r vs %r"
                    % (key, left.get(key), right.get(key))
                )
                break
    return len(keys), failures


def verify_coefficient_identity(
    l: int, m: int, n: int, d: int, term_cap: int = DEFAULT_TERM_CAP
) -> CheckReport:
    """Two independent consistency checks for three blocks of sizes (l, m, n).

    First, the convolution identity between the four coefficient tables: for
    every split exponent (a, b, c),
      sum over a1+a2=a, b1+b2=b of C[l,m](a1,b1) * C[l+m,n]((a2,b2),c)
      == sum over b1+b2=b, c1+c2=c of C[l,m+n](a,(b2,c2)) * C[m,n](b1,c1).
    Both sides are computed on the tables' integer arrays, staged about
    STAGE_ROWS rows at a time.  Second, the underlying polynomial identity:
    the (l,m) kernel times the (l+m,n) kernel equals the (l,m+n) kernel times
    the (m,n) kernel shifted past the first l variables; it is expanded from
    the factors themselves and never reads the tables.  ``checked`` counts
    the distinct (a, b, c) on either side, plus one for the polynomial
    identity.
    """
    checked, failures = _convolution_check(l, m, n, d, term_cap)
    left_poly = embed(
        kernel_polynomial(KernelSpec(l, m, d), term_cap), l + m + n, range(l + m)
    ) * kernel_polynomial(KernelSpec(l + m, n, d), term_cap)
    right_poly = kernel_polynomial(KernelSpec(l, m + n, d), term_cap) * kernel_polynomial(
        KernelSpec(m, n, d, shift=l), term_cap
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
