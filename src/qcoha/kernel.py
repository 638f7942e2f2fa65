"""The kernel polynomial of the product and its monomial coefficient table.

For block sizes (m, n) and loop count d the kernel is the product of
``(x_s - q * x_t) ** (d - 1)`` over every pair with t in the first block of m
variables and s in the second block of n variables.  An optional shift places
the two blocks after ``shift`` unused leading variables, which is how the
factorization identity for three blocks is expressed.

The structure-constant table folds the factors into integer arrays: one row
of exponents per monomial and its signed integer weight.  Every coefficient
of the kernel is a signed q-monomial ``N(a, b) * (-q)**|a|``, whose power is
the row sum of the first-block exponents, so integers carry the whole table.
``pairwise_kernel`` expands into a QLaurent term dict instead; it stays where
the polynomial itself is under test (the factorization identity, the shuffle
oracle and the q-substituted builds).  Both expansions collect like monomials
after every factor, and a configurable cap on the stored term count guards
against runaway sizes and raises ResourceLimitError.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError
from .mpoly import Exponent, MPoly, embed
from .partitions import distinct_permutations, sort_ascending
from .qlaurent import ONE, ZERO, QLaurent, Rational, as_rational
from .reports import CheckReport

DEFAULT_TERM_CAP = 5_000_000


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
        if self.d < 1:
            raise ValueError("the loop count d must be at least 1")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")

    @property
    def arity(self) -> int:
        return self.shift + self.m + self.n


def _check_projected(rows: int, width: int, term_cap: int) -> None:
    # before a factor of ``width`` terms is folded into ``rows`` stored terms
    if rows * width > term_cap:
        raise ResourceLimitError(
            "projected term count %d exceeds cap %d" % (rows * width, term_cap)
        )


def _check_rows(rows: int, term_cap: int) -> None:
    # after a factor is folded and like terms are collected
    if rows > term_cap:
        raise ResourceLimitError("term count %d exceeds cap %d" % (rows, term_cap))


def group_rows(rows: np.ndarray, weights: np.ndarray):
    """Sum ``weights`` over equal rows of an integer matrix.

    Returns the distinct rows in lexicographic order with their sums, and
    drops rows whose sum is zero.  Rows are compared through one packed sort
    key: each column, less its minimum, takes the bits its range needs, first
    column highest, and constant columns take none.  The key is int64 when
    those bits fit in 63 and a Python int (dtype=object) otherwise, so rows
    of any length and size group exactly.  ``weights`` may be int64 or
    object; the caller certifies that int64 sums cannot overflow.
    """
    if not len(weights):
        return rows, weights
    # one contiguous row per column: column reductions are several times
    # faster on it than along axis 0 of a tall matrix
    cols = np.array(rows.T)
    # spans in Python ints: an int64 column may range wider than int64
    lows = cols.min(axis=1).tolist()
    spans = [hi - lo for hi, lo in zip(cols.max(axis=1).tolist(), lows)]
    live = [i for i, span in enumerate(spans) if span]
    widths = [spans[i].bit_length() for i in live]
    if len(live) < len(spans):
        cols = cols[live]
    if sum(widths) > 63:
        cols = cols.astype(object)
    cols -= np.array([lows[i] for i in live], dtype=cols.dtype)[:, None]
    # the bit fields do not overlap, so this weighted sum is the packed key;
    # with no live column every row is equal and the key is all zeros
    scale = [1 << sum(widths[i + 1 :]) for i in range(len(widths))]
    packed = np.array(scale, dtype=cols.dtype) @ cols
    order = np.argsort(packed)
    packed = packed[order]
    first = np.ones(len(packed), dtype=bool)
    first[1:] = packed[1:] != packed[:-1]
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(weights[order], starts)
    keep = sums != 0
    return rows[order[starts[keep]]], sums[keep]


def pairwise_kernel(
    arity: int,
    pairs: Sequence[Tuple[int, int]],
    d: int,
    q_value: Optional[Rational] = None,
    term_cap: int = DEFAULT_TERM_CAP,
) -> MPoly:
    """Expand the product of (x_s - q * x_t)**(d-1) over (s, t) pairs.

    ``q_value`` substitutes a rational constant for q in every factor, which
    is how the q = 1 and q = 0 degenerations are built independently of the
    generic expansion.
    """
    exp = d - 1
    acc: Dict[Exponent, QLaurent] = {(0,) * arity: ONE}
    if exp == 0 or not pairs:
        return MPoly._raw(arity, acc)
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
        nxt: Dict[Exponent, QLaurent] = {}
        for e, c in acc.items():
            base = list(e)
            et = base[t]
            es = base[s]
            for i in range(exp + 1):
                fc = factor_coeffs[i]
                if not fc:
                    continue
                base[t] = et + i
                base[s] = es + exp - i
                key = tuple(base)
                prod = c * fc
                cur = nxt.get(key)
                if cur is None:
                    nxt[key] = prod
                else:
                    tot = cur + prod
                    if tot:
                        nxt[key] = tot
                    else:
                        del nxt[key]
            base[t] = et
            base[s] = es
        _check_rows(len(nxt), term_cap)
        acc = nxt
    return MPoly._raw(arity, acc)


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
    signed integer ``N(a, b) * (-1)**|a|``.  Rows are distinct and in
    lexicographic order.  ``weights`` is int64 when ``2**((d-1)*m*n)``, the sum
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

    @cached_property
    def entries(self) -> Dict[Tuple[Exponent, Exponent], QLaurent]:
        """Coefficients keyed by (first block, second block) exponents."""
        m = self.spec.m
        return {
            (tuple(e[:m]), tuple(e[m:])): QLaurent._trimmed(p, [w])
            for e, p, w in zip(
                self.exps.tolist(), self.powers.tolist(), self.weights.tolist()
            )
        }

    def coefficient(self, a: Sequence[int], b: Sequence[int]) -> QLaurent:
        return self.entries.get((tuple(a), tuple(b)), ZERO)

    def check_cap(self, term_cap: int) -> None:
        """Raise the ResourceLimitError a cold build under ``term_cap`` raises."""
        for before, after in zip(self.staged, self.staged[1:]):
            _check_projected(before, self.spec.d, term_cap)
            _check_rows(after, term_cap)

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
            _check_rows(len(weights), term_cap)
    return StructureConstantTable(spec, exps, weights, tuple(staged))


_TABLE_CACHE: Dict[Tuple[int, int, int], StructureConstantTable] = {}


def structure_table(
    m: int, n: int, d: int, term_cap: int = DEFAULT_TERM_CAP
) -> StructureConstantTable:
    """Memoized table per (m, n, d).

    The cache is idempotent: a race at worst recomputes the same value, and
    entries are never mutated after construction.  The cap is checked on
    every call, against the staged row counts of a cached table, so whether
    the table was cached never changes which requests fail.
    """
    key = (m, n, d)
    hit = _TABLE_CACHE.get(key)
    if hit is None:
        hit = structure_constants(KernelSpec(m=m, n=n, d=d), term_cap)
        _TABLE_CACHE[key] = hit
    else:
        hit.check_cap(term_cap)
    return hit


def verify_symmetry(table: StructureConstantTable) -> CheckReport:
    """Check invariance under permuting within each block.

    Every monomial whose block parts are a rearrangement of another's must
    carry the same coefficient, and all rearrangements must be present.
    """
    groups: Dict[Tuple[Exponent, Exponent], List] = {}
    for (a, b), c in table.entries.items():
        key = (sort_ascending(a), sort_ascending(b))
        groups.setdefault(key, []).append(((a, b), c))
    failures: List[str] = []
    checked = 0
    for (ka, kb), members in sorted(groups.items()):
        expected = len(distinct_permutations(ka)) * len(distinct_permutations(kb))
        checked += len(members)
        if len(members) != expected:
            failures.append(
                "orbit of a=%r b=%r has %d of %d rearrangements"
                % (ka, kb, len(members), expected)
            )
            continue
        ref = members[0][1]
        for (a, b), c in members[1:]:
            if c != ref:
                failures.append(
                    "coefficient at a=%r b=%r differs from a=%r b=%r"
                    % (a, b, members[0][0][0], members[0][0][1])
                )
                break
    return CheckReport(
        name="kernel-symmetry m=%d n=%d d=%d"
        % (table.spec.m, table.spec.n, table.spec.d),
        passed=not failures,
        checked=checked,
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
