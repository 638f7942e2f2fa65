"""Products of partitions driven by the kernel coefficient tables.

Elements are plain dicts mapping basis keys (int tuples) to nonzero QLaurent
coefficients; the empty dict is zero.  Vector-level keys are arbitrary
non-negative int tuples, partition-level keys are weakly increasing.  All
functions treat elements as immutable values and return fresh dicts.

The basis product of two partitions re-keys the (m, n, d) coefficient table by
(mu + a, nu + b) and, at partition level, sorts each key.  Sorting is
well-defined: rearranging the entries of mu or nu permutes the summands
without changing the sorted merge.

There is one product engine, on integer arrays.  A basis product is memoized
as three arrays, grouped so that each (key, power of q) appears once and
sorted by key, then power: the sorted keys (one row each), the powers and the
integer coefficients.  The bilinear product scales the cached arrays of every
pair of basis keys by the coefficients of c1 * c2, concatenates them, groups
once per key length, and only then folds rows into QLaurent values.  Those
arrays are int64 only when a bound certifies that no sum can leave int64
range: the sum of |coefficients| of c1 * c2 times the table's sum of
|weights|, 2**((d-1)*m*n), summed over the pairs.  Otherwise, and for Fraction
coefficients, the same code runs with dtype=object, so the arithmetic is
always exact.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from typing import Dict, List

import numpy as np

from .errors import ResourceLimitError
from .kernel import DEFAULT_TERM_CAP, group_rows, structure_table
from .partitions import IntVector, Partition, sort_ascending
from .qlaurent import ONE, QLaurent, as_rational, q_power, signed_q_power
from .reports import CheckReport, QuasiCommReport

VectorElement = Dict[IntVector, QLaurent]
PartitionElement = Dict[Partition, QLaurent]

_INT64_MAX = int(np.iinfo(np.int64).max)


def shift_sort_product(mu: Partition, nu: Partition, d: int) -> Partition:
    """Concatenate with the second factor shifted by len(mu)*(d-1), sorted.

    This is the q = 0 limit of the product on basis partitions.
    """
    shift = len(mu) * (d - 1)
    return sort_ascending(mu + tuple(v + shift for v in nu))


def product_vectors(
    mu: IntVector, nu: IntVector, d: int, term_cap: int = DEFAULT_TERM_CAP
) -> VectorElement:
    """Vector-level product: keys (mu + a, nu + b) weighted by the table."""
    mu = tuple(mu)
    nu = tuple(nu)
    if not mu:
        return {nu: ONE}
    if not nu:
        return {mu: ONE}
    table = structure_table(len(mu), len(nu), d, term_cap)
    keys = (table.exps + _offsets(mu + nu)).tolist()
    # table rows are distinct, so their re-keyed vectors are too
    return {
        tuple(key): QLaurent._trimmed(p, [w])
        for key, p, w in zip(keys, table.powers.tolist(), table.weights.tolist())
    }


def sort_merge(e: VectorElement) -> PartitionElement:
    """Project a vector-level element to partition level by sorting keys."""
    out: PartitionElement = {}
    for key, coeff in e.items():
        k = sort_ascending(key)
        cur = out.get(k)
        if cur is None:
            out[k] = coeff
        else:
            tot = cur + coeff
            if tot:
                out[k] = tot
            else:
                del out[k]
    return out


def _offsets(parts: IntVector) -> np.ndarray:
    # parts this large would overflow int64 keys; keep them as Python ints
    big = parts and max(parts) >> 62
    return np.array(parts, dtype=object if big else np.int64)


@lru_cache(maxsize=None)
def _basis_product(mu: Partition, nu: Partition, d: int):
    """Memoized basis product as grouped arrays (keys, powers, coeffs).

    Rows are sorted by (key, power of q) and no (key, power) repeats.  Callers
    check their own term cap first and must not mutate the returned arrays.
    """
    if not mu or not nu:
        return (
            _offsets(mu + nu).reshape(1, -1),
            np.zeros(1, dtype=np.int64),
            np.ones(1, dtype=np.int64),
        )
    table = structure_table(len(mu), len(nu), d, sys.maxsize)
    keys = np.sort(table.exps + _offsets(mu + nu), axis=1)
    return _group_terms(keys, table.powers, table.weights)


def _group_terms(keys, powers, coeffs):
    """Sum coefficients over equal (key, power) rows, sorted by key, then power."""
    rows, sums = group_rows(np.column_stack([keys, powers]), coeffs)
    return rows[:, :-1], rows[:, -1], sums


def _to_element(keys, powers, coeffs) -> PartitionElement:
    """Fold grouped rows, sorted by (key, power), into QLaurent coefficients."""
    if not len(powers):
        return {}
    first = np.ones(len(powers), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(first).tolist()
    ps = powers.tolist()
    cs = coeffs.tolist()
    out: PartitionElement = {}
    for key, lo, hi in zip(keys[first].tolist(), starts, starts[1:] + [len(ps)]):
        base = ps[lo]
        dense = [0] * (ps[hi - 1] - base + 1)
        for j in range(lo, hi):
            dense[ps[j] - base] = cs[j]
        out[tuple(key)] = QLaurent._trimmed(base, dense)
    return out


def product(
    mu: Partition, nu: Partition, d: int, term_cap: int = DEFAULT_TERM_CAP
) -> PartitionElement:
    """Partition-level product of two basis partitions."""
    mu = tuple(mu)
    nu = tuple(nu)
    if mu and nu:
        # checks the cap against the table's staged row counts, cached or not
        structure_table(len(mu), len(nu), d, term_cap)
    return _to_element(*_basis_product(mu, nu, d))


def element_add(e1, e2):
    out = dict(e1)
    for k, c in e2.items():
        cur = out.get(k)
        if cur is None:
            out[k] = c
        else:
            tot = cur + c
            if tot:
                out[k] = tot
            else:
                del out[k]
    return out


def scale_element(e, coeff: QLaurent):
    if not coeff:
        return {}
    return {k: c * coeff for k, c in e.items()}


def bar_element(e):
    """Apply the bar involution q -> q**-1 to every coefficient."""
    return {k: c.bar() for k, c in e.items()}


def specialize(e, value) -> Dict[Partition, object]:
    """Evaluate every coefficient at a rational point, dropping zeros."""
    v = as_rational(value)
    out = {}
    for k, c in e.items():
        r = c.eval_at(v)
        if r:
            out[k] = r
    return out


# -- bilinear product ---------------------------------------------------------


def product_elements(
    e1: PartitionElement,
    e2: PartitionElement,
    d: int,
    term_cap: int = DEFAULT_TERM_CAP,
) -> PartitionElement:
    """Bilinear extension of the basis product to finite sums."""
    if not e1 or not e2:
        return {}
    for m in {len(k) for k in e1}:
        for n in {len(k) for k in e2}:
            if m and n:
                structure_table(m, n, d, term_cap)
    pairs = []
    staged = 0
    bound = 0
    integral = True
    for k1, c1 in e1.items():
        for k2, c2 in e2.items():
            c = c1 * c2
            if not c:
                continue
            basis = _basis_product(tuple(k1), tuple(k2), d)
            pairs.append((basis, c))
            # one scaled copy of the basis rows per term of c
            staged += len(basis[1]) * sum(1 for _ in c.items())
            if integral and all(type(x) is int for x in c.coeffs):
                bound += sum(map(abs, c.coeffs)) << ((d - 1) * len(k1) * len(k2))
            else:
                integral = False
    if staged > term_cap:
        raise ResourceLimitError(
            "bilinear product stages %d rows, cap %d" % (staged, term_cap)
        )
    dtype = np.int64 if integral and bound <= _INT64_MAX else object
    by_len: Dict[int, List] = {}
    for (keys, powers, coeffs), c in pairs:
        chunks = by_len.setdefault(keys.shape[1], [])
        coeffs = coeffs.astype(dtype, copy=False)
        for power, cj in c.items():
            if power >> 62 not in (-1, 0):
                # a shift this large would overflow the int64 powers
                powers = powers.astype(object)
            chunks.append((keys, powers + power, coeffs * cj))
    out: PartitionElement = {}
    for chunks in by_len.values():
        keys, powers, coeffs = (np.concatenate(col) for col in zip(*chunks))
        out.update(_to_element(*_group_terms(keys, powers, coeffs)))
    return out


# -- verification -------------------------------------------------------------


def grading_failures(
    mu: Partition, nu: Partition, d: int, element: PartitionElement
) -> List[str]:
    """Check length additivity and the weight rule on every term of a product."""
    fails = []
    want_len = len(mu) + len(nu)
    want_sum = sum(mu) + sum(nu) + (d - 1) * len(mu) * len(nu)
    for key in element:
        if len(key) != want_len:
            fails.append(
                "term %r of %r * %r (d=%d) has length %d, want %d"
                % (key, mu, nu, d, len(key), want_len)
            )
        elif sum(key) != want_sum:
            fails.append(
                "term %r of %r * %r (d=%d) has weight %d, want %d"
                % (key, mu, nu, d, sum(key), want_sum)
            )
    return fails


def quasi_commutativity_report(mu: Partition, nu: Partition, d: int) -> QuasiCommReport:
    """Compare mu * nu with both q**e and (-q)**e times bar(nu * mu)."""
    mu = tuple(mu)
    nu = tuple(nu)
    e = (d - 1) * len(mu) * len(nu)
    left = product(mu, nu, d)
    flipped = bar_element(product(nu, mu, d))
    unsigned = scale_element(flipped, q_power(e))
    signed = scale_element(flipped, signed_q_power(e))
    return QuasiCommReport(
        mu=mu,
        nu=nu,
        d=d,
        exponent=e,
        unsigned_matches=left == unsigned,
        signed_matches=left == signed,
    )


def check_associativity(
    mu: Partition, nu: Partition, w: Partition, d: int
) -> CheckReport:
    """Compare the two parenthesizations of a triple product exactly."""
    mu = tuple(mu)
    nu = tuple(nu)
    w = tuple(w)
    left = product_elements(product(mu, nu, d), {w: ONE}, d)
    right = product_elements({mu: ONE}, product(nu, w, d), d)
    passed = left == right
    failures = []
    if not passed:
        keys = sorted(set(left) | set(right), key=lambda k: (len(k), k))
        for key in keys:
            if left.get(key) != right.get(key):
                failures.append(
                    "triple %r %r %r (d=%d): key %r has %r vs %r"
                    % (mu, nu, w, d, key, left.get(key), right.get(key))
                )
                break
    return CheckReport(
        name="associativity %r*%r*%r d=%d" % (mu, nu, w, d),
        passed=passed,
        checked=1,
        failures=failures,
    )
