"""Products of partitions driven by the kernel coefficient tables.

Elements are plain dicts mapping basis keys (weakly increasing int tuples) to
nonzero QLaurent coefficients; the empty dict is zero.  All functions treat
elements as immutable values and return fresh dicts.

The basis product of two partitions re-keys the (m, n, d) coefficient table by
(mu + a, nu + b) and sorts each key.  Sorting is well-defined: rearranging
the entries of mu or nu permutes the summands without changing the sorted
merge.  So two rows that differ by a permutation within a run of equal parts
of mu, or of nu, give the same key and the same power, and a build re-keys
each such orbit once, its weights summed.

There is one product engine, on integer arrays.  A basis product is memoized
as grouped rows: each row is a sorted key followed by a power of q, rows are
distinct and in lexicographic order, and each carries one integer
coefficient.  Rows are grouped on packed 1-D keys (``kernel.RowLayout``,
``kernel.pack_rows`` and ``kernel.group_keys``): a basis build takes the
table merged over the runs of equal parts of mu and of nu
(``kernel.merged_table``), widens its narrow exponents to int64, adds the
parts, sorts each key, packs the sorted keys and the merged powers straight
into one key per row, and only the distinct keys that survive grouping are
unpacked into rows.  The bilinear core packs each cached basis product it
needs once; for every term c * q**p of the coefficient of a pair of basis
keys it adds p to one copy of that pair's keys and multiplies c into one
copy of its coefficients, and it groups the staged keys once per key length.
No 2-D copy of the rows is staged.  ``product_elements`` is that core,
unpacked, with QLaurent dicts at its edges.  ``check_associativity`` feeds it the rows of the cached outer
product (mu * nu, or nu * w) directly, packs both parenthesizations under
the one layout of the triple's certified bounds, and compares their grouped
keys and coefficients with ``np.array_equal``: grouped keys are canonical,
so on the passing path no row is unpacked and no QLaurent is built.  So do
``quasi_commutativity_report``, ``bipartite.verify_graph_model``,
``shuffle_algebra.verify_homomorphism`` and the suites' grading check on
rows, and JSON ``multiply`` writes the cached rows as text.  ``_split_keys``
splits grouped rows by key, and ``_split_product`` keeps the last few
splits of cached products; only ``product`` (and ``product_elements`` at
its edges), the text and LaTeX renderers and ``--at-q`` fold the split rows
into QLaurent dicts (``_to_element``).  The caches of basis products and
tables are bounded, least recently used out, at twice a default suite's
working set.  The checks a product of a given shape must pass run once per
shape (``_check_shape``).

Every coefficient bound comes from ``kernel.coefficient_bound``: a basis
product of lengths m and n has no |coefficient| above
``coefficient_bound((d-1)*m*n)``.  The staged coefficients are int64 only
when a bound certifies that no sum can leave int64 range: the sum of
|coefficients| times that bound, summed over the pairs.  Otherwise, and for
Fraction coefficients, the same code runs with dtype=object, so the
arithmetic is always exact.  Keys follow the layout's own rule, int64 or
Python ints.  Every packed row lies within certified column bounds: those
of ``_row_bounds`` for a basis product or a triple, and in
``product_elements``, per key length, the union of its basis products'
bounds, the power column widened by each one's range of power shifts.  The
layout owns the row format: rows unpack in its ``row_dtype``, the narrowest
of int8, int16, int32 and int64 that its bounds allow
(``kernel.narrowest_dtype``, the rule the tables' exponents follow too), or
as Python ints past int64, so a build writes a cached basis product's
surviving rows straight into that dtype.  Its coefficients take the
narrowest dtype within ``coefficient_bound``.  Readers widen before
arithmetic that could leave a narrow dtype: the bilinear core casts each
basis product's coefficients to the staging dtype once.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import add, sub
from typing import Dict, List

import numpy as np

from .errors import ResourceLimitError
from .kernel import (
    DEFAULT_TERM_CAP,
    RowLayout,
    check_loop_count,
    check_term_cap,
    coefficient_bound,
    group_keys,
    merged_table,
    narrowest_dtype,
    pack_rows,
    structure_table,
)
from .partitions import IntVector, Partition, sort_ascending
from .qlaurent import QLaurent, as_rational
from .reports import CheckReport, QuasiCommReport

PartitionElement = Dict[Partition, QLaurent]

_INT64_MAX = int(np.iinfo(np.int64).max)
# elementwise as_rational over an object array
_as_rational = np.frompyfunc(as_rational, 1, 1)


def shift_sort_product(mu: Partition, nu: Partition, d: int) -> Partition:
    """Concatenate with the second factor shifted by len(mu)*(d-1), sorted.

    This is the q = 0 limit of the product on basis partitions.
    """
    shift = len(mu) * (d - 1)
    return sort_ascending(mu + tuple(v + shift for v in nu))


def _offsets(parts: IntVector) -> np.ndarray:
    # parts this large would overflow int64 keys; keep them as Python ints
    big = parts and max(parts) >> 62
    return np.array(parts, dtype=object if big else np.int64)


def _runs(parts: IntVector):
    """The lengths of the runs of equal consecutive parts."""
    return tuple(len(list(run)) for _, run in groupby(parts))


def _row_bounds(blocks, d: int):
    """Certified (lows, spans) of the (sorted key, power) rows of a product.

    ``blocks`` are the factors: two for a basis product, three for either
    parenthesization of a triple.  A part gains at most d-1 from each part
    outside its own block, and order statistics are monotone in every
    entry, so column c of a sorted key lies between the c-th smallest part
    and the c-th smallest of (part + its largest gain).  The power of q lies
    in [0, (d-1) * the sum of the block-pair products].
    """
    size = sum(map(len, blocks))
    lows = sorted(p for block in blocks for p in block)
    tops = sorted(p + (d - 1) * (size - len(block)) for block in blocks for p in block)
    pairs = (size * size - sum(len(block) ** 2 for block in blocks)) // 2
    return lows + [0], [hi - lo for hi, lo in zip(tops, lows)] + [(d - 1) * pairs]


def _grouped(layout: RowLayout, keys: np.ndarray, weights: np.ndarray):
    """Grouped rows from packed keys: only the distinct keys that survive
    grouping are unpacked into rows."""
    index, sums = group_keys(keys, weights)
    return layout.unpack(keys[index]), sums


# twice the 6 285 basis products ``verify assoc`` computes at its defaults,
# its largest working set, so a long batch stays bounded without evicting
# them; at the defaults those entries hold 9.9 MB of arrays (70.8 MB in int64)
BASIS_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _basis_product(mu: Partition, nu: Partition, d: int):
    """Memoized basis product as grouped arrays (rows, coeffs).

    A row is a sorted key followed by a power of q; rows are distinct and in
    lexicographic order.  Each array is stored in the narrowest integer
    dtype its certified bounds allow, or as Python ints past int64: the rows
    within the column bounds of ``_row_bounds``, the coefficients within
    +-``coefficient_bound((d-1)*m*n)``.  Readers widen before
    any arithmetic that could leave that dtype.  Callers check their own
    term cap first and must not mutate the returned arrays.
    """
    layout = RowLayout(*_row_bounds((mu, nu), d))
    bound = coefficient_bound((d - 1) * len(mu) * len(nu))
    coeff_dtype = narrowest_dtype(-bound, bound)
    if not mu or not nu:
        # the other factor's key at power 0
        return np.array([mu + nu + (0,)], dtype=layout.row_dtype), np.ones(1, dtype=coeff_dtype)
    exps, powers, weights = merged_table(len(mu), len(nu), d, _runs(mu) + _runs(nu))
    # the narrow exponents are widened to the offsets' dtype before the
    # per-row sort: numpy 2.4 sorts short int8 and int16 rows more slowly
    # than int64 ones
    offsets = _offsets(mu + nu)
    keys = exps.astype(offsets.dtype)
    keys += offsets
    keys.sort(axis=1)
    packed = pack_rows(layout, [(keys, powers, (0,))])
    rows, coeffs = _grouped(layout, packed, weights)
    return rows, coeffs.astype(coeff_dtype, copy=False)


@lru_cache(maxsize=256)
def _check_shape(m: int, n: int, d: int, term_cap: int) -> int:
    """Run the checks a product of lengths m and n must pass, once per shape.

    They read nothing but the shape, and a check that fails raises and is
    not cached, so whether a request fails never depends on what is cached.
    Returns the rows a build of that shape is charged for: its table's rows,
    or one for an empty factor.  A build re-keys fewer when a factor repeats
    a part, but the charge reads only the shape.
    """
    check_loop_count(d)
    check_term_cap(term_cap)
    # checks the cap against the table's staged row counts, cached or not
    return len(structure_table(m, n, d, term_cap)) if m and n else 1


def _capped_basis_product(mu: Partition, nu: Partition, d: int, term_cap: int):
    """The cached basis product, after the checks a request for it must pass."""
    _check_shape(len(mu), len(nu), d, term_cap)
    return _basis_product(mu, nu, d)


@lru_cache(maxsize=16)
def _split_product(mu: Partition, nu: Partition, d: int):
    """The cached basis product mu * nu split by key (``_split_keys``).

    A run of triples that share an outer product fetches and splits it
    once.  Callers run the product's checks first (``_check_shape``) and
    must not mutate the returned list.
    """
    return _split_keys(*_basis_product(mu, nu, d))


def _key_starts(rows):
    """The distinct keys of grouped rows and the index of each one's first row."""
    keys = rows[:, :-1]
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    (keys[1:] != keys[:-1]).any(axis=1, out=first[1:])
    starts = first.nonzero()[0]
    return keys[starts], starts


def _split_keys(rows, coeffs):
    """(key, powers, coeffs) per distinct key of grouped rows, as lists."""
    keys, starts = (a.tolist() for a in _key_starts(rows))
    ps = rows[:, -1].tolist()
    cs = coeffs.tolist()
    return [
        (tuple(key), ps[lo:hi], cs[lo:hi])
        for key, lo, hi in zip(keys, starts, starts[1:] + [len(ps)])
    ]


def _to_element(rows, coeffs) -> PartitionElement:
    """Fold grouped rows into QLaurent coefficients."""
    out: PartitionElement = {}
    for key, ps, cs in _split_keys(rows, coeffs):
        base = ps[0]
        dense = [0] * (ps[-1] - base + 1)
        for p, c in zip(ps, cs):
            dense[p - base] = c
        out[key] = QLaurent._trimmed(base, dense)
    return out


def product(
    mu: Partition, nu: Partition, d: int, term_cap: int = DEFAULT_TERM_CAP
) -> PartitionElement:
    """Partition-level product of two basis partitions."""
    return _to_element(*_capped_basis_product(tuple(mu), tuple(nu), d, term_cap))


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


def _bilinear_keys(terms, d: int, term_cap: int, layouts, budget=None):
    """Grouped packed keys of a sum of scaled basis products, per key length.

    ``terms`` lists (k1, k2, powers, coeffs), the basis product k1 * k2 with
    the coefficient sum_j coeffs[j] * q**powers[j], nonzero terms only; the
    caller has run ``_check_shape`` on each term's lengths under
    ``term_cap``.  Each cached basis product is packed into 1-D keys once,
    and each coefficient term stages one copy of those keys, its power
    added, and of the basis coefficients, its coefficient multiplied in.
    The keys are grouped once per key length, under ``layouts[length]``,
    whose bounds the caller has certified for every row staged at that
    length.  ``budget``, if given, is charged, in rows times their width,
    the rows of every basis product's build before any is fetched, cached or
    not, and then the staged rows before anything is staged.  A staged key
    takes at most one basis coefficient per coefficient term, so the
    coefficients are int64 when the sum over the terms of ``sum|coeffs| *
    coefficient_bound((d-1)*m*n)`` fits it, and Python ints otherwise.
    Returns {key length: (keys, coeffs)}; ``layouts[length].unpack`` turns
    the keys into rows.
    """
    if budget is not None:
        shapes = [(len(k1), len(k2)) for k1, k2, _, _ in terms]
        budget(sum(_check_shape(m, n, d, term_cap) * (m + n + 1) for m, n in shapes))
    by_len: Dict[int, List] = {}
    staged = 0
    work = 0
    bound = 0
    integral = True
    for k1, k2, ps, cs in terms:
        basis = _basis_product(k1, k2, d)
        length = len(k1) + len(k2)
        by_len.setdefault(length, []).append((basis, ps, cs))
        rows = len(basis[1]) * len(ps)
        staged += rows
        work += rows * (length + 1)
        if integral and all(type(x) is int for x in cs):
            bound += sum(map(abs, cs)) * coefficient_bound((d - 1) * len(k1) * len(k2))
        else:
            integral = False
    if staged > term_cap:
        raise ResourceLimitError(
            "bilinear product stages %d rows, cap %d" % (staged, term_cap)
        )
    if budget is not None:
        budget(work)
    dtype = np.int64 if integral and bound <= _INT64_MAX else object
    out = {}
    for length, group in by_len.items():
        blocks, coeffs = [], []
        for (basis_rows, basis_coeffs), ps, cs in group:
            blocks.append((basis_rows, None, ps))
            # widened once per basis product: a product in its narrow cached
            # dtype would wrap silently
            basis_coeffs = basis_coeffs.astype(dtype, copy=False)
            coeffs += [basis_coeffs * c for c in cs]
        keys = pack_rows(layouts[length], blocks)
        index, coeffs = group_keys(keys, np.concatenate(coeffs))
        if not integral:
            # Fraction sums keep an integral result as Fraction(n, 1)
            coeffs = _as_rational(coeffs)
        out[length] = keys[index], coeffs
    return out


def _certified_layouts(terms, d: int):
    """One layout per key length for the rows ``_bilinear_keys`` stages from
    ``terms``: the union of the row bounds of their basis products
    (``_row_bounds``), the power column widened by each term's powers."""
    lows: Dict[int, List[int]] = {}
    highs: Dict[int, List[int]] = {}
    for k1, k2, ps, _ in terms:
        lo, span = _row_bounds((k1, k2), d)
        hi = list(map(add, lo, span))
        lo[-1] += min(ps)
        hi[-1] += max(ps)
        n = len(k1) + len(k2)
        lows[n] = list(map(min, lows.get(n, lo), lo))
        highs[n] = list(map(max, highs.get(n, hi), hi))
    return {n: RowLayout(lo, list(map(sub, highs[n], lo))) for n, lo in lows.items()}


def product_elements(
    e1: PartitionElement,
    e2: PartitionElement,
    d: int,
    term_cap: int = DEFAULT_TERM_CAP,
) -> PartitionElement:
    """Bilinear extension of the basis product to finite sums."""
    check_loop_count(d)
    check_term_cap(term_cap)
    if not e1 or not e2:
        return {}
    for m in {len(k) for k in e1}:
        for n in {len(k) for k in e2}:
            _check_shape(m, n, d, term_cap)
    terms = []
    for k1, c1 in e1.items():
        for k2, c2 in e2.items():
            c = c1 * c2
            if c:
                ps, cs = zip(*c.items())
                terms.append((tuple(k1), tuple(k2), ps, cs))
    layouts = _certified_layouts(terms, d)
    out: PartitionElement = {}
    for length, (keys, coeffs) in _bilinear_keys(terms, d, term_cap, layouts).items():
        rows = layouts[length].unpack(keys)
        _check_spans(rows, term_cap)
        out.update(_to_element(rows, coeffs))
    return out


def _check_spans(rows, term_cap: int) -> None:
    """Refuse grouped rows whose coefficient at some key spans more powers
    than ``term_cap``: ``_to_element`` holds one entry per power from a
    key's least to its greatest."""
    _, starts = _key_starts(rows)
    powers = rows[:, -1]
    lasts = np.append(starts[1:], len(rows)) - 1
    # in Python ints: a span may pass int64 when the powers do not
    span = max(map(sub, powers[lasts].tolist(), powers[starts].tolist()), default=-1) + 1
    if span > term_cap:
        raise ResourceLimitError(
            "a coefficient spans %d powers of q, cap %d" % (span, term_cap)
        )


# -- verification -------------------------------------------------------------


def grading_failures(mu: Partition, nu: Partition, d: int, rows: np.ndarray) -> List[str]:
    """Check length additivity and the weight rule on the grouped rows of a
    product, as row sums; only the keys of failing rows are read back."""
    keys = rows[:, :-1]
    want_len = len(mu) + len(nu)
    want_sum = sum(mu) + sum(nu) + (d - 1) * len(mu) * len(nu)
    if keys.shape[1] != want_len:
        bad = keys
    else:
        # int64 row sums only while the largest entry keeps them in range
        if keys.dtype != object and keys.size and np.abs(keys).max() > _INT64_MAX // want_len:
            keys = keys.astype(object)
        bad = keys[keys.sum(axis=1) != want_sum]
    fails = []
    for key in dict.fromkeys(map(tuple, bad.tolist())):
        if len(key) != want_len:
            fails.append(
                "term %r of %r * %r (d=%d) has length %d, want %d"
                % (key, mu, nu, d, len(key), want_len)
            )
        else:
            fails.append(
                "term %r of %r * %r (d=%d) has weight %d, want %d"
                % (key, mu, nu, d, sum(key), want_sum)
            )
    return fails


def quasi_commutativity_report(mu: Partition, nu: Partition, d: int) -> QuasiCommReport:
    """Compare mu * nu with both q**e and (-q)**e times bar(nu * mu).

    On the cached rows of nu * mu, bar then q**e maps a power p to e - p,
    within the same row bounds; (-q)**e also multiplies in (-1)**e.
    """
    mu = tuple(mu)
    nu = tuple(nu)
    e = (d - 1) * len(mu) * len(nu)
    left = _capped_basis_product(mu, nu, d, DEFAULT_TERM_CAP)
    rows, coeffs = _capped_basis_product(nu, mu, d, DEFAULT_TERM_CAP)
    layout = RowLayout(*_row_bounds((nu, mu), d))
    # in int64: the subtraction must not wrap in the rows' narrow dtype
    keys = pack_rows(layout, [(rows[:, :-1], e - rows[:, -1].astype(np.int64), (0,))])
    rows, coeffs = _grouped(layout, keys, coeffs)
    return QuasiCommReport(
        mu=mu,
        nu=nu,
        d=d,
        exponent=e,
        unsigned_matches=all(map(np.array_equal, left, (rows, coeffs))),
        signed_matches=all(map(np.array_equal, left, (rows, -coeffs if e & 1 else coeffs))),
    )


def check_associativity(
    mu: Partition, nu: Partition, w: Partition, d: int, budget=None
) -> CheckReport:
    """Compare the two parenthesizations of a triple product exactly.

    Each side runs on packed keys: every distinct key k of the cached outer
    product mu * nu (or nu * w) pairs with w (or mu) under the coefficient
    its rows carry, and the bilinear core stages and groups them, both
    sides under the one layout of the row bounds of the three blocks.
    Grouped keys are canonical, so the sides agree exactly when their keys
    and coefficients are equal, and rows and QLaurent values are built only
    to report the first differing key.  ``budget``, if given, is charged
    each side's work before it runs (see ``_bilinear_keys``).
    """
    mu = tuple(mu)
    nu = tuple(nu)
    w = tuple(w)
    cap = DEFAULT_TERM_CAP
    layout = RowLayout(*_row_bounds((mu, nu, w), d))
    layouts = {len(mu) + len(nu) + len(w): layout}
    # each outer product is checked, then fetched and split once per run of
    # triples that share it
    _check_shape(len(mu), len(nu), d, cap)
    _check_shape(len(mu) + len(nu), len(w), d, cap)
    terms = [(k, w, ps, cs) for k, ps, cs in _split_product(mu, nu, d)]
    (left,) = _bilinear_keys(terms, d, cap, layouts, budget).values()
    _check_shape(len(nu), len(w), d, cap)
    _check_shape(len(mu), len(nu) + len(w), d, cap)
    terms = [(mu, k, ps, cs) for k, ps, cs in _split_product(nu, w, d)]
    (right,) = _bilinear_keys(terms, d, cap, layouts, budget).values()
    # one layout packs both sides, so equal keys stand for equal rows
    passed = all(map(np.array_equal, left, right))
    failures = []
    if not passed:
        left, right = (_to_element(layout.unpack(keys), coeffs) for keys, coeffs in (left, right))
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
