"""Products of partitions driven by the kernel coefficient tables.

Elements are plain dicts mapping basis keys (weakly increasing int tuples) to
nonzero QLaurent coefficients; the empty dict is zero.  All functions treat
elements as immutable values and return fresh dicts.

The basis product of two partitions re-keys the (m, n, d) coefficient table by
(mu + a, nu + b) and sorts each key.  Sorting is well-defined: rearranging
the entries of mu or nu permutes the summands without changing the sorted
merge.

There is one product engine, on integer arrays.  A basis product is memoized
as grouped rows: each row is a sorted key followed by a power of q, rows are
distinct and in lexicographic order, and each carries one integer
coefficient.  Rows are grouped on packed 1-D keys (``kernel.RowLayout``,
``kernel.pack_rows`` and ``kernel.group_keys``): a basis build widens the
table's narrow exponents to int64, adds the parts, sorts each key, packs the
sorted keys and the table's powers straight into one key per row, and only
the distinct keys that survive grouping are unpacked into rows.  The
bilinear core packs each cached basis product it needs once; for every term
c * q**p of the coefficient of a pair of basis keys it adds p to one copy of
that pair's keys and multiplies c into one copy of its coefficients, and it
groups the staged keys once per key length.  No 2-D copy of the rows is
staged.  ``product_elements`` is that core, unpacked, with QLaurent dicts at
its edges.  ``check_associativity`` feeds it the rows of the cached outer
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
Python ints.  A cached basis product is stored in the narrowest of int8,
int16, int32 and int64 that its certified bounds allow
(``kernel.narrowest_dtype``, the rule the tables' exponents follow too):
its rows within the column bounds of ``_row_bounds``, its coefficients within
``coefficient_bound``; a build writes its surviving rows straight into that
dtype.  Readers widen before arithmetic that could leave it: the
bilinear core casts each basis product's coefficients to the staging dtype
once, and staged rows unpack to int64, or to Python ints past it.
Packing is handed certified column bounds where the factors give them (see
``_row_bounds``); ``product_elements`` takes them from each basis product's
column extremes and its range of power shifts.
"""
from __future__ import annotations

import sys
from functools import lru_cache
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


def _grouped(layout: RowLayout, keys: np.ndarray, weights: np.ndarray, dtype):
    """Grouped rows of ``dtype`` from packed keys: only the distinct keys
    that survive grouping are unpacked into rows."""
    index, sums = group_keys(keys, weights)
    return layout.unpack(keys[index], dtype), sums


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
    lows, spans = _row_bounds((mu, nu), d)
    row_dtype = narrowest_dtype(min(lows), max(lo + span for lo, span in zip(lows, spans)))
    bound = coefficient_bound((d - 1) * len(mu) * len(nu))
    coeff_dtype = narrowest_dtype(-bound, bound)
    if not mu or not nu:
        # the other factor's key at power 0
        return np.array([mu + nu + (0,)], dtype=row_dtype), np.ones(1, dtype=coeff_dtype)
    table = structure_table(len(mu), len(nu), d, sys.maxsize)
    # the narrow exponents are widened to the offsets' dtype before the
    # per-row sort: numpy 2.4 sorts short int8 and int16 rows more slowly
    # than int64 ones
    offsets = _offsets(mu + nu)
    keys = table.exps.astype(offsets.dtype)
    keys += offsets
    keys.sort(axis=1)
    layout = RowLayout(lows, spans)
    packed = pack_rows(layout, [(keys, table.powers, (0,))])
    rows, coeffs = _grouped(layout, packed, table.weights, row_dtype)
    return rows, coeffs.astype(coeff_dtype, copy=False)


@lru_cache(maxsize=256)
def _check_shape(m: int, n: int, d: int, term_cap: int) -> None:
    """Run the checks a product of lengths m and n must pass, once per shape.

    They read nothing but the shape, and a check that fails raises and is
    not cached, so whether a request fails never depends on what is cached.
    """
    check_loop_count(d)
    check_term_cap(term_cap)
    if m and n:
        # checks the cap against the table's staged row counts, cached or not
        structure_table(m, n, d, term_cap)


@lru_cache(maxsize=256)
def _table_rows(m: int, n: int, d: int) -> int:
    """The rows a basis product of lengths m and n re-keys, sorts and groups
    when it is built: its table's rows, or one for an empty factor."""
    return len(structure_table(m, n, d, sys.maxsize)) if m and n else 1


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


def _big(p: int) -> bool:
    # a power shift this large would overflow int64 powers
    return p >> 62 not in (-1, 0)


def _staged_bounds(group):
    """Column minima and spans of the rows a group of basis products stages.

    Read from each basis product's column extremes and its range of power
    shifts, once per basis product rather than once per staged copy.
    """
    lows = highs = None
    for (rows, _), ps, _ in group:
        lo, hi = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
        lo[-1] += min(ps)
        hi[-1] += max(ps)
        lows = lo if lows is None else list(map(min, lows, lo))
        highs = hi if highs is None else list(map(max, highs, hi))
    return lows, [hi - lo for hi, lo in zip(highs, lows)]


def _bilinear_keys(terms, d: int, term_cap: int, layout=None, budget=None):
    """Grouped packed keys of a sum of scaled basis products, per key length.

    ``terms`` lists (k1, k2, powers, coeffs), the basis product k1 * k2 with
    the coefficient sum_j coeffs[j] * q**powers[j], nonzero terms only.  Each
    cached basis product is packed into 1-D keys once, and each coefficient
    term stages one copy of those keys, its power added, and of the basis
    coefficients, its coefficient multiplied in.  The keys are grouped once
    per key length, under ``layout`` when the caller has certified its
    bounds for staged rows that all share one length, and otherwise under
    the column extremes of the staged rows.  ``budget``, if given, is
    charged, in rows times their width, the rows of every basis product's
    build before any is fetched, cached or not, and then the staged rows
    before anything is staged.  A staged key takes at most one basis
    coefficient per coefficient term, so the coefficients are int64 when
    the sum over the terms of ``sum|coeffs| * coefficient_bound((d-1)*m*n)``
    fits it, and Python ints otherwise.  Returns {key length: (layout, keys,
    coeffs, row dtype)}; the row dtype is the one the rows unpack to.
    """
    if budget is not None:
        shapes = [(len(k1), len(k2)) for k1, k2, _, _ in terms]
        budget(sum(_table_rows(m, n, d) * (m + n + 1) for m, n in shapes))
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
        # the rows are Python ints when a basis product's are, or when a
        # power shift, its largest or its smallest, would overflow int64
        wide = False
        for (basis_rows, basis_coeffs), ps, cs in group:
            blocks.append((basis_rows, None, ps))
            # widened once per basis product: a product in its narrow cached
            # dtype would wrap silently
            basis_coeffs = basis_coeffs.astype(dtype, copy=False)
            coeffs += [basis_coeffs * c for c in cs]
            wide = wide or basis_rows.dtype == object or _big(max(ps)) or _big(min(ps))
        staging = RowLayout(*_staged_bounds(group)) if layout is None else layout
        keys = pack_rows(staging, blocks)
        if len(coeffs) > 1:
            index, coeffs = group_keys(keys, np.concatenate(coeffs))
            keys = keys[index]
        else:
            # a single shifted and scaled copy of grouped rows is grouped already
            (coeffs,) = coeffs
        if not integral:
            # Fraction sums keep an integral result as Fraction(n, 1)
            coeffs = _as_rational(coeffs)
        out[length] = staging, keys, coeffs, object if wide else np.int64
    return out


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
    out: PartitionElement = {}
    for layout, keys, coeffs, dtype in _bilinear_keys(terms, d, term_cap).values():
        out.update(_to_element(layout.unpack(keys, dtype), coeffs))
    return out


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
    rows, coeffs = _grouped(layout, keys, coeffs, rows.dtype)
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
    # each outer product is checked, then fetched and split once per run of
    # triples that share it
    _check_shape(len(mu), len(nu), d, cap)
    _check_shape(len(mu) + len(nu), len(w), d, cap)
    terms = [(k, w, ps, cs) for k, ps, cs in _split_product(mu, nu, d)]
    (left,) = _bilinear_keys(terms, d, cap, layout, budget).values()
    _check_shape(len(nu), len(w), d, cap)
    _check_shape(len(mu), len(nu) + len(w), d, cap)
    terms = [(mu, k, ps, cs) for k, ps, cs in _split_product(nu, w, d)]
    (right,) = _bilinear_keys(terms, d, cap, layout, budget).values()
    # one layout packs both sides, so equal keys stand for equal rows
    passed = all(map(np.array_equal, left[1:3], right[1:3]))
    failures = []
    if not passed:
        left, right = (
            _to_element(layout.unpack(keys, dtype), coeffs)
            for _, keys, coeffs, dtype in (left, right)
        )
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
