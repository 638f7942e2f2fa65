"""Products of partitions driven by the kernel coefficient tables.

Elements are plain dicts mapping basis keys (weakly increasing int tuples) to
nonzero QLaurent coefficients; the empty dict is zero.  All functions treat
elements as immutable values and return fresh dicts.

The basis product of two partitions re-keys the (m, n, d) coefficient table by
(mu + a, nu + b) and sorts each key.  Sorting is well-defined: rearranging
the entries of mu or nu permutes the summands without changing the sorted
merge.  So two rows that differ by a permutation within a run of equal parts
of mu, or of nu, give the same key and the same power, and a build re-keys
each such orbit once, its weights summed (``kernel.merged_table``).

There is one product engine, on integer arrays.  A basis product is memoized
key-major (``_basis_product``): its distinct sorted keys, the row count of
each, and each row's power of q and coefficient.  The bilinear core
(``_bilinear_keys``) sorts only the distinct keys of the basis products it
stages and sums every staged row into the dense vector of powers of its key;
``check_associativity`` runs it on one side less the other.  Only
``product``, ``product_elements``, the text and LaTeX renderers and
``--at-q`` build QLaurent dicts (``_to_element``).  Caches are bounded,
least recently used out, and a shape's checks run once (``_check_shape``).

Every coefficient bound comes from ``kernel.coefficient_bound``: a basis
product of lengths m and n has no |coefficient| above
``coefficient_bound((d-1)*m*n)``.  Sums are int64 only when a bound
certifies that none can leave its range; otherwise, and for Fraction
coefficients, the same code runs with dtype=object, so the arithmetic is
always exact.  Keys are packed within certified column bounds
(``_row_bounds``, ``_certified_layouts``) in the row format of ``packed``,
which ``kernel`` and ``mpoly`` share and ``tests/test_packed.py`` checks
against a dict, and cached arrays take the narrowest integer dtype their
bounds allow (``packed.narrowest_dtype``), or Python ints past int64;
readers widen before arithmetic that could leave it.  The oracles that
share none of it are the orientation sum (``bipartite``), the shuffle
oracle's ``_key_major`` split and the brute force in ``perfbench/checks.py``.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain, groupby
from operator import add, eq, mul, sub
from typing import Dict, List

import numpy as np

from .errors import ResourceLimitError
from .kernel import (
    DEFAULT_TERM_CAP,
    check_loop_count,
    check_term_cap,
    coefficient_bound,
    merged_table,
    structure_table,
)
from .packed import RowLayout, key_runs, narrowest_dtype, pack_rows
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
    sizes = list(map(len, blocks))
    size = sum(sizes)
    lows = sorted(chain(*blocks))
    tops = sorted([p + (d - 1) * (size - len(block)) for block in blocks for p in block])
    spans = list(map(sub, tops, lows))
    lows.append(0)
    spans.append((d - 1) * ((size * size - sum(map(mul, sizes, sizes))) // 2))
    return lows, spans


# twice the 6 285 basis products ``verify assoc`` computes at its defaults,
# its largest working set, so a long batch stays bounded without evicting
# them; at the defaults those entries hold 5.5 MB of arrays (9.9 MB as rows)
BASIS_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=256)
def _product_dtypes(e: int):
    """The dtypes of a basis product with ``e`` linear factors: that of its
    counts and powers, [0, e + 1], and that of its coefficients."""
    bound = coefficient_bound(e)
    return narrowest_dtype(0, e + 1), narrowest_dtype(-bound, bound)


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _basis_product(mu: Partition, nu: Partition, d: int):
    """Memoized basis product, key-major: (keys, counts, powers, coeffs).

    Key i of ``keys``, distinct and in lexicographic order, carries the next
    ``counts[i]`` powers of q, increasing, and their nonzero coefficients.
    Keys take the row dtype of ``_row_bounds``' layout, counts and powers
    that of [0, (d-1)*m*n + 1], and coefficients that of
    +-``coefficient_bound((d-1)*m*n)`` (``_product_dtypes``).  Callers check
    their own term cap first and must not mutate the returned arrays.

    The rows are grouped in one sort: ``key_runs`` of the packed (key,
    power) words gives the runs of equal words, whose summed weights are
    the coefficients, zeros dropped.  A word is its key's bits above its
    power's, so among the kept words, in sorted order, a key starts where
    the bits above the power change.
    """
    layout = RowLayout(*_row_bounds((mu, nu), d))
    power_dtype, coeff_dtype = _product_dtypes((d - 1) * len(mu) * len(nu))
    if not mu or not nu:
        # the other factor's key at power 0
        ones = np.ones(1, dtype=power_dtype)
        return np.array([mu + nu], dtype=layout.row_dtype), ones, ones - 1, ones.astype(coeff_dtype)
    m, n = len(mu), len(nu)
    if any(map(eq, mu[1:], mu)) or any(map(eq, nu[1:], nu)):
        exps, powers, weights = merged_table(m, n, d, _runs(mu) + _runs(nu))
    else:
        # nothing to merge: the table's own arrays, which only its cache keeps
        table = structure_table(m, n, d, sys.maxsize)
        exps, powers, weights = table.exps, table.powers, table.weights
    # the narrow exponents are widened to the offsets' dtype before the
    # per-row sort: numpy 2.4 sorts short int8 and int16 rows more slowly
    # than int64 ones
    offsets = _offsets(mu + nu)
    keys = np.add(exps, offsets, dtype=offsets.dtype)
    keys.sort(axis=1)
    order, words, starts = key_runs(pack_rows(layout, keys, powers))
    sums = np.add.reduceat(weights[order], starts)
    kept = sums != 0
    starts = starts[kept]
    words = words[starts]
    width = layout.widths[-1]
    heads = words >> width
    marks = np.empty(len(words) + 1, dtype=bool)
    marks[0] = marks[-1] = True
    np.not_equal(heads[1:], heads[:-1], out=marks[1:-1])
    marks = marks.nonzero()[0]
    firsts = marks[:-1]
    return (
        keys[order[starts[firsts]]].astype(layout.row_dtype),
        (marks[1:] - firsts).astype(power_dtype),
        (words & ((1 << width) - 1)).astype(power_dtype),
        sums[kept].astype(coeff_dtype, copy=False),
    )


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
    """The cached mu * nu, keys as tuples and counts as a list, split once
    for a run of triples that share it.  Callers run its checks first."""
    keys, counts, powers, coeffs = _basis_product(mu, nu, d)
    return list(map(tuple, keys.tolist())), counts.tolist(), powers, coeffs


def _dense(counts, powers, coeffs):
    """Each key's coefficient as one dense vector, from its least power to
    its greatest, the vectors laid end to end: (lows, ends, cells), key i
    taking cells[ends[i-1]:ends[i]] from power lows[i] on."""
    stops = counts.cumsum()
    lows = powers[stops - counts].astype(np.int64)
    widths = powers[stops - 1] - lows + 1
    ends = widths.cumsum()
    cells = np.zeros(ends[-1], dtype=coeffs.dtype)
    cells[(ends - widths - lows).repeat(counts) + powers] = coeffs
    return lows, ends, cells


def _fold(keys, lows, ends, cells) -> PartitionElement:
    """QLaurent coefficients of keys from their dense vectors, zeros dropped."""
    out: PartitionElement = {}
    cells, ends = cells.tolist(), ends.tolist()
    for key, low, start, end in zip(keys.tolist(), lows.tolist(), [0] + ends[:-1], ends):
        coeff = QLaurent._trimmed(low, cells[start:end])
        if coeff:
            out[tuple(key)] = coeff
    return out


def _to_element(keys, counts, powers, coeffs) -> PartitionElement:
    """Fold a key-major product into QLaurent coefficients."""
    return _fold(keys, *_dense(counts, powers, coeffs))


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


def _bilinear_keys(sides, d: int, term_cap: int, layouts, budget=None):
    """A sum of scaled basis products, per key length, in dense groups.

    A side is (pairs, counts, powers, coeffs, top): pair i, (k1, k2), stands
    for k1 * k2 times the next counts[i] terms coeffs[j] * q**powers[j],
    powers increasing, and ``top`` bounds every |coeffs[j]|, or is None for
    a Fraction.  The caller has run ``_check_shape`` on every pair.  Each
    side in turn is checked before anything is staged or the next side read:
    ``budget``, if given, is charged the rows of every basis product's build,
    times their width, before any is fetched; then its staged rows, each
    basis product's rows times its terms, are held to ``term_cap`` and charged.
    A cell takes at most one basis coefficient per coefficient term, so it
    sums in int64 when the sum of ``top * counts[i] *
    coefficient_bound((d-1)*m*n)`` fits.

    Only the distinct keys at a length are packed, without their powers,
    and sorted into groups; ``np.add.at`` sums every staged row into its
    group's dense vector.  A group spans the layout's powers while all the
    groups fit the cap and four times the rows staged at their length (3.3
    at most in a default ``verify assoc``), and otherwise only the powers its
    items reach, refused past the cap before anything is allocated.  Returns
    {length: (heads, lows, ends, cells)}: the packed keys, each at the
    layout's least power, each group's least power, and the vectors end to
    end, group i in cells[ends[i-1]:ends[i]].
    """
    by_len: Dict[int, List] = {}
    bound = 0
    integral = True
    for pairs, counts, powers, coeffs, top in sides:
        # a pair's build charge, its width, its coefficient bound and its
        # group read only its shape, so each is taken once per shape, in the
        # order the shapes first appear
        shapes = [(len(k1), len(k2)) for k1, k2 in pairs]
        fixed = {
            (m, n): (m + n + 1, coefficient_bound((d - 1) * m * n), by_len.setdefault(m + n, []))
            for m, n in dict.fromkeys(shapes)
        }
        if budget is not None:
            budget(sum(_check_shape(m, n, d, term_cap) * (m + n + 1) * shapes.count((m, n)) for m, n in fixed))
        integral = integral and top is not None
        ps = powers.tolist()
        staged = work = stop = 0
        for (k1, k2), shape, n in zip(pairs, shapes, counts):
            width, most, group = fixed[shape]
            basis = _basis_product(k1, k2, d)
            start, stop = stop, stop + n
            rows = len(basis[2]) * n
            staged += rows
            work += rows * width
            if integral:
                bound += top * n * most
            group.append((basis, ps[start], ps[stop - 1], powers[start:stop], coeffs[start:stop], rows))
        if staged > term_cap:
            raise ResourceLimitError("bilinear product stages %d rows, cap %d" % (staged, term_cap))
        if budget is not None:
            budget(work)
    dtype = np.int64 if integral and bound <= _INT64_MAX else object
    return {n: _summed(group, layouts[n], dtype, term_cap) for n, group in by_len.items()}


def _summed(group, layout: RowLayout, dtype, term_cap: int):
    """The dense groups of one key length (``_bilinear_keys``)."""
    group.sort(key=lambda term: len(term[3]))
    bases, firsts, lasts, powers, coeffs, staged = zip(*group)
    low, span = layout.lows[-1], layout.spans[-1]
    # powers and cells are int64 while the layout's powers stay well inside it
    frame = np.int64 if max(-low, low + span) < 1 << 62 else object
    keys, counts, rows, weights = map(np.concatenate, zip(*bases))
    words = pack_rows(layout, keys, shift=low)
    order, ordered, starts = key_runs(words)
    if (span + 1) * len(starts) <= min(term_cap, 4 * sum(staged)):
        # every group spans the layout's powers, and so all fit the cap
        lows = np.full(len(starts), low, dtype=frame)
        ends = np.arange(span + 1, (span + 1) * (len(starts) + 1), span + 1, dtype=frame)
        origins = ends - (low + span + 1)
    else:
        sizes = [len(basis[1]) for basis in bases]
        stops = counts.cumsum()
        least = rows[stops - counts] + np.array(firsts, dtype=frame).repeat(sizes)
        most = rows[stops - 1] + np.array(lasts, dtype=frame).repeat(sizes)
        lows = np.minimum.reduceat(least[order], starts)
        highs = np.maximum.reduceat(most[order], starts)
        spans = highs - lows
        widest = int(spans.max()) + 1
        if widest > term_cap:
            raise ResourceLimitError("a coefficient spans %d powers of q, cap %d" % (widest, term_cap))
        ends = (spans + 1).cumsum()
        origins = ends - 1 - highs
    heads = ordered[starts]
    # a basis row's cell at power 0 of its pair's coefficient: its group's
    # origin (the group's cell of power 0) plus the row's own power
    at = origins[heads.searchsorted(words)].repeat(counts) + rows
    ps = np.concatenate(powers).astype(frame, copy=False)
    cs = np.concatenate(coeffs).astype(dtype, copy=False)
    cells = np.zeros(int(ends[-1]), dtype=dtype)
    rows = terms = 0
    # pairs whose coefficients have equally many terms stage together: the
    # j-th terms of their coefficients times all their basis rows
    for width, run in groupby(zip(bases, powers), key=lambda pair: len(pair[1])):
        sizes = [len(basis[2]) for basis, _ in run]
        rows, rows_before = rows + sum(sizes), rows
        terms, terms_before = terms + width * len(sizes), terms
        shifts = ps[terms_before:terms].reshape(len(sizes), width).T.repeat(sizes, axis=1)
        scales = cs[terms_before:terms].reshape(len(sizes), width).T.repeat(sizes, axis=1)
        places = (shifts + at[rows_before:rows]).ravel().astype(np.intp, copy=False)
        np.add.at(cells, places, (scales * weights[rows_before:rows]).ravel())
    return heads, lows, ends, cells


def _certified_layouts(terms, d: int):
    """One layout per key length of ``terms``, (k1, k2, powers, coeffs) each:
    the union of their basis products' ``_row_bounds``, the power column
    widened by each term's powers."""
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
    for m in {len(k) for k in e1}:
        for n in {len(k) for k in e2}:
            _check_shape(m, n, d, term_cap)
    terms = []
    for k1, c1 in e1.items():
        for k2, c2 in e2.items():
            c = c1 * c2
            if c:
                terms.append((tuple(k1), tuple(k2)) + tuple(zip(*c.items())))
    if not terms:
        return {}
    coeffs = [c for _, _, _, cs in terms for c in cs]
    side = (
        [term[:2] for term in terms],
        [len(ps) for _, _, ps, _ in terms],
        np.array([p for _, _, ps, _ in terms for p in ps], dtype=object),
        np.array(coeffs, dtype=object),
        max(map(abs, coeffs)) if all(type(c) is int for c in coeffs) else None,
    )
    return _element([side], d, term_cap, _certified_layouts(terms, d))


def _element(sides, d: int, term_cap: int, layouts) -> PartitionElement:
    """``_bilinear_keys`` of the sides, folded into QLaurent coefficients."""
    out: PartitionElement = {}
    for n, (heads, lows, ends, cells) in _bilinear_keys(sides, d, term_cap, layouts).items():
        # Fraction sums keep an integral result as Fraction(n, 1)
        cells = _as_rational(cells) if cells.dtype == object else cells
        out.update(_fold(layouts[n].unpack(heads)[:, :-1], lows, ends, cells))
    return out


# -- verification -------------------------------------------------------------


def grading_failures(mu: Partition, nu: Partition, d: int, keys: np.ndarray) -> List[str]:
    """Check length additivity and the weight rule on the distinct keys of a
    product, as row sums; only failing keys are read back."""
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

    On the cached arrays of nu * mu, bar then q**e maps a power p to e - p
    at the same key, so each key's powers reverse their order; (-q)**e also
    multiplies in (-1)**e.
    """
    mu, nu = tuple(mu), tuple(nu)
    e = (d - 1) * len(mu) * len(nu)
    left = _capped_basis_product(mu, nu, d, DEFAULT_TERM_CAP)
    keys, counts, powers, coeffs = _capped_basis_product(nu, mu, d, DEFAULT_TERM_CAP)
    # row r of key i, which takes rows [start, stop), goes to start + stop - 1 - r
    stops = counts.cumsum()
    mirror = np.repeat(2 * stops - counts - 1, counts) - np.arange(len(powers))
    right = keys, counts, e - powers[mirror].astype(np.int64), coeffs[mirror]
    return QuasiCommReport(
        mu=mu,
        nu=nu,
        d=d,
        exponent=e,
        unsigned_matches=all(map(np.array_equal, left, right)),
        signed_matches=all(map(np.array_equal, left, right[:3] + (-right[3] if e & 1 else right[3],))),
    )


def _sides(mu: Partition, nu: Partition, w: Partition, d: int, sign: int):
    """The sides of a triple for ``_bilinear_keys``, each built only once the
    core has charged the one before: every key k of the cached mu * nu with
    w, then every key of nu * w with mu, its coefficients times ``sign``; an
    outer coefficient lies within the certificate of its own product."""
    keys, counts, powers, coeffs = _split_product(mu, nu, d)
    yield [(k, w) for k in keys], counts, powers, coeffs, coefficient_bound((d - 1) * len(mu) * len(nu))
    keys, counts, powers, coeffs = _split_product(nu, w, d)
    yield [(mu, k) for k in keys], counts, powers, sign * coeffs, coefficient_bound((d - 1) * len(nu) * len(w))


def check_associativity(
    mu: Partition, nu: Partition, w: Partition, d: int, budget=None
) -> CheckReport:
    """Compare the two parenthesizations of a triple product exactly.

    The bilinear core sums the first side less the second (``_sides``)
    under the layout of the three blocks, and the sides agree exactly when
    every cell is zero.  ``budget``, if given, is charged each side's work
    before that side is staged and before the next is built.
    """
    mu, nu, w = tuple(mu), tuple(nu), tuple(w)
    cap = DEFAULT_TERM_CAP
    l, m, n = len(mu), len(nu), len(w)
    layouts = {l + m + n: RowLayout(*_row_bounds((mu, nu, w), d))}
    for shape in ((l, m), (l + m, n), (m, n), (l, m + n)):
        _check_shape(*shape, d, cap)
    ((_, _, _, cells),) = _bilinear_keys(_sides(mu, nu, w, d, -1), d, cap, layouts, budget).values()
    passed = not cells.any()
    failures = []
    if not passed:
        left, right = (_element([side], d, cap, layouts) for side in _sides(mu, nu, w, d, 1))
        keys = sorted(set(left) | set(right), key=lambda k: (len(k), k))
        key = next(k for k in keys if left.get(k) != right.get(k))
        failures.append(
            "triple %r %r %r (d=%d): key %r has %r vs %r"
            % (mu, nu, w, d, key, left.get(key), right.get(key))
        )
    return CheckReport(
        name="associativity %r*%r*%r d=%d" % (mu, nu, w, d),
        passed=passed,
        checked=1,
        failures=failures,
    )
