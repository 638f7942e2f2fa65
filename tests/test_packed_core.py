"""The key-major core against references of the 2-D row staging it replaced.

The references keep, in this file only, the grouping that stages one 2-D copy
of a basis product's rows per coefficient term and groups the concatenated
rows by a key packed from their columns.  A cached basis product must hold
the same rows, split by key (``key_major``), and the bilinear core must sum
the same rows and coefficients into its dense groups (``summed_rows``
reads them back), dtypes included.  Cached arrays come out in the narrowest
integer dtype their certified bounds allow, and the references state that
rule apart from the program (``row_range``).
"""
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoha import kernel, partition_algebra, suites
from qcoha.kernel import RowLayout, group_keys, group_rows, pack_rows, structure_table
from qcoha.partition_algebra import (
    _basis_product,
    _bilinear_keys,
    _certified_layouts,
    _offsets,
    _row_bounds,
    check_associativity,
    product_elements,
    quasi_commutativity_report,
)
from qcoha.qlaurent import ONE, QLaurent, as_rational, q_power
from qcoha.suites import suite_assoc

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def reference_group_rows(rows, weights, bounds=None):
    # the 2-D grouping: live columns less their lows, packed by a matmul
    if not len(weights):
        return rows, weights
    if bounds is None:
        cols = np.array(rows.T)
        lows = cols.min(axis=1).tolist()
        spans = [hi - lo for hi, lo in zip(cols.max(axis=1).tolist(), lows)]
    else:
        cols = rows.T
        lows, spans = bounds
    live = [i for i, span in enumerate(spans) if span]
    widths = [spans[i].bit_length() for i in live]
    cols = cols[live]
    offsets = [lows[i] for i in live]
    if sum(widths) > 63 or not all(_INT64_MIN <= lo <= _INT64_MAX for lo in offsets):
        cols = cols.astype(object, copy=False)
    cols -= np.array(offsets, dtype=cols.dtype)[:, None]
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


def narrowest(lo, hi):
    # the first of int8, int16, int32, int64 that holds [lo, hi], else object
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def row_range(mu, nu, d, ps=(0,)):
    # the least and greatest entry of the rows of mu * nu, each power shifted
    # by one of ps: a part grows by at most d-1 per part of the other factor,
    # and a power lies in [0, (d-1)*m*n]
    e = (d - 1) * len(mu) * len(nu)
    hi = [p + (d - 1) * len(nu) for p in mu] + [p + (d - 1) * len(mu) for p in nu]
    return min(mu + nu + (min(ps),)), max(hi + [e + max(ps)])


def cached_dtypes(mu, nu, d):
    # keys within the row range, counts and powers within [0, e + 1], and
    # |coefficient| at most binom(e, e // 2) with e = (d-1)*m*n: the weights
    # of one power share a sign and sum to binom(e, power) in absolute value
    e = (d - 1) * len(mu) * len(nu)
    return narrowest(*row_range(mu, nu, d)), narrowest(0, e + 1), narrowest(-comb(e, e // 2), comb(e, e // 2))


def key_major(rows, coeffs, key_dtype, count_dtype):
    # grouped (key, power) rows split by key, in this module's own loop
    keys, counts = [], []
    for row in rows.tolist():
        if keys and keys[-1] == row[:-1]:
            counts[-1] += 1
        else:
            keys.append(row[:-1])
            counts.append(1)
    width = rows.shape[1] - 1
    return (
        np.array(keys, dtype=key_dtype).reshape(len(keys), width),
        np.array(counts, dtype=count_dtype),
        rows[:, -1].astype(count_dtype),
        coeffs,
    )


def reference_basis_product(mu, nu, d):
    key_dtype, count_dtype, coeff_dtype = cached_dtypes(mu, nu, d)
    if not mu or not nu:
        rows, coeffs = np.array([mu + nu + (0,)], dtype=object), np.ones(1, dtype=coeff_dtype)
        return key_major(rows, coeffs, key_dtype, count_dtype)
    table = structure_table(len(mu), len(nu), d, sys.maxsize)
    keys = np.sort(table.exps + _offsets(mu + nu), axis=1)
    rows = np.column_stack([keys, table.powers])
    rows, coeffs = reference_group_rows(rows, table.weights, _row_bounds((mu, nu), d))
    return key_major(rows, coeffs.astype(coeff_dtype), key_dtype, count_dtype)


def split_product(keys, counts, powers, coeffs):
    # (key, powers, coeffs) per key of a key-major product, as tuples
    out, start = [], 0
    for key, count in zip(keys.tolist(), counts.tolist()):
        out.append((tuple(key), tuple(powers[start : start + count].tolist()), tuple(coeffs[start : start + count].tolist())))
        start += count
    return out


def reference_bilinear_rows(terms, d, bounds=None):
    # one 2-D copy of the basis rows per coefficient term, grouped per
    # length; the rows come out in the narrowest dtype of their bounds:
    # ``bounds`` when given, for rows of one length, and otherwise each
    # length's ``row_range`` over its terms.  The sums are int64 when the
    # greatest |coefficient| times the sum over the terms of their count
    # times binom(e, e // 2) fits it: a staged row takes at most one basis
    # coefficient per coefficient term
    by_len = {}
    ranges = {}
    coeffs = [c for _, _, _, cs in terms for c in cs]
    integral = all(type(c) is int for c in coeffs)
    bound = 0
    for k1, k2, ps, cs in terms:
        basis = reference_rows(k1, k2, d)
        length = len(k1) + len(k2)
        by_len.setdefault(length, []).append((basis, ps, cs))
        lo, hi = row_range(k1, k2, d, ps)
        was_lo, was_hi = ranges.get(length, (lo, hi))
        ranges[length] = min(lo, was_lo), max(hi, was_hi)
        e = (d - 1) * len(k1) * len(k2)
        bound += len(cs) * comb(e, e // 2)
    dtype = np.int64 if integral and max(map(abs, coeffs)) * bound <= _INT64_MAX else object
    out = {}
    for length, group in by_len.items():
        rows, coeffs = [], []
        for (basis_rows, basis_coeffs), ps, cs in group:
            basis_coeffs = basis_coeffs.astype(dtype, copy=False)
            for p, c in zip(ps, cs):
                # the shift runs in int64, or in Python ints when a basis
                # product's rows are or when the shift could leave int64
                big = p >> 62 not in (-1, 0) or basis_rows.dtype == object
                shifted = basis_rows.astype(object if big else np.int64)
                shifted[:, -1] += p
                rows.append(shifted)
                coeffs.append(basis_coeffs * c)
        copies = len(rows)
        rows, coeffs = np.concatenate(rows), np.concatenate(coeffs)
        if copies > 1:
            rows, coeffs = reference_group_rows(rows, coeffs, bounds)
        if dtype is object:
            coeffs = np.frompyfunc(as_rational, 1, 1)(coeffs)
        if bounds is None:
            row_dtype = narrowest(*ranges[length])
        else:
            row_dtype = narrowest(min(bounds[0]), max(map(add, *bounds)))
        out[length] = rows.astype(row_dtype), coeffs
    return out


def reference_rows(mu, nu, d):
    # the reference basis product as grouped (key, power) rows
    keys, counts, powers, coeffs = reference_basis_product(mu, nu, d)
    rows = np.column_stack([np.repeat(keys, counts, axis=0).astype(object), powers.astype(object)])
    return rows.astype(narrowest(*row_range(mu, nu, d))), coeffs


def side_of(terms):
    # one side of the bilinear core, as product_elements builds it
    coeffs = [c for _, _, _, cs in terms for c in cs]
    return (
        [(k1, k2) for k1, k2, _, _ in terms],
        [len(ps) for _, _, ps, _ in terms],
        np.array([p for _, _, ps, _ in terms for p in ps], dtype=object),
        np.array(coeffs, dtype=object),
        max(map(abs, coeffs)) if all(type(c) is int for c in coeffs) else None,
    )


def summed_rows(sides, d, layouts, term_cap=sys.maxsize):
    # the core's dense groups read back as grouped (key, power) rows, only
    # nonzero cells, in the layout's row dtype
    out = {}
    for length, (heads, lows, ends, cells) in _bilinear_keys(sides, d, term_cap, layouts).items():
        layout = layouts[length]
        keys = layout.unpack(heads)[:, :-1].tolist()
        rows, coeffs, start = [], [], 0
        for key, low, end in zip(keys, lows.tolist(), ends.tolist()):
            for offset in np.flatnonzero(cells[start:end]).tolist():
                rows.append(key + [low + offset])
                coeffs.append(cells[start + offset])
            start = end
        rows = np.array(rows, dtype=object).reshape(len(rows), length + 1).astype(layout.row_dtype)
        coeffs = np.array(coeffs, dtype=cells.dtype)
        if cells.dtype == object:
            coeffs = np.frompyfunc(as_rational, 1, 1)(coeffs)
        out[length] = rows, coeffs
    return out


def bilinear_rows(terms, d):
    # the core of product_elements, under its certified layouts
    return summed_rows([side_of(terms)], d, _certified_layouts(terms, d))


def assert_same(got, want):
    # equal arrays of equal dtypes, and equal entry types in object arrays
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype, (a.dtype, b.dtype)
        assert a.shape == b.shape and np.array_equal(a, b), (a, b)
        if a.dtype == object:
            assert [type(x) for x in a.ravel()] == [type(x) for x in b.ravel()]


def element_terms(e1, e2):
    # the (k1, k2, powers, coeffs) terms product_elements stages
    terms = []
    for k1, c1 in e1.items():
        for k2, c2 in e2.items():
            c = c1 * c2
            if c:
                ps, cs = zip(*c.items())
                terms.append((tuple(k1), tuple(k2), ps, cs))
    return terms


def outer_terms(outer, pair):
    # the terms of one side of a triple: each key of the outer product,
    # paired by ``pair``, under its coefficient there
    return [pair(k) + (ps, cs) for k, ps, cs in split_product(*outer)]


def assert_sides_match_reference(mu, nu, w, d):
    # both parenthesizations, each summed alone under the triple's layout
    bounds = _row_bounds((mu, nu, w), d)
    layouts = {len(mu) + len(nu) + len(w): RowLayout(*bounds)}
    for terms in (
        outer_terms(_basis_product(mu, nu, d), lambda k: (k, w)),
        outer_terms(_basis_product(nu, w, d), lambda k: (mu, k)),
    ):
        (got,) = summed_rows([side_of(terms)], d, layouts).values()
        (want,) = reference_bilinear_rows(terms, d, bounds).values()
        assert_same(got, want)


@pytest.mark.parametrize("c", [2**63 - 1, 2**70])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_products_with_huge_parts_match_the_reference(c, d):
    # parts this large make the rows, and at 2**70 the keys, Python ints
    for mu, nu in [((c,), (c,)), ((0, c), (c,)), ((c, c), (0, 1)), ((), (c,)), ((c,), ())]:
        assert_same(_basis_product(mu, nu, d), reference_basis_product(mu, nu, d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_basis_products_with_repeated_parts_match_the_reference(d):
    # builds re-key a table merged over runs of equal parts; the reference
    # re-keys every row of the full table
    pairs = [((1, 1), (1, 1)), ((0, 0, 2), (1,)), ((2,), (0, 3, 3)), ((0, 0, 0), (1, 1))]
    pairs += [((0, 1, 1), (2, 2, 2)), ((1, 2), (0, 0)), ((0, 0), ()), ((), (1, 1, 1))]
    for c in (2**63 - 1, 2**70):
        pairs += [((c, c), (c,)), ((0, c, c), (c, c)), ((c, c), ()), ((), (0, c, c))]
    for mu, nu in pairs:
        if d < 4 or len(mu) * len(nu) <= 6:
            assert_same(_basis_product(mu, nu, d), reference_basis_product(mu, nu, d))


@pytest.mark.parametrize(
    "edge,dtype", [(127, np.int8), (128, np.int16), (-128, np.int8), (-129, np.int16)]
)
def test_basis_products_at_the_int8_row_edge_match_the_reference(edge, dtype):
    # a build widens the table's narrow exponents and writes its rows in the
    # narrowest dtype: every pair below has its row bounds top out at
    # ``edge``, or bottom out there
    d = 3
    if edge > 0:
        pairs = [((0, edge - 2), (1,)), ((edge - 4,), (0, 1)), ((edge - 2,), (edge - 2,))]
        pairs += [((), (edge,)), ((0, edge), ())]
    else:
        pairs = [((edge, 0), (1,)), ((edge,), (edge, 3)), ((), (edge,)), ((edge, 1), ())]
    for mu, nu in pairs:
        got = _basis_product(mu, nu, d)
        assert got[0].dtype == dtype, (mu, nu)
        assert_same(got, reference_basis_product(mu, nu, d))


@pytest.mark.parametrize("c", [0, 2**63 - 1, 2**70])
def test_assoc_sides_match_the_reference(c):
    shift = lambda key: tuple(v + c for v in key)
    for mu, nu, w, d in [
        ((0, 1), (1,), (0, 2), 3),
        ((0,), (1, 2), (0,), 2),
        ((1, 2), (0, 2), (0, 1), 3),
        ((0,), (0,), (0,), 1),
    ]:
        assert_sides_match_reference(shift(mu), shift(nu), shift(w), d)
        assert check_associativity(shift(mu), shift(nu), shift(w), d).passed


def test_a_layout_wider_than_63_bits_packs_small_parts_as_python_ints():
    # a power spread near 2**62 takes 62 bits on its own, so with the parts
    # the key of length 3 is a Python int while every part and its rows stay
    # int64
    e1 = {(0, 1): q_power(0), (1, 1): q_power(2**62 - 4), (1,): ONE}
    e2 = {(2,): q_power(1) - q_power(3)}
    terms = element_terms(e1, e2)
    assert _certified_layouts(terms, 2)[3].dtype is object
    got = bilinear_rows(terms, 2)
    want = reference_bilinear_rows(terms, 2)
    assert got.keys() == want.keys()
    assert got[3][0].dtype == np.int64
    for length in got:
        assert_same(got[length], want[length])
    # the certified bounds of a triple, loosened past 63 bits
    mu, nu, w, d = (0, 1), (1,), (0, 2), 3
    lows, spans = _row_bounds((mu, nu, w), d)
    bounds = (lows, [span + 2**40 for span in spans])
    loose = RowLayout(*bounds)
    assert loose.dtype is object
    terms = outer_terms(_basis_product(mu, nu, d), lambda k: (k, w))
    (got,) = summed_rows([side_of(terms)], d, {5: loose}).values()
    (want,) = reference_bilinear_rows(terms, d, bounds).values()
    assert_same(got, want)
    rows, weights = want[0], np.ones(len(want[0]), dtype=np.int64)
    index, sums = group_keys(pack_rows(RowLayout(*bounds), rows), weights)
    assert_same((rows[index], sums), reference_group_rows(rows, weights, bounds))


def test_fractions_and_negative_powers_match_the_reference():
    half = QLaurent(-1, (Fraction(1, 2), 0, Fraction(-3, 4)))
    e1 = {(0, 1): half, (2,): q_power(-2), (): ONE}
    e2 = {(1,): QLaurent(-3, (1, 2)), (0, 0): half}
    terms = element_terms(e1, e2)
    got = bilinear_rows(terms, 3)
    want = reference_bilinear_rows(terms, 3)
    assert got.keys() == want.keys()
    for length in got:
        assert_same(got[length], want[length])
    assert product_elements(e1, e2, 3)


@pytest.mark.parametrize("p", [2**62, 2**62 + 5, -(2**62) - 1, 2**70])
def test_power_shifts_past_int64_rows_match_the_reference(p):
    # shifts near 2**62 keep the rows int64, within their certified bounds,
    # and a shift past int64 makes the rows of its key length Python ints
    e1 = {(0, 1): q_power(p) + q_power(p + 1), (3,): q_power(p)}
    e2 = {(1,): ONE, (0, 2): q_power(-1)}
    terms = element_terms(e1, e2)
    got = bilinear_rows(terms, 3)
    want = reference_bilinear_rows(terms, 3)
    assert got.keys() == want.keys()
    for length in got:
        assert_same(got[length], want[length])
    assert got[3][0].dtype == (object if p == 2**70 else np.int64)


@pytest.mark.parametrize("p", [0, 7, -3, 2**62])
def test_a_single_copy_side_matches_the_reference(p):
    # one term of one coefficient: grouping the one sorted, distinct copy
    # keeps it as it is
    for mu, nu, d in [((0, 1), (1,), 3), ((0,), (0,), 1), ((2,), (0, 1, 1), 2)]:
        terms = [(mu, nu, (p,), (-5,))]
        (got,) = bilinear_rows(terms, d).values()
        (want,) = reference_bilinear_rows(terms, d).values()
        assert_same(got, want)


def test_empty_factors_match_the_reference():
    assert product_elements({}, {(0,): ONE}, 2) == {}
    assert product_elements({(1,): ONE}, {}, 2) == {}
    for mu, nu in [((), ()), ((), (0, 2)), ((3,), ()), ((), (2**70,))]:
        assert_same(_basis_product(mu, nu, 3), reference_basis_product(mu, nu, 3))
    terms = element_terms({(): q_power(2), (1,): ONE}, {(): ONE, (0, 2): q_power(-1)})
    got = bilinear_rows(terms, 2)
    want = reference_bilinear_rows(terms, 2)
    assert got.keys() == want.keys()
    for length in got:
        assert_same(got[length], want[length])


def test_group_rows_matches_the_reference_on_random_rows():
    rng = np.random.default_rng(13)
    for trial in range(60):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 120))
        kind = trial % 4
        if kind == 0:
            rows = rng.integers(-4, 4, size=(n, k))
        elif kind == 1:
            rows = rng.integers(-(2**62), 2**62, size=(n, k))
        elif kind == 2:
            rows = rng.integers(0, 3, size=(n, k)).astype(object) * (2**63 - 1)
        else:
            rows = rng.integers(0, 4, size=(n, k)).astype(object) + 2**70
        rows = rows[rng.integers(0, n, size=n)]
        weights = rng.integers(-2, 3, size=n)
        # the grouped rows come out in the narrowest dtype of the columns' bounds
        want_rows, want_sums = reference_group_rows(rows, weights)
        dtype = narrowest(min(rows.ravel().tolist()), max(rows.ravel().tolist()))
        assert_same(group_rows(rows, weights)[:2], (want_rows.astype(dtype), want_sums))


def test_pack_rows_stages_one_copy_per_shift():
    # a shift adds to every power, as if the rows carried it, and the keys
    # alone pack as rows at the shift's power
    mu, nu, w, d = (0, 1), (1,), (0, 2), 3
    layout = RowLayout(*_row_bounds((mu, nu, w), d))
    key = split_product(*_basis_product(mu, nu, d))[0][0]
    rows, _ = reference_rows(key, w, d)
    for s in (0, 1, 3):
        shifted = rows.astype(np.int64)
        shifted[:, -1] += s
        keys = pack_rows(layout, rows, shift=s)
        assert keys.dtype == np.int64
        assert np.array_equal(keys, pack_rows(layout, shifted[:, :-1], shifted[:, -1]))
        assert np.array_equal(layout.unpack(keys), shifted)
        alone = pack_rows(layout, rows[:, :-1], shift=s)
        assert np.array_equal(layout.unpack(alone)[:, :-1], rows[:, :-1])
        assert set(layout.unpack(alone)[:, -1].tolist()) == {s}


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_narrow_rows_pack_like_int64_rows(dtype, width):
    # a cached basis product's rows may be any integer dtype; packed, they
    # must give the keys of the same rows in int64, at every row width
    rng = np.random.default_rng(width)
    top = int(np.iinfo(dtype).max)
    rows = rng.integers(-3, 13, size=(40, width))
    # the dtype's extremes in the first column, within 63 bits at any width
    rows[:2, 0] = top, -top - 1
    cols = rows.T
    lows = cols.min(axis=1).tolist()
    spans = [hi - lo for hi, lo in zip(cols.max(axis=1).tolist(), lows)]
    layout = RowLayout(lows[:-1] + [lows[-1] - 3], spans[:-1] + [spans[-1] + 10])
    assert layout.dtype == np.int64
    narrow = rows.astype(dtype)
    for pack, shifts in (
        (lambda r, s: pack_rows(layout, r, shift=s), (0, 7, -3)),
        (lambda r, s: pack_rows(layout, r[:, :-1], r[:, -1], s), (0, 2)),
    ):
        for s in shifts:
            assert np.array_equal(pack(narrow, s), pack(rows, s))
    # under the rows' own bounds, the keys unpack straight into the dtype
    exact = RowLayout(lows, spans)
    assert exact.row_dtype == dtype
    unpacked = exact.unpack(pack_rows(exact, narrow))
    assert unpacked.dtype == dtype and np.array_equal(unpacked, rows)


@pytest.mark.parametrize("c", [10**6, -(3**40)])
def test_products_that_leave_the_cached_dtype_stay_exact(c):
    # basis coefficients stored as int16 and int32, times terms whose
    # products leave both, must widen before they are multiplied
    for mu, nu, d, dtype in [((0, 1), (1, 2), 4, np.int16), ((0, 1), (1, 2), 6, np.int32)]:
        assert _basis_product(mu, nu, d)[3].dtype == dtype
        e1 = {mu: QLaurent(0, (c, 1)), (0,): q_power(2)}
        e2 = {nu: QLaurent(-1, (c, 0, -c)), (1,): ONE}
        terms = element_terms(e1, e2)
        got = bilinear_rows(terms, d)
        want = reference_bilinear_rows(terms, d)
        assert got.keys() == want.keys()
        assert np.abs(want[len(mu) + len(nu)][1]).max() > np.iinfo(np.int32).max
        for length in got:
            assert_same(got[length], want[length])
        fold = {}
        for rows, coeffs in want.values():
            for row, coeff in zip(rows.tolist(), coeffs.tolist()):
                fold.setdefault(tuple(row[:-1]), {})[row[-1]] = coeff
        assert product_elements(e1, e2, d) == {
            key: QLaurent.from_dict(by_power) for key, by_power in fold.items()
        }


def test_assoc_sides_that_leave_the_cached_dtype_match_the_reference():
    # the outer product's coefficients times int16 and int32 basis
    # coefficients leave int16 on either side
    for mu, nu, w, d in [((0, 1), (1, 2), (0, 2), 4), ((0, 1), (1, 2), (0,), 6)]:
        dtypes = {_basis_product(mu, nu, d)[3].dtype, _basis_product(nu, w, d)[3].dtype}
        assert dtypes <= {np.dtype(np.int16), np.dtype(np.int32)}
        terms = outer_terms(_basis_product(mu, nu, d), lambda k: (k, w))
        (want,) = reference_bilinear_rows(terms, d).values()
        assert np.abs(want[1]).max() > np.iinfo(np.int16).max
        assert_sides_match_reference(mu, nu, w, d)
        assert check_associativity(mu, nu, w, d).passed


def test_a_default_assoc_suite_caches_narrow_products(monkeypatch):
    # every basis product the default suite reads is in the narrowest dtypes
    # of the rule, and together they hold at most 16 MiB of arrays (about
    # 5.3 MiB, against 9.4 MiB as rows); from empty caches every hit is a
    # reuse.  The tables merged over runs of equal parts that the builds
    # re-key hold at most 1.5 MiB (about 0.9 MiB)
    entries = {}
    cached = lru_cache(maxsize=partition_algebra.BASIS_CACHE_SIZE)(
        partition_algebra._basis_product.__wrapped__
    )
    merged = {}
    merge = lru_cache(maxsize=kernel.MERGED_CACHE_SIZE)(kernel.merged_table.__wrapped__)

    def spy(mu, nu, d):
        entries[mu, nu, d] = cached(mu, nu, d)
        return entries[mu, nu, d]

    def merge_spy(m, n, d, runs):
        merged[m, n, d, runs] = merge(m, n, d, runs)
        return merged[m, n, d, runs]

    monkeypatch.setattr(partition_algebra, "_basis_product", spy)
    monkeypatch.setattr(partition_algebra, "merged_table", merge_spy)
    assert suite_assoc().passed
    info = cached.cache_info()
    assert (info.hits, info.misses) == (23063, 6285)
    assert len(entries) == 6285
    held = 0
    for (mu, nu, d), arrays in entries.items():
        keys, counts, powers, coeffs = arrays
        assert (keys.dtype, counts.dtype, coeffs.dtype) == cached_dtypes(mu, nu, d), (mu, nu, d)
        assert powers.dtype == counts.dtype
        held += sum(a.nbytes for a in arrays)
    assert held <= 16 * 2**20
    # a build with every run of length 1 reads the table, and merges nothing
    assert all(max(runs) > 1 for _, _, _, runs in merged)
    assert sum(a.nbytes for arrays in merged.values() for a in arrays) <= 1.5 * 2**20


def test_a_default_assoc_suite_sorts_only_distinct_keys(monkeypatch):
    # the bilinear core sorts the distinct keys of the basis products it
    # stages, 1.20 M at the defaults, never the 9.64 M rows they stage: the
    # keys it packs without their powers are the one array it argsorts.
    # The budget and the basis cache read as they did when rows were sorted
    sorted_keys = []
    pack = partition_algebra.pack_rows

    def spy(layout, parts, powers=None, shift=0):
        keys = pack(layout, parts, powers, shift)
        if powers is None:
            sorted_keys.append(len(keys))
        return keys

    spent = []

    class Recording(suites._WorkBudget):
        def __call__(self, units):
            spent.append(units)
            super().__call__(units)

    monkeypatch.setattr(partition_algebra, "pack_rows", spy)
    monkeypatch.setattr(suites, "_WorkBudget", Recording)
    cached = lru_cache(maxsize=partition_algebra.BASIS_CACHE_SIZE)(
        partition_algebra._basis_product.__wrapped__
    )
    monkeypatch.setattr(partition_algebra, "_basis_product", cached)
    assert suite_assoc().passed
    assert sum(sorted_keys) <= 1_250_000
    assert sum(spent) == 218122026
    info = cached.cache_info()
    assert (info.hits, info.misses) == (23063, 6285)


def test_a_run_of_triples_splits_its_outer_product_once(monkeypatch):
    # the triples (mu, nu, w) for a run of w share the cached outer product
    # mu * nu, built once for the whole run
    built = []
    build = partition_algebra._basis_product.__wrapped__
    cached = lru_cache(maxsize=None)(lambda *a: built.append(a) or build(*a))
    monkeypatch.setattr(partition_algebra, "_basis_product", cached)
    mu, nu, d = (0, 3), (1, 2), 3
    ws = [(0,), (1,), (0, 1), (2, 2)]
    for w in ws:
        assert check_associativity(mu, nu, w, d).passed
    # one build of mu * nu, and one of nu * w for every w
    assert built.count((mu, nu, d)) == 1
    assert all(built.count((nu, w, d)) == 1 for w in ws)


@pytest.mark.parametrize("c", [2**62, 2**63 - 2, 2**63 - 1, 2**70])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_quasi_commutativity_holds_for_rows_past_int64(c, d):
    # rows near 2**63 are Python ints under a layout whose keys are int64,
    # so they unpack through Python ints
    for mu, nu in [((c,), (0,)), ((0, c), (1,)), ((c,), (c, c))]:
        e = (d - 1) * len(mu) * len(nu)
        rep = quasi_commutativity_report(mu, nu, d)
        assert rep.signed_matches and rep.unsigned_matches == (e % 2 == 0)
    layout = RowLayout([0, 2**63 - 1, 0], [2, 2, 2])
    assert layout.dtype == np.int64 and layout.row_dtype is object
    rows = np.array([[0, 2**63 + 1, 2], [2, 2**63 - 1, 0]], dtype=object)
    keys = pack_rows(layout, rows)
    assert_same((layout.unpack(keys), keys), (rows, keys))


short_keys = st.lists(st.integers(0, 3), max_size=2).map(lambda v: tuple(sorted(v)))
coefficients = st.one_of(
    st.integers(-4, 4),
    # products with the basis coefficients, or the coefficients, leave int64
    st.integers(-(2**64), 2**64),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
).filter(bool)
coefficient_terms = st.dictionaries(st.integers(-3, 3), coefficients, min_size=1, max_size=3)


@given(
    st.lists(st.tuples(short_keys, short_keys, coefficient_terms), min_size=1, max_size=4),
    st.integers(1, 3),
    st.sampled_from([0, 2**62, 2**70]),
    st.sampled_from([0, -(2**62), 2**70]),
)
@settings(max_examples=60, deadline=None)
def test_the_bilinear_core_matches_the_reference(pairs, d, part, power):
    # int64 sums, sums past int64 and Fractions; parts and powers near or
    # past int64, which make the keys and the powers Python ints
    terms = []
    for k1, k2, coeff in pairs:
        k1, k2 = (tuple(v + part for v in k) for k in (k1, k2))
        if all((k1, k2) != term[:2] for term in terms):
            ps = sorted(coeff)
            terms.append((k1, k2, tuple(p + power for p in ps), tuple(coeff[p] for p in ps)))
    got = bilinear_rows(terms, d)
    want = reference_bilinear_rows(terms, d)
    assert got.keys() == want.keys()
    for length in got:
        assert_same(got[length], want[length])
