"""The shared packed-row module against a dict reference of its own.

The table engine and the polynomials of the oracles both pack, group and
unpack rows through ``qcoha.packed``, so a fault there could pass through
both unseen.  Here rows are summed into a ``dict`` per row instead, and
``packed`` must give the same distinct rows, in lexicographic order, with
the same nonzero sums.  Layouts reach lows at and past +-2**63 and fields of
63 bits (int64 keys) and 64 bits (Python-int keys).
"""
import ast
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcoha.packed as packed
from qcoha.packed import RowLayout, group_chunks, group_keys, group_rows, key_runs, pack_rows

LOWS = [0, -3, 5, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70]


def reference(rows, weights):
    # the nonzero weight sum of each distinct row, rows in lexicographic order
    sums = {}
    for row, weight in zip(rows, weights):
        sums[tuple(row)] = sums.get(tuple(row), 0) + weight
    return [(list(row), s) for row, s in sorted(sums.items()) if s]


def narrowest(lo, hi):
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def as_array(rows, python_ints):
    # int64 rows where every entry fits, else (or on request) Python ints
    fits = all(-(2**63) <= x < 2**63 for row in rows for x in row)
    return np.array(rows, dtype=np.int64 if fits and not python_ints else object)


@st.composite
def bounds(draw, width):
    """(lows, spans) of ``width`` columns; the fields total 63 or 64 bits,
    or a few bits each."""
    total = draw(st.sampled_from([None, 63, 64]))
    if total is None:
        bits = draw(st.lists(st.integers(0, 4), min_size=width, max_size=width))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=width - 1, max_size=width - 1)))
        bits = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    # a span of b bits: its least or its greatest value
    spans = [draw(st.sampled_from([1 << (b - 1), (1 << b) - 1])) if b else 0 for b in bits]
    lows = draw(st.lists(st.sampled_from(LOWS), min_size=width, max_size=width))
    return lows, spans


@st.composite
def weighted_rows(draw, lows, spans):
    """Rows within the bounds, drawn from a small pool so that rows repeat
    and sums cancel, with small weights (zero included)."""
    entry = lambda lo, span: st.one_of(st.sampled_from([lo, lo + span]), st.integers(lo, lo + span))
    pool = draw(st.lists(st.tuples(*map(entry, lows, spans)).map(list), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=12))
    weights = draw(st.lists(st.integers(-2, 2), min_size=len(picks), max_size=len(picks)))
    return [pool[i] for i in picks], weights


@st.composite
def grouping_cases(draw):
    lows, spans = draw(st.integers(1, 4).flatmap(bounds))
    rows, weights = draw(weighted_rows(lows, spans))
    return lows, spans, rows, weights, draw(st.booleans())


def assert_grouped(layout, keys, sums, rows, weights):
    want = reference(rows, weights)
    got = layout.unpack(keys)
    assert got.dtype == narrowest(min(layout.lows), max(map(sum, zip(layout.lows, layout.spans))))
    assert list(zip(got.tolist(), sums.tolist())) == want
    assert all(type(x) is int for x in got.ravel().tolist())
    # one key per distinct row, increasing
    assert all(a < b for a, b in zip(keys.tolist(), keys.tolist()[1:]))


@given(grouping_cases())
@settings(max_examples=300)
# 63 bits of fields on the least int64 low: int64 keys at the edge
@example(([-(2**63), 0], [2**61, 1], [[-(2**63), 0], [2**61 - 2**63, 1], [-(2**63), 0]], [1, 2, -1], False))
# 64 bits of fields, the first low past int64: Python-int keys
@example(([2**63, -(2**63)], [2**63, 0], [[2**64, -(2**63)], [2**63, -(2**63)], [2**64, -(2**63)]], [1, 1, -1], True))
# 72 bits of fields on int8 rows: Python-int keys unpacked into int8
@example(([-128] * 9, [255] * 9, [[-128] * 9, [127] * 9, [-128] * 9, [0] * 9], [1, 1, 2, 3], False))
def test_pack_group_unpack_is_a_dict_sum(case):
    lows, spans, rows, weights, python_ints = case
    layout = RowLayout(lows, spans)
    assert layout.dtype is (np.int64 if sum(s.bit_length() for s in spans) <= 63 and all(
        -(2**63) <= lo < 2**63 for lo in lows) else object)
    matrix = as_array(rows, python_ints)
    keys = pack_rows(layout, matrix)
    assert keys.dtype == np.dtype(layout.dtype)
    index, sums = group_keys(keys, np.array(weights, dtype=np.int64))
    assert_grouped(layout, keys[index], sums, rows, weights)
    # staged in chunks of three rows and regrouped: the same
    chunks = [(keys[i : i + 3], np.array(weights[i : i + 3])) for i in range(0, len(rows), 3)]
    assert_grouped(layout, *group_chunks(chunks), rows, weights)
    # the matrix form, under the rows' own column extremes
    got, sums, own = group_rows(matrix, np.array(weights, dtype=object))
    assert list(zip(got.tolist(), sums.tolist())) == reference(rows, weights)
    assert own.lows == [min(col) for col in zip(*rows)]


@given(
    st.integers(1, 4).flatmap(lambda width: st.tuples(bounds(width), bounds(width))).flatmap(
        lambda pair: st.tuples(
            st.just(pair),
            weighted_rows(*pair[0]).map(lambda rw: rw[0]),
            weighted_rows(*pair[1]).map(lambda rw: rw[0]),
            st.booleans(),
        )
    )
)
@settings(max_examples=300)
def test_keys_less_their_own_lows_add_up_to_the_key_of_the_sum(case):
    ((lo_a, span_a), (lo_b, span_b)), a, b, python_ints = case
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    layout = RowLayout([x + y for x, y in zip(lo_a, lo_b)], [x + y for x, y in zip(span_a, span_b)])
    ka = pack_rows(layout, as_array(a, python_ints), lows=lo_a)
    kb = pack_rows(layout, as_array(b, python_ints), lows=lo_b)
    sums = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert (ka + kb).tolist() == pack_rows(layout, as_array(sums, python_ints)).tolist()
    # a factor's own keys order its rows as the rows order themselves
    assert sorted(range(n), key=lambda i: (ka[i], i)) == sorted(range(n), key=lambda i: (a[i], i))
    assert min(ka.tolist()) >= 0


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.permutations(range(n)), min_size=1, max_size=4),
            st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=1, max_size=8),
            st.lists(st.integers(-9, 9), min_size=1, max_size=8),
            st.sampled_from([0, -(2**63), 2**63]),
            st.booleans(),
        )
    )
)
@settings(max_examples=100)
def test_a_relabelling_scale_matrix_packs_the_relabelled_rows(case):
    perms, exps, powers, low, wide = case
    n = len(perms[0])
    rows = [e + [p] for e, p in zip(exps, powers)]
    # every exponent column within one range, so any of them may land
    # anywhere; wide columns take past 63 bits, and so Python-int keys
    span = 2**61 + 5 if wide else 5
    layout = RowLayout([low] * n + [-9], [span] * n + [18])
    scale = layout.scale[np.array([list(perm) + [n] for perm in perms]).T]
    matrix = as_array([[x + low if i < n else x for i, x in enumerate(r)] for r in rows], False)
    keys = pack_rows(layout, matrix, scale=scale)
    assert keys.shape == (len(rows), len(perms))
    for i, perm in enumerate(perms):
        moved = np.empty_like(matrix)
        moved[:, list(perm) + [n]] = matrix
        assert keys[:, i].tolist() == pack_rows(layout, moved).tolist()


def eager_fields(lows, spans):
    # every field of a layout as the constructor once made them all up
    # front, one formula each
    widths = [span.bit_length() for span in spans]
    shifts = list(accumulate(widths[:0:-1], initial=0))[::-1]
    bits = shifts[0] + widths[0]
    fits = bits <= 63 and -(2**63) <= min(lows) and max(lows) <= 2**63 - 1
    scale = [1 << shift if width else 0 for shift, width in zip(shifts, widths)]
    return {
        "widths": widths,
        "shifts": shifts,
        "dtype": np.int64 if fits else object,
        "row_dtype": narrowest(min(lows), max(lo + span for lo, span in zip(lows, spans))),
        "base": sum(lo * sc for lo, sc in zip(lows, scale)),
        "step": scale[-1],
        "scale": (scale, np.dtype(np.uint64 if fits else object)),
    }


@given(st.integers(1, 5).flatmap(bounds), st.booleans())
@settings(max_examples=300)
# every span 0: no column takes a bit, and every key is 0
@example(([5, -3, 2**70], [0, 0, 0]), False)
# 63 bits on lows at both ends of int64: int64 keys
@example(([-(2**63), 2**63 - 1], [2**62, 2**62 - 1]), True)
# 64 bits: Python-int keys, though every low fits int64
@example(([0, 0], [2**63, 1]), False)
# a low past int64 with a few bits: Python-int keys
@example(([2**63, 0], [3, 0]), True)
def test_fields_made_on_demand_equal_the_eager_formulas(case, unpack_first):
    lows, spans = case
    want = eager_fields(lows, spans)
    layout = RowLayout(lows, spans)
    if unpack_first:
        assert np.dtype(layout.row_dtype) == want["row_dtype"]
    assert layout.widths == want["widths"] and layout.shifts == want["shifts"]
    assert layout.dtype is want["dtype"]
    assert layout.base == want["base"] and type(layout.base) is int
    assert layout.step == want["step"] and type(layout.step) is int
    assert (layout.scale.tolist(), layout.scale.dtype) == want["scale"]
    assert all(type(x) is int for x in layout.scale.tolist())
    assert layout.row_dtype in (np.int8, np.int16, np.int32, np.int64, object)
    assert np.dtype(layout.row_dtype) == want["row_dtype"]


def starts_of_runs(values):
    return [i for i, v in enumerate(values) if i == 0 or v != values[i - 1]]


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("keys", [[], [7], [4, 4, 4], [3, -1, 3, 2**62, -1]])
def test_key_runs_of_no_one_equal_and_mixed_keys(keys, dtype):
    array = np.array(keys, dtype=dtype)
    order, ordered, starts = key_runs(array)
    assert ordered.tolist() == sorted(keys) == array[order].tolist()
    assert starts.tolist() == starts_of_runs(sorted(keys))
    assert order.dtype == starts.dtype == np.intp


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize(
    "keys, weights",
    [
        ([], []),
        ([7], [3]),
        ([7], [0]),
        ([4, 4, 4], [1, 2, -1]),
        ([4, 4, 4], [1, -2, 1]),
        # every sum zero, over several keys
        ([5, 2, 5, 2, 9], [1, 4, -1, -4, 0]),
    ],
)
def test_group_keys_of_no_one_equal_and_cancelling_keys(keys, weights, dtype):
    index, sums = group_keys(np.array(keys, dtype=np.int64), np.array(weights, dtype=dtype))
    want = reference([[k] for k in keys], weights)
    assert [([keys[i]], s) for i, s in zip(index.tolist(), sums.tolist())] == want
    assert sums.dtype == np.dtype(dtype) and index.dtype == np.intp


def test_the_packed_module_imports_no_qcoha_module():
    # kernel imports mpoly, so a packed module that imported either would
    # force a copy of the row format back into mpoly
    tree = ast.parse(Path(packed.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and all(not name.startswith((".", "qcoha")) for name in imported), imported
