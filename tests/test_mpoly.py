from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qcoha.mpoly as mpoly_mod
import qcoha.packed as packed
from qcoha.kernel import structure_table
from qcoha.mpoly import MPoly, embed, relabelled_sum
from qcoha.qlaurent import ONE, Q, ZERO, QLaurent


def x(arity, i):
    return MPoly.variable(arity, i)


def test_zero_prunes():
    p = MPoly(2, {(1, 0): ZERO, (0, 1): ONE})
    assert p.terms == {(0, 1): ONE}


def test_arity_validation():
    with pytest.raises(ValueError):
        MPoly(2, {(1,): ONE})
    with pytest.raises(ValueError):
        MPoly(1, {(-1,): ONE})
    with pytest.raises(ValueError):
        x(2, 0) * x(3, 0)


def test_hand_expansion():
    # (x3 - q x1)(x3 - q x2) over three variables
    f = x(3, 2) - x(3, 0).scale(Q)
    g = x(3, 2) - x(3, 1).scale(Q)
    p = f * g
    assert p.terms == {
        (0, 0, 2): ONE,
        (1, 0, 1): -Q,
        (0, 1, 1): -Q,
        (1, 1, 0): Q * Q,
    }


def test_coefficient_and_sorted_terms():
    p = x(2, 1) + x(2, 0)
    assert p.coefficient((1, 0)) == ONE
    assert p.coefficient((2, 0)) == ZERO
    # the terms view is in lexicographic exponent order, the canonical one
    assert list(p.terms) == [(0, 1), (1, 0)]


def test_embed_places_variables():
    p = x(2, 0) * x(2, 1)  # x1 x2
    q = embed(p, 4, (2, 0))
    assert q.terms == {(1, 0, 1, 0): ONE}
    with pytest.raises(ValueError):
        embed(p, 4, (1, 1))
    with pytest.raises(ValueError):
        embed(p, 4, (0, 4))


exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
coeffs = st.builds(
    QLaurent,
    st.integers(min_value=-2, max_value=2),
    st.lists(st.integers(min_value=-4, max_value=4), max_size=3),
)
mpolys = st.dictionaries(exponents, coeffs, max_size=8).map(lambda t: MPoly(2, t))


def naive_mul(a, b):
    # independent oracle: accumulate single-term products via repeated add
    out = MPoly.zero(a.arity)
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(u + v for u, v in zip(e1, e2))
            out = out + MPoly(a.arity, {key: c1 * c2})
    return out


@given(mpolys, mpolys)
def test_mul_matches_naive_expansion(a, b):
    assert a * b == naive_mul(a, b)


@given(mpolys, mpolys, mpolys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


# -- the row form against a dict-of-QLaurent reference -----------------------------
#
# The inputs reach every dtype path: Fraction coefficients, negative powers of
# q, weights whose sums leave int64 and exponents at 2**63 and 2**70.

BIG_EXPONENTS = st.sampled_from([0, 1, 2, 5, 2**63 - 1, 2**63, 2**70])
BIG_RATIONALS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**62, -(2**62), 2**63 - 1, -(2**63), 3**50]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
BIG_COEFFS = st.builds(
    QLaurent,
    st.integers(min_value=-3, max_value=3),
    st.lists(BIG_RATIONALS, max_size=3),
)


def ref_polys(arity):
    return st.dictionaries(
        st.tuples(*[BIG_EXPONENTS] * arity), BIG_COEFFS, max_size=5
    ).map(lambda t: {e: c for e, c in t.items() if c})


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def ref_mul(a, b):
    # summed as {exponent: {power: rational}}, then read back as QLaurents
    out = {}
    b = [(e, list(c.items())) for e, c in b.items()]
    for e1, c1 in a.items():
        c1 = list(c1.items())
        for e2, c2 in b:
            terms = out.setdefault(tuple(map(add, e1, e2)), {})
            for p1, w1 in c1:
                for p2, w2 in c2:
                    terms[p1 + p2] = terms.get(p1 + p2, 0) + w1 * w2
    return {e: c for e, c in ((e, QLaurent.from_dict(t)) for e, t in out.items()) if c}


def ref_embed(a, arity, positions):
    out = {}
    for e, c in a.items():
        new = [0] * arity
        for k, v in enumerate(e):
            new[positions[k]] = v
        out[tuple(new)] = c
    return out


def exact_types(values):
    # integral values come out as int, the rest as Fraction
    return all(
        type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values
    )


@settings(max_examples=150, deadline=None)
@given(ref_polys(2), ref_polys(2), BIG_COEFFS)
def test_row_arithmetic_matches_dict_reference(a, b, c):
    pa, pb = MPoly(2, a), MPoly(2, b)
    assert dict(pa.terms) == a
    assert dict((pa + pb).terms) == ref_add(a, b)
    assert dict((pa - pb).terms) == ref_add(a, {e: -v for e, v in b.items()})
    assert dict((-pa).terms) == {e: -v for e, v in a.items()}
    assert dict((pa * pb).terms) == ref_mul(a, b)
    assert dict(pa.scale(c).terms) == ref_mul(a, {(0, 0): c} if c else {})
    for p in (pa, pb, pa * pb):
        assert exact_types(w for t in p.terms.values() for _, w in t.items())


@settings(max_examples=100, deadline=None)
@given(ref_polys(2), st.sampled_from([(0, 2), (3, 1), (1, 0)]))
def test_row_embed_matches_dict_reference(a, positions):
    assert dict(embed(MPoly(2, a), 4, positions).terms) == ref_embed(a, 4, positions)


@settings(max_examples=60, deadline=None)
@given(ref_polys(3), st.lists(st.permutations([0, 1, 2]), min_size=1, max_size=4))
def test_relabelled_sum_matches_dict_reference(a, perms):
    want = {}
    for perm in perms:
        want = ref_add(want, ref_embed(a, 3, perm))
    assert dict(relabelled_sum(MPoly(3, a), perms).terms) == want


# each example undoes its own patches, so the fixture is not shared state
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.sampled_from([None, 0, 3, 2**63]),
    ref_polys(2),
    ref_polys(2),
    st.integers(min_value=1, max_value=4),
)
# exponents at 2**70 (object rows and keys) and Fraction weights
@example(None, {(2**70, 1): QLaurent.const(Fraction(1, 3)), (0, 0): Q}, {(1, 0): ONE, (2, 5): -Q}, 1)
# a constant leading column takes no bits: the slices follow the next one
@example(3, {(0, 1): ONE, (1, 0): Q}, {(0, 0): ONE, (2, 1): ONE}, 1)
# leading values 0 and 0 make one slice of 2 x 2 pairs, past STAGE_ROWS = 2
@example(None, {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE}, {(0, 0): ONE, (0, 5): Q, (1, 1): ONE}, 2)
# the key of q collects two pairs, past STAGE_ROWS = 1: a one-key slice
@example(None, {(0, 0): ONE + Q}, {(0, 0): ONE + Q}, 1)
def test_sliced_products_match_dict_reference(monkeypatch, lead, a, b, stage):
    # every product of more than ``stage`` pairs of rows is staged in slices
    # of product keys; ``lead`` prefixes a constant first column
    if lead is not None:
        a, b = ({(lead,) + e: c for e, c in p.items()} for p in (a, b))
    arity = 2 if lead is None else 3
    staged = []
    stage_run = mpoly_mod._stage
    with monkeypatch.context() as patch:
        patch.setattr(mpoly_mod, "STAGE_ROWS", stage)
        patch.setattr(packed, "STAGE_ROWS", stage)
        patch.setattr(
            mpoly_mod, "_stage", lambda run, *arrays: staged.append(stage_run(run, *arrays)) or staged[-1]
        )
        product = MPoly(arity, a) * MPoly(arity, b)
    assert all(len(keys) <= stage for keys, _ in staged)
    assert dict(product.terms) == ref_mul(a, b)
    # the slices are joined in order: the rows are those of the grouped reference
    assert product == MPoly(arity, ref_mul(a, b))
    assert exact_types(w for t in product.terms.values() for _, w in t.items())


# a 1 000-term univariate square and a 900-term bivariate square with 300
# leading values: many distinct leading fields with few rows each
@pytest.mark.parametrize(
    "arity,terms",
    [
        (1, {(i,): QLaurent.term(1 + i % 3, i % 2) for i in range(1000)}),
        (2, {(i, j): QLaurent.term((-1) ** i * (j + 1), i % 2) for i in range(300) for j in range(3)}),
    ],
)
def test_large_products_are_staged_in_key_range_slices(monkeypatch, arity, terms):
    staged = []
    stage_run = mpoly_mod._stage
    monkeypatch.setattr(
        mpoly_mod, "_stage", lambda *arrays: staged.append(stage_run(*arrays)) or staged[-1]
    )
    p = MPoly(arity, terms)
    assert p * p == MPoly(arity, ref_mul(terms, terms))
    assert len(staged) > 1
    assert all(len(keys) <= mpoly_mod.STAGE_ROWS for keys, _ in staged)


def test_weights_are_int64_only_under_the_bound():
    a = MPoly(1, {(1,): QLaurent.const(2**31), (0,): QLaurent.const(-(2**31))})
    # rows take the narrowest dtype of their bounds, weights stay int64
    assert a.weights.dtype == np.int64 and a.rows.dtype == np.int8
    # sum|w| of each factor is 2**32: the product's bound is 2**64
    square = a * a
    assert square.weights.dtype == object
    assert dict(square.terms) == {
        (2,): QLaurent.const(2**62),
        (1,): QLaurent.const(-(2**63)),
        (0,): QLaurent.const(2**62),
    }
    half = MPoly(1, {(1,): QLaurent.const(2**30), (0,): QLaurent.const(-(2**30))})
    assert (half * half).weights.dtype == np.int64
    assert MPoly(1, {(0,): QLaurent.const(Fraction(1, 2))}).weights.dtype == object
    huge = MPoly(1, {(2**63,): ONE})
    assert huge.rows.dtype == object and huge.weights.dtype == np.int64
    assert dict((huge * huge).terms) == {(2**64,): ONE}


@pytest.mark.parametrize(
    "weights,dtype",
    [
        ([3, -4], np.int64),
        # max|w| * len passes 2**63, the exact sum of |w| does not
        ([2**62, 1, -1], np.int64),
        ([2**62, 2**62], object),
        ([-(2**63)], object),
    ],
)
def test_from_rows_keeps_int64_weight_arrays_only_below_2_63(weights, dtype):
    rows = np.array([[i, 0] for i in range(len(weights))], dtype=np.int64)
    p = MPoly.from_rows(1, rows, np.array(weights, dtype=np.int64))
    assert p.weights.dtype == dtype
    assert p.weights.tolist() == weights


def test_rows_spanning_all_of_int64_stay_int64():
    # the power column spans 2**64 - 1: 64 bits of fields make Python-int
    # keys, whose fields unpack exactly into int64 rows
    rows = np.array([[0, -(2**63)], [0, 2**63 - 1], [0, -(2**63)]], dtype=np.int64)
    p = MPoly.from_rows(1, rows, np.array([1, 1, 2], dtype=np.int64))
    assert p.rows.dtype == np.int64
    assert p.rows.tolist() == [[0, -(2**63)], [0, 2**63 - 1]] and p.weights.tolist() == [3, 1]


def test_from_rows_on_int64_table_arrays_whose_sum_passes_int64():
    # the (2, 1) kernel table at d = 33 is int64, but its |weights| sum to 2**64
    table = structure_table(2, 1, 33)
    rows = np.column_stack([table.exps, table.powers])
    assert table.weights.dtype == np.int64
    lifted = MPoly.from_rows(3, rows, table.weights)
    exact = MPoly.from_rows(3, rows.tolist(), table.weights.tolist())
    assert lifted.weights.dtype == object
    assert lifted == exact
    # 32 times the largest |weight| leaves int64: a wrapped product would differ
    factor = MPoly(3, {(1, 0, 0): QLaurent.const(32), (0, 0, 1): QLaurent.term(-3, 1)})
    assert lifted * factor == exact * factor
    assert max(map(abs, (lifted * factor).weights.tolist())) > 2**63


def test_products_staged_in_small_chunks(monkeypatch):
    f = MPoly(
        3,
        {
            (i, j, k): QLaurent(i - j, [k + 1, -1])
            for i in range(4)
            for j in range(3)
            for k in range(2)
        },
    )
    g = f * f - f
    monkeypatch.setattr(mpoly_mod, "STAGE_ROWS", 7)
    monkeypatch.setattr(packed, "STAGE_ROWS", 7)
    assert f * f - f == g
    assert relabelled_sum(g, [(0, 1, 2), (2, 0, 1)]) == relabelled_sum(g, [(2, 0, 1)]) + g


def test_terms_view_is_read_only():
    p = x(2, 0) + x(2, 1)
    with pytest.raises(TypeError):
        p.terms[(1, 1)] = ONE
    # each read builds a fresh view of the same terms
    assert p.terms == p.terms and (1, 1) not in p.terms
