import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcoha import kernel, partition_algebra
from qcoha.bipartite import product_via_graphs
from qcoha.errors import ResourceLimitError
from qcoha.kernel import DEFAULT_TERM_CAP, coefficient_bound, structure_table
from qcoha.partition_algebra import (
    _basis_product,
    _bilinear_keys,
    _certified_layouts,
    _check_shape,
    check_associativity,
    grading_failures,
    product,
    product_elements,
    quasi_commutativity_report,
    shift_sort_product,
    specialize,
)
from qcoha.partitions import partitions_up_to, sort_ascending
from qcoha.qlaurent import ONE, Q, ZERO, QLaurent, q_power
from qcoha.shuffle_algebra import verify_homomorphism


def QL(offset, *coeffs):
    return QLaurent(offset, coeffs)


def element_add(e1, e2):
    # the sum of two elements, keys whose coefficients cancel dropped
    out = dict(e1)
    for key, c in e2.items():
        total = out[key] + c if key in out else c
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def scale_element(e, coeff):
    return {key: c * coeff for key, c in e.items()} if coeff else {}


def test_unit_laws_on_basis():
    assert product((), (0, 2), 4) == {(0, 2): ONE}
    assert product((1, 1), (), 2) == {(1, 1): ONE}
    assert product((), (), 3) == {(): ONE}


def vector_product(u, v, d):
    # the table's rows re-keyed by (u + a, v + b), keys left unsorted
    if not u or not v:
        return {u + v: ONE}
    table = structure_table(len(u), len(v), d)
    keys = (table.exps + np.array(u + v, dtype=object)).tolist()
    powers = table.powers.tolist()
    weights = table.weights.tolist()
    return {tuple(k): QLaurent.term(w, p) for k, p, w in zip(keys, powers, weights)}


def sort_merge(e):
    # project a vector-level element to partition level by sorting its keys
    out = {}
    for key, coeff in e.items():
        out = element_add(out, {sort_ascending(key): coeff})
    return out


def test_vector_product_single_parts_d2():
    # (0) * (0) at d=2: (0,1) - q (1,0)
    got = vector_product((0,), (0,), 2)
    assert got == {(0, 1): ONE, (1, 0): -Q}


def test_partition_product_single_parts_d2():
    assert product((0,), (0,), 2) == {(0, 1): QL(0, 1, -1)}


def test_partition_product_single_parts_d3():
    # (0) * (0) at d=3: (1 + q^2)(0,2) - 2q (1,1)
    assert product((0,), (0,), 3) == {
        (0, 2): QL(0, 1, 0, 1),
        (1, 1): QL(1, -2),
    }


def test_worked_product_two_and_one_parts_d4():
    # (0,2) * (1) at d=4; every coefficient hand-checked against the
    # closed binomial form of the (2,1) kernel
    got = product((0, 2), (1,), 4)
    want = {
        (1, 3, 5): QL(2, 9, 0, 3, 0, 1),  # 9q^2 + 3q^4 + q^6
        (2, 2, 5): QL(2, 3, 0, 0, -3),  # 3q^2 - 3q^5
        (2, 3, 4): QL(3, -10, 9, -3),  # -10q^3 + 9q^4 - 3q^5
        (3, 3, 3): QL(4, 3),
        (0, 4, 5): QL(2, 3, -1),
        (1, 4, 4): QL(3, -9),
        (0, 3, 6): QL(1, -3),
        (1, 2, 6): QL(1, -3),
        (0, 2, 7): ONE,
    }
    assert got == want


def test_shift_sort_product():
    assert shift_sort_product((1,), (0,), 2) == (1, 1)
    assert shift_sort_product((0, 2), (1,), 4) == (0, 2, 7)
    assert shift_sort_product((), (3,), 5) == (3,)


def test_q0_specialization_matches_shift_sort():
    for d in (1, 2, 3, 4):
        for mu, nu in [((0, 2), (1,)), ((1,), (0, 1)), ((0,), (0,))]:
            got = specialize(product(mu, nu, d), 0)
            assert got == {shift_sort_product(mu, nu, d): 1}


def test_specialize_at_one():
    got = specialize(product((0,), (0,), 2), 1)
    assert got == {}  # (1 - q) vanishes
    got3 = specialize(product((0,), (0,), 3), 1)
    assert got3 == {(0, 2): 2, (1, 1): -2}


def test_element_helpers():
    # the references below fold with these helpers
    e = {(0, 1): ONE}
    f = {(0, 1): -ONE, (2,): Q}
    assert element_add(e, f) == {(2,): Q}
    assert scale_element(e, QLaurent()) == {}
    half = scale_element(e, QLaurent.const(Fraction(1, 2)))
    assert half == {(0, 1): QLaurent.const(Fraction(1, 2))}


def test_bar_element():
    # bar, q -> q**-1, on every coefficient of an element is an involution
    bar = lambda e: {key: c.bar() for key, c in e.items()}
    e = {(0, 1): QL(0, 1, -1)}  # (1 - q)
    assert bar(e) == {(0, 1): QL(-1, -1, 1)}
    assert bar(bar(e)) == e


def test_quasi_commutativity_odd_exponent():
    # d=2, single parts: exponent 1 is odd, only the signed form holds
    rep = quasi_commutativity_report((0,), (0,), 2)
    assert rep.exponent == 1
    assert rep.signed_matches
    assert not rep.unsigned_matches


def test_quasi_commutativity_even_exponent():
    rep = quasi_commutativity_report((0,), (0,), 3)
    assert rep.exponent == 2
    assert rep.signed_matches
    assert rep.unsigned_matches


def test_quasi_commutativity_with_unit():
    rep = quasi_commutativity_report((), (1, 2), 4)
    assert rep.exponent == 0
    assert rep.signed_matches and rep.unsigned_matches


def test_associativity_samples():
    assert check_associativity((0,), (0,), (0,), 2).passed
    assert check_associativity((0, 1), (2,), (1, 1), 3).passed
    assert check_associativity((), (0, 1), (2,), 4).passed


def test_grading_failures_empty_on_products():
    for d in (1, 2, 3):
        for mu, nu in [((0, 1), (2,)), ((1,), (1,)), ((0, 2), (0, 1))]:
            assert grading_failures(mu, nu, d, _basis_product(mu, nu, d)[0]) == []


def test_grading_failures_detects_bad_terms():
    # the distinct keys of a product; each failing key is worded once
    bad = np.array([[0, 0], [0, 1]])
    assert grading_failures((0,), (0,), 2, bad) == [
        "term (0, 0) of (0,) * (0,) (d=2) has weight 0, want 1"
    ]
    assert grading_failures((0, 1), (), 2, np.array([[0, 1, 2]])) == [
        "term (0, 1, 2) of (0, 1) * () (d=2) has length 3, want 2"
    ]
    huge = np.array([[2**62, 2**62]])
    assert grading_failures((2**62,), (2**62 - 1,), 3, huge)
    assert grading_failures((2**62,), (2**62,), 1, huge) == []


def test_resource_limit_propagates():
    with pytest.raises(ResourceLimitError):
        product((0, 1, 2, 3), (0, 1, 2, 3), 5, term_cap=10)


def test_vector_product_not_sorted_keys():
    got = vector_product((2,), (0,), 2)
    assert (3, 0) in got or (2, 1) in got
    assert sort_merge(got) == product((2,), (0,), 2)


partitions3 = st.lists(
    st.integers(min_value=0, max_value=3), min_size=0, max_size=3
).map(lambda v: tuple(sorted(v)))
vectors3 = st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=3).map(
    tuple
)
ds = st.integers(min_value=1, max_value=3)


@given(vectors3, vectors3, ds)
@settings(max_examples=40)
def test_sorting_is_well_defined(u, v, d):
    # rearranging the inputs changes nothing after the sort-merge projection
    got = sort_merge(vector_product(u, v, d))
    want = product(sort_ascending(u), sort_ascending(v), d)
    assert got == want


@given(partitions3, ds)
@settings(max_examples=30)
def test_unit_element_bilinear(mu, d):
    e = product(mu, (0, 1), d) if mu else {(): ONE}
    assert product_elements(e, {(): ONE}, d) == e
    assert product_elements({(): ONE}, e, d) == e


short_partitions = st.lists(
    st.integers(min_value=0, max_value=3), min_size=0, max_size=2
).map(lambda v: tuple(sorted(v)))
small_coeffs = st.builds(
    QLaurent,
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3),
)
small_elements = st.dictionaries(short_partitions, small_coeffs, min_size=1, max_size=3)


def reference_product_elements(e1, e2, d):
    # the bilinear product as a plain fold over basis products, QLaurent only
    out = {}
    for k1, c1 in e1.items():
        for k2, c2 in e2.items():
            out = element_add(out, scale_element(product(k1, k2, d), c1 * c2))
    return out


@given(small_elements, small_elements, ds)
@settings(max_examples=25)
def test_bilinear_matches_reference_fold(e1, e2, d):
    assert product_elements(e1, e2, d) == reference_product_elements(e1, e2, d)


# one side of six pair shapes, most of them met by several pairs: e1 keys
# of lengths 0, 1 and 2, e2 keys of lengths 1 and 3, and coefficients of
# one to three terms
MIXED_E1 = {(): QL(0, 2, 1), (1,): QL(-1, 1, 0, -3), (3,): ONE, (0, 2): QL(2, 1), (1, 1): QL(1, -1)}
MIXED_E2 = {(0,): QL(0, 1, -1), (2,): Q, (1, 1, 2): QL(2, 5)}


def mixed_side(d, top=None):
    # the side product_elements stages for MIXED_E1 * MIXED_E2, with its
    # certified layouts; ``top`` replaces the bound of its coefficients
    terms = [
        (k1, k2) + tuple(zip(*(c1 * c2).items()))
        for k1, c1 in MIXED_E1.items()
        for k2, c2 in MIXED_E2.items()
    ]
    coeffs = [c for _, _, _, cs in terms for c in cs]
    side = (
        [(k1, k2) for k1, k2, _, _ in terms],
        [len(ps) for _, _, ps, _ in terms],
        np.array([p for _, _, ps, _ in terms for p in ps], dtype=object),
        np.array(coeffs, dtype=object),
        max(map(abs, coeffs)) if top is None else top,
    )
    return side, _certified_layouts(terms, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_side_of_mixed_pair_shapes_is_the_sum_of_its_pairs(d):
    want = {}
    for k1, c1 in MIXED_E1.items():
        for k2, c2 in MIXED_E2.items():
            for key, c in product(k1, k2, d).items():
                want[key] = want.get(key, ZERO) + c1 * c2 * c
    assert product_elements(MIXED_E1, MIXED_E2, d) == {k: c for k, c in want.items() if c}
    assert len({(len(k1), len(k2)) for k1, k2 in mixed_side(d)[0][0]}) == 6


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_side_of_mixed_pair_shapes_is_charged_per_pair(d):
    # each build charged the rows of its shape's table times its width,
    # summed over the pairs, then the staged rows times their width
    side, layouts = mixed_side(d)
    pairs, counts = side[0], side[1]
    for k1, k2 in pairs:
        _check_shape(len(k1), len(k2), d, DEFAULT_TERM_CAP)
    builds = sum(
        _check_shape(len(k1), len(k2), d, DEFAULT_TERM_CAP) * (len(k1) + len(k2) + 1) for k1, k2 in pairs
    )
    staged = sum(
        len(_basis_product(k1, k2, d)[2]) * n * (len(k1) + len(k2) + 1)
        for (k1, k2), n in zip(pairs, counts)
    )
    charged = []
    _bilinear_keys([side], d, DEFAULT_TERM_CAP, layouts, charged.append)
    assert charged == [builds, staged]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_int64_staging_ends_at_the_bound_summed_over_pairs(d):
    # cells sum in int64 while top * counts[i] * coefficient_bound of pair
    # i, summed over the pairs, fits int64, and in Python ints past it
    side, layouts = mixed_side(d)
    pairs, counts = side[0], side[1]
    per_top = sum(
        n * coefficient_bound((d - 1) * len(k1) * len(k2)) for (k1, k2), n in zip(pairs, counts)
    )
    edge = (2**63 - 1) // per_top
    sums = []
    for top, dtype in ((edge, np.int64), (edge + 1, object)):
        side, _ = mixed_side(d, top)
        got = _bilinear_keys([side], d, DEFAULT_TERM_CAP, layouts)
        assert {cells.dtype for _, _, _, cells in got.values()} == {np.dtype(dtype)}
        sums.append({n: cells.tolist() for n, (_, _, _, cells) in got.items()})
    assert sums[0] == sums[1]


def test_cancelling_terms_are_dropped():
    # at d=1 the product only merges: (0)*(1) and -(1)*(0) cancel at (0, 1)
    e1 = {(0,): ONE, (1,): -ONE}
    e2 = {(1,): ONE, (0,): ONE}
    assert product_elements(e1, e2, 1) == {(0, 0): ONE, (1, 1): -ONE}


@pytest.mark.parametrize("scale", [2**62, -(2**63) + 1, 3**80, Fraction(7, 3)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_large_and_fractional_coefficients_stay_exact(scale, d):
    # times 3 the integers leave int64 range and 7/3 is no integer: only the
    # object path is exact
    e1 = {(0, 1): QLaurent(0, (scale, 1)), (2,): QLaurent(1, (-scale,))}
    e2 = {(1,): QLaurent(0, (3, scale)), (0, 2): ONE}
    assert product_elements(e1, e2, d) == reference_product_elements(e1, e2, d)
    assert product_elements(e2, e1, d) == reference_product_elements(e2, e1, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fraction_sums_that_are_integral_come_out_as_ints(d):
    # (0,)*(1,) and (1,)*(0,) share keys, so 1/3 and 2/3 meet in one sum
    e1 = {(0,): QLaurent.const(Fraction(1, 3)), (1,): QLaurent.const(Fraction(2, 3))}
    e2 = {(0,): ONE, (1,): ONE}
    got = product_elements(e1, e2, d)
    assert got == reference_product_elements(e1, e2, d)
    if d == 1:
        assert got[(0, 1)].coeffs == (1,)
    for f in got.values():
        assert all(type(c) is int or c.denominator > 1 for c in f.coeffs), f


@pytest.mark.parametrize("c", [2**40, 2**70])
def test_huge_parts_shift_every_key(c):
    # adding c to every part adds c to every key; 2**70 needs Python-int keys
    shift = lambda key: tuple(v + c for v in key)
    for mu, nu in [((0,), (0, 1)), ((0, 2), (1, 1)), ((), (0, 3))]:
        want = {shift(k): v for k, v in product(mu, nu, 3).items()}
        assert product(shift(mu), shift(nu), 3) == want
        e1 = {shift(mu): QLaurent(0, (1, 2))}
        e2 = {shift(nu): ONE, shift((0,)): Q}
        assert product_elements(e1, e2, 3) == reference_product_elements(e1, e2, 3)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_keys_and_powers_at_the_int64_boundary(d):
    cases = [
        # at d=1 both put a constant column ahead of exactly 63 bits of
        # (key, power) columns
        ({(0,): ONE, (2**61,): Q}, {(0,): ONE}),
        ({(4, 4): ONE, (4, 5): q_power(2**62 - 1)}, {(4,): ONE}),
        # powers past int64
        ({(1,): q_power(2**70)}, {(1,): ONE, (2,): Q}),
        ({(1,): q_power(-(2**62) - 1)}, {(1, 2): -Q}),
    ]
    for e1, e2 in cases:
        assert product_elements(e1, e2, d) == reference_product_elements(e1, e2, d)


@pytest.mark.parametrize("p", [0, -7, 2**62 - 1, 2**62 + 5, 2**70])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_key_length_reached_from_different_factor_lengths(p, d):
    # (0,)*(1, 2) and (0, 1)*(2,) both give keys of length 3, staged under one
    # layout certified from both, with negative powers, powers past 2**62
    # and Fraction coefficients
    e1 = {(0,): QLaurent(p, (Fraction(1, 2), 0, -3)), (0, 1): QLaurent(p - 1, (2,))}
    e2 = {(1, 2): QLaurent(-2, (1, 0, Fraction(-2, 3))), (2,): ONE}
    got = product_elements(e1, e2, d)
    assert {len(k) for k in got} == {2, 3, 4}
    assert got == reference_product_elements(e1, e2, d)
    e1 = {(0,): q_power(p), (0, 1): QLaurent(p - 1, (2, -5))}
    assert product_elements(e1, e2, d) == reference_product_elements(e1, e2, d)


def test_terms_far_apart_in_q_stage_only_the_powers_they_reach():
    # the layout at key length 2 spans powers 0 to 10**6 + 1, but only a few
    # rows are staged there: each key's vector spans only its own powers,
    # where one vector of the layout's powers per key took about 56 MB
    e1, e2 = {(0,): ONE, (1,): q_power(10**6)}, {(0,): ONE}
    tracemalloc.start()
    try:
        got = product_elements(e1, e2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference_product_elements(e1, e2, 2)
    assert peak < 1_000_000

def test_basis_products_match_shuffle_oracle():
    for d in (1, 2, 3, 4):
        grid = partitions_up_to(2, 2) if d < 4 else partitions_up_to(2, 1)
        for mu, nu in itertools.product(grid, repeat=2):
            report = verify_homomorphism(mu, nu, d)
            assert report.passed, report.failures


def test_basis_products_match_orientation_sum():
    for mu, nu in itertools.product(partitions_up_to(3, 2), repeat=2):
        keys, counts, powers, coeffs = product_via_graphs(mu, nu)
        via_graphs = {}
        rows = zip(np.repeat(keys, counts, axis=0).tolist(), powers.tolist(), coeffs.tolist())
        for key, p, c in rows:
            via_graphs.setdefault(tuple(key), {})[p] = c
        via_graphs = {key: QLaurent.from_dict(t) for key, t in via_graphs.items()}
        assert product(mu, nu, 2) == via_graphs, (mu, nu)


def test_term_cap_holds_for_cached_tables():
    # (0,1,2)*(0,1,2) at d=5 builds the (3,3,5) table; a capped request must
    # fail the same way before and after an uncapped one caches it
    with pytest.raises(ResourceLimitError) as cold:
        product((0, 1, 2), (0, 1, 2), 5, term_cap=10)
    assert product((0, 1, 2), (0, 1, 2), 5)
    with pytest.raises(ResourceLimitError) as warm:
        product((0, 1, 2), (0, 1, 2), 5, term_cap=10)
    assert str(warm.value) == str(cold.value)
    with pytest.raises(ResourceLimitError):
        product_elements({(0, 1, 2): ONE}, {(0, 1, 2): ONE}, 5, term_cap=10)


def test_staged_row_cap_covers_every_coefficient_type():
    # (0,1)*(0,1) at d=2 has 12 grouped rows; a coefficient of three terms
    # stages 36, whether its coefficients are integers or fractions
    for c in (QL(0, 1, 2, 3), QL(0, Fraction(1, 3), 2, 3)):
        assert product_elements({(0, 1): c}, {(0, 1): ONE}, 2, term_cap=36)
        with pytest.raises(ResourceLimitError, match="stages 36 rows, cap 35"):
            product_elements({(0, 1): c}, {(0, 1): ONE}, 2, term_cap=35)


def far_apart_powers(p):
    # (0,)*(1, 2) at q**p and (0, 1)*(2,) at q**-1 meet at keys of length 3,
    # whose coefficients then span p + 2 powers of q
    return {(0,): q_power(p), (0, 1): QL(-p - 1, 2)}, {(1, 2): ONE, (2,): q_power(p)}


@pytest.mark.parametrize("p,cap", [(2**62 - 1, DEFAULT_TERM_CAP), (3 * 10**6, 10**6)])
def test_a_coefficient_spanning_past_the_cap_is_refused(p, cap):
    # one entry per power in between would be a MemoryError at 2**62 - 1,
    # and 114 MB for 13 keys at 3 * 10**6
    message = "^a coefficient spans %d powers of q, cap %d$" % (p + 2, cap)
    with pytest.raises(ResourceLimitError, match=message):
        product_elements(*far_apart_powers(p), 2, term_cap=cap)


def test_a_coefficient_spanning_the_whole_cap_is_kept():
    e1, e2 = far_apart_powers(1000)
    got = product_elements(e1, e2, 2, term_cap=1002)
    assert got == reference_product_elements(e1, e2, 2)
    assert max(max(dict(c.items())) - min(dict(c.items())) + 1 for c in got.values()) == 1002
    with pytest.raises(ResourceLimitError, match="spans 1002 powers of q, cap 1001$"):
        product_elements(e1, e2, 2, term_cap=1001)


@given(small_elements, small_elements, ds)
@settings(max_examples=15)
def test_object_engine_handles_fractions(e1, e2, d):
    # fractional scalars force the exact object path; bilinearity must hold
    e1 = scale_element(e1, QLaurent.const(Fraction(1, 3)))
    got = product_elements(e1, e2, d)
    want = scale_element(
        product_elements(scale_element(e1, QLaurent.const(3)), e2, d),
        QLaurent.const(Fraction(1, 3)),
    )
    assert got == want


@given(partitions3, partitions3, ds)
@settings(max_examples=20)
def test_products_have_polynomial_coefficients(mu, nu, d):
    e = product(mu, nu, d)
    bound = (d - 1) * len(mu) * len(nu)
    for coeff in e.values():
        assert min(k for k, _ in coeff.items()) >= 0
        assert max(k for k, _ in coeff.items()) <= bound
    assert grading_failures(mu, nu, d, _basis_product(mu, nu, d)[0]) == []


def test_exhaustive_quasi_commutativity_small():
    for d in (1, 2, 3):
        for mu, nu in itertools.product(partitions_up_to(2, 2), repeat=2):
            rep = quasi_commutativity_report(mu, nu, d)
            assert rep.signed_matches, (mu, nu, d)
            odd = rep.exponent % 2 == 1
            if not odd:
                assert rep.unsigned_matches, (mu, nu, d)


@pytest.mark.parametrize("d", [1, 2])
def test_negative_term_cap_is_a_value_error(d):
    # an empty factor needs no table, so no table check would see the cap
    calls = [
        lambda: product((0,), (0,), d, term_cap=-1),
        lambda: product((), (0,), d, term_cap=-1),
        lambda: product_elements({(0,): ONE}, {(0,): ONE}, d, term_cap=-1),
        lambda: product_elements({(): ONE}, {(0,): ONE}, d, term_cap=-1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="term cap must be non-negative, got -1"):
            call()


@pytest.mark.parametrize("d", [0, -2])
def test_loop_counts_below_one_are_value_errors(d):
    calls = [
        lambda: product((), (0,), d),
        lambda: product_elements({(): ONE}, {(0,): ONE}, d),
        lambda: check_associativity((), (0,), (), d),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="the loop count d must be at least 1"):
            call()


def _spy_on_bounds(monkeypatch):
    """Record every pack of rows after checking each packed row lies inside
    the layout's bounds, its power shifted, and check that every power a
    bilinear sum stages lies inside the power bounds of its layout, which
    frame its dense groups."""
    real, summed = partition_algebra.pack_rows, partition_algebra._summed
    seen = []

    def spy(layout, rows, given=None, shift=0):
        lows, spans = layout.lows, layout.spans
        parts, powers = rows, given
        if powers is None and parts.shape[1] == len(lows):
            parts, powers = parts[:, :-1], parts[:, -1]
        elif powers is None:
            # keys alone, each at the power of the shift
            powers = np.zeros(len(parts), dtype=np.int64)
        assert len(lows) == len(spans) == parts.shape[1] + 1
        assert len(parts) == len(powers) > 0
        bottoms = parts.min(axis=0).tolist() + [min(powers.tolist()) + shift]
        tops = parts.max(axis=0).tolist() + [max(powers.tolist()) + shift]
        for bottom, top, lo, span in zip(bottoms, tops, lows, spans):
            assert lo <= bottom and top <= lo + span, (bottom, top, lo, span)
        seen.append((len(lows), spans[-1]))
        return real(layout, rows, given, shift)

    def summed_spy(group, layout, dtype, term_cap):
        low, span = layout.lows[-1], layout.spans[-1]
        for (_, _, powers, _), least, most, _, _, _ in group:
            assert low <= min(powers.tolist()) + least
            assert max(powers.tolist()) + most <= low + span
        return summed(group, layout, dtype, term_cap)

    monkeypatch.setattr(partition_algebra, "pack_rows", spy)
    monkeypatch.setattr(partition_algebra, "_summed", summed_spy)
    # cached basis products were packed before the spy was in place
    partition_algebra._basis_product.cache_clear()
    return seen


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_build_from_a_cold_merged_table_packs_once(d):
    # the merge packs its rows in the kernel, never through this module's
    # pack_rows, so a build is one pack whether its merged table is cached
    mu, nu = (1, 1, 2), (0, 0)
    kernel.merged_table.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_on_bounds(mp)
        product(mu, nu, d)
        product(nu, mu, d)
        assert seen == [(6, (d - 1) * 6)] * 2
    partition_algebra._basis_product.cache_clear()


@given(
    short_partitions,
    short_partitions,
    short_partitions,
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0, 2**40, 2**70]),
)
@example((), (), (), 1, 0)
@example((0, 3), (), (1,), 2, 2**40)
@example((0,), (0, 1), (), 3, 2**70)
@example((2, 3), (0, 1), (1, 3), 4, 0)
@example((1, 2), (0, 3), (2, 2), 4, 2**70)
@settings(max_examples=50, deadline=None)
def test_grouped_rows_lie_inside_their_bounds(mu, nu, w, d, c):
    # a bound too narrow would merge distinct rows without an error
    shift = lambda key: tuple(v + c for v in key)
    mu, nu, w = shift(mu), shift(nu), shift(w)
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_on_bounds(mp)
        m, n, l = len(mu), len(nu), len(w)
        product(mu, nu, d)
        assert seen == ([(m + n + 1, (d - 1) * m * n)] if mu and nu else [])
        assert check_associativity(mu, nu, w, d).passed
        # the keys of both sides are packed once, under the layout of the
        # triple, whose power span is larger than a basis product's
        if d > 1 and mu and nu and w:
            assert seen.count((m + n + l + 1, (d - 1) * (m * n + m * l + n * l))) == 1
    partition_algebra._basis_product.cache_clear()


def test_flipped_coefficient_fails_with_the_fold_message(monkeypatch):
    mu, nu, w, d = (0,), (1,), (0, 1), 2
    real = partition_algebra._basis_product
    target = next(iter(product(mu, nu, d)))

    def flipped(k1, k2, d):
        keys, counts, powers, coeffs = real(k1, k2, d)
        if (k1, k2) == (target, w):
            coeffs = coeffs.copy()
            coeffs[0] = -coeffs[0]
        return keys, counts, powers, coeffs

    monkeypatch.setattr(partition_algebra, "_basis_product", flipped)
    # a test-local fold of the same (flipped) basis products
    left = reference_product_elements(product(mu, nu, d), {w: ONE}, d)
    right = reference_product_elements({mu: ONE}, product(nu, w, d), d)
    keys = sorted(set(left) | set(right), key=lambda k: (len(k), k))
    key = next(k for k in keys if left.get(k) != right.get(k))
    want = "triple %r %r %r (d=%d): key %r has %r vs %r" % (
        mu, nu, w, d, key, left.get(key), right.get(key)
    )
    report = check_associativity(mu, nu, w, d)
    assert not report.passed
    assert report.failures == [want]


def _staged_rows(outer, inner):
    # the rows a bilinear product stages: each term of a coefficient copies
    # every (key, power) term of the basis product it multiplies
    return sum(
        sum(1 for f in inner(k).values() for _ in f.items()) * sum(1 for _ in c.items())
        for k, c in outer.items()
    )


def test_associativity_staged_row_cap(monkeypatch):
    mu, nu, w, d = (0, 1), (1,), (0,), 2
    left = _staged_rows(product(mu, nu, d), lambda k: product(k, w, d))
    right = _staged_rows(product(nu, w, d), lambda k: product(mu, k, d))
    assert left != right
    monkeypatch.setattr(partition_algebra, "DEFAULT_TERM_CAP", max(left, right))
    assert check_associativity(mu, nu, w, d).passed
    for cap, staged in ((max(left, right) - 1, max(left, right)), (min(left, right) - 1, left)):
        monkeypatch.setattr(partition_algebra, "DEFAULT_TERM_CAP", cap)
        with pytest.raises(ResourceLimitError) as err:
            check_associativity(mu, nu, w, d)
        assert str(err.value) == "bilinear product stages %d rows, cap %d" % (staged, cap)
