import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoha.bipartite import product_via_graphs
from qcoha.errors import ResourceLimitError
from qcoha.partition_algebra import (
    bar_element,
    check_associativity,
    element_add,
    grading_failures,
    product,
    product_elements,
    product_vectors,
    quasi_commutativity_report,
    scale_element,
    shift_sort_product,
    sort_merge,
    specialize,
)
from qcoha.partitions import partitions_up_to, sort_ascending
from qcoha.qlaurent import ONE, Q, QLaurent, q_power
from qcoha.shuffle_algebra import verify_homomorphism


def QL(offset, *coeffs):
    return QLaurent(offset, coeffs)


def test_unit_laws_on_basis():
    assert product((), (0, 2), 4) == {(0, 2): ONE}
    assert product((1, 1), (), 2) == {(1, 1): ONE}
    assert product((), (), 3) == {(): ONE}


def test_vector_product_single_parts_d2():
    # (0) * (0) at d=2: (0,1) - q (1,0)
    got = product_vectors((0,), (0,), 2)
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
    e = {(0, 1): ONE}
    f = {(0, 1): -ONE, (2,): Q}
    assert element_add(e, f) == {(2,): Q}
    assert scale_element(e, QLaurent()) == {}
    half = scale_element(e, QLaurent.const(Fraction(1, 2)))
    assert half == {(0, 1): QLaurent.const(Fraction(1, 2))}


def test_bar_element():
    e = {(0, 1): QL(0, 1, -1)}  # (1 - q)
    assert bar_element(e) == {(0, 1): QL(-1, -1, 1)}
    assert bar_element(bar_element(e)) == e


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
            assert grading_failures(mu, nu, d, product(mu, nu, d)) == []


def test_grading_failures_detects_bad_terms():
    bad = {(0, 0): ONE}
    assert grading_failures((0,), (0,), 2, bad)
    assert grading_failures((0, 1), (), 2, {(0, 1, 2): ONE})


def test_resource_limit_propagates():
    with pytest.raises(ResourceLimitError):
        product((0, 1, 2, 3), (0, 1, 2, 3), 5, term_cap=10)


def test_product_vectors_not_sorted_keys():
    got = product_vectors((2,), (0,), 2)
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
    got = sort_merge(product_vectors(u, v, d))
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


def test_basis_products_match_shuffle_oracle():
    for d in (1, 2, 3, 4):
        grid = partitions_up_to(2, 2) if d < 4 else partitions_up_to(2, 1)
        for mu, nu in itertools.product(grid, repeat=2):
            report = verify_homomorphism(mu, nu, d)
            assert report.passed, report.failures


def test_basis_products_match_orientation_sum():
    for mu, nu in itertools.product(partitions_up_to(3, 2), repeat=2):
        assert product(mu, nu, 2) == product_via_graphs(mu, nu), (mu, nu)


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
        assert coeff.is_polynomial()
        assert coeff.max_power() <= bound
    assert grading_failures(mu, nu, d, e) == []


def test_exhaustive_quasi_commutativity_small():
    for d in (1, 2, 3):
        for mu, nu in itertools.product(partitions_up_to(2, 2), repeat=2):
            rep = quasi_commutativity_report(mu, nu, d)
            assert rep.signed_matches, (mu, nu, d)
            odd = rep.exponent % 2 == 1
            if not odd:
                assert rep.unsigned_matches, (mu, nu, d)
