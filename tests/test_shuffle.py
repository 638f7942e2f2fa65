"""Monomial basis, shuffle product, and the partition-to-symmetric map."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoha import (
    MPoly,
    NotSymmetricError,
    QLaurent,
    ResourceLimitError,
    SymmetricElement,
    augmented_monomial,
    augmented_times_monomial,
    monomial_symmetric,
    monomial_times_monomial,
    multiplicity,
    partition_image,
    partitions_up_to,
    product,
    shuffle_product,
    specialize,
    to_monomial_basis,
    to_symmetric_element,
    verify_augmented_rule,
    verify_homomorphism,
    verify_monomial_rule,
    verify_subset_sum_identity,
)
import qcoha.kernel as kernel_mod
from qcoha.partitions import distinct_permutations, is_partition
from qcoha.qlaurent import ONE, Q, ZERO
from qcoha.shuffle_algebra import expand


def QL(offset, *coeffs):
    return QLaurent(offset, list(coeffs))


# -- bases ----------------------------------------------------------------------


def test_monomial_symmetric_small():
    m = monomial_symmetric((1, 1, 3))
    assert m.arity == 3
    assert set(m.terms) == {(1, 1, 3), (1, 3, 1), (3, 1, 1)}
    assert all(c == ONE for c in m.terms.values())


def test_monomial_symmetric_empty():
    m = monomial_symmetric(())
    assert m.arity == 0
    assert m.terms == {(): ONE}


def test_augmented_scales_by_multiplicity():
    a = augmented_monomial((1, 1, 3))
    assert a == monomial_symmetric((1, 1, 3)).scale(QLaurent.const(2))
    assert augmented_monomial((0, 1, 2)) == monomial_symmetric((0, 1, 2))


def test_to_monomial_basis_round_trip():
    e = SymmetricElement(3, {(0, 1, 2): QL(0, 1, -1), (1, 1, 1): QL(-1, 2)})
    assert to_monomial_basis(expand(e)) == e


def test_to_monomial_basis_rejects_asymmetric():
    p = MPoly(2, {(0, 1): ONE})
    with pytest.raises(NotSymmetricError):
        to_monomial_basis(p)


def test_to_monomial_basis_names_the_first_unmatched_term():
    # symmetric in the first two variables, not in the last two
    e = SymmetricElement(3, {(0, 1, 2): QL(0, 1, -1)})
    p = expand(e) + MPoly(3, {(0, 0, 3): ONE, (0, 3, 0): Q, (3, 0, 0): Q})
    with pytest.raises(NotSymmetricError) as info:
        to_monomial_basis(p)
    assert str(info.value) == "not symmetric: terms at (0, 0, 3) and (0, 3, 0) differ"
    # a term whose swapped partner is missing
    p = expand(e) + MPoly(3, {(0, 0, 3): ONE})
    with pytest.raises(NotSymmetricError) as info:
        to_monomial_basis(p)
    assert str(info.value) == "not symmetric: terms at (0, 0, 3) and (0, 3, 0) differ"
    # equal coefficients in the first two variables only
    p = expand(e) + MPoly(3, {(0, 0, 3): ONE, (0, 3, 0): 2 * ONE, (3, 0, 0): 2 * ONE})
    with pytest.raises(NotSymmetricError) as info:
        to_monomial_basis(p)
    assert str(info.value) == "not symmetric: terms at (0, 0, 3) and (0, 3, 0) differ"


def test_symmetric_element_validates_keys():
    with pytest.raises(ValueError):
        SymmetricElement(2, {(2, 1): ONE})
    with pytest.raises(ValueError):
        SymmetricElement(2, {(1,): ONE})
    # zero coefficients are pruned
    assert not SymmetricElement(1, {(3,): QLaurent(0, [])})


# -- shuffle product ------------------------------------------------------------


def test_shuffle_smallest_case():
    # single parts, two variables, one kernel factor
    f = partition_image((0,))
    got = shuffle_product(f, f, 2)
    assert got == SymmetricElement(2, {(0, 1): QL(0, 1, -1)})


def test_shuffle_empty_factor_is_identity():
    one = partition_image(())
    f = partition_image((1, 2))
    assert shuffle_product(one, f, 3) == f
    assert shuffle_product(f, one, 3) == f
    assert shuffle_product(one, one, 5) == one


def test_shuffle_matches_table_product_on_worked_example():
    # the d = 4 product with nine distinct coefficients
    image = to_symmetric_element(product((0, 2), (1,), 4))
    direct = shuffle_product(partition_image((0, 2)), partition_image((1,)), 4)
    assert set(image) == {3}
    assert image[3] == direct


def test_shuffle_subset_limit():
    f = partition_image((0,))
    with pytest.raises(ResourceLimitError):
        shuffle_product(f, f, 2, max_subsets=1)


def test_shuffle_at_q_one_matches_specialized_product():
    mu, nu, d = (0, 1), (2,), 3
    at_one = shuffle_product(partition_image(mu), partition_image(nu), d, q_value=1)
    spec = specialize(product(mu, nu, d), 1)
    want = {k: QLaurent.const(v * multiplicity(k)) for k, v in spec.items()}
    assert at_one == SymmetricElement(3, want)


# -- classical product rules ----------------------------------------------------


def test_augmented_rule_worked_example():
    got = augmented_times_monomial((0, 1, 2), (1, 1, 3))
    assert got == {(1, 2, 5): 1, (1, 3, 4): 1, (2, 3, 3): 1}
    assert verify_augmented_rule((0, 1, 2), (1, 1, 3)).passed


def test_augmented_rule_with_collisions():
    # both rearrangements of (0, 1) shift (0, 0) onto the same sorted key
    got = augmented_times_monomial((0, 0), (0, 1))
    assert got == {(0, 1): 2}
    assert augmented_times_monomial((0, 1), (0, 1)) == {(0, 2): 1, (1, 1): 1}


def test_augmented_rule_length_mismatch():
    with pytest.raises(ValueError):
        augmented_times_monomial((0, 1), (2,))


def test_monomial_rule_square_of_single_sum():
    got = monomial_times_monomial((0, 1), (0, 1))
    assert got == {(0, 2): 1, (1, 1): 2}
    assert verify_monomial_rule((0, 1), (0, 1)).passed


def test_monomial_rule_fractional_weights_merge_to_integers():
    # per-rearrangement weights are 1/2 each here
    got = monomial_times_monomial((0, 0), (0, 1))
    assert got == {(0, 1): 1}
    assert verify_monomial_rule((0, 0), (0, 1)).passed


def test_monomial_rule_repeated_parts():
    got = monomial_times_monomial((1, 1), (1, 1))
    assert got == {(2, 2): 1}


def test_subset_sum_smallest():
    assert verify_subset_sum_identity((0,), (0,)).passed
    assert verify_subset_sum_identity((1,), (0, 2)).passed
    assert verify_subset_sum_identity((0, 0), (0, 0)).passed


# -- the partition-to-symmetric map ---------------------------------------------


def test_partition_image_carries_multiplicity():
    assert partition_image((1, 1, 3)) == SymmetricElement(
        3, {(1, 1, 3): QLaurent.const(2)}
    )


def test_to_symmetric_element_splits_by_length():
    e = {(0,): QL(0, 1), (0, 1): QL(1, -2), (1, 1): QL(0, 3)}
    graded = to_symmetric_element(e)
    assert set(graded) == {1, 2}
    assert graded[1] == SymmetricElement(1, {(0,): QL(0, 1)})
    assert graded[2] == SymmetricElement(
        2, {(0, 1): QL(1, -2), (1, 1): QL(0, 6)}
    )


def test_homomorphism_spot_cases():
    assert verify_homomorphism((0,), (0,), 2).passed
    assert verify_homomorphism((0, 2), (1,), 4).passed
    assert verify_homomorphism((1, 1), (0, 2), 2).passed
    assert verify_homomorphism((), (1, 2), 3).passed
    assert verify_homomorphism((2,), (0, 1), 1).passed


# -- property tests -------------------------------------------------------------

small_partitions = st.builds(
    tuple,
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=3).map(sorted),
)

small_coeffs = st.builds(
    QLaurent,
    st.integers(min_value=-1, max_value=1),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=2),
)


@given(small_partitions)
def test_augmented_counts_sum_to_permutation_count(lam):
    from qcoha.partitions import distinct_permutations

    rule = augmented_times_monomial(lam, lam)
    assert sum(rule.values()) == len(list(distinct_permutations(lam)))


@given(small_partitions, small_partitions)
@settings(max_examples=40)
def test_augmented_rule_holds(lam, mu):
    if len(lam) != len(mu):
        mu = lam
    assert verify_augmented_rule(lam, mu).passed


@given(small_partitions, small_partitions)
@settings(max_examples=40)
def test_monomial_products_have_integer_coefficients(lam, mu):
    if len(lam) != len(mu):
        mu = lam
    for value in monomial_times_monomial(lam, mu).values():
        assert not isinstance(value, Fraction)


@given(
    st.dictionaries(
        st.builds(
            tuple,
            st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2).map(
                sorted
            ),
        ),
        small_coeffs,
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=40)
def test_expand_round_trip(terms):
    e = SymmetricElement(2, terms)
    assert to_monomial_basis(expand(e)) == e


def test_homomorphism_grid_small():
    parts = [p for p in partitions_up_to(2, 2) if p]
    for d in (1, 2, 3):
        for mu in parts:
            for nu in parts:
                rep = verify_homomorphism(mu, nu, d)
                assert rep.passed, rep.failures


# -- the relabelled-kernel sum against a per-split fold ------------------------------


def _fold_add(out, key, coeff):
    total = out.get(key, ZERO) + coeff
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def per_split_shuffle(mu, nu, d, q_value=None):
    """The shuffle product split by split: the two expanded images placed on
    the subset and the rest, times (x_j - q x_i) once per kernel factor."""
    q = Q if q_value is None else QLaurent.const(q_value)
    n1, arity = len(mu), len(mu) + len(nu)
    images = [
        {w: QLaurent.const(multiplicity(lam)) for w in distinct_permutations(lam)}
        for lam in (mu, nu)
    ]
    total = {}
    for subset in itertools.combinations(range(arity), n1):
        rest = [i for i in range(arity) if i not in subset]
        term = {}
        for e1, c1 in images[0].items():
            for e2, c2 in images[1].items():
                e = [0] * arity
                for k, v in zip(subset + tuple(rest), e1 + e2):
                    e[k] = v
                term[tuple(e)] = c1 * c2
        for j in rest:
            for i in subset:
                for _ in range(d - 1):
                    grown = {}
                    for e, c in term.items():
                        for var, factor in ((j, ONE), (i, -q)):
                            bumped = list(e)
                            bumped[var] += 1
                            _fold_add(grown, tuple(bumped), c * factor)
                    term = grown
        for e, c in term.items():
            _fold_add(total, e, c)
    return {e: c for e, c in total.items() if is_partition(e)}


@pytest.mark.parametrize("q_value", [None, 1, 0, Fraction(2, 3)])
def test_shuffle_matches_per_split_fold_on_iso_grid(q_value):
    parts = partitions_up_to(2, 2)
    for d in (1, 2, 3):
        for mu in parts:
            for nu in parts:
                got = shuffle_product(
                    partition_image(mu), partition_image(nu), d, q_value=q_value
                )
                want = per_split_shuffle(mu, nu, d, q_value)
                assert got.terms == want, (mu, nu, d, q_value)


def test_shuffle_checks_subsets_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel expanded before the subset check")

    monkeypatch.setattr(kernel_mod, "pairwise_kernel", refuse)
    monkeypatch.setattr("qcoha.shuffle_algebra.pairwise_kernel", refuse)
    f = partition_image((0, 1, 2))
    with pytest.raises(ResourceLimitError):
        shuffle_product(f, f, 2, max_subsets=19)


def test_cached_block_kernels_answer_like_fresh_ones():
    f, g = partition_image((0, 1)), partition_image((2,))
    want = per_split_shuffle((0, 1), (2,), 3, None)
    for _ in range(2):
        assert shuffle_product(f, g, 3).terms == want
    # the cap and the value of q are part of the cached kernel's key
    with pytest.raises(ResourceLimitError, match="projected term count 3 exceeds cap 1"):
        shuffle_product(f, g, 3, term_cap=1)
    assert shuffle_product(f, g, 3, q_value=1).terms == per_split_shuffle((0, 1), (2,), 3, 1)
    with pytest.raises(TypeError, match="floating-point"):
        shuffle_product(f, g, 3, q_value=1.0)
