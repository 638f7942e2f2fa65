import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcoha.qlaurent as qlaurent
from qcoha import ResourceLimitError
from qcoha.qlaurent import (
    DEFAULT_TERM_CAP,
    ONE,
    Q,
    ZERO,
    QLaurent,
    as_rational,
    q_power,
    signed_q_power,
)
from qcoha.serialization import STYLES, render_qlaurent

# small rationals; ints kept plain so both coefficient kinds get exercised
rationals = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)

qlaurents = st.builds(
    QLaurent,
    st.integers(min_value=-5, max_value=5),
    st.lists(rationals, max_size=6),
)


def test_canonical_zero():
    assert QLaurent(3, (0, 0)) == ZERO
    assert ZERO.offset == 0 and ZERO.coeffs == ()
    assert not ZERO


def test_trimming_adjusts_offset():
    f = QLaurent(-2, (0, 1, 0, 2, 0))
    assert f.offset == -1
    assert f.coeffs == (1, 0, 2)


def test_integral_fractions_collapse_to_int():
    f = QLaurent(0, (Fraction(4, 2), Fraction(1, 3)))
    assert f.coeffs == (2, Fraction(1, 3))
    assert type(f.coeffs[0]) is int


def test_integral_results_of_fraction_arithmetic_are_ints():
    third, two_thirds = QLaurent.const(Fraction(1, 3)), QLaurent.const(Fraction(2, 3))
    results = [
        third + two_thirds,
        QLaurent.const(Fraction(3, 2)) * QLaurent.const(Fraction(2, 3)),
        third * 3,
        QLaurent(0, (Fraction(1, 2), 1)) * QLaurent(0, (2, Fraction(1, 3))),
        QLaurent(0, (Fraction(1, 3), 1)) - QLaurent(0, (Fraction(-2, 3), 1)),
    ]
    assert results[:3] == [ONE, ONE, ONE]
    assert results[3] == QLaurent(0, (1, Fraction(13, 6), Fraction(1, 3)))
    for f in results:
        assert all(type(c) is int or c.denominator > 1 for c in f.coeffs), f
    text = STYLES["text"]
    assert render_qlaurent(results[0], text) == render_qlaurent(results[1], text) == "1"


@given(qlaurents, qlaurents)
def test_arithmetic_keeps_integral_coefficients_as_ints(f, g):
    for h in (f + g, f - g, f * g, f * Fraction(3, 2)):
        assert all(type(c) is int or c.denominator > 1 for c in h.coeffs)


@pytest.mark.parametrize(
    "value", [0, 3, -7, 2**70, Fraction(1, 2), Fraction(-9, 4), Fraction(6, 3)]
)
def test_constants_hash_like_their_rational(value):
    f = QLaurent.const(value)
    assert f == value and hash(f) == hash(value)
    assert {f: "x"}[value] == "x" and {value: "x"}[f] == "x"
    assert len({f, value}) == 1


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_signed_q_power_product():
    # (-q)**3 * (-q)**3 == q**6
    assert signed_q_power(3) * signed_q_power(3) == q_power(6)
    assert signed_q_power(2) == q_power(2)
    assert signed_q_power(1) == -Q


def test_known_product():
    # (1 - q) * (1 + q) == 1 - q**2
    f = QLaurent(0, (1, -1))
    g = QLaurent(0, (1, 1))
    assert f * g == QLaurent(0, (1, 0, -1))


def test_eval_at_one_sums_coefficients():
    # q**6 + 3q**4 + 9q**2 at q=1
    f = QLaurent(2, (9, 0, 3, 0, 1))
    assert f.eval_at(1) == 13
    assert f.eval_at(0) == 0
    assert f.eval_at(Fraction(1, 2)) == Fraction(1, 64) + 3 * Fraction(1, 16) + 9 * Fraction(1, 4)


def test_eval_negative_offset():
    f = QLaurent(-1, (1, 1))  # q**-1 + 1
    assert f.eval_at(2) == Fraction(3, 2)
    with pytest.raises(ValueError):
        f.eval_at(0)


def test_bar_on_monomials():
    assert Q.bar() == q_power(-1)
    f = QLaurent(0, (1, -3))  # 1 - 3q
    assert f.bar() == QLaurent(-1, (-3, 1))


def test_pow_matches_repeated_product():
    f = QLaurent(0, (1, -1))
    assert f ** 3 == f * f * f
    assert f ** 0 == ONE


def test_coefficient_lookup():
    f = QLaurent(2, (9, 0, 3))
    assert f.coefficient(2) == 9
    assert f.coefficient(3) == 0
    assert f.coefficient(4) == 3
    assert f.coefficient(100) == 0


@given(qlaurents, qlaurents, qlaurents)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + ZERO == f
    assert f * ONE == f
    assert f + (-f) == ZERO


@given(qlaurents, qlaurents)
def test_bar_is_ring_involution(f, g):
    assert f.bar().bar() == f
    assert (f + g).bar() == f.bar() + g.bar()
    assert (f * g).bar() == f.bar() * g.bar()


@given(qlaurents, qlaurents, st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_eval_is_ring_map(f, g, v):
    if v == 0 and (f.offset < 0 or g.offset < 0):
        return
    assert (f + g).eval_at(v) == f.eval_at(v) + g.eval_at(v)
    assert (f * g).eval_at(v) == f.eval_at(v) * g.eval_at(v)


@given(qlaurents)
def test_canonical_form_reconstructs(f):
    assert QLaurent(f.offset, f.coeffs) == f
    if f.coeffs:
        assert f.coeffs[0] != 0 and f.coeffs[-1] != 0
    else:
        assert f.offset == 0


def test_a_sum_past_two_to_the_62_powers_is_refused():
    # one list entry per power in between would be a MemoryError
    message = "^a coefficient spans %d powers of q, cap %d$" % (2**62 + 1, DEFAULT_TERM_CAP)
    with pytest.raises(ResourceLimitError, match=message):
        q_power(2**62) + ONE
    with pytest.raises(ResourceLimitError, match=message):
        QLaurent.from_dict({0: 1, 2**62: -1})


def test_a_sum_just_past_the_cap_is_refused_before_its_list_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="spans 5000001 powers of q"):
            ONE + q_power(DEFAULT_TERM_CAP)
        with pytest.raises(ResourceLimitError, match="spans 5000001 powers of q"):
            QLaurent.from_dict({-1: 1, DEFAULT_TERM_CAP - 1: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the refused list would hold 40 MB of entries
    assert peak < 1 << 20


def test_a_value_spanning_the_whole_cap_is_kept(monkeypatch):
    monkeypatch.setattr(qlaurent, "DEFAULT_TERM_CAP", 100)
    assert (q_power(99) + ONE).coeffs == (1,) + (0,) * 98 + (1,)
    assert QLaurent.from_dict({-50: 1, 49: 2}) == q_power(-50) + 2 * q_power(49)
    # trimming counts the result's span, not the list it was handed
    assert QLaurent._trimmed(-1, [0] + [1] * 100 + [0]) == QLaurent(0, [1] * 100)
    message = "^a coefficient spans 101 powers of q, cap 100$"
    with pytest.raises(ResourceLimitError, match=message):
        q_power(100) + ONE
    with pytest.raises(ResourceLimitError, match=message):
        QLaurent.from_dict({0: 1, 100: 1})
    with pytest.raises(ResourceLimitError, match=message):
        QLaurent._trimmed(0, [1] * 101)
    # a product is trimmed like any other result
    with pytest.raises(ResourceLimitError, match=message):
        (ONE + Q) * (ONE + q_power(99))
