"""Wire formats: canonical JSON, decoding validation, text and LaTeX output."""
import json
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcoha import MPoly, QLaurent, ResourceLimitError, product, structure_table
from qcoha.partition_algebra import _basis_product
from qcoha.serialization import (
    element_from_json,
    element_to_json,
    graded_to_json,
    grouped_json_text,
    mpoly_to_json,
    qlaurent_from_json,
    qlaurent_to_json,
    rational_from_json,
    rational_to_json,
    STYLES,
    render_element,
    render_graded,
    render_mpoly,
    render_qlaurent,
    render_specialized,
    render_symmetric,
    specialized_to_json,
    symmetric_to_json,
    table_to_json,
)
from qcoha.shuffle_algebra import SymmetricElement, to_symmetric_element

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
TEXT, LATEX = STYLES["text"], STYLES["latex"]


def validate(payload, schema_name):
    with open(SCHEMAS / ("%s.schema.json" % schema_name)) as fh:
        jsonschema.validate(payload, json.load(fh))


def QL(offset, *coeffs):
    return QLaurent(offset, list(coeffs))


# -- rationals --------------------------------------------------------------------


def test_rational_strings():
    assert rational_to_json(5) == "5"
    assert rational_to_json(-3) == "-3"
    assert rational_to_json(Fraction(1, 2)) == "1/2"
    assert rational_to_json(Fraction(4, 2)) == "2"
    assert rational_from_json("5") == 5
    assert rational_from_json("-7/3") == Fraction(-7, 3)
    assert rational_from_json("6/3") == 2


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "1.5", 3, None])
def test_rational_rejects(bad):
    with pytest.raises(ValueError):
        rational_from_json(bad)


# -- QLaurent ---------------------------------------------------------------------


def test_qlaurent_json_round_trip():
    f = QL(-2, 1, 0, Fraction(3, 4))
    j = qlaurent_to_json(f)
    assert j == {"offset": -2, "coeffs": ["1", "0", "3/4"]}
    assert qlaurent_from_json(j) == f


def test_qlaurent_zero_is_canonical():
    assert qlaurent_to_json(QLaurent(0, [])) == {"offset": 0, "coeffs": []}
    assert qlaurent_from_json({"offset": 7, "coeffs": ["0"]}) == QLaurent(0, [])


@pytest.mark.parametrize(
    "bad",
    [
        {"offset": 0},
        {"coeffs": []},
        {"offset": 0, "coeffs": [], "extra": 1},
        {"offset": True, "coeffs": []},
        {"offset": 0, "coeffs": "1"},
        [],
    ],
)
def test_qlaurent_rejects(bad):
    with pytest.raises(ValueError):
        qlaurent_from_json(bad)


# -- MPoly ------------------------------------------------------------------------


def test_mpoly_json_round_trip_and_order():
    p = MPoly(2, {(1, 0): QL(1, -1), (0, 1): QL(0, 1)})
    j = mpoly_to_json(p)
    assert j == {
        "arity": 2,
        "terms": [
            {"exp": [0, 1], "coeff": {"offset": 0, "coeffs": ["1"]}},
            {"exp": [1, 0], "coeff": {"offset": 1, "coeffs": ["-1"]}},
        ],
    }
    assert MPoly(2, {tuple(t["exp"]): qlaurent_from_json(t["coeff"]) for t in j["terms"]}) == p
    validate(j, "mpoly")


# -- elements ---------------------------------------------------------------------


def test_element_json_round_trip_and_order():
    e = product((0, 2), (1,), 4)
    j = element_to_json(e, 4)
    keys = [tuple(t["partition"]) for t in j["terms"]]
    assert keys == sorted(keys, key=lambda k: (len(k), k))
    d, back = element_from_json(j)
    assert d == 4 and back == e
    validate(j, "element")


short_partitions = st.lists(
    st.integers(min_value=0, max_value=3), min_size=0, max_size=3
).map(lambda v: tuple(sorted(v)))


@given(
    short_partitions,
    short_partitions.filter(lambda nu: len(nu) < 3),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0, 2**40, 2**70]),
)
@example((), (), 1, 0)
@example((1, 3), (), 2, 2**70)
@example((), (0, 2), 3, 2**40)
@example((0, 1, 3), (1, 2), 4, 2**70)
@example((0,), (0,), 71, 0)
@example((0,), (0,), 71, 2**70)
@example((0,), (0,), 126, 0)
@example((), (), 126, 2**70)
@settings(max_examples=60, deadline=None)
def test_grouped_json_is_the_element_json(mu, nu, d, c):
    mu, nu = tuple(v + c for v in mu), tuple(v + c for v in nu)
    text = grouped_json_text(*_basis_product(mu, nu, d), d)
    assert text == json.dumps(element_to_json(product(mu, nu, d), d))
    validate(json.loads(text), "element")


def test_grouped_json_examples_reach_object_arrays():
    # parts past int64 make the keys object arrays, weights past it the
    # coeffs; the other array takes the narrowest dtype that holds it
    keys, _, _, coeffs = _basis_product((0, 2**70), (2**70,), 2)
    assert keys.dtype == object and coeffs.dtype == np.int8
    keys, _, _, coeffs = _basis_product((0,), (0,), 71)
    assert keys.dtype == np.int8 and coeffs.dtype == object
    keys, _, _, coeffs = _basis_product((2**70,), (2**70,), 71)
    assert keys.dtype == object and coeffs.dtype == object


def test_grouped_json_examples_pass_the_range_of_their_powers():
    # at d = 126 the powers are int8, and key (0, 125) carries powers 0 and
    # 125 with 124 zeros between: its term's 2 + 1 + 126 fields pass 127
    keys, counts, powers, _ = _basis_product((0,), (0,), 126)
    assert powers.dtype == np.int8 and keys.tolist()[0] == [0, 125]
    assert powers[: counts[0]].tolist() == [0, 125]
    keys, counts, powers, coeffs = _basis_product((), (), 126)
    assert keys.shape == (1, 0) and counts.tolist() == [1] and coeffs.tolist() == [1]


_INT_RANGES = {np.int8: 127, np.int16: 2**15 - 1, np.int64: 2**63 - 1, object: 2**80}


@st.composite
def key_major_elements(draw):
    """Distinct keys of one length, in order, each with {power: nonzero
    coefficient}, and the dtypes to write them in."""
    k = draw(st.integers(min_value=0, max_value=3))
    key_dtype, power_dtype, coeff_dtype = (
        draw(st.sampled_from(dtypes))
        for dtypes in ([np.int8, np.int64, object], [np.int8, np.int16], [np.int8, np.int64, object])
    )
    parts = st.integers(min_value=0, max_value=_INT_RANGES[key_dtype])
    keys = draw(
        st.lists(
            st.lists(parts, min_size=k, max_size=k).map(lambda v: tuple(sorted(v))),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    bound = _INT_RANGES[coeff_dtype]
    coeffs = st.integers(min_value=-bound, max_value=bound).filter(bool)
    # powers up to 126 with gaps: interior zeros, and terms past 127 fields
    powers = st.dictionaries(st.integers(min_value=0, max_value=126), coeffs, min_size=1, max_size=5)
    return {key: draw(powers) for key in sorted(keys)}, key_dtype, power_dtype, coeff_dtype


@given(key_major_elements(), st.integers(min_value=1, max_value=2**70))
@settings(max_examples=150, deadline=None)
def test_grouped_json_of_any_key_major_arrays(case, d):
    terms, key_dtype, power_dtype, coeff_dtype = case
    rows = [sorted(terms[key].items()) for key in terms]
    k = len(next(iter(terms)))
    text = grouped_json_text(
        np.array(list(terms), dtype=key_dtype).reshape(len(terms), k),
        np.array(list(map(len, rows)), dtype=power_dtype),
        np.array([p for row in rows for p, _ in row], dtype=power_dtype),
        np.array([c for row in rows for _, c in row], dtype=coeff_dtype),
        d,
    )
    element = {key: QLaurent.from_dict(powers) for key, powers in terms.items()}
    assert text == json.dumps(element_to_json(element, d))


def test_element_decode_prunes_zero_and_rejects_duplicates():
    base = {"offset": 0, "coeffs": ["1"]}
    zero = {"offset": 0, "coeffs": []}
    d, e = element_from_json(
        {"d": 2, "terms": [{"partition": [1], "coeff": zero}]}
    )
    assert e == {}
    with pytest.raises(ValueError):
        element_from_json(
            {
                "d": 2,
                "terms": [
                    {"partition": [1], "coeff": base},
                    {"partition": [1], "coeff": base},
                ],
            }
        )
    with pytest.raises(ValueError):
        element_from_json({"d": 2, "terms": [{"partition": [2, 1], "coeff": base}]})
    with pytest.raises(ValueError):
        element_from_json({"d": 0, "terms": []})


def test_specialized_json():
    j = specialized_to_json({(0, 2, 7): 1}, 4, 0)
    assert j == {"d": 4, "at_q": "0", "terms": [{"partition": [0, 2, 7], "value": "1"}]}
    validate(j, "specialized")


def test_symmetric_and_graded_json():
    ge = to_symmetric_element(product((0, 2), (1,), 4))
    j = graded_to_json(ge)
    assert [c["arity"] for c in j["components"]] == [3]
    validate(j, "graded")
    validate(symmetric_to_json(ge[3]), "symmetric")


def test_table_json_sorted():
    j = table_to_json(structure_table(1, 1, 2))
    assert j["entries"] == [
        {"a": [0], "b": [1], "coeff": {"offset": 0, "coeffs": ["1"]}},
        {"a": [1], "b": [0], "coeff": {"offset": 1, "coeffs": ["-1"]}},
    ]
    validate(j, "table")


# -- renderers ---------------------------------------------------------------------


def test_qlaurent_render_basics():
    assert render_qlaurent(QLaurent(0, []), TEXT) == "0"
    assert render_qlaurent(QL(0, 1), TEXT) == "1"
    assert render_qlaurent(QL(0, -1), TEXT) == "-1"
    assert render_qlaurent(QL(1, 1), TEXT) == "q"
    assert render_qlaurent(QL(1, -1), TEXT) == "-q"
    assert render_qlaurent(QL(-1, 1), TEXT) == "q^-1"
    assert render_qlaurent(QL(0, 1, -1), TEXT) == "-q+1"
    assert render_qlaurent(QL(2, Fraction(3, 2)), TEXT) == "3/2q^2"
    assert render_qlaurent(QL(-1, 1), LATEX) == "q^{-1}"
    assert render_qlaurent(QL(2, 3, 0, 1), LATEX) == "q^{4}+3q^{2}"
    assert render_qlaurent(QL(0, Fraction(-1, 3)), LATEX) == "-\\frac{1}{3}"


def test_element_render_golden():
    e = product((0, 2), (1,), 4)
    assert render_element(e, LATEX) == (
        "(0, 2, 7) - 3q\\cdot (0, 3, 6) + (-q^{3}+3q^{2})\\cdot (0, 4, 5)"
        " - 3q\\cdot (1, 2, 6) + (q^{6}+3q^{4}+9q^{2})\\cdot (1, 3, 5)"
        " - 9q^{3}\\cdot (1, 4, 4) + (-3q^{5}+3q^{2})\\cdot (2, 2, 5)"
        " + (-3q^{5}+9q^{4}-10q^{3})\\cdot (2, 3, 4) + 3q^{4}\\cdot (3, 3, 3)"
    )
    assert render_element(product((0,), (0,), 2), TEXT) == "(-q+1)·(0, 1)"
    assert render_element({}, TEXT) == "0"
    assert render_element(product((), (), 3), TEXT) == "()"


def test_symmetric_render():
    se = SymmetricElement(2, {(0, 1): QL(0, 1, -1), (1, 1): QL(0, 2)})
    assert render_symmetric(se, TEXT) == "(-q+1)·m(0, 1) + 2·m(1, 1)"
    assert render_symmetric(se, LATEX) == "(-q+1)\\cdot m_{(0, 1)} + 2\\cdot m_{(1, 1)}"


def test_graded_and_specialized_render():
    ge = to_symmetric_element({(1,): QL(0, 1), (0, 1): QL(0, -1)})
    assert render_graded(ge, TEXT) == "arity 1: m(1)\narity 2: -m(0, 1)"
    assert render_specialized({(0, 1): Fraction(1, 2), (1, 1): -2}, TEXT) == (
        "1/2·(0, 1) - 2·(1, 1)"
    )
    # a negative fraction's sign leads it in both formats, first term or not
    values = {(0, 1): Fraction(-1, 2), (1, 1): Fraction(-5, 4), (0, 2): Fraction(7, 3)}
    assert render_specialized(values, TEXT) == "-1/2·(0, 1) + 7/3·(0, 2) - 5/4·(1, 1)"
    assert render_specialized(values, LATEX) == (
        "-\\frac{1}{2}\\cdot (0, 1) + \\frac{7}{3}\\cdot (0, 2) - \\frac{5}{4}\\cdot (1, 1)"
    )
    assert render_mpoly(MPoly(2, {(0, 1): QL(0, 1), (1, 0): QL(1, -1)}), TEXT) == (
        "x^(0, 1) - q·x^(1, 0)"
    )


def test_rationals_past_the_digit_limit_are_refused_where_they_are_written():
    # CPython writes no integer of more digits than its limit: a numerator or
    # a denominator past it is refused with ResourceLimitError, in JSON and
    # in text alike, and one at the limit is written
    edge = 10 ** sys.get_int_max_str_digits()
    for value in (edge - 1, 1 - edge, Fraction(-1, edge - 1), Fraction(edge - 1, 7)):
        assert rational_to_json(value) == str(value)
        assert render_specialized({(0,): value}, STYLES["text"]) == "%s·(0)" % value
    for value in (edge, -edge, Fraction(1, edge + 1), Fraction(edge + 1, 3)):
        for write in (rational_to_json, lambda v: render_specialized({(0,): v}, STYLES["latex"])):
            with pytest.raises(ResourceLimitError, match="^rational exceeds the 4300-digit limit of integer output$"):
                write(value)
