import json
from math import comb

import numpy as np
import pytest

import qcoha.kernel as kernel
from qcoha.errors import ResourceLimitError
from qcoha.kernel import (
    KernelSpec,
    StructureConstantTable,
    group_rows,
    kernel_polynomial,
    structure_constants,
    structure_table,
    verify_coefficient_identity,
    verify_symmetry,
)
from qcoha.mpoly import embed
from qcoha.partitions import vec_add
from qcoha.qlaurent import ONE, Q, QLaurent, q_power, signed_q_power
from qcoha.serialization import qlaurent_to_json, table_to_json


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0, 1, 2)
    with pytest.raises(ValueError):
        KernelSpec(1, 1, 0)
    with pytest.raises(ValueError):
        KernelSpec(1, 1, 2, shift=-1)
    assert KernelSpec(2, 3, 4, shift=1).arity == 6


def test_one_pair_d2():
    # single factor x2 - q x1
    g = kernel_polynomial(KernelSpec(1, 1, 2))
    assert g.terms == {(0, 1): ONE, (1, 0): -Q}


def test_one_pair_d3():
    # (x2 - q x1)**2
    g = kernel_polynomial(KernelSpec(1, 1, 3))
    assert g.terms == {
        (0, 2): ONE,
        (1, 1): QLaurent(1, (-2,)),
        (2, 0): q_power(2),
    }


def test_d1_kernel_is_one():
    g = kernel_polynomial(KernelSpec(3, 2, 1))
    assert g.terms == {(0,) * 5: ONE}


def test_closed_form_m2_n1():
    # with two first-block variables and one second-block variable the
    # coefficient of x1**a1 x2**a2 x3**b is
    # binom(d-1, a1) binom(d-1, a2) (-q)**(a1 + a2) when b fills the degree
    d = 4
    table = structure_constants(KernelSpec(2, 1, d))
    e = d - 1
    expected = {}
    for a1 in range(e + 1):
        for a2 in range(e + 1):
            coeff = comb(e, a1) * comb(e, a2)
            expected[((a1, a2), (2 * e - a1 - a2,))] = signed_q_power(a1 + a2) * coeff
    assert table.entries == expected


def test_frozen_coefficients_m2_n1_d4():
    table = structure_constants(KernelSpec(2, 1, 4))
    assert table.coefficient((0, 0), (6,)) == ONE
    assert table.coefficient((1, 0), (5,)) == -3 * Q
    assert table.coefficient((3, 3), (0,)) == q_power(6)
    assert table.coefficient((1, 3), (2,)) == 3 * q_power(4)
    assert table.coefficient((4, 0), (2,)) == 0
    # raw kernel monomial x1**3 x2**1 x3**2
    g = kernel_polynomial(KernelSpec(2, 1, 4))
    assert g.coefficient((3, 1, 2)) == 3 * q_power(4)


@pytest.mark.parametrize("m,n,d", [(1, 1, 2), (2, 1, 3), (1, 2, 3), (2, 2, 2), (2, 2, 3), (3, 1, 2)])
def test_homogeneous_of_expected_degree(m, n, d):
    g = kernel_polynomial(KernelSpec(m, n, d))
    deg = (d - 1) * m * n
    assert g.is_homogeneous()
    assert g.total_degree() == deg


@pytest.mark.parametrize("m,n,d", [(2, 1, 3), (2, 2, 2), (1, 2, 4), (2, 2, 3)])
def test_extreme_coefficients_and_qdegree(m, n, d):
    table = structure_constants(KernelSpec(m, n, d))
    e = (d - 1) * m
    # pure second-block monomial has coefficient 1
    assert table.coefficient((0,) * m, (e,) * n) == ONE
    bound = (d - 1) * m * n
    for coeff in table.entries.values():
        assert coeff.is_polynomial()
        assert coeff.max_power() <= bound


@pytest.mark.parametrize("m,n,d", [(1, 1, 2), (2, 1, 2), (2, 2, 2), (1, 1, 3), (2, 2, 3)])
def test_all_ones_vanishes_at_q1(m, n, d):
    # the kernel has a factor (x - x) after both specializations
    g = kernel_polynomial(KernelSpec(m, n, d))
    total = QLaurent()
    for coeff in g.terms.values():
        total = total + coeff
    assert total.eval_at(1) == 0


def test_q0_specialization_single_term():
    spec = KernelSpec(2, 2, 3)
    g = kernel_polynomial(spec)
    at0 = g.eval_q(0)
    e = (spec.d - 1) * spec.m
    assert at0 == {(0, 0, e, e): 1}
    # and the same comes from building with q substituted up front
    g0 = kernel_polynomial(spec, q_value=0)
    assert {k: c.constant_value() for k, c in g0.terms.items()} == at0


def test_q1_build_matches_evaluation():
    spec = KernelSpec(2, 2, 3)
    g = kernel_polynomial(spec)
    g1 = kernel_polynomial(spec, q_value=1)
    assert {k: c.constant_value() for k, c in g1.terms.items()} == g.eval_q(1)


def test_shifted_kernel_is_embedding():
    spec = KernelSpec(2, 1, 3)
    plain = kernel_polynomial(spec)
    shifted = kernel_polynomial(KernelSpec(2, 1, 3, shift=2))
    assert shifted == embed(plain, 5, (2, 3, 4))


def test_structure_constants_require_unshifted():
    with pytest.raises(ValueError):
        structure_constants(KernelSpec(1, 1, 2, shift=1))


def test_term_cap_raises():
    with pytest.raises(ResourceLimitError):
        kernel_polynomial(KernelSpec(3, 3, 4), term_cap=50)


@pytest.mark.parametrize("m,n,d", [(1, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (1, 3, 2)])
def test_symmetry_within_blocks(m, n, d):
    report = verify_symmetry(structure_table(m, n, d))
    assert report.passed, report.failures


@pytest.mark.parametrize(
    "l,m,n,d",
    [(1, 1, 1, 2), (1, 1, 1, 3), (1, 2, 1, 2), (2, 1, 1, 3), (1, 1, 2, 3)],
)
def test_coefficient_identity_small(l, m, n, d):
    report = verify_coefficient_identity(l, m, n, d)
    assert report.passed, report.failures


def test_coefficient_identity_d1_trivial():
    report = verify_coefficient_identity(1, 1, 1, 1)
    assert report.passed


def reference_convolution(l, m, n, d):
    """(checked, failures) of the convolution half, on QLaurent entries."""

    def fold(pairs):
        out = {}
        for key, c in pairs:
            out[key] = out[key] + c if key in out else c
        return {key: c for key, c in out.items() if c}

    table = kernel.structure_table
    t_lm, t_lmn = table(l, m, d), table(l + m, n, d)
    t_l_mn, t_mn = table(l, m + n, d), table(m, n, d)
    lhs = fold(
        ((vec_add(a1, ab2[:l]), vec_add(b1, ab2[l:]), c), x * y)
        for (a1, b1), x in t_lm.entries.items()
        for (ab2, c), y in t_lmn.entries.items()
    )
    rhs = fold(
        ((a, vec_add(b1, bc[:m]), vec_add(c1, bc[m:])), x * y)
        for (a, bc), x in t_l_mn.entries.items()
        for (b1, c1), y in t_mn.entries.items()
    )
    keys = sorted(set(lhs) | set(rhs))
    failures = [
        "convolution mismatch at (a,b,c)=%r: %r vs %r" % (k, lhs.get(k), rhs.get(k))
        for k in keys
        if lhs.get(k) != rhs.get(k)
    ]
    return len(keys) + 1, failures[:1]


IDENTITY_SHAPES = [(1, 1, 1, 2), (1, 2, 1, 3), (2, 1, 2, 2), (1, 1, 2, 4)]


@pytest.mark.parametrize("l,m,n,d", IDENTITY_SHAPES)
def test_coefficient_identity_matches_entry_convolution(l, m, n, d, monkeypatch):
    want = reference_convolution(l, m, n, d)
    assert want[1] == []
    report = verify_coefficient_identity(l, m, n, d)
    assert (report.checked, report.failures) == want
    # staging a few rows at a time must not change the result
    monkeypatch.setattr(kernel, "STAGE_ROWS", 7)
    report = verify_coefficient_identity(l, m, n, d)
    assert (report.checked, report.failures) == want


def _flip_one_weight(monkeypatch, shape, row):
    real = kernel.structure_table

    def patched(m, n, d, term_cap=kernel.DEFAULT_TERM_CAP):
        table = real(m, n, d, term_cap)
        if (m, n, d) != shape:
            return table
        weights = table.weights.copy()
        weights[row] = -weights[row]
        return StructureConstantTable(table.spec, table.exps, weights, table.staged)

    monkeypatch.setattr(kernel, "structure_table", patched)


@pytest.mark.parametrize(
    "l,m,n,d,shape,row",
    [
        (1, 1, 1, 2, (2, 1, 2), 0),
        (1, 2, 1, 3, (1, 2, 3), 3),
        (2, 1, 2, 2, (2, 3, 2), -1),
        (1, 1, 2, 4, (1, 1, 4), 1),
    ],
)
def test_flipped_weight_is_a_convolution_mismatch(l, m, n, d, shape, row, monkeypatch):
    _flip_one_weight(monkeypatch, shape, row)
    want = reference_convolution(l, m, n, d)
    assert len(want[1]) == 1
    report = verify_coefficient_identity(l, m, n, d)
    # the polynomial identity does not read the tables and still holds
    assert not report.passed
    assert (report.checked, report.failures) == want
    assert report.failures[0].startswith("convolution mismatch at (a,b,c)=")


def test_coefficient_identity_past_int64_uses_python_ints():
    # (d-1)*(lm+ln+mn) = 63: the weight products may leave int64 range
    report = verify_coefficient_identity(1, 1, 1, 22)
    assert report.passed, report.failures
    assert report.checked == 1388


SMALL_SPECS = [(m, n, 1) for m in (1, 2, 3) for n in (1, 2, 3)] + [
    (m, n, d)
    for d in range(2, 20)
    for m in range(1, 19)
    for n in range(1, 19)
    if (d - 1) * m * n <= 18
]


def test_integer_tables_match_expansion():
    # every table small enough to expand: the arrays, split at m, are the
    # kernel polynomial, and the weights add up to 2**((d-1)mn) in absolute value
    for m, n, d in SMALL_SPECS:
        spec = KernelSpec(m, n, d)
        table = structure_constants(spec)
        weights = table.weights.tolist()
        got = [
            (tuple(e), QLaurent.term(w, p))
            for e, p, w in zip(table.exps.tolist(), table.powers.tolist(), weights)
        ]
        assert got == sorted(kernel_polynomial(spec).terms.items()), (m, n, d)
        assert sum(abs(w) for w in weights) == 2 ** ((d - 1) * m * n)


def _grouped_reference(rows, weights):
    sums = {}
    for row, w in zip(rows, weights):
        sums[tuple(row)] = sums.get(tuple(row), 0) + w
    return sorted((row, w) for row, w in sums.items() if w)


def _with_power_shift(m, n, d):
    # (sorted key, power) rows of the product (0,)*m times (0,)*n, as they are
    # and with the power shifted so the spans add up to exactly 63 bits
    table = structure_constants(KernelSpec(m, n, d))
    keys = np.sort(table.exps, axis=1)
    bits = sum(int(x).bit_length() for x in keys.max(axis=0) - keys.min(axis=0))
    shift = (1 << (63 - bits)) - 1 - int(table.powers.max())
    rows = np.column_stack([keys, table.powers])
    shifted = np.column_stack([keys, table.powers + shift])
    return np.concatenate([rows, shifted]).tolist()


@pytest.mark.parametrize(
    "rows",
    [
        # spans 0, 2**61 and 1: 63 bits behind a constant column
        [[0, 0, 0], [0, 2**61, 1], [0, 0, 0]],
        # ten columns: a constant minimum part, nine 7-bit parts
        [[1] + [0] * 9, [1] + [127] * 9, [1] + [0] * 9],
        # one column spans all of int64's non-negative range
        [[5, 0], [5, 2**63 - 1], [5, 0]],
        # every entry fits in int64, the span 2**63 does not
        [[7, -(2**62)], [7, 2**62], [7, -(2**62)]],
        # equal rows: no column takes a bit
        [[3, 4], [3, 4], [3, 4]],
        # d = 2: sorted keys of a product whose minimum part never moves
        _with_power_shift(3, 1, 2),
        _with_power_shift(1, 4, 2),
    ],
)
def test_group_rows_is_exact_at_the_int64_boundary(rows):
    weights = [3, 5, -3, -4] * (len(rows) // 4) + [2] * (len(rows) % 4)
    got_rows, got_weights = group_rows(
        np.array(rows, dtype=np.int64), np.array(weights, dtype=np.int64)
    )
    got = list(zip(map(tuple, got_rows.tolist()), got_weights.tolist()))
    assert got == _grouped_reference(rows, weights)


@pytest.mark.parametrize("m,n,d", [(1, 1, 70), (2, 1, 33)])
def test_tables_past_int64_use_python_ints(m, n, d):
    spec = KernelSpec(m, n, d)
    table = structure_constants(spec)
    assert table.weights.dtype == object
    want = {(e[:m], e[m:]): c for e, c in kernel_polynomial(spec).terms.items()}
    assert table.entries == want


@pytest.mark.parametrize("m,n,d", [(1, 1, 1), (2, 1, 4), (2, 2, 3), (3, 3, 3)])
def test_table_json_matches_expansion(m, n, d):
    spec = KernelSpec(m, n, d)
    want = {
        "m": m,
        "n": n,
        "d": d,
        "entries": [
            {"a": list(e[:m]), "b": list(e[m:]), "coeff": qlaurent_to_json(c)}
            for e, c in sorted(kernel_polynomial(spec).terms.items())
        ],
    }
    assert json.dumps(table_to_json(structure_constants(spec))) == json.dumps(want)


def _cap_error(build, cap):
    try:
        build(cap)
    except ResourceLimitError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("m,n,d", [(3, 3, 3), (2, 2, 4), (1, 3, 5)])
def test_cached_table_refuses_like_a_cold_build(m, n, d):
    spec = KernelSpec(m, n, d)
    table = structure_table(m, n, d)
    limits = {s for s in table.staged} | {s * d for s in table.staged}
    for cap in sorted(limits | {x - 1 for x in limits}):
        cold = _cap_error(lambda c: kernel_polynomial(spec, c), cap)
        assert _cap_error(lambda c: structure_constants(spec, c), cap) == cold
        assert _cap_error(lambda c: structure_table(m, n, d, c), cap) == cold
