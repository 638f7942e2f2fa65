import itertools
import json
import tracemalloc
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoha.kernel as kernel
import qcoha.mpoly as mpoly_mod
import qcoha.packed as packed
from qcoha.cli import main
from qcoha.errors import ResourceLimitError
from qcoha.kernel import (
    KernelSpec,
    RowLayout,
    StructureConstantTable,
    group_keys,
    group_rows,
    kernel_polynomial,
    merged_table,
    pack_rows,
    pairwise_kernel,
    structure_constants,
    structure_table,
    verify_coefficient_identity,
    verify_symmetry,
)
from qcoha.mpoly import MPoly, embed
from qcoha.partitions import distinct_permutations, vec_add
from qcoha.qlaurent import ONE, Q, ZERO, QLaurent, q_power, signed_q_power
from qcoha.serialization import STYLES, qlaurent_to_json, render_qlaurent, table_to_json

TEXT, LATEX = STYLES["text"], STYLES["latex"]


def is_homogeneous(p):
    return len({sum(e) for e in p.terms}) <= 1


def total_degree(p):
    return max(sum(e) for e in p.terms)


def is_polynomial(f):
    # no negative power of q
    return all(k >= 0 for k, _ in f.items())


def max_power(f):
    return max(k for k, _ in f.items())


def eval_q(p, value):
    # {exponent: coefficient at q = value}, vanished terms dropped
    values = {e: c.eval_at(value) for e, c in p.terms.items()}
    return {e: v for e, v in values.items() if v}


def table_entries(table):
    # the table's rows as {(a, b): weight * q**power}, this module's own view
    m = table.spec.m
    rows = zip(table.exps.tolist(), table.powers.tolist(), table.weights.tolist())
    out = {(tuple(e[:m]), tuple(e[m:])): QLaurent.term(w, p) for e, p, w in rows}
    assert len(out) == len(table)
    return out


def coefficient(table, a, b):
    return table_entries(table).get((tuple(a), tuple(b)), ZERO)


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
    assert table_entries(table) == expected


def test_frozen_coefficients_m2_n1_d4():
    table = structure_constants(KernelSpec(2, 1, 4))
    assert coefficient(table, (0, 0), (6,)) == ONE
    assert coefficient(table, (1, 0), (5,)) == -3 * Q
    assert coefficient(table, (3, 3), (0,)) == q_power(6)
    assert coefficient(table, (1, 3), (2,)) == 3 * q_power(4)
    assert coefficient(table, (4, 0), (2,)) == 0
    # raw kernel monomial x1**3 x2**1 x3**2
    g = kernel_polynomial(KernelSpec(2, 1, 4))
    assert g.coefficient((3, 1, 2)) == 3 * q_power(4)


@pytest.mark.parametrize("m,n,d", [(1, 1, 2), (2, 1, 3), (1, 2, 3), (2, 2, 2), (2, 2, 3), (3, 1, 2)])
def test_homogeneous_of_expected_degree(m, n, d):
    g = kernel_polynomial(KernelSpec(m, n, d))
    deg = (d - 1) * m * n
    assert is_homogeneous(g)
    assert total_degree(g) == deg


@pytest.mark.parametrize("m,n,d", [(2, 1, 3), (2, 2, 2), (1, 2, 4), (2, 2, 3)])
def test_extreme_coefficients_and_qdegree(m, n, d):
    table = structure_constants(KernelSpec(m, n, d))
    e = (d - 1) * m
    # pure second-block monomial has coefficient 1
    assert coefficient(table, (0,) * m, (e,) * n) == ONE
    bound = (d - 1) * m * n
    for coeff in table_entries(table).values():
        assert is_polynomial(coeff)
        assert max_power(coeff) <= bound


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
    at0 = eval_q(g, 0)
    e = (spec.d - 1) * spec.m
    assert at0 == {(0, 0, e, e): 1}
    # and the same comes from building with q substituted up front
    g0 = kernel_polynomial(spec, q_value=0)
    assert {k: c.constant_value() for k, c in g0.terms.items()} == at0


def test_q1_build_matches_evaluation():
    spec = KernelSpec(2, 2, 3)
    g = kernel_polynomial(spec)
    g1 = kernel_polynomial(spec, q_value=1)
    assert {k: c.constant_value() for k, c in g1.terms.items()} == eval_q(g, 1)


def test_shifted_kernel_is_embedding():
    spec = KernelSpec(2, 1, 3)
    plain = kernel_polynomial(spec)
    shifted = kernel_polynomial(KernelSpec(2, 1, 3, shift=2))
    assert shifted == embed(plain, 5, (2, 3, 4))


def test_structure_constants_require_unshifted():
    with pytest.raises(ValueError):
        structure_constants(KernelSpec(1, 1, 2, shift=1))


@pytest.mark.parametrize("d", [1, 2])
def test_negative_term_cap_is_a_value_error(d):
    # at d = 1 no factor is folded, so no cap check would ever see it
    calls = [
        lambda: pairwise_kernel(2, [(1, 0)], d, term_cap=-1),
        lambda: kernel_polynomial(KernelSpec(1, 1, d), term_cap=-1),
        lambda: structure_constants(KernelSpec(1, 1, d), term_cap=-1),
        lambda: structure_table(1, 1, d, term_cap=-1),
    ]
    structure_table(1, 1, d)  # a cached table must not let it through
    for call in calls:
        with pytest.raises(ValueError, match="term cap must be non-negative, got -1"):
            call()


@pytest.mark.parametrize("d", [0, -1])
def test_pairwise_kernel_rejects_loop_counts_below_one(d):
    for pairs in ([(1, 0)], []):
        with pytest.raises(ValueError, match="the loop count d must be at least 1"):
            pairwise_kernel(2, pairs, d)


def test_the_first_factor_is_checked_before_anything_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the first factor was checked")

    for name in ("comb", "coefficient_bound", "_table_layout"):
        monkeypatch.setattr(kernel, name, refuse)
    huge = 10**30
    # a bad first pair is still reported before the cap
    with pytest.raises(ValueError, match=r"^bad variable pair \(0, 0\)$"):
        pairwise_kernel(2, [(0, 0)], huge, term_cap=1)
    message = "^projected term count %d exceeds cap 5000000$" % huge
    with pytest.raises(ResourceLimitError, match=message):
        pairwise_kernel(2, [(1, 0)], huge)
    with pytest.raises(ResourceLimitError, match=message):
        structure_constants(KernelSpec(1, 1, huge))
    with pytest.raises(ResourceLimitError, match="^projected term count 2 exceeds cap 1$"):
        structure_constants(KernelSpec(10**6, 1, 2), term_cap=1)


def _refusal(build):
    """The message of the ResourceLimitError ``build()`` raises, or None."""
    try:
        build()
    except ResourceLimitError as exc:
        return str(exc)
    return None


def test_kernel_size_refuses_only_what_the_folds_refuse():
    # unshifted, so the arity never decides: a refusal names the folds' own
    # first failing step, or else the least term count (d-1)*m*n + 1
    named = {"fold": 0, "least": 0}
    for d, m, n in itertools.product([2, 3, 4], range(1, 5), range(1, 7)):
        spec = KernelSpec(m, n, d)
        least = "projected term count %d exceeds cap" % ((d - 1) * m * n + 1)
        for cap in (0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 27, 30, 64, 81, 100):
            checked = _refusal(lambda: kernel.check_kernel_size(spec, cap))
            if checked is None:
                continue
            folded = {_refusal(lambda: build(spec, cap)) for build in (kernel_polynomial, structure_constants)}
            (folded,) = folded
            assert folded is not None
            if checked == folded:
                named["fold"] += 1
            else:
                assert checked.startswith(least + " ")
                named["least"] += 1
    assert named["fold"] > 700 and named["least"] > 5


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
        for (a1, b1), x in table_entries(t_lm).items()
        for (ab2, c), y in table_entries(t_lmn).items()
    )
    rhs = fold(
        ((a, vec_add(b1, bc[:m]), vec_add(c1, bc[m:])), x * y)
        for (a, bc), x in table_entries(t_l_mn).items()
        for (b1, c1), y in table_entries(t_mn).items()
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
    # staging, grouping and unpacking a few rows at a time must not change
    # the result
    monkeypatch.setattr(mpoly_mod, "STAGE_ROWS", 7)
    monkeypatch.setattr(packed, "STAGE_ROWS", 7)
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
        # the largest default table, whose products are staged in slices
        (2, 2, 2, 3, (4, 2, 3), 1000),
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


def test_coefficient_identity_on_int64_tables_whose_sums_pass_int64(monkeypatch):
    # at d = 33 the (2, 1) table is int64, but its |weights| sum to 2**64:
    # lifted from the arrays unchecked, the products would wrap modulo 2**64
    table = structure_table(2, 1, 33)
    assert table.weights.dtype == np.int64
    assert sum(abs(w) for w in table.weights.tolist()) == 2**64
    for flip in (False, True):
        if flip:
            _flip_one_weight(monkeypatch, (2, 1, 33), int(np.abs(table.weights).argmax()))
        want = reference_convolution(1, 1, 1, 33)
        assert len(want[1]) == flip
        report = verify_coefficient_identity(1, 1, 1, 33)
        assert report.passed == (not flip)
        assert (report.checked, report.failures) == want


SMALL_SPECS = [(m, n, 1) for m in (1, 2, 3) for n in (1, 2, 3)] + [
    (m, n, d)
    for d in range(2, 20)
    for m in range(1, 19)
    for n in range(1, 19)
    if (d - 1) * m * n <= 18
]


def test_integer_tables_match_expansion():
    # every table small enough to expand: the arrays, each row's power after
    # its exponents, are the kernel polynomial's rows, and the weights add up
    # to 2**((d-1)mn) in absolute value; those of power p have the sign
    # (-1)**p and add up to binom((d-1)mn, p), the coefficients of (1 - q)**e
    for m, n, d in SMALL_SPECS:
        spec = KernelSpec(m, n, d)
        table = structure_constants(spec)
        g = kernel_polynomial(spec)
        assert np.array_equal(g.rows, np.column_stack([table.exps, table.powers])), (m, n, d)
        assert np.array_equal(g.weights, table.weights), (m, n, d)
        e = (d - 1) * m * n
        assert sum(abs(w) for w in table.weights.tolist()) == 2**e
        by_power = [0] * (e + 1)
        for p, w in zip(table.powers.tolist(), table.weights.tolist()):
            assert (w < 0) == (p % 2 == 1), (m, n, d, p, w)
            by_power[p] += abs(w)
        assert by_power == [comb(e, p) for p in range(e + 1)], (m, n, d)


def symmetry_reference(table):
    # (checked, failures) of the dict algorithm the array check replaced
    groups = {}
    for (a, b), c in table_entries(table).items():
        groups.setdefault((tuple(sorted(a)), tuple(sorted(b))), []).append(((a, b), c))
    failures = []
    checked = 0
    for (ka, kb), members in sorted(groups.items()):
        expected = len(distinct_permutations(ka)) * len(distinct_permutations(kb))
        checked += len(members)
        if len(members) != expected:
            failures.append(
                "orbit of a=%r b=%r has %d of %d rearrangements"
                % (ka, kb, len(members), expected)
            )
            continue
        for (a, b), c in members[1:]:
            if c != members[0][1]:
                failures.append(
                    "coefficient at a=%r b=%r differs from a=%r b=%r"
                    % (a, b, members[0][0][0], members[0][0][1])
                )
                break
    return checked, failures


def _altered(table, flip=None, drop=None):
    # a copy of the table with the weight of row ``flip`` negated, or row ``drop`` left out
    exps, weights = table.exps, table.weights.copy()
    if flip is not None:
        weights[flip] = -weights[flip]
    if drop is not None:
        keep = np.arange(len(weights)) != drop
        exps, weights = exps[keep], weights[keep]
    return StructureConstantTable(table.spec, exps, weights, table.staged)


def test_symmetry_holds_on_every_small_table():
    for m, n, d in SMALL_SPECS:
        report = verify_symmetry(structure_table(m, n, d))
        assert report.passed, (m, n, d, report.failures)
        assert report.checked == len(structure_table(m, n, d))


def test_symmetry_failures_keep_their_wording():
    table = structure_table(2, 2, 2)
    # rows 1, 2, 4 and 5 are the orbit of a=(0, 1) b=(1, 2), in that order
    orbit = [table.exps[i].tolist() for i in (1, 2, 4, 5)]
    assert orbit == [[0, 1, 1, 2], [0, 1, 2, 1], [1, 0, 1, 2], [1, 0, 2, 1]]
    for row, a, b in ((2, (0, 1), (2, 1)), (5, (1, 0), (2, 1))):
        flipped = verify_symmetry(_altered(table, flip=row))
        assert not flipped.passed
        assert flipped.checked == len(table)
        assert flipped.failures == [
            "coefficient at a=%r b=%r differs from a=(0, 1) b=(1, 2)" % (a, b)
        ]
    dropped = verify_symmetry(_altered(table, drop=1))
    assert not dropped.passed
    assert dropped.checked == len(table) - 1
    assert dropped.failures == ["orbit of a=(0, 1) b=(1, 2) has 3 of 4 rearrangements"]


def test_symmetry_verdicts_match_the_dict_algorithm():
    # the tables of SMALL_SPECS up to 2000 rows, 100 of its 140: the dict
    # algorithm alone takes 11 s on the twenty past 20 000 rows
    for m, n, d in SMALL_SPECS:
        table = structure_table(m, n, d)
        last = len(table) - 1
        if last >= 2000:
            continue
        variants = [table, _altered(table, flip=last // 2)]
        if last:
            variants.append(_altered(table, drop=last // 3))
        for variant in variants:
            report = verify_symmetry(variant)
            want = symmetry_reference(variant)
            assert (report.checked, report.failures) == want, (m, n, d)
            assert report.passed == (not want[1])


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


BOUNDARY_ROWS = [
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
]


def _boundary_weights(rows):
    return [3, 5, -3, -4] * (len(rows) // 4) + [2] * (len(rows) % 4)


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
def test_group_rows_is_exact_at_the_int64_boundary(rows):
    weights = _boundary_weights(rows)
    got_rows, got_weights, _ = group_rows(
        np.array(rows, dtype=np.int64), np.array(weights, dtype=np.int64)
    )
    got = list(zip(map(tuple, got_rows.tolist()), got_weights.tolist()))
    assert got == _grouped_reference(rows, weights)


def _true_bounds(rows):
    lows = [min(col) for col in zip(*rows)]
    return lows, [max(col) - lo for col, lo in zip(zip(*rows), lows)]


def _group_under(bounds, rows, weights):
    # the packing core under given column bounds: one key per row, grouped
    keys = pack_rows(RowLayout(*bounds), rows)
    index, sums = group_keys(keys, weights)
    return rows[index], sums


@pytest.mark.parametrize(
    "lo,hi,dtype",
    [
        (0, 127, np.int8),
        (0, 128, np.int16),
        (-128, 0, np.int8),
        (-129, 0, np.int16),
        (0, 2**15 - 1, np.int16),
        (0, 2**15, np.int32),
        (-(2**15) - 1, 0, np.int32),
        (0, 2**31 - 1, np.int32),
        (0, 2**31, np.int64),
        (-(2**31) - 1, 0, np.int64),
        (-(2**63), 2**63 - 1, np.int64),
        (0, 2**63, object),
        (-(2**63) - 1, 0, object),
    ],
)
def test_a_layout_unpacks_rows_in_the_narrowest_dtype_of_its_bounds(lo, hi, dtype):
    # the least low and the greatest low + span decide, whatever their columns
    layout = RowLayout([lo, 0, 1], [-lo, hi, 1])
    assert layout.row_dtype is dtype
    rows = np.array([[lo, hi, 2], [0, 0, 1], [lo, 0, 1]], dtype=object)
    unpacked = layout.unpack(pack_rows(layout, rows))
    assert unpacked.dtype == np.dtype(dtype)
    assert unpacked.tolist() == rows.tolist()


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
def test_group_rows_takes_true_bounds_at_the_int64_boundary(rows):
    weights = _boundary_weights(rows)
    matrix = np.array(rows, dtype=np.int64)
    got_rows, got_weights = _group_under(
        _true_bounds(rows), matrix, np.array(weights, dtype=np.int64)
    )
    got = list(zip(map(tuple, got_rows.tolist()), got_weights.tolist()))
    assert got == _grouped_reference(rows, weights)
    assert matrix.tolist() == rows


entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**40, 2**62, 2**63 - 1, -(2**63), 2**70, -(2**70)]),
)


@given(
    st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=12)
    ),
    st.integers(0, 2**65),
    st.integers(0, 2**65),
)
@settings(max_examples=150, deadline=None)
def test_group_rows_with_and_without_bounds_matches_reference(rows, below, above):
    # without bounds as before; with the true bounds or wider ones, the same
    fits = all(-(2**63) <= x < 2**63 for row in rows for x in row)
    matrix = np.array(rows, dtype=np.int64 if fits else object)
    weights = [(-1) ** i * (i % 3) for i in range(len(rows))]
    want = _grouped_reference(rows, weights)
    lows, spans = _true_bounds(rows)
    wide = [lo - below for lo in lows], [span + below + above for span in spans]
    for bounds in (None, (lows, spans), wide):
        group = (lambda *a: group_rows(*a)[:2]) if bounds is None else lambda *a: _group_under(bounds, *a)
        got_rows, got_weights = group(matrix, np.array(weights, dtype=np.int64))
        got = list(zip(map(tuple, got_rows.tolist()), got_weights.tolist()))
        assert got == want
        assert matrix.tolist() == rows


@pytest.mark.parametrize(
    "m,n,d,dtype",
    # e = 66 and 64 are the last with binom(e, e // 2) in int64
    [(1, 1, 67, np.int64), (2, 1, 33, np.int64), (1, 1, 68, object), (2, 1, 35, object)],
)
def test_tables_at_the_int64_edge(m, n, d, dtype):
    spec = KernelSpec(m, n, d)
    table = structure_constants(spec)
    assert table.weights.dtype == dtype
    e = (d - 1) * m * n
    assert (comb(e, e // 2) <= 2**63 - 1) == (dtype is np.int64)
    want = {(x[:m], x[m:]): c for x, c in kernel_polynomial(spec).terms.items()}
    assert table_entries(table) == want


@pytest.mark.parametrize("m,n,d", [(1, 1, 70), (2, 1, 35)])
def test_tables_past_int64_use_python_ints(m, n, d):
    spec = KernelSpec(m, n, d)
    table = structure_constants(spec)
    assert table.weights.dtype == object
    want = {(e[:m], e[m:]): c for e, c in kernel_polynomial(spec).terms.items()}
    assert table_entries(table) == want


def reference_fold(m, n, d):
    # the fold the packed keys replaced: every partial fold staged as an int64
    # exponent matrix and grouped by np.unique on its rows; (exps, weights,
    # row count after each factor)
    exp = d - 1
    dtype = np.int64 if comb(exp * m * n, exp * m * n // 2) < 2**63 else object
    exps = np.zeros((1, m + n), dtype=np.int64)
    weights = np.ones(1, dtype=dtype)
    staged = [1]
    steps = np.arange(exp + 1)
    factor = np.array([(-1) ** i * comb(exp, i) for i in range(exp + 1)], dtype=dtype)
    for s in range(m, m + n if exp else m):
        for t in range(m):
            rows = len(weights)
            exps = np.repeat(exps, exp + 1, axis=0)
            exps[:, t] += np.tile(steps, rows)
            exps[:, s] += np.tile(exp - steps, rows)
            exps, inverse = np.unique(exps, axis=0, return_inverse=True)
            sums = np.zeros(len(exps), dtype=dtype)
            np.add.at(sums, inverse.ravel(), (weights[:, None] * factor).ravel())
            exps, weights = exps[sums != 0], sums[sums != 0]
            staged.append(len(weights))
    return exps, weights, tuple(staged)


@pytest.mark.parametrize(
    "m,n,d,dtype",
    [
        (1, 1, 1, np.int8),
        (2, 3, 1, np.int8),
        (2, 2, 3, np.int8),
        (3, 2, 3, np.int8),
        (3, 1, 5, np.int8),
        # the largest exponent (d-1)*max(m, n) at 127 and 128
        (1, 1, 128, np.int8),
        (1, 1, 129, np.int16),
        (2, 1, 64, np.int8),
        (1, 2, 65, np.int16),
    ],
)
def test_packed_fold_matches_the_2d_fold_and_the_expansion(m, n, d, dtype):
    spec = KernelSpec(m, n, d)
    table = structure_constants(spec)
    exps, weights, staged = reference_fold(m, n, d)
    assert table.exps.dtype == dtype
    assert table.powers.dtype == np.int64
    assert table.weights.dtype == weights.dtype
    assert table.staged == staged
    assert np.array_equal(table.exps, exps)
    assert table.weights.tolist() == weights.tolist()
    g = kernel_polynomial(spec)
    assert np.array_equal(g.rows, np.column_stack([table.exps, table.powers]))
    assert g.weights.tolist() == table.weights.tolist()


def test_a_fold_on_python_int_keys_matches_the_int64_fold(monkeypatch):
    # past 63 bits a layout keys on Python ints; a table needs that many bits
    # only past 2**31 rows ((1, 1, 2**31 + 1) is the first), so the layout is
    # forced to them here
    shapes = [(1, 1, 1), (2, 2, 3), (3, 1, 4), (1, 1, 129)]
    want = [structure_constants(KernelSpec(*shape)) for shape in shapes]
    key_dtypes = set()
    group_keys = kernel.group_keys

    def python_int_layout(lows, spans):
        layout = RowLayout(lows, spans)
        layout.dtype = object
        return layout

    def spy(keys, weights):
        key_dtypes.add(keys.dtype)
        return group_keys(keys, weights)

    monkeypatch.setattr(kernel, "RowLayout", python_int_layout)
    monkeypatch.setattr(kernel, "group_keys", spy)
    for shape, table in zip(shapes, want):
        got = structure_constants(KernelSpec(*shape))
        assert got.exps.dtype == table.exps.dtype
        assert np.array_equal(got.exps, table.exps)
        assert got.weights.tolist() == table.weights.tolist()
        assert got.staged == table.staged
    assert key_dtypes == {np.dtype(object)}


def test_a_cold_table_build_peaks_under_5_mb():
    # only 1-D keys and weights are staged: the traced peak of the 31 780-row
    # (3, 3, 4) table is about 3.3 MB, against 9.2 MB when every partial
    # fold was staged as a 2-D int64 matrix
    spec = KernelSpec(3, 3, 4)
    structure_constants(spec)
    tracemalloc.start()
    try:
        table = structure_constants(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 31780
    assert peak < 5_000_000


def test_both_convolution_sides_at_the_defaults_peak_under_6_mb():
    # the (2, 2, 2, 3) sides each stage 65 x 2625 pairs of rows: staged one
    # range of product keys at a time into int8 rows, both peak at about
    # 4.2 MB, against 10.4 MB when every chunk was regrouped and the rows
    # were int64
    sides = lambda: kernel._factorization_sides(
        lambda rows, cols: kernel._as_mpoly(structure_table(rows, cols, 3)), 2, 2, 2
    )
    sides()
    tracemalloc.start()
    try:
        left, right = sides()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert left == right and len(left.weights) == 63489
    assert left.rows.dtype == right.rows.dtype == np.int8
    assert peak < 6_000_000


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


def test_flipped_kernel_factor_fails_the_polynomial_identity(monkeypatch):
    # (x_s + q x_t) in place of (x_s - q x_t) for the first pair of the first
    # kernel expanded; the convolution half reads the tables and still passes
    original = kernel.pairwise_kernel
    calls = []

    def flipped(arity, pairs, d, q_value=None, term_cap=kernel.DEFAULT_TERM_CAP):
        calls.append(pairs)
        if len(calls) > 1:
            return original(arity, pairs, d, q_value, term_cap)
        (s, t), rest = pairs[0], pairs[1:]
        factor = MPoly.variable(arity, s) + MPoly.variable(arity, t).scale(Q)
        flipped_factor = MPoly.constant(arity, ONE)
        for _ in range(d - 1):
            flipped_factor = flipped_factor * factor
        return flipped_factor * original(arity, rest, d, q_value, term_cap)

    monkeypatch.setattr(kernel, "pairwise_kernel", flipped)
    report = verify_coefficient_identity(1, 2, 1, 3)
    assert len(calls) == 4
    assert not report.passed
    assert report.failures == ["kernel factorization identity fails as polynomials"]
    monkeypatch.setattr(kernel, "pairwise_kernel", original)
    assert verify_coefficient_identity(1, 2, 1, 3).checked == report.checked


@pytest.mark.parametrize("q_value", [0, 1, -2, Fraction(2, 3)])
def test_kernel_at_q_is_the_evaluated_kernel(q_value):
    spec = KernelSpec(2, 2, 3)
    at_q = kernel_polynomial(spec, q_value=q_value)
    assert not at_q.rows[:, -1].any()
    assert at_q.weights.dtype == (object if isinstance(q_value, Fraction) else np.int64)
    assert {e: c.constant_value() for e, c in at_q.terms.items()} == eval_q(
        kernel_polynomial(spec), q_value
    )


def test_kernel_rows_leave_int64_exactly():
    # (d-1)*m*n = 69 factors: the weights pass 2**63 on the way
    spec = KernelSpec(1, 1, 70)
    g = kernel_polynomial(spec)
    assert g.weights.dtype == object
    assert dict(g.terms) == {
        (i, 69 - i): QLaurent.term(-comb(69, i) if i & 1 else comb(69, i), i)
        for i in range(70)
    }


@pytest.mark.parametrize("m,n,d", [(1, 1, 1), (2, 1, 4), (2, 2, 3), (1, 1, 67), (1, 1, 70)])
def test_g_table_output_matches_the_folded_rows(capsys, m, n, d):
    # the bytes of g --table in each format, from the rows folded to QLaurent
    entries = sorted(table_entries(structure_constants(KernelSpec(m, n, d))).items())
    doc = {
        "m": m,
        "n": n,
        "d": d,
        "entries": [
            {"a": list(a), "b": list(b), "coeff": qlaurent_to_json(c)} for (a, b), c in entries
        ],
    }
    text = "\n".join(
        "a=%r b=%r: %s" % (list(a), list(b), render_qlaurent(c, TEXT)) for (a, b), c in entries
    )
    latex = "\n".join(
        "c^{%r,%r} = %s" % (list(a), list(b), render_qlaurent(c, LATEX)) for (a, b), c in entries
    )
    argv = ["g", "--d", str(d), "--m", str(m), "--n", str(n), "--table", "--format"]
    for fmt, want in (("json", json.dumps(doc)), ("text", text), ("latex", latex)):
        assert main(argv + [fmt]) == 0
        assert capsys.readouterr().out == want + "\n", fmt


def compositions(k):
    # every tuple of positive run lengths summing to k
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(1, k + 1) for rest in compositions(k - first)]


def orbit_size(row, runs):
    # the distinct rows reached by permuting the entries within each run
    stops = itertools.accumulate(runs)
    return prod(len(set(itertools.permutations(row[s - r : s]))) for s, r in zip(stops, runs))


def narrowest(lo, hi):
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


MERGED_SHAPES = [(1, 2, 3), (2, 1, 4), (2, 2, 2), (2, 2, 3), (3, 1, 3), (1, 3, 4), (3, 2, 2), (2, 1, 35)]


@pytest.mark.parametrize("m,n,d", MERGED_SHAPES)
def test_merged_weights_are_table_weights_times_orbit_sizes(m, n, d):
    table = structure_table(m, n, d)
    weight_of = dict(zip(map(tuple, table.exps.tolist()), table.weights.tolist()))
    e = (d - 1) * m * n
    for runs in (ra + rb for ra in compositions(m) for rb in compositions(n)):
        exps, powers, weights = merged_table(m, n, d, runs)
        rows = list(map(tuple, exps.tolist()))
        # a merged row is a table row, sorted within each run; its orbit
        # holds that many table rows, all of one weight
        for row, weight in zip(rows, weights.tolist()):
            assert weight == weight_of[row] * orbit_size(row, runs), (runs, row)
        total = sum(orbit_size(row, runs) for row in rows)
        assert total == len(table)
        # powers are the first-block row sums; rows are distinct and in order
        assert powers.tolist() == [sum(row[:m]) for row in rows]
        assert all(a < b for a, b in zip(rows, rows[1:]))
        if max(runs) > 1:
            assert exps.dtype == table.exps.dtype
            assert powers.dtype == narrowest(0, e)
            assert weights.dtype == narrowest(-comb(e, e // 2), comb(e, e // 2))


@pytest.mark.parametrize("m,n,d", MERGED_SHAPES)
def test_merged_tables_with_runs_of_one_are_the_table(m, n, d):
    # nothing merges, and the merge keeps copies: a cached merge holding the
    # table's own arrays would keep them after the table cache dropped them
    table = structure_table(m, n, d)
    merged = merged_table.__wrapped__(m, n, d, (1,) * (m + n))
    for got, want in zip(merged, (table.exps, table.powers, table.weights)):
        assert np.array_equal(got, want) and not np.shares_memory(got, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_runs_never_merge_across_the_blocks(d):
    # mu = nu = (1, 1): runs (2, 2), sorted within each block only
    table = structure_table(2, 2, d)
    want = {}
    for row, weight in zip(table.exps.tolist(), table.weights.tolist()):
        key = tuple(sorted(row[:2]) + sorted(row[2:]))
        want[key] = want.get(key, 0) + weight
    exps, powers, weights = merged_table(2, 2, d, (2, 2))
    assert dict(zip(map(tuple, exps.tolist()), weights.tolist())) == want
    # rows whose four entries agree as a multiset but split differently
    # across the blocks carry different powers, so one run of 4 would be
    # wrong
    by_multiset = {}
    for row, power in zip(exps.tolist(), powers.tolist()):
        by_multiset.setdefault(tuple(sorted(row)), set()).add(power)
    assert any(len(found) > 1 for found in by_multiset.values())


def test_a_table_unpacks_one_column_at_a_time():
    # the (3, 3, 4) table's exponents unpack straight into int8, in blocks
    # of columns with nothing staged in int64, so the peak stays under twice
    # the 0.19 MB result (1.85 MB when every field was shifted and masked at
    # once in int64)
    table = structure_table(3, 3, 4)
    layout = kernel._table_layout(3, 3, 3)
    keys = pack_rows(layout, table.exps)
    tracemalloc.start()
    try:
        rows = layout.unpack(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.dtype == np.int8 and np.array_equal(rows, table.exps)
    assert peak < 2 * rows.nbytes


def test_no_merged_table_shares_the_arrays_of_a_table(monkeypatch):
    # from a fresh table cache, builds with and without repeated parts; a
    # cached merge holding a table's arrays would keep them alive after the
    # table cache dropped the table
    import qcoha.partition_algebra as partition_algebra

    monkeypatch.setattr(kernel, "_TABLE_CACHE", {})
    merged = []
    merge = kernel.merged_table.__wrapped__
    monkeypatch.setattr(partition_algebra, "merged_table", lambda *a: merged.append(merge(*a)) or merged[-1])
    build = partition_algebra._basis_product.__wrapped__
    for d in (2, 3):
        for mu, nu in [((0, 1), (2,)), ((0, 0), (1,)), ((1, 2), (0, 3)), ((1, 1), (2, 2)), ((0,), (0, 0, 1))]:
            build(mu, nu, d)
    assert merged and kernel._TABLE_CACHE
    tables = [a for t in kernel._TABLE_CACHE.values() for a in (t.exps, t.powers, t.weights)]
    for arrays in merged:
        assert not any(np.shares_memory(a, t) for a in arrays for t in tables)
