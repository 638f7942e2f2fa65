"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with -s to see the lines.  Every check is exact; the time bounds are the
contract limits, not expectations (typical runtimes are far below them).
"""
import itertools
import json
import time

import numpy as np
import pytest

from qcoha import (
    QLaurent,
    augmented_times_monomial,
    partitions_up_to,
    product,
    product_via_graphs,
    shift_sort_product,
    specialize,
    verify_augmented_rule,
    verify_coefficient_identity,
    verify_monomial_rule,
)
from qcoha.cli import run_request
from qcoha.serialization import qlaurent_from_json
from qcoha.suites import (
    suite_assoc,
    suite_grading,
    suite_iso,
    suite_quasi,
    suite_subset_sum,
)


def QL(offset, *coeffs):
    return QLaurent(offset, list(coeffs))


def fold_rows(keys, counts, powers, coeffs):
    # a key-major product as {key: QLaurent}, this module's own fold: key i
    # takes the next counts[i] powers and coefficients
    terms = {}
    rows = zip(np.repeat(keys, counts, axis=0).tolist(), powers.tolist(), coeffs.tolist())
    for key, p, c in rows:
        terms.setdefault(tuple(key), {})[p] = c
    return {key: QLaurent.from_dict(t) for key, t in terms.items()}


def report(num, ok, detail):
    print("criterion %2d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def iso_report():
    return timed(suite_iso)


@pytest.fixture(scope="module")
def assoc_report():
    return timed(suite_assoc)


@pytest.fixture(scope="module")
def quasi_report():
    return timed(suite_quasi)


def test_criterion_01_worked_product(capsys):
    want = {
        (0, 2, 7): QL(0, 1),
        (0, 3, 6): QL(1, -3),
        (0, 4, 5): QL(2, 3, -1),
        (1, 2, 6): QL(1, -3),
        (1, 3, 5): QL(2, 9, 0, 3, 0, 1),
        (1, 4, 4): QL(3, -9),
        (2, 2, 5): QL(2, 3, 0, 0, -3),
        (2, 3, 4): QL(3, -10, 9, -3),
        (3, 3, 3): QL(4, 3),
    }
    got, dt = timed(lambda: product((0, 2), (1,), 4))
    with capsys.disabled():
        report(
            1,
            got == want and dt < 1.0,
            "three-row product at d=4, nine exact coefficients, %.2fs" % dt,
        )


def test_criterion_02_augmented_rule_example(capsys):
    def run():
        table = augmented_times_monomial((0, 1, 2), (1, 1, 3))
        direct = verify_augmented_rule((0, 1, 2), (1, 1, 3))
        return table, direct

    (table, direct), dt = timed(run)
    ok = (
        table == {(2, 3, 3): 1, (1, 3, 4): 1, (1, 2, 5): 1}
        and direct.passed
        and dt < 1.0
    )
    with capsys.disabled():
        report(2, ok, "worked rule instance plus direct expansion, %.2fs" % dt)


def test_criterion_03_orientation_model(capsys):
    def run():
        request = {"cmd": "graphs", "left": [1, 2], "right": [0, 2, 3], "list": True}
        # the payload is the command's JSON text
        listed = json.loads(run_request(request)["payload"])["orientations"]
        one = listed[53]
        via_graphs = fold_rows(*product_via_graphs((1, 2), (0, 2, 3)))
        return one, len(listed), via_graphs

    (one, count, via_graphs), dt = timed(run)
    ok = (
        one["id"] == 53
        and tuple(one["partition"]) == (1, 3, 3, 3, 4)
        and qlaurent_from_json(one["coeff"]) == QL(4, 1)
        and count == 64
        and via_graphs == product((1, 2), (0, 2, 3), 2)
        and dt < 1.0
    )
    with capsys.disabled():
        report(3, ok, "single orientation term and all 64 orientations, %.2fs" % dt)


def test_criterion_04_image_is_multiplicative(capsys, iso_report):
    rep, dt = iso_report
    ok = rep.passed and rep.checked == 300 and dt < 60.0
    with capsys.disabled():
        report(
            4,
            ok,
            "table product vs brute shuffle, %d pairs, %.2fs" % (rep.checked, dt),
        )


def test_criterion_05_associativity(capsys, assoc_report):
    rep, dt = assoc_report
    ok = rep.passed and dt < 120.0
    with capsys.disabled():
        report(
            5,
            ok,
            "exhaustive grid plus 50 seeded random triples, %d checks, %.2fs"
            % (rep.checked, dt),
        )


def test_criterion_06_degenerate_limit(capsys):
    def run():
        grid = partitions_up_to(2, 2)
        bad = []
        n = 0
        for d in (1, 2, 3):
            for mu, nu in itertools.product(grid, grid):
                n += 1
                at0 = specialize(product(mu, nu, d), 0)
                if at0 != {shift_sort_product(mu, nu, d): 1}:
                    bad.append((mu, nu, d))
        return n, bad

    (n, bad), dt = timed(run)
    with capsys.disabled():
        report(
            6,
            not bad,
            "value at q=0 is one shifted sorted row, %d pairs, %.2fs" % (n, dt),
        )


def test_criterion_07_coefficient_identity(capsys):
    def run():
        reports = [
            verify_coefficient_identity(l, m, n, d)
            for l, m, n in itertools.product((1, 2), repeat=3)
            for d in (2, 3)
        ]
        return reports

    reports, dt = timed(run)
    ok = all(r.passed for r in reports) and len(reports) == 16 and dt < 60.0
    with capsys.disabled():
        report(
            7,
            ok,
            "coefficient convolution and kernel factorization, 16 block shapes, %.2fs"
            % dt,
        )


def test_criterion_08_signed_commutation(capsys, quasi_report):
    rep, dt = quasi_report
    grid = partitions_up_to(2, 2)
    odd = sum(
        1
        for d in (1, 2, 3)
        for mu, nu in itertools.product(grid, grid)
        if ((d - 1) * len(mu) * len(nu)) % 2 == 1
    )
    flagged = [s for s in rep.instances if s.startswith("unsigned differs")]
    ok = rep.passed and len(flagged) == odd and odd == 9
    with capsys.disabled():
        report(
            8,
            ok,
            "signed relation on %d pairs; unsigned deviates on the %d odd-exponent"
            " pairs, %.2fs" % (rep.checked, odd, dt),
        )


def test_criterion_09_grading(capsys, iso_report, assoc_report, quasi_report):
    rep, dt = timed(suite_grading)
    others = all(r.passed for r, _ in (iso_report, assoc_report, quasi_report))
    ok = rep.passed and rep.checked > 0 and others
    with capsys.disabled():
        report(
            9,
            ok,
            "length and weight of every term in every suite product, %d products, %.2fs"
            % (rep.checked, dt),
        )


def test_criterion_10_basis_product_rules(capsys):
    def run():
        split = suite_subset_sum()
        grid = partitions_up_to(3, 3)
        checked = 0
        bad = []
        for lam, mu in itertools.product(grid, grid):
            if len(lam) != len(mu):
                continue
            checked += 1
            r = verify_monomial_rule(lam, mu)
            if not r.passed:
                bad.append((lam, mu))
        return split, checked, bad

    (split, checked, bad), dt = timed(run)
    ok = split.passed and split.checked == 1225 and not bad and dt < 30.0
    with capsys.disabled():
        report(
            10,
            ok,
            "variable-split identity on %d pairs, rational rule on %d pairs, %.2fs"
            % (split.checked, checked, dt),
        )
