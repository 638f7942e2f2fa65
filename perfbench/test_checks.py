"""The benchmark's output checks accept a right answer and reject corrupted ones.

    python3 -m pytest perfbench

Correct documents are built from the checks' own edge enumeration, so these
tests need no program.
"""
import copy
import json

from checks import EXPECTED_CHECKED, check_job, enumerate_product, multiply_problems, report_problems
from workloads import batch_job, multiply_job, verify_assoc

PAIR = (3, (0, 2), (1,))


def coeff_json(poly):
    lo, hi = min(poly), max(poly)
    return {"offset": lo, "coeffs": [str(poly.get(p, 0)) for p in range(lo, hi + 1)]}


def product_doc(d, mu, nu):
    element = enumerate_product(d, mu, nu)
    terms = [{"partition": list(k), "coeff": coeff_json(element[k])}
             for k in sorted(element, key=lambda k: (len(k), k))]
    return {"d": d, "terms": terms}


def report_doc(suite):
    return {"name": suite, "passed": True, "checked": EXPECTED_CHECKED[suite], "failures": [], "instances": []}


def test_enumeration_matches_known_product():
    # d = 2, one edge: (x_s - q x_t) on (0)*(0) gives (0,1) - q (1,0) sorted
    assert enumerate_product(2, (0,), (0,)) == {(0, 1): {0: 1, 1: -1}}


def test_right_product_passes_every_check():
    assert multiply_problems(*PAIR, product_doc(*PAIR), full=True) == []


def test_flipped_sign_is_rejected():
    doc = product_doc(*PAIR)
    term = next(t for t in doc["terms"] if len(t["coeff"]["coeffs"]) > 1)
    term["coeff"]["coeffs"][-1] = str(-int(term["coeff"]["coeffs"][-1]))
    assert multiply_problems(*PAIR, doc)


def test_dropped_term_is_rejected():
    doc = product_doc(*PAIR)
    del doc["terms"][-1]
    assert multiply_problems(*PAIR, doc)


def test_swapped_coefficients_need_the_enumeration():
    # the grading, q = 0 and coefficient-sum checks all pass; only the
    # enumeration notices two coefficients trading places
    doc = product_doc(*PAIR)
    terms = [t for t in doc["terms"] if t["coeff"]["offset"] > 0]
    a, b = next((x, y) for x in terms for y in terms if x["coeff"] != y["coeff"])
    a["coeff"], b["coeff"] = b["coeff"], a["coeff"]
    assert multiply_problems(*PAIR, doc) == []
    assert multiply_problems(*PAIR, doc, full=True)


def test_wrong_count_is_rejected():
    doc = report_doc("assoc")
    assert report_problems("assoc", doc) == []
    doc["checked"] -= 1
    assert report_problems("assoc", doc)


def test_failed_report_is_rejected():
    doc = report_doc("graphs")
    doc["passed"] = False
    doc["failures"] = ["graph model disagrees"]
    assert len(report_problems("graphs", doc)) == 2


def test_expected_counts_follow_the_suite_grids():
    assert EXPECTED_CHECKED == {"assoc": 3350, "iso": 300, "lemma31": 16, "graphs": 1229}


def batch_output(lines):
    return ("\n".join(lines) + "\n").encode()


def test_batch_counts_one_failed_operation_per_bad_line():
    pairs = [PAIR, (2, (1,), (0, 3)), (4, (0,), (2,))]
    job = batch_job(pairs)
    lines = [json.dumps({"ok": True, "result": product_doc(*p)}) for p in pairs]
    good = check_job(job, 0, batch_output(lines))
    assert (good.attempted, good.failed, good.wrong) == (3, 0, [])

    bad = copy.copy(lines)
    bad[1] = json.dumps({"ok": False, "error": {"code": "resource", "message": "cap"}})
    refused = check_job(job, 0, batch_output(bad))
    assert (refused.attempted, refused.failed, refused.wrong) == (3, 1, [])
    assert len(refused.refused) == 1


def test_truncated_batch_is_wrong():
    pairs = [PAIR, (2, (1,), (0, 3)), (4, (0,), (2,))]
    job = batch_job(pairs)
    lines = [json.dumps({"ok": True, "result": product_doc(*p)}) for p in pairs]
    stopped = check_job(job, 0, batch_output(lines[:2]))  # third line missing
    assert (stopped.attempted, stopped.failed) == (3, 1) and stopped.wrong
    killed = check_job(job, -9, batch_output(lines))  # every line, then killed
    assert (killed.attempted, killed.failed) == (3, 0) and killed.wrong


def test_oneshot_exit_code_is_wrong():
    job = multiply_job(*PAIR)
    outcome = check_job(job, 3, json.dumps(product_doc(*PAIR)).encode())
    assert (outcome.attempted, outcome.failed) == (1, 1) and outcome.wrong


def test_verify_exit_code_is_wrong():
    job = verify_assoc(0)[0]
    outcome = check_job(job, 1, json.dumps(report_doc("assoc")).encode())
    assert outcome.failed == 1 and outcome.wrong
