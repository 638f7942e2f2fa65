"""CLI behaviour: exit codes, emitted documents, determinism, batch mode."""
import importlib
import io
import json
import os
import random
import re
import select
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoha.cli as cli_mod
from qcoha import MPoly, kernel, partition_algebra, product, serialization, specialize, suites
from qcoha.cli import main
from qcoha.errors import NotSymmetricError, ResourceLimitError
from qcoha.reports import CheckReport
from qcoha.serialization import (
    STYLES,
    element_to_json,
    graded_to_json,
    render_element,
    specialized_to_json,
)
from qcoha.shuffle_algebra import to_symmetric_element

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas"
TEXT, LATEX = STYLES["text"], STYLES["latex"]


def validate(payload, schema_name):
    with open(SCHEMAS / ("%s.schema.json" % schema_name)) as fh:
        jsonschema.validate(payload, json.load(fh))


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths --------------------------------------------------------------------


def test_multiply_smallest(capsys):
    code, out, err = run(capsys, ["multiply", "--d", "2", "--left", "0", "--right", "0"])
    assert code == 0 and err == "" and out.endswith("\n")
    payload = json.loads(out)
    assert payload == {
        "d": 2,
        "terms": [{"partition": [0, 1], "coeff": {"offset": 0, "coeffs": ["1", "-1"]}}],
    }
    validate(payload, "element")


def test_multiply_matches_library(capsys):
    code, out, _ = run(capsys, ["multiply", "--d", "4", "--left", "0,2", "--right", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload == element_to_json(product((0, 2), (1,), 4), 4)
    validate(payload, "element")


def test_multiply_at_q(capsys):
    code, out, _ = run(
        capsys, ["multiply", "--d", "4", "--left", "0,2", "--right", "1", "--at-q", "0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "d": 4,
        "at_q": "0",
        "terms": [{"partition": [0, 2, 7], "value": "1"}],
    }
    validate(payload, "specialized")


def test_multiply_text_and_latex(capsys):
    _, out, _ = run(
        capsys, ["multiply", "--d", "2", "--left", "0", "--right", "0", "--format", "text"]
    )
    assert out == "(-q+1)·(0, 1)\n"
    _, out, _ = run(
        capsys, ["multiply", "--d", "2", "--left", "0", "--right", "0", "--format", "latex"]
    )
    assert out == "(-q+1)\\cdot (0, 1)\n"


def test_shuffle_smallest(capsys):
    code, out, _ = run(capsys, ["shuffle", "--d", "2", "--left", "0", "--right", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "arity": 2,
        "terms": [{"partition": [0, 1], "coeff": {"offset": 0, "coeffs": ["1", "-1"]}}],
    }
    validate(payload, "symmetric")
    _, out, _ = run(
        capsys,
        ["shuffle", "--d", "2", "--left", "0", "--right", "0", "--format", "text"],
    )
    assert out == "(-q+1)·m(0, 1)\n"


def test_phi_partition_flag(capsys):
    code, out, _ = run(capsys, ["phi", "--partition", "1,1,3"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "components": [
            {
                "arity": 3,
                "terms": [
                    {"partition": [1, 1, 3], "coeff": {"offset": 0, "coeffs": ["2"]}}
                ],
            }
        ]
    }
    validate(payload, "graded")
    _, out, _ = run(capsys, ["phi", "--partition", "1,1,3", "--format", "text"])
    assert out == "arity 3: 2·m(1, 1, 3)\n"


def test_phi_reads_element_from_stdin(capsys, monkeypatch):
    e = product((0, 2), (1,), 4)
    code, out, _ = run(
        capsys, ["phi"], stdin_text=json.dumps(element_to_json(e, 4)), monkeypatch=monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == graded_to_json(to_symmetric_element(e))
    validate(payload, "graded")


def test_g_polynomial(capsys):
    code, out, _ = run(capsys, ["g", "--d", "2", "--m", "1", "--n", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "arity": 2,
        "terms": [
            {"exp": [0, 1], "coeff": {"offset": 0, "coeffs": ["1"]}},
            {"exp": [1, 0], "coeff": {"offset": 1, "coeffs": ["-1"]}},
        ],
    }
    validate(payload, "mpoly")


def test_g_table(capsys):
    code, out, _ = run(capsys, ["g", "--d", "2", "--m", "1", "--n", "1", "--table"])
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 1 and payload["n"] == 1 and payload["d"] == 2
    assert payload["entries"] == [
        {"a": [0], "b": [1], "coeff": {"offset": 0, "coeffs": ["1"]}},
        {"a": [1], "b": [0], "coeff": {"offset": 1, "coeffs": ["-1"]}},
    ]
    validate(payload, "table")
    _, out, _ = run(
        capsys, ["g", "--d", "2", "--m", "1", "--n", "1", "--table", "--format", "text"]
    )
    assert out == "a=[0] b=[1]: 1\na=[1] b=[0]: -q\n"


def test_graphs_with_orientations(capsys):
    code, out, _ = run(capsys, ["graphs", "--left", "0", "--right", "0", "--list"])
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2
    assert payload["terms"] == [
        {"partition": [0, 1], "coeff": {"offset": 0, "coeffs": ["1", "-1"]}}
    ]
    assert [o["id"] for o in payload["orientations"]] == [0, 1]
    assert payload["orientations"][1] == {
        "id": 1,
        "partition": [0, 1],
        "coeff": {"offset": 1, "coeffs": ["-1"]},
    }
    validate(payload, "graphs")


def test_graphs_list_bytes_are_the_element_json_and_its_orientations(capsys):
    code, out, err = run(capsys, ["graphs", "--left", "0,1", "--right", "0,2", "--list"])
    assert (code, err) == (0, "")
    listed = json.loads(out)["orientations"]
    assert len(listed) == 16
    want = dict(element_to_json(product((0, 1), (0, 2), 2), 2), orientations=listed)
    assert out == json.dumps(want) + "\n"


def test_specialize_pipe(capsys, monkeypatch):
    e = product((0, 2), (1,), 4)
    doc = json.dumps(element_to_json(e, 4))
    code, out, _ = run(
        capsys, ["specialize", "--at-q", "1"], stdin_text=doc, monkeypatch=monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == specialized_to_json(specialize(e, 1), 4, 1)
    validate(payload, "specialized")


NEGATIVE_AT_Q = [
    (["multiply", "--d", "2", "--left", "0,1", "--right", "1"], None),
    (["shuffle", "--d", "3", "--left", "0", "--right", "1"], None),
    (["specialize"], json.dumps(element_to_json(product((0, 2), (1,), 4), 4))),
]


@pytest.mark.parametrize("argv,stdin_text", NEGATIVE_AT_Q)
def test_negative_fraction_at_q_in_argv(capsys, monkeypatch, argv, stdin_text):
    # argparse alone would take "-1/2" for a flag
    outs = []
    for at_q in (["--at-q=-1/2"], ["--at-q", "-1/2"], ["--at", "-1/2"]):
        code, out, err = run(capsys, argv + at_q, stdin_text, monkeypatch)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["terms"]
    code, out, err = run(capsys, argv + ["--at-q", "-1/x"], stdin_text, monkeypatch)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"code": "parse", "message": "bad rational '-1/x'"}}


def test_verify_passes(capsys):
    code, out, err = run(
        capsys, ["verify", "grading", "--d", "2", "--max-len", "2", "--max-part", "2"]
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["name"] == "grading" and payload["passed"] is True
    assert payload["checked"] > 0 and payload["failures"] == []
    validate(payload, "report")


def test_verify_text_format(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "prop43", "--max-len", "1", "--max-part", "1", "--format", "text"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite: prop43"
    assert lines[1] == "passed: yes"
    assert lines[2].startswith("checked: ")


# -- determinism ---------------------------------------------------------------------


def test_output_is_byte_deterministic(capsys):
    argv = ["multiply", "--d", "3", "--left", "1,2", "--right", "0,2"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = [
        "verify", "assoc", "--d", "1", "--max-len", "1", "--max-part", "1",
        "--count", "2", "--seed", "7",
    ]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second


# -- failure paths --------------------------------------------------------------------


def test_unsorted_partition_exits_2(capsys):
    code, out, err = run(capsys, ["multiply", "--d", "2", "--left", "2,1", "--right", "0"])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "parse"
    validate(payload, "error")


def test_bad_rational_exits_2(capsys):
    code, _, err = run(
        capsys, ["multiply", "--d", "2", "--left", "0", "--right", "0", "--at-q", "x"]
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "parse"


def test_missing_argument_exits_2(capsys):
    code, _, err = run(capsys, ["multiply", "--left", "0", "--right", "0"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["code"] == "parse"
    validate(payload, "error")


def test_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "nope"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "parse"


# JSON nested past the recursion limit
NESTED = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize("argv", [["phi"], ["specialize", "--at-q", "1"]])
def test_nested_stdin_json_is_a_parse_error(capsys, monkeypatch, argv):
    code, out, err = run(capsys, argv, stdin_text=NESTED, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert payload == {"error": {"code": "parse", "message": "JSON nested too deeply"}}
    validate(payload, "error")


# (suite, batch field, value); the argv flag is "--" + the field, with "-"
UNTAKEN_VERIFY_FIELDS = [
    ("graphs", "d", 7),
    ("prop41", "d", 2),
    ("prop43", "d", 2),
    ("iso", "seed", 3),
    ("lemma31", "count", 4),
    ("grading", "seed", 3),
    ("lemma31", "max_len", 2),
    ("quasi", "count", 4),
]


def _refuse_to_run(monkeypatch):
    def boom(**kwargs):
        raise AssertionError("suite ran")

    for name in cli_mod.SUITES:
        monkeypatch.setitem(cli_mod.SUITES, name, boom)


@pytest.mark.parametrize("suite,field,value", UNTAKEN_VERIFY_FIELDS)
def test_verify_rejects_flags_the_suite_does_not_take(capsys, monkeypatch, suite, field, value):
    _refuse_to_run(monkeypatch)
    flag = "--" + field.replace("_", "-")
    code, out, err = run(capsys, ["verify", suite, flag, str(value)])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == {
        "code": "parse",
        "message": "suite %s does not take %s" % (suite, field),
    }
    validate(payload, "error")


def test_verify_passes_the_flags_a_suite_takes(capsys, monkeypatch):
    seen = {}

    def record(**kwargs):
        seen.update(kwargs)
        return CheckReport("stub", True, 1)

    monkeypatch.setitem(cli_mod.SUITES, "assoc", record)
    argv = ["verify", "assoc", "--d", "2", "--max-len", "1", "--max-part", "3"]
    code, _, _ = run(capsys, argv + ["--seed", "5", "--count", "4"])
    assert code == 0
    assert seen == {
        "d_values": (2,), "max_len": 1, "max_part": 3, "seed": 5, "random_triples": 4
    }
    monkeypatch.setitem(cli_mod.SUITES, "lemma31", record)
    seen.clear()
    assert run(capsys, ["verify", "lemma31", "--d", "2"])[0] == 0
    assert seen == {"d_values": (2,)}


def test_batch_verify_rejects_fields_the_suite_does_not_take(capsys, monkeypatch):
    _refuse_to_run(monkeypatch)
    requests = [
        {"cmd": "verify", "suite": suite, field: value}
        for suite, field, value in UNTAKEN_VERIFY_FIELDS
    ]
    text = "".join(json.dumps(r) + "\n" for r in requests)
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(requests)
    for line, (suite, field, _) in zip(lines, UNTAKEN_VERIFY_FIELDS):
        validate(line, "batch")
        assert line == {
            "ok": False,
            "error": {"code": "parse", "message": "suite %s does not take %s" % (suite, field)},
        }


# requests with a field their command does not take, and the message for each
UNTAKEN_BATCH_FIELDS = [
    ({"cmd": "multiply", "d": 2, "left": [0], "right": [0], "bogus": 1},
     "multiply does not take 'bogus'"),
    ({"cmd": "g", "d": 2, "m": 1, "n": 1, "at_q": "1"}, "g does not take 'at_q'"),
    ({"cmd": "graphs", "left": [0], "right": [0], "at_q": "1"}, "graphs does not take 'at_q'"),
    ({"cmd": "phi", "partition": [0], "at_q": "1"}, "phi does not take 'at_q'"),
    ({"cmd": "graphs", "left": [0], "right": [0], "term_cap": 5},
     "graphs does not take 'term_cap'"),
    ({"cmd": "phi", "partition": [0], "element": {"d": 2, "terms": []}},
     "phi takes exactly one of 'partition' and 'element'"),
]


@pytest.mark.parametrize(
    "request_",
    [
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "table": "false"},
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "table": 0},
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "shift": True},
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "shift": "1"},
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "term_cap": "5"},
        {"cmd": "graphs", "left": [0], "right": [0], "list": "false"},
        {"cmd": "graphs", "left": [0], "right": [0], "list": 1},
        {"cmd": "verify", "suite": "prop43", "max_len": "1"},
        {"cmd": "verify", "suite": "assoc", "seed": True},
    ]
    + [request for request, _ in UNTAKEN_BATCH_FIELDS],
)
def test_batch_rejects_wrongly_typed_fields(capsys, monkeypatch, request_):
    code, out, _ = run(
        capsys, ["batch"], stdin_text=json.dumps(request_) + "\n", monkeypatch=monkeypatch
    )
    assert code == 0
    line = json.loads(out)
    validate(line, "batch")
    assert line["ok"] is False and line["error"]["code"] == "parse"
    for request, message in UNTAKEN_BATCH_FIELDS:
        if request == request_:
            assert line["error"]["message"] == message


@pytest.mark.parametrize(
    "request_,message",
    [
        ({"cmd": "verify"}, "verify needs 'suite'"),
        ({"cmd": "verify", "suite": ["assoc"]}, "field 'suite' must be a string"),
        ({"cmd": "multiply", "d": 2, "left": [0]}, "multiply needs 'right'"),
        ({"cmd": "g", "m": 1, "n": 1}, "g needs 'd'"),
        ({"cmd": "multiply", "d": 2, "left": "0", "right": [0]},
         "field 'left' must be a list of parts"),
        ({"cmd": "multiply", "d": 2, "left": [0], "right": [0], "at_q": 1},
         "field 'at_q' must be a string"),
        ({"cmd": "specialize", "element": {"d": 2, "terms": []}}, "specialize needs 'at_q'"),
        ({"cmd": "specialize", "element": None, "at_q": "1"}, "element must be {d, terms}"),
        ({"cmd": "phi", "element": None}, "element must be {d, terms}"),
        ({"cmd": "phi"}, "phi takes exactly one of 'partition' and 'element'"),
        ({"cmd": ["multiply"]}, "unknown cmd ['multiply']"),
        ({"left": [0]}, "request must be an object with a 'cmd' field"),
    ],
)
def test_batch_names_a_missing_or_mistyped_field(capsys, monkeypatch, request_, message):
    _refuse_to_run(monkeypatch)
    code, out, _ = run(
        capsys, ["batch"], stdin_text=json.dumps(request_) + "\n", monkeypatch=monkeypatch
    )
    assert code == 0
    line = json.loads(out)
    validate(line, "batch")
    assert line == {"ok": False, "error": {"code": "parse", "message": message}}


@pytest.mark.parametrize(
    "command", [["phi", "--partition", "0"], ["graphs", "--left", "0", "--right", "0"]]
)
@pytest.mark.parametrize("cap", ["-5", "10"])
def test_phi_and_graphs_take_no_term_cap(capsys, command, cap):
    code, out, err = run(capsys, command + ["--term-cap", cap])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == {
        "code": "parse",
        "message": "unrecognized arguments: --term-cap %s" % cap,
    }
    validate(payload, "error")


# (suite, field) pairs whose field is a bound that must not be negative
VERIFY_BOUNDS = [
    ("iso", "max_len"),
    ("prop41", "max_part"),
    ("assoc", "count"),
    ("assoc", "max_len"),
]


@pytest.mark.parametrize("suite,field", VERIFY_BOUNDS)
def test_negative_verify_bound_is_a_parse_error(capsys, monkeypatch, suite, field):
    _refuse_to_run(monkeypatch)
    code, out, err = run(capsys, ["verify", suite, "--" + field.replace("_", "-"), "-1"])
    assert code == 2 and out == ""
    error = {"code": "parse", "message": "%s must be non-negative, got -1" % field}
    payload = json.loads(err)
    assert payload["error"] == error
    validate(payload, "error")
    text = json.dumps({"cmd": "verify", "suite": suite, field: -1}) + "\n"
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out) == {"ok": False, "error": error}


def test_zero_verify_bounds_stay_valid(capsys, monkeypatch):
    seen = []

    def record(**kwargs):
        seen.append(kwargs)
        return CheckReport("stub", True, 0)

    monkeypatch.setitem(cli_mod.SUITES, "assoc", record)
    argv = ["verify", "assoc", "--max-len", "0", "--max-part", "0", "--count", "0"]
    assert run(capsys, argv)[0] == 0
    text = json.dumps({"cmd": "verify", "suite": "assoc", "max_len": 0, "max_part": 0, "count": 0})
    code, out, _ = run(capsys, ["batch"], stdin_text=text + "\n", monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["ok"] is True
    assert seen == [{"max_len": 0, "max_part": 0, "random_triples": 0}] * 2


def test_batch_reads_typed_flags(capsys, monkeypatch):
    requests = [
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "table": True},
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "table": False},
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "shift": 1},
        {"cmd": "graphs", "left": [0], "right": [0], "list": True},
        {"cmd": "graphs", "left": [0], "right": [0], "list": False},
    ]
    text = "".join(json.dumps(r) + "\n" for r in requests)
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    table, poly, shifted, listed, unlisted = [json.loads(line) for line in out.splitlines()]
    assert all(r["ok"] for r in (table, poly, shifted, listed, unlisted))
    assert "entries" in table["result"] and "entries" not in poly["result"]
    assert shifted["result"]["arity"] == 3
    assert "orientations" in listed["result"]
    assert "orientations" not in unlisted["result"]


def test_term_cap_exits_3(capsys):
    # d=9 is used nowhere else, so the table cache cannot satisfy this shape
    code, out, err = run(
        capsys, ["multiply", "--d", "9", "--left", "0,2", "--right", "1", "--term-cap", "1"]
    )
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "resource"
    validate(payload, "error")


NEGATIVE_CAP_ARGV = [
    ["multiply", "--left", "0", "--right", "0"],
    ["shuffle", "--left", "0", "--right", "0"],
    ["g", "--m", "1", "--n", "1"],
]


@pytest.mark.parametrize("d", ["1", "2"])
@pytest.mark.parametrize("argv", NEGATIVE_CAP_ARGV)
def test_negative_term_cap_exits_2(capsys, argv, d):
    # at d = 1 no factor is folded, so no cap check would ever see it
    code, out, err = run(capsys, argv + ["--d", d, "--term-cap", "-1"])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == {
        "code": "parse",
        "message": "term cap must be non-negative, got -1",
    }
    validate(payload, "error")


def test_batch_negative_term_cap_is_a_parse_error(capsys, monkeypatch):
    requests = [
        {"cmd": cmd, "d": d, "term_cap": -5, **fields}
        for cmd, fields in (
            ("multiply", {"left": [0], "right": [0]}),
            ("shuffle", {"left": [0], "right": [0]}),
            ("g", {"m": 1, "n": 1}),
        )
        for d in (1, 2)
    ]
    text = "".join(json.dumps(r) + "\n" for r in requests)
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(requests)
    for line in lines:
        validate(line, "batch")
        assert line == {
            "ok": False,
            "error": {"code": "parse", "message": "term cap must be non-negative, got -5"},
        }


LOOP_COUNT_ARGV = [
    ["multiply", "--left", "0", "--right", "0"],
    ["multiply", "--left", "", "--right", "0"],
    ["shuffle", "--left", "0", "--right", "0"],
    ["shuffle", "--left", "", "--right", "0"],
]


@pytest.mark.parametrize("d", ["0", "-1"])
@pytest.mark.parametrize("argv", LOOP_COUNT_ARGV)
def test_loop_count_below_one_exits_2(capsys, argv, d):
    # with an empty factor no kernel is expanded, so nothing else would see d
    code, out, err = run(capsys, argv + ["--d", d])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == {
        "code": "parse",
        "message": "the loop count d must be at least 1",
    }
    validate(payload, "error")


def test_batch_loop_count_below_one_is_a_parse_error(capsys, monkeypatch):
    requests = [
        {"cmd": cmd, "d": 0, "left": left, "right": [0]}
        for cmd in ("multiply", "shuffle")
        for left in ([0], [])
    ]
    text = "".join(json.dumps(r) + "\n" for r in requests)
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(requests)
    for line in lines:
        validate(line, "batch")
        assert line == {
            "ok": False,
            "error": {"code": "parse", "message": "the loop count d must be at least 1"},
        }


def test_zero_term_cap_is_still_a_limit(capsys):
    code, _, err = run(capsys, ["g", "--d", "2", "--m", "1", "--n", "1", "--term-cap", "0"])
    assert code == 3 and json.loads(err)["error"]["code"] == "resource"
    code, out, _ = run(capsys, ["g", "--d", "1", "--m", "1", "--n", "1", "--term-cap", "0"])
    assert code == 0 and json.loads(out)["arity"] == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    stub = lambda **kw: CheckReport("grading", False, 1, failures=["boom"])
    monkeypatch.setitem(cli_mod.SUITES, "grading", stub)
    code, out, err = run(capsys, ["verify", "grading"])
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["passed"] is False and payload["failures"] == ["boom"]
    validate(payload, "report")


# -- batch mode ------------------------------------------------------------------------


def test_batch_lines(capsys, monkeypatch):
    requests = [
        {"cmd": "multiply", "d": 2, "left": [0], "right": [0]},
        {"cmd": "nonsense"},
        {"cmd": "g", "d": 2, "m": 1, "n": 1},
        {"cmd": "verify", "suite": "prop43", "max_len": 1, "max_part": 1},
        {"cmd": "multiply", "d": 8, "left": [0, 2], "right": [1], "term_cap": 1},
        {"cmd": "multiply", "d": 2, "left": [2, 1], "right": [0]},
    ]
    text = "\n".join(json.dumps(r) for r in requests) + "\n\nnot json\n"
    code, out, err = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 7
    for line in lines:
        validate(line, "batch")
    assert lines[0]["ok"] is True
    assert lines[0]["result"]["terms"][0]["partition"] == [0, 1]
    assert lines[1] == {
        "ok": False,
        "error": {"code": "parse", "message": "unknown cmd 'nonsense'"},
    }
    assert lines[2]["ok"] is True and lines[2]["result"]["arity"] == 2
    assert lines[3]["ok"] is True and lines[3]["passed"] is True
    assert lines[4]["ok"] is False and lines[4]["error"]["code"] == "resource"
    assert lines[5]["ok"] is False and lines[5]["error"]["code"] == "parse"
    assert lines[6]["ok"] is False and lines[6]["error"]["code"] == "parse"


def test_batch_answers_the_lines_after_nested_json(capsys, monkeypatch):
    request = {"cmd": "multiply", "d": 2, "left": [0], "right": [1]}
    text = NESTED + "\n" + json.dumps(request) + "\n"
    code, out, err = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 2
    for line in lines:
        validate(line, "batch")
    assert lines[0] == {
        "ok": False,
        "error": {"code": "parse", "message": "JSON nested too deeply"},
    }
    assert lines[1] == {"ok": True, "result": element_to_json(product((0,), (1,), 2), 2)}


def test_batch_term_cap_ignores_cached_tables(capsys, monkeypatch):
    # d=7 is used nowhere else, so the first request meets a cold table
    capped = {"cmd": "multiply", "d": 7, "left": [0, 1, 2], "right": [0, 1, 2], "term_cap": 10}
    uncapped = dict(capped)
    del uncapped["term_cap"]
    text = "".join(json.dumps(r) + "\n" for r in (capped, uncapped, capped))
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    first, second, third = [json.loads(line) for line in out.splitlines()]
    assert first["ok"] is False and first["error"]["code"] == "resource"
    assert second["ok"] is True
    assert third == first


def _replace_everywhere(monkeypatch, module, name, replacement):
    """Point every reference a qcoha module holds to ``module.name`` at ``replacement``."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qcoha" or mod_name.startswith("qcoha."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


# (d, left, right): plain, keys past int64, and an empty factor
GROUPED_PRODUCTS = [(3, (0, 1), (1,)), (3, (0, 2**70), (5,)), (2, (), (0, 1))]


def _multiply_argv(d, left, right):
    parts = lambda key: ",".join(map(str, key))
    return ["multiply", "--d", str(d), "--left", parts(left), "--right", parts(right)]


def test_multiply_json_folds_no_qlaurent(capsys, monkeypatch):
    expected = [element_to_json(product(mu, nu, d), d) for d, mu, nu in GROUPED_PRODUCTS]

    def forbidden(*args):
        raise AssertionError("the JSON multiply path folded a QLaurent")

    _replace_everywhere(monkeypatch, partition_algebra, "_to_element", forbidden)
    _replace_everywhere(monkeypatch, serialization, "qlaurent_to_json", forbidden)
    for (d, mu, nu), payload in zip(GROUPED_PRODUCTS, expected):
        code, out, err = run(capsys, _multiply_argv(d, mu, nu))
        assert (code, out, err) == (0, json.dumps(payload) + "\n", "")
    text = "".join(
        json.dumps({"cmd": "multiply", "d": d, "left": list(mu), "right": list(nu)}) + "\n"
        for d, mu, nu in GROUPED_PRODUCTS
    )
    code, out, err = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    assert out.splitlines() == [json.dumps({"ok": True, "result": p}) for p in expected]


def test_multiply_text_latex_and_at_q_fold(capsys, monkeypatch):
    d, mu, nu = GROUPED_PRODUCTS[0]
    e = product(mu, nu, d)
    at_q = specialized_to_json(specialize(e, Fraction(1, 2)), d, Fraction(1, 2))
    cases = [
        (["--format", "text"], render_element(e, TEXT)),
        (["--format", "latex"], render_element(e, LATEX)),
        (["--at-q", "1/2"], json.dumps(at_q)),
    ]
    calls = []
    real = partition_algebra._to_element

    def spy(*args):
        calls.append(args)
        return real(*args)

    _replace_everywhere(monkeypatch, partition_algebra, "_to_element", spy)
    for flags, want in cases:
        calls.clear()
        code, out, _ = run(capsys, _multiply_argv(d, mu, nu) + flags)
        assert code == 0 and out == want + "\n"
        assert len(calls) == 1


def test_batch_matches_the_library_on_the_bench_requests(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    (job,) = workloads.batch(1)
    # the job sends every distinct request twice; the first half is each once
    pairs = job.pairs[: len(job.pairs) // 2]
    assert len(set(pairs)) == len(pairs)
    requests = [{"cmd": "multiply", "d": d, "left": list(mu), "right": list(nu)} for d, mu, nu in pairs]
    # its table is cached by now, and the cap still holds
    requests.append(dict(requests[0], term_cap=1))
    out = io.StringIO()
    lines = "".join(json.dumps(r) + "\n" for r in requests)
    assert cli_mod.run_batch(io.StringIO(lines), out) == 0
    *answers, capped = out.getvalue().splitlines()
    for (d, mu, nu), answer in zip(pairs, answers):
        assert answer == json.dumps({"ok": True, "result": element_to_json(product(mu, nu, d), d)})
    capped = json.loads(capped)
    assert capped["ok"] is False and capped["error"]["code"] == "resource"
    assert re.fullmatch(r"projected term count \d+ exceeds cap 1", capped["error"]["message"])


def _seeded_multiply_requests(seed, count):
    """Multiply requests at d = 2, 3, 4 of shapes up to (3, 2), some with
    parts past int64, drawn from ``seed``."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        base = rng.choice([0, 0, 0, 50, 2**63])
        mu, nu = (
            sorted(base + rng.randint(0, 6) for _ in range(rng.randint(0, top)))
            for top in (3, 2)
        )
        requests.append({"cmd": "multiply", "d": rng.randint(2, 4), "left": mu, "right": nu})
    return requests


def test_batch_lines_are_the_element_json_cold_and_warm(monkeypatch):
    requests = _seeded_multiply_requests(2801, 300)
    text = "".join(json.dumps(r) + "\n" for r in requests)
    _fresh_caches(monkeypatch, partition_algebra.BASIS_CACHE_SIZE, kernel.TABLE_CACHE_SIZE)
    answers = []
    for _ in range(2):
        out = io.StringIO()
        assert cli_mod.run_batch(io.StringIO(text), out) == 0
        answers.append(out.getvalue().splitlines())
    info = partition_algebra._basis_product.cache_info()
    assert info.hits >= len(requests) and info.misses > 100
    want = [
        json.dumps({"ok": True, "result": element_to_json(product(r["left"], r["right"], r["d"]), r["d"])})
        for r in requests
    ]
    cold, warm = answers
    assert cold == want and warm == want


# int64 rows, keys past int64, an empty factor, and coefficients past int64
CANONICAL_PRODUCTS = GROUPED_PRODUCTS + [(71, (0,), (0,))]


def _is_canonical(line):
    return line == json.dumps(json.loads(line))


def test_argv_multiply_json_is_canonical(capsys):
    for d, mu, nu in CANONICAL_PRODUCTS:
        code, out, err = run(capsys, _multiply_argv(d, mu, nu))
        assert (code, err) == (0, "") and out.endswith("\n")
        assert _is_canonical(out[:-1])
        assert out[:-1] == json.dumps(element_to_json(product(mu, nu, d), d))


def test_batch_lines_are_canonical_json(capsys, monkeypatch):
    def report(passed):
        return lambda **kw: CheckReport("stub", passed, 1, failures=[] if passed else ["boom"])

    def not_symmetric(**kw):
        raise NotSymmetricError("not symmetric: stub")

    monkeypatch.setitem(cli_mod.SUITES, "grading", report(True))
    monkeypatch.setitem(cli_mod.SUITES, "quasi", report(False))
    monkeypatch.setitem(cli_mod.SUITES, "prop43", not_symmetric)
    products = [
        {"cmd": "multiply", "d": d, "left": list(mu), "right": list(nu)}
        for d, mu, nu in CANONICAL_PRODUCTS
    ]
    others = [
        {"cmd": "verify", "suite": "grading"},
        {"cmd": "verify", "suite": "quasi"},
        {"cmd": "nonsense"},
        {"cmd": "multiply", "d": 3, "left": [0, 1], "right": [1], "term_cap": 1},
        {"cmd": "verify", "suite": "prop43"},
    ]
    text = "".join(json.dumps(r) + "\n" for r in products + others)
    code, out, err = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == len(products) + len(others)
    assert all(map(_is_canonical, lines))
    for (d, mu, nu), line in zip(CANONICAL_PRODUCTS, lines):
        assert line == json.dumps({"ok": True, "result": element_to_json(product(mu, nu, d), d)})
    passed, failed, *errors = lines[len(products) :]
    for line, verdict in ((passed, True), (failed, False)):
        result = CheckReport("stub", verdict, 1, failures=[] if verdict else ["boom"]).to_json()
        assert line == json.dumps({"ok": True, "result": result, "passed": verdict})
    assert [json.loads(line)["error"]["code"] for line in errors] == ["parse", "resource", "check"]


# grids the work budget refuses: each ran past 20 s before it
OVERSIZED_GRIDS = [("iso", 4, 4), ("prop41", 7, 7)]


@pytest.mark.parametrize("suite,max_len,max_part", OVERSIZED_GRIDS)
def test_oversized_verify_grid_is_a_resource_error(
    capsys, monkeypatch, refuse_checks, suite, max_len, max_part
):
    refuse_checks("the grid started")
    message = "verify %s: the grid is predicted to exceed the work limit %d" % (
        suite,
        suites.GRID_WORK_LIMIT,
    )
    start = time.monotonic()
    argv = ["verify", suite, "--max-len", str(max_len), "--max-part", str(max_part)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": {"code": "resource", "message": message}}
    request = {"cmd": "verify", "suite": suite, "max_len": max_len, "max_part": max_part}
    code, out, _ = run(capsys, ["batch"], stdin_text=json.dumps(request), monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"ok": False, "error": {"code": "resource", "message": message}}
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("flags", [["--max-len", "3", "--count", "0"], ["--count", str(10**12)]])
def test_oversized_verify_assoc_is_a_resource_error(capsys, monkeypatch, refuse_checks, flags):
    # both ran past 25 s before the limit; each is refused before any check
    refuse_checks("the grid started")
    message = "verify assoc: the grid is predicted to exceed the work limit %d" % (
        suites.GRID_WORK_LIMIT
    )
    start = time.monotonic()
    code, out, err = run(capsys, ["verify", "assoc"] + flags)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": {"code": "resource", "message": message}}
    assert time.monotonic() - start < 5
    names = {"--max-len": "max_len", "--max-part": "max_part", "--count": "count"}
    request = {"cmd": "verify", "suite": "assoc"}
    request.update({names[f]: int(v) for f, v in zip(flags[::2], flags[1::2])})
    start = time.monotonic()
    code, out, _ = run(capsys, ["batch"], stdin_text=json.dumps(request), monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"ok": False, "error": {"code": "resource", "message": message}}
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("max_len", [10**8, 10**21])
def test_a_huge_assoc_max_len_is_refused_quickly(capsys, monkeypatch, max_len):
    # both ran past 15 s when every length was listed before the limit
    message = "verify assoc: the grid is predicted to exceed the work limit %d" % (
        suites.GRID_WORK_LIMIT
    )
    start = time.monotonic()
    code, out, err = run(capsys, ["verify", "assoc", "--max-len", str(max_len)])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": {"code": "resource", "message": message}}
    assert time.monotonic() - start < 2
    requests = [
        {"cmd": "verify", "suite": "assoc", "max_len": max_len},
        {"cmd": "multiply", "d": 2, "left": [0], "right": [0]},
    ]
    start = time.monotonic()
    text = "".join(json.dumps(r) + "\n" for r in requests)
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert time.monotonic() - start < 2
    refused, answered = map(json.loads, out.splitlines())
    assert code == 0
    assert refused == {"ok": False, "error": {"code": "resource", "message": message}}
    assert answered["ok"] is True


# each built its first factor, or its coefficient bound and table layout,
# before the cap refused it: the first two ran past 20 s, the third ended in
# an OverflowError traceback and the last was killed
HUGE_FIRST_FACTORS = [
    (
        ["g", "--d", str(10**30), "--m", "1", "--n", "1"],
        {"cmd": "g", "d": 10**30, "m": 1, "n": 1},
        "projected term count %d exceeds cap 5000000" % 10**30,
    ),
    (
        ["g", "--d", str(10**8), "--m", "1", "--n", "1", "--term-cap", "1"],
        {"cmd": "g", "d": 10**8, "m": 1, "n": 1, "term_cap": 1},
        "projected term count 100000000 exceeds cap 1",
    ),
    (
        ["multiply", "--left", "0", "--right", "0", "--d", str(10**30)],
        {"cmd": "multiply", "d": 10**30, "left": [0], "right": [0]},
        "projected term count %d exceeds cap 5000000" % 10**30,
    ),
    (
        ["g", "--table", "--d", "2", "--m", str(10**6), "--n", "1", "--term-cap", "1"],
        {"cmd": "g", "table": True, "d": 2, "m": 10**6, "n": 1, "term_cap": 1},
        "projected term count 2 exceeds cap 1",
    ),
]


# the first two ended a batch session with a traceback, in MPoly.constant
# and in coefficient_bound, and the next three ran out of memory or did the
# same.  A fold of m = 10**30 factors fails at its 23rd, which is named; with
# m = 2 its leading factors pass, and the least term count is named.  The
# last two were answered, or refused by a later factor, under a small cap
KERNELS_TOO_LARGE = [
    (
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "shift": 10**30},
        "kernel arity %d exceeds cap 5000000" % (10**30 + 2),
    ),
    (
        {"cmd": "g", "d": 2, "m": 10**30, "n": 1, "table": True},
        "projected term count %d exceeds cap 5000000" % 2**23,
    ),
    (
        {"cmd": "g", "d": 2, "m": 10**30, "n": 1},
        "projected term count %d exceeds cap 5000000" % 2**23,
    ),
    (
        {"cmd": "g", "d": 2, "m": 2, "n": 10**30, "table": True},
        "projected term count %d exceeds cap 5000000" % (2 * 10**30 + 1),
    ),
    (
        {"cmd": "g", "d": 1, "m": 1, "n": 1, "shift": 10**30},
        "kernel arity %d exceeds cap 5000000" % (10**30 + 2),
    ),
    (
        {"cmd": "g", "d": 1, "m": 10**30, "n": 1, "table": True, "term_cap": 10**7},
        "kernel arity %d exceeds cap 10000000" % (10**30 + 1),
    ),
    (
        {"cmd": "g", "d": 2, "m": 1, "n": 1, "shift": 1, "term_cap": 2},
        "kernel arity 3 exceeds cap 2",
    ),
    (
        {"cmd": "g", "d": 2, "m": 2, "n": 4, "term_cap": 8},
        "projected term count 9 exceeds cap 8",
    ),
]


@pytest.mark.parametrize("request_,message", KERNELS_TOO_LARGE)
def test_a_kernel_too_large_is_refused_before_it_is_built(capsys, monkeypatch, request_, message):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the kernel's size was checked")

    with monkeypatch.context() as patched:
        for name in ("block_pairs", "coefficient_bound", "_table_layout"):
            patched.setattr(kernel, name, refuse)
        patched.setattr(MPoly, "constant", refuse)
        with pytest.raises(ResourceLimitError, match="^%s$" % message):
            cli_mod.run_request(request_)
    requests = [request_, {"cmd": "multiply", "d": 2, "left": [0], "right": [0]}]
    text = "".join(json.dumps(r) + "\n" for r in requests)
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    refused, answered = map(json.loads, out.splitlines())
    assert code == 0
    assert refused == {"ok": False, "error": {"code": "resource", "message": message}}
    assert answered["ok"] is True


@pytest.mark.parametrize("argv,request_,message", HUGE_FIRST_FACTORS)
def test_a_huge_first_factor_is_refused_before_it_is_built(
    capsys, monkeypatch, argv, request_, message
):
    error = {"code": "resource", "message": message}
    start = time.monotonic()
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": error}
    assert time.monotonic() - start < 1
    requests = [request_, {"cmd": "multiply", "d": 2, "left": [0], "right": [0]}]
    text = "".join(json.dumps(r) + "\n" for r in requests)
    start = time.monotonic()
    code, out, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert time.monotonic() - start < 1
    refused, answered = map(json.loads, out.splitlines())
    assert code == 0
    assert refused == {"ok": False, "error": error}
    assert answered["ok"] is True


def test_shuffle_refuses_too_many_subsets_before_expanding(capsys, monkeypatch):
    # 184 756 subsets; it ran past 15 s when both factors' 10! rearrangements
    # were expanded before the subset check
    def refuse(*args, **kwargs):
        raise AssertionError("a factor was expanded")

    monkeypatch.setattr("qcoha.shuffle_algebra.expand", refuse)
    parts = ",".join(map(str, range(10)))
    start = time.monotonic()
    code, out, err = run(capsys, ["shuffle", "--d", "2", "--left", parts, "--right", parts])
    assert time.monotonic() - start < 1
    assert (code, out) == (3, "")
    message = "184756 subsets exceed the configured maximum 10000"
    assert json.loads(err) == {"error": {"code": "resource", "message": message}}
    # a loop count below 1 is still reported first
    code, _, err = run(capsys, ["shuffle", "--d", "0", "--left", parts, "--right", parts])
    assert code == 2 and json.loads(err)["error"]["code"] == "parse"


def test_graphs_list_is_refused_past_one_block(capsys, monkeypatch):
    # 20 edges: 2**20 orientations, refused before any is built or summed
    message = "listing 2**20 orientations exceeds the limit of 65536"
    start = time.monotonic()
    code, out, err = run(capsys, ["graphs", "--left", "0,0,0,0", "--right", "0,0,0,0,0", "--list"])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": {"code": "resource", "message": message}}
    request = {"cmd": "graphs", "left": [0] * 4, "right": [0] * 5, "list": True}
    code, out, _ = run(capsys, ["batch"], stdin_text=json.dumps(request), monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"ok": False, "error": {"code": "resource", "message": message}}
    assert time.monotonic() - start < 5
    # 16 edges: one whole block is listed
    code, out, _ = run(capsys, ["graphs", "--left", "0,0,0,0", "--right", "0,0,0,0", "--list"])
    assert code == 0
    assert [o["id"] for o in json.loads(out)["orientations"]] == list(range(65536))


def _fresh_caches(monkeypatch, basis_size, table_size):
    """Empty product caches holding at most the given numbers of entries."""
    build = partition_algebra._basis_product.__wrapped__
    monkeypatch.setattr(partition_algebra, "_basis_product", lru_cache(maxsize=basis_size)(build))
    merge = kernel.merged_table.__wrapped__
    monkeypatch.setattr(partition_algebra, "merged_table", lru_cache(maxsize=basis_size)(merge))
    monkeypatch.setattr(kernel, "_TABLE_CACHE", {})
    monkeypatch.setattr(kernel, "TABLE_CACHE_SIZE", table_size)


def test_bounded_caches_answer_like_unbounded_ones(monkeypatch):
    shapes = [(3, (0, 1), (1,)), (2, (0,), (0, 2)), (3, (1,), (0, 0)), (4, (0,), (1,))]
    requests = [{"cmd": "multiply", "d": d, "left": list(mu), "right": list(nu)} for d, mu, nu in shapes]
    # every product twice, then each under caps that fail at its first or a
    # later factor, or pass, each after its table has been evicted
    requests += requests + [dict(r, term_cap=cap) for cap in (1, 5, 10**6) for r in requests]
    text = "".join(json.dumps(r) + "\n" for r in requests)
    answers = []
    for basis_size, table_size in ((None, sys.maxsize), (1, 1)):
        _fresh_caches(monkeypatch, basis_size, table_size)
        out = io.StringIO()
        assert cli_mod.run_batch(io.StringIO(text), out) == 0
        answers.append(out.getvalue())
    unbounded, bounded = answers
    assert bounded == unbounded
    assert len(kernel._TABLE_CACHE) == 1
    info = partition_algebra._basis_product.cache_info()
    assert info.currsize == 1 and info.misses > len(shapes)
    errors = [json.loads(line).get("error", {}) for line in bounded.splitlines()]
    messages = {e["message"] for e in errors if e.get("code") == "resource"}
    assert {m.split()[-1] for m in messages} == {"1", "5"}


ELEMENT = element_to_json(product((0, 2), (1,), 4), 4)

# every command, with and without its optional fields
PARITY_REQUESTS = [
    {"cmd": "multiply", "d": 3, "left": [0, 1], "right": [1]},
    {"cmd": "multiply", "d": 3, "left": [0, 1], "right": [1], "at_q": "1/2"},
    {"cmd": "shuffle", "d": 2, "left": [0], "right": [0, 1]},
    {"cmd": "shuffle", "d": 2, "left": [0], "right": [0, 1], "at_q": "-2"},
    {"cmd": "phi", "partition": [1, 1, 3]},
    {"cmd": "phi", "element": ELEMENT},
    {"cmd": "g", "d": 3, "m": 2, "n": 1},
    {"cmd": "g", "d": 3, "m": 2, "n": 1, "table": True},
    {"cmd": "g", "d": 3, "m": 2, "n": 1, "shift": 1},
    {"cmd": "graphs", "left": [0, 1], "right": [1]},
    {"cmd": "graphs", "left": [0, 1], "right": [1], "list": True},
    {"cmd": "verify", "suite": "prop43", "max_len": 1, "max_part": 1},
    {"cmd": "specialize", "element": ELEMENT, "at_q": "1/2"},
]


def _argv_twin(request):
    """The command line and stdin for a batch request: a flag is its field
    name with "-" for "_", the suite is positional and an element is stdin."""
    argv, stdin = [request["cmd"]], None
    for field, value in request.items():
        flag = "--" + field.replace("_", "-")
        if field == "suite":
            argv.append(value)
        elif field == "element":
            stdin = json.dumps(value)
        elif value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        elif field != "cmd":
            argv += [flag, str(value)]
    return argv, stdin


@pytest.mark.parametrize("request_", PARITY_REQUESTS)
def test_argv_and_batch_give_the_same_payload(capsys, monkeypatch, request_):
    argv, stdin = _argv_twin(request_)
    code, out, err = run(capsys, argv, stdin_text=stdin, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    text = json.dumps(request_) + "\n"
    code, line, _ = run(capsys, ["batch"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    response = json.loads(line)
    assert response["ok"] is True
    assert (json.dumps(response["result"]) + "\n").encode() == out.encode()


with open(SCHEMAS / "batch.schema.json") as fh:
    _BATCH_SCHEMA = json.load(fh)
_BATCH_VALIDATOR = jsonschema.validators.validator_for(_BATCH_SCHEMA)(_BATCH_SCHEMA)

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from(["1", "-1/2", "x", "", "prop43", "assoc"]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.just(ELEMENT),
    st.dictionaries(st.sampled_from(["d", "terms"]), st.integers(0, 2), max_size=2),
)
_REQUESTS = st.builds(
    lambda cmd, fields: {"cmd": cmd, **fields},
    st.sampled_from([*cli_mod.COMMANDS, "batch"]) | _VALUES,
    st.dictionaries(
        st.sampled_from([*cli_mod.FIELDS, "bogus"]) | st.text(max_size=3), _VALUES, max_size=5
    ),
)
# a well-typed value for each field, so that requests also reach the handlers
_TYPED = {
    **{
        field: st.integers(-1, 3)
        for field, (read, _) in cli_mod.FIELDS.items()
        if read is cli_mod._integer
    },
    "left": st.lists(st.integers(0, 3), max_size=3).map(sorted),
    "right": st.lists(st.integers(0, 3), max_size=3).map(sorted),
    "partition": st.lists(st.integers(0, 3), max_size=3).map(sorted),
    "at_q": st.sampled_from(["0", "1", "-1/2", "2"]),
    "table": st.booleans(),
    "list": st.booleans(),
    "suite": st.sampled_from(sorted(cli_mod.SUITES)),
    "element": st.just(ELEMENT),
}


def _typed_request(cmd):
    fields = cli_mod._COMMAND_FIELDS[cmd]
    return st.fixed_dictionaries(
        {"cmd": st.just(cmd), **{f: _TYPED[f] for f, required in fields.items() if required}},
        optional={f: _TYPED[f] for f, required in fields.items() if not required},
    )


_LINES = st.one_of(
    st.sampled_from(sorted(cli_mod.COMMANDS)).flatmap(_typed_request).map(json.dumps),
    _REQUESTS.map(json.dumps),
    _VALUES.map(json.dumps),
    st.text(st.characters(blacklist_characters="\r\n"), max_size=8),
)


def _batch(lines):
    out = io.StringIO()
    assert cli_mod.run_batch(io.StringIO("".join(line + "\n" for line in lines)), out) == 0
    return out.getvalue().splitlines()


@settings(max_examples=200)
@given(st.lists(_LINES, min_size=1, max_size=6))
def test_batch_fuzz_answers_every_line_once(lines):
    stub = lambda **kwargs: CheckReport("stub", True, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in cli_mod.SUITES:
            mp.setitem(cli_mod.SUITES, name, stub)
        forward = _batch(lines)
        backward = _batch(lines[::-1])
    assert len(forward) == len([line for line in lines if line.strip()])
    for response in forward:
        _BATCH_VALIDATOR.validate(json.loads(response))
    # a response depends only on its request, not on what ran before it
    assert backward == forward[::-1]


def test_batch_answers_before_stdin_closes():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcoha", "batch"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        proc.stdin.write(b'{"cmd": "multiply", "d": 2, "left": [0], "right": [0]}\n')
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 10.0)
        assert ready, "no reply while stdin is still open"
        reply = json.loads(proc.stdout.readline())
        assert reply["ok"] is True
    finally:
        proc.stdin.close()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_batch_stops_nothing_on_empty_input(capsys, monkeypatch):
    code, out, _ = run(capsys, ["batch"], stdin_text="", monkeypatch=monkeypatch)
    assert code == 0 and out == ""


# -- module entry point ------------------------------------------------------------------


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcoha", "multiply", "--d", "2", "--left", "0", "--right", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["terms"][0]["partition"] == [0, 1]
