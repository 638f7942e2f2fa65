"""CLI behaviour: exit codes, emitted documents, determinism, batch mode."""
import io
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import qcoha.cli as cli_mod
from qcoha import product, specialize
from qcoha.cli import main
from qcoha.reports import CheckReport
from qcoha.serialization import element_to_json, graded_to_json, specialized_to_json
from qcoha.shuffle_algebra import to_symmetric_element

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


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
    ],
)
def test_batch_rejects_wrongly_typed_fields(capsys, monkeypatch, request_):
    code, out, _ = run(
        capsys, ["batch"], stdin_text=json.dumps(request_) + "\n", monkeypatch=monkeypatch
    )
    assert code == 0
    line = json.loads(out)
    validate(line, "batch")
    assert line["ok"] is False and line["error"]["code"] == "parse"


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
