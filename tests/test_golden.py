"""Golden CLI output: the exact stdout bytes and exit code of each command in
every --format, so that a change to the renderers cannot move a byte unseen.

The stdin element has a Fraction coefficient and a q^-1 term.  One multiply has
parts past int64, so its keys are Python ints, and one repeats a part in both
factors.
"""
import io
import sys

import pytest

from qcoha.cli import main

ELEMENT = (
    '{"d": 2, "terms": [{"partition": [2], "coeff": {"offset": 0, "coeffs": ["-1"]}}, '
    '{"partition": [0, 1], "coeff": {"offset": -1, "coeffs": ["1/2", "0", "-3"]}}]}'
)

GOLDEN = [
    pytest.param(
        ["multiply", "--d", "2", "--left", "0,1", "--right", "1"],
        None,
        0,
        {
            "json": '{"d": 2, "terms": [{"partition": [0, 1, 3], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"partition": [0, 2, 2], "coeff": {"offset": 1, "coeffs": ["-1"]}}, {"partition": [1, 1, 2], "coeff": {"offset": 1, "coeffs": ["-1", "1"]}}]}\n',
            "text": "(0, 1, 3) - q·(0, 2, 2) + (q^2-q)·(1, 1, 2)\n",
            "latex": "(0, 1, 3) - q\\cdot (0, 2, 2) + (q^{2}-q)\\cdot (1, 1, 2)\n",
        },
        id="multiply",
    ),
    pytest.param(
        ["multiply", "--d", "2", "--left", "0,1", "--right", "1", "--at-q=-1/2"],
        None,
        0,
        {
            "json": '{"d": 2, "at_q": "-1/2", "terms": [{"partition": [0, 1, 3], "value": "1"}, {"partition": [0, 2, 2], "value": "1/2"}, {"partition": [1, 1, 2], "value": "3/4"}]}\n',
            "text": "(0, 1, 3) + 1/2·(0, 2, 2) + 3/4·(1, 1, 2)\n",
            "latex": "(0, 1, 3) + \\frac{1}{2}\\cdot (0, 2, 2) + \\frac{3}{4}\\cdot (1, 1, 2)\n",
        },
        id="multiply-at-q",
    ),
    pytest.param(
        ["multiply", "--d", "2", "--left", "0,1", "--right", "0", "--at-q", "3/2"],
        None,
        0,
        {
            "json": '{"d": 2, "at_q": "3/2", "terms": [{"partition": [0, 1, 2], "value": "7/4"}, {"partition": [1, 1, 1], "value": "-3/2"}]}\n',
            "text": "7/4·(0, 1, 2) - 3/2·(1, 1, 1)\n",
            "latex": "\\frac{7}{4}\\cdot (0, 1, 2) - \\frac{3}{2}\\cdot (1, 1, 1)\n",
        },
        id="multiply-at-q-negative",
    ),
    pytest.param(
        ["multiply", "--d", "3", "--left", "", "--right", "0,2"],
        None,
        0,
        {
            "json": '{"d": 3, "terms": [{"partition": [0, 2], "coeff": {"offset": 0, "coeffs": ["1"]}}]}\n',
            "text": "(0, 2)\n",
            "latex": "(0, 2)\n",
        },
        id="multiply-empty-factor",
    ),
    pytest.param(
        ["shuffle", "--d", "2", "--left", "0", "--right", "1"],
        None,
        0,
        {
            "json": '{"arity": 2, "terms": [{"partition": [0, 2], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"partition": [1, 1], "coeff": {"offset": 1, "coeffs": ["-2"]}}]}\n',
            "text": "m(0, 2) - 2q·m(1, 1)\n",
            "latex": "m_{(0, 2)} - 2q\\cdot m_{(1, 1)}\n",
        },
        id="shuffle",
    ),
    pytest.param(
        ["shuffle", "--d", "3", "--left", "0", "--right", "1", "--at-q", "1/3"],
        None,
        0,
        {
            "json": '{"arity": 2, "terms": [{"partition": [0, 3], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"partition": [1, 2], "coeff": {"offset": 0, "coeffs": ["-5/9"]}}]}\n',
            "text": "m(0, 3) - 5/9·m(1, 2)\n",
            "latex": "m_{(0, 3)} - \\frac{5}{9}\\cdot m_{(1, 2)}\n",
        },
        id="shuffle-at-q",
    ),
    pytest.param(
        ["phi", "--partition", "0,1"],
        None,
        0,
        {
            "json": '{"components": [{"arity": 2, "terms": [{"partition": [0, 1], "coeff": {"offset": 0, "coeffs": ["1"]}}]}]}\n',
            "text": "arity 2: m(0, 1)\n",
            "latex": "m_{(0, 1)}\n",
        },
        id="phi-partition",
    ),
    pytest.param(
        ["phi"],
        ELEMENT,
        0,
        {
            "json": '{"components": [{"arity": 1, "terms": [{"partition": [2], "coeff": {"offset": 0, "coeffs": ["-1"]}}]}, {"arity": 2, "terms": [{"partition": [0, 1], "coeff": {"offset": -1, "coeffs": ["1/2", "0", "-3"]}}]}]}\n',
            "text": "arity 1: -m(2)\narity 2: (-3q+1/2q^-1)·m(0, 1)\n",
            "latex": "-m_{(2)} \\oplus (-3q+\\frac{1}{2}q^{-1})\\cdot m_{(0, 1)}\n",
        },
        id="phi-element",
    ),
    pytest.param(
        ["specialize", "--at-q", "2/3"],
        ELEMENT,
        0,
        {
            "json": '{"d": 2, "at_q": "2/3", "terms": [{"partition": [2], "value": "-1"}, {"partition": [0, 1], "value": "-5/4"}]}\n',
            "text": "-(2) - 5/4·(0, 1)\n",
            "latex": "-(2) - \\frac{5}{4}\\cdot (0, 1)\n",
        },
        id="specialize",
    ),
    pytest.param(
        ["g", "--d", "3", "--m", "1", "--n", "1"],
        None,
        0,
        {
            "json": '{"arity": 2, "terms": [{"exp": [0, 2], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"exp": [1, 1], "coeff": {"offset": 1, "coeffs": ["-2"]}}, {"exp": [2, 0], "coeff": {"offset": 2, "coeffs": ["1"]}}]}\n',
            "text": "x^(0, 2) - 2q·x^(1, 1) + q^2·x^(2, 0)\n",
            "latex": "x^{(0, 2)} - 2q\\cdot x^{(1, 1)} + q^{2}\\cdot x^{(2, 0)}\n",
        },
        id="g",
    ),
    pytest.param(
        ["g", "--d", "2", "--m", "1", "--n", "2", "--shift", "1"],
        None,
        0,
        {
            "json": '{"arity": 4, "terms": [{"exp": [0, 0, 1, 1], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"exp": [0, 1, 0, 1], "coeff": {"offset": 1, "coeffs": ["-1"]}}, {"exp": [0, 1, 1, 0], "coeff": {"offset": 1, "coeffs": ["-1"]}}, {"exp": [0, 2, 0, 0], "coeff": {"offset": 2, "coeffs": ["1"]}}]}\n',
            "text": "x^(0, 0, 1, 1) - q·x^(0, 1, 0, 1) - q·x^(0, 1, 1, 0) + q^2·x^(0, 2, 0, 0)\n",
            "latex": "x^{(0, 0, 1, 1)} - q\\cdot x^{(0, 1, 0, 1)} - q\\cdot x^{(0, 1, 1, 0)} + q^{2}\\cdot x^{(0, 2, 0, 0)}\n",
        },
        id="g-shift",
    ),
    pytest.param(
        ["g", "--d", "3", "--m", "1", "--n", "1", "--table"],
        None,
        0,
        {
            "json": '{"m": 1, "n": 1, "d": 3, "entries": [{"a": [0], "b": [2], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"a": [1], "b": [1], "coeff": {"offset": 1, "coeffs": ["-2"]}}, {"a": [2], "b": [0], "coeff": {"offset": 2, "coeffs": ["1"]}}]}\n',
            "text": "a=[0] b=[2]: 1\na=[1] b=[1]: -2q\na=[2] b=[0]: q^2\n",
            "latex": "c^{[0],[2]} = 1\nc^{[1],[1]} = -2q\nc^{[2],[0]} = q^{2}\n",
        },
        id="g-table",
    ),
    pytest.param(
        ["graphs", "--left", "0", "--right", "0,1"],
        None,
        0,
        {
            "json": '{"d": 2, "terms": [{"partition": [0, 1, 2], "coeff": {"offset": 0, "coeffs": ["1", "-1", "1"]}}, {"partition": [1, 1, 1], "coeff": {"offset": 1, "coeffs": ["-1"]}}]}\n',
            "text": "(q^2-q+1)·(0, 1, 2) - q·(1, 1, 1)\n",
            "latex": "(q^{2}-q+1)\\cdot (0, 1, 2) - q\\cdot (1, 1, 1)\n",
        },
        id="graphs",
    ),
    pytest.param(
        ["multiply", "--d", "3", "--left", "0,0,1", "--right", "9223372036854775808"],
        None,
        0,
        {
            "json": '{"d": 3, "terms": [{"partition": [0, 0, 1, 9223372036854775814], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"partition": [0, 0, 2, 9223372036854775813], "coeff": {"offset": 1, "coeffs": ["-2"]}}, {"partition": [0, 0, 3, 9223372036854775812], "coeff": {"offset": 2, "coeffs": ["1"]}}, {"partition": [0, 1, 1, 9223372036854775813], "coeff": {"offset": 1, "coeffs": ["-4"]}}, {"partition": [0, 1, 2, 9223372036854775812], "coeff": {"offset": 2, "coeffs": ["10"]}}, {"partition": [0, 1, 3, 9223372036854775811], "coeff": {"offset": 3, "coeffs": ["-4"]}}, {"partition": [0, 2, 2, 9223372036854775811], "coeff": {"offset": 3, "coeffs": ["-4"]}}, {"partition": [0, 2, 3, 9223372036854775810], "coeff": {"offset": 4, "coeffs": ["2"]}}, {"partition": [1, 1, 1, 9223372036854775812], "coeff": {"offset": 2, "coeffs": ["4"]}}, {"partition": [1, 1, 2, 9223372036854775811], "coeff": {"offset": 3, "coeffs": ["-12"]}}, {"partition": [1, 1, 3, 9223372036854775810], "coeff": {"offset": 4, "coeffs": ["4"]}}, {"partition": [1, 2, 2, 9223372036854775810], "coeff": {"offset": 4, "coeffs": ["9"]}}, {"partition": [1, 2, 3, 9223372036854775809], "coeff": {"offset": 5, "coeffs": ["-4"]}}, {"partition": [2, 2, 2, 9223372036854775809], "coeff": {"offset": 5, "coeffs": ["-2"]}}, {"partition": [2, 2, 3, 9223372036854775808], "coeff": {"offset": 6, "coeffs": ["1"]}}]}\n',
            "text": '(0, 0, 1, 9223372036854775814) - 2q·(0, 0, 2, 9223372036854775813) + q^2·(0, 0, 3, 9223372036854775812) - 4q·(0, 1, 1, 9223372036854775813) + 10q^2·(0, 1, 2, 9223372036854775812) - 4q^3·(0, 1, 3, 9223372036854775811) - 4q^3·(0, 2, 2, 9223372036854775811) + 2q^4·(0, 2, 3, 9223372036854775810) + 4q^2·(1, 1, 1, 9223372036854775812) - 12q^3·(1, 1, 2, 9223372036854775811) + 4q^4·(1, 1, 3, 9223372036854775810) + 9q^4·(1, 2, 2, 9223372036854775810) - 4q^5·(1, 2, 3, 9223372036854775809) - 2q^5·(2, 2, 2, 9223372036854775809) + q^6·(2, 2, 3, 9223372036854775808)\n',
            "latex": '(0, 0, 1, 9223372036854775814) - 2q\\cdot (0, 0, 2, 9223372036854775813) + q^{2}\\cdot (0, 0, 3, 9223372036854775812) - 4q\\cdot (0, 1, 1, 9223372036854775813) + 10q^{2}\\cdot (0, 1, 2, 9223372036854775812) - 4q^{3}\\cdot (0, 1, 3, 9223372036854775811) - 4q^{3}\\cdot (0, 2, 2, 9223372036854775811) + 2q^{4}\\cdot (0, 2, 3, 9223372036854775810) + 4q^{2}\\cdot (1, 1, 1, 9223372036854775812) - 12q^{3}\\cdot (1, 1, 2, 9223372036854775811) + 4q^{4}\\cdot (1, 1, 3, 9223372036854775810) + 9q^{4}\\cdot (1, 2, 2, 9223372036854775810) - 4q^{5}\\cdot (1, 2, 3, 9223372036854775809) - 2q^{5}\\cdot (2, 2, 2, 9223372036854775809) + q^{6}\\cdot (2, 2, 3, 9223372036854775808)\n',
        },
        id="multiply-object-keys",
    ),
    pytest.param(
        ["multiply", "--d", "2", "--left", "0,0", "--right", "1,1"],
        None,
        0,
        {
            "json": '{"d": 2, "terms": [{"partition": [0, 0, 3, 3], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"partition": [0, 1, 2, 3], "coeff": {"offset": 1, "coeffs": ["-4"]}}, {"partition": [0, 2, 2, 2], "coeff": {"offset": 2, "coeffs": ["2"]}}, {"partition": [1, 1, 1, 3], "coeff": {"offset": 2, "coeffs": ["2"]}}, {"partition": [1, 1, 2, 2], "coeff": {"offset": 2, "coeffs": ["2", "-4", "1"]}}]}\n',
            "text": '(0, 0, 3, 3) - 4q·(0, 1, 2, 3) + 2q^2·(0, 2, 2, 2) + 2q^2·(1, 1, 1, 3) + (q^4-4q^3+2q^2)·(1, 1, 2, 2)\n',
            "latex": '(0, 0, 3, 3) - 4q\\cdot (0, 1, 2, 3) + 2q^{2}\\cdot (0, 2, 2, 2) + 2q^{2}\\cdot (1, 1, 1, 3) + (q^{4}-4q^{3}+2q^{2})\\cdot (1, 1, 2, 2)\n',
        },
        id="multiply-repeated-parts",
    ),
    pytest.param(
        ["verify", "assoc", "--max-len", "1", "--max-part", "2", "--count", "2"],
        None,
        0,
        {
            "json": '{"name": "assoc", "passed": true, "checked": 242, "failures": [], "instances": ["random d=3 () (0, 1, 3) (2,)", "random d=3 (1, 2) (3,) ()"]}\n',
            "text": 'suite: assoc\npassed: yes\nchecked: 242\nnote: random d=3 () (0, 1, 3) (2,)\nnote: random d=3 (1, 2) (3,) ()\n',
            "latex": 'suite: assoc\npassed: yes\nchecked: 242\nnote: random d=3 () (0, 1, 3) (2,)\nnote: random d=3 (1, 2) (3,) ()\n',
        },
        id="verify-assoc-small",
    ),
    pytest.param(
        ["verify", "prop43"],
        None,
        0,
        {
            "json": '{"name": "prop43", "passed": true, "checked": 1225, "failures": [], "instances": []}\n',
            "text": "suite: prop43\npassed: yes\nchecked: 1225\n",
            "latex": "suite: prop43\npassed: yes\nchecked: 1225\n",
        },
        id="verify-prop43",
    ),
]


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
@pytest.mark.parametrize("argv,stdin,code,outputs", GOLDEN)
def test_golden_output(capsys, monkeypatch, argv, stdin, code, outputs, fmt):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv + ["--format", fmt]) == code
    captured = capsys.readouterr()
    assert captured.out == outputs[fmt]
    assert captured.err == ""


# each of the two g requests ended a batch session with a traceback, in
# MPoly.constant and in coefficient_bound, so the multiply was never answered
BATCH_STDIN = (
    '{"cmd": "g", "d": 2, "m": 1, "n": 1, "shift": 1000000000000000000000000000000}\n'
    '{"cmd": "g", "d": 2, "m": 1000000000000000000000000000000, "n": 1, "table": true}\n'
    '{"cmd": "multiply", "d": 2, "left": [0, 1], "right": [1]}\n'
)
BATCH_STDOUT = (
    '{"ok": false, "error": {"code": "resource", "message": "kernel arity 1000000000000000000000000000002 exceeds cap 5000000"}}\n'
    '{"ok": false, "error": {"code": "resource", "message": "projected term count 8388608 exceeds cap 5000000"}}\n'
    '{"ok": true, "result": {"d": 2, "terms": [{"partition": [0, 1, 3], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"partition": [0, 2, 2], "coeff": {"offset": 1, "coeffs": ["-1"]}}, {"partition": [1, 1, 2], "coeff": {"offset": 1, "coeffs": ["-1", "1"]}}]}}\n'
)


def test_golden_batch(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(BATCH_STDIN))
    assert main(["batch"]) == 0
    captured = capsys.readouterr()
    assert captured.out == BATCH_STDOUT
    assert captured.err == ""
