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


# -- changed answers: refusals that used to come after the work, or never ------

DIGITS = '"coefficient bound exceeds the 4300-digit limit of integer output"'

# each of these was computed in full and then answered "parse" with CPython's
# own message about writing an integer past 4300 digits, after 47-102 s; the
# --at-q one was answered after 71 s; the term-cap one gave 2 terms
REFUSED = [
    pytest.param(["multiply", "--d", "15000", "--left", "0", "--right", "0"], DIGITS, id="multiply"),
    pytest.param(["multiply", "--d", "20000", "--left", "0", "--right", "0"], DIGITS, id="multiply-20000"),
    pytest.param(
        ["multiply", "--d", "15000", "--left", "0", "--right", "0", "--at-q", "1"], DIGITS, id="multiply-at-q"
    ),
    pytest.param(["g", "--d", "20000", "--m", "1", "--n", "1"], DIGITS, id="g"),
    pytest.param(["g", "--d", "20000", "--m", "1", "--n", "1", "--table"], DIGITS, id="g-table"),
    pytest.param(["shuffle", "--d", "15000", "--left", "0", "--right", "0"], DIGITS, id="shuffle"),
    # answered: at q = 0 the kernel's coefficients are 1, but its bound is read
    pytest.param(["shuffle", "--d", "15000", "--left", "0", "--right", "0", "--at-q", "0"], DIGITS, id="shuffle-at-q"),
    # past its leading forest the fold said "projected term count 16 exceeds
    # cap 8"; the digit check came next, and now the least term count does
    pytest.param(
        ["multiply", "--d", "2", "--left", "0,0", "--right", ",".join(["0"] * 7146), "--term-cap", "8"],
        '"projected term count 14293 exceeds cap 8"',
        id="multiply-past-the-forest",
    ),
    # the fold said "projected term count 16 exceeds cap 8": the gate names
    # the least term count (d-1)*m*n + 1, as g has since it was added
    pytest.param(
        ["multiply", "--d", "2", "--left", "0,0", "--right", "0,1,2,3", "--term-cap", "8"],
        '"projected term count 9 exceeds cap 8"',
        id="multiply-least-term-count",
    ),
    # said "12870 subsets exceed the configured maximum 10000": the kernel's
    # gate now runs before the splits are counted
    pytest.param(
        ["shuffle", "--d", "2", "--left", "0,1,2,3,4,5,6,7", "--right", "0,1,2,3,4,5,6,7", "--term-cap", "0"],
        '"projected term count 2 exceeds cap 0"',
        id="shuffle-gate-before-splits",
    ),
    # ended the batch session with an OverflowError in MPoly.constant
    pytest.param(
        ["g", "--d", "3", "--m", "1", "--n", "1", "--shift", str(2**63), "--term-cap", str(10**30)],
        '"kernel arity 9223372036854775810 exceeds the index limit 9223372036854775807"',
        id="g-arity-past-an-index",
    ),
    pytest.param(
        ["shuffle", "--d", "2", "--left", "0", "--right", "0", "--term-cap", "2"],
        '"projected term count 4 exceeds cap 2"',
        id="shuffle-relabelled-sum",
    ),
]


@pytest.mark.parametrize("argv,message", REFUSED)
def test_golden_refusals(capsys, argv, message):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"error": {"code": "resource", "message": %s}}\n' % message


# each was computed and then answered "parse" with CPython's own message
# about writing an integer past 4300 digits
RATIONAL = '"rational exceeds the 4300-digit limit of integer output"'
TOO_LONG_TO_WRITE = [
    pytest.param(
        ["specialize", "--at-q", "2"],
        '{"d": 2, "terms": [{"partition": [0], "coeff": {"offset": 20000, "coeffs": ["1"]}}]}',
        id="specialize",
    ),
    pytest.param(["shuffle", "--d", "3000", "--left", "0", "--right", "0", "--at-q", "100000"], None, id="shuffle"),
    pytest.param(
        ["multiply", "--d", "3000", "--left", "0", "--right", "0", "--at-q", "100000", "--format", "text"],
        None,
        id="multiply-text",
    ),
]


@pytest.mark.parametrize("argv,stdin", TOO_LONG_TO_WRITE)
def test_golden_rationals_too_long_to_write(capsys, monkeypatch, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"error": {"code": "resource", "message": %s}}\n' % RATIONAL


# a huge d under a huge cap ran past 20 s in each command, and the two shuffle
# lines ended the batch session with a MemoryError in expand and in relabelled_sum
REFUSED_BATCH_STDIN = (
    '{"cmd": "multiply", "d": 9223372036854775808, "left": [0], "right": [0], "term_cap": 1000000000000000000000000000000}\n'
    '{"cmd": "g", "d": 9223372036854775808, "m": 1, "n": 1, "term_cap": 1000000000000000000000000000000}\n'
    '{"cmd": "g", "d": 9223372036854775808, "m": 1, "n": 1, "table": true, "term_cap": 1000000000000000000000000000000}\n'
    '{"cmd": "shuffle", "d": 9223372036854775808, "left": [0], "right": [0], "term_cap": 1000000000000000000000000000000}\n'
    '{"cmd": "shuffle", "d": 2, "left": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], "right": []}\n'
    '{"cmd": "shuffle", "d": 2, "left": [0, 1, 2, 3, 4, 5, 6, 7], "right": [0]}\n'
    '{"cmd": "multiply", "d": 2, "left": [0, 1], "right": [1]}\n'
)
REFUSED_BATCH_STDOUT = (
    '{"ok": false, "error": {"code": "resource", "message": %s}}\n' % DIGITS * 4
    + '{"ok": false, "error": {"code": "resource", "message": "projected term count 6227020800 exceeds cap 5000000"}}\n'
    '{"ok": false, "error": {"code": "resource", "message": "projected term count 10321920 exceeds cap 5000000"}}\n'
    '{"ok": true, "result": {"d": 2, "terms": [{"partition": [0, 1, 3], "coeff": {"offset": 0, "coeffs": ["1"]}}, {"partition": [0, 2, 2], "coeff": {"offset": 1, "coeffs": ["-1"]}}, {"partition": [1, 1, 2], "coeff": {"offset": 1, "coeffs": ["-1", "1"]}}]}}\n'
)


def test_golden_refusals_in_batch(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(REFUSED_BATCH_STDIN))
    assert main(["batch"]) == 0
    captured = capsys.readouterr()
    assert captured.out == REFUSED_BATCH_STDOUT
    assert captured.err == ""


# -- request errors: answers only an error path writes -------------------------

PARSE = '{"ok": false, "error": {"code": "parse", "message": "%s"}}\n'
NOT_A_PARTITION = "partition must be a list of non-negative integers"
REQUEST_ERRORS = [
    (
        '{"cmd": "verify", "suite": "nope"}',
        "unknown suite 'nope' (choose from assoc, grading, graphs, iso, lemma31, prop41, prop43, quasi)",
    ),
    ('{"cmd": "multiply", "d": 2, "left": [-1], "right": [0]}', NOT_A_PARTITION),
    ('{"cmd": "multiply", "d": 2, "left": [0], "right": [true]}', NOT_A_PARTITION),
    ('{"cmd": "phi", "partition": [false]}', NOT_A_PARTITION),
    ('{"cmd": "phi", "partition": [-3]}', NOT_A_PARTITION),
    ('{"cmd": "phi", "element": {"d": 2}}', "element must be {d, terms}"),
    ('{"cmd": "phi", "element": {"d": 2, "terms": {}}}', "terms must be a list"),
    ('{"cmd": "phi", "element": {"d": 2, "terms": [{"partition": [0]}]}}', "element term must be {partition, coeff}"),
    (
        '{"cmd": "specialize", "element": {"d": 2, "terms": [[0]]}, "at_q": "1"}',
        "element term must be {partition, coeff}",
    ),
    # malformed in two fields: the term cap was named first, and now the block
    # size is, as the spec is read before the kernel's gate runs
    ('{"cmd": "g", "d": 2, "m": 0, "n": 1, "term_cap": -1}', "block sizes must be at least 1"),
]


def test_golden_request_errors(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(line + "\n" for line, _ in REQUEST_ERRORS)))
    assert main(["batch"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(PARSE % message for _, message in REQUEST_ERRORS)
    assert captured.err == ""


BAD_STDIN = '{"error": {"code": "parse", "message": "bad element JSON on stdin: Expecting value: line 2 column 1 (char 20)"}}\n'


@pytest.mark.parametrize(
    "argv,stdin,code,out,err",
    [
        (["phi"], '{"d": 2, "terms": [\n', 2, "", BAD_STDIN),
        (["specialize", "--at-q", "1"], '{"d": 2, "terms": [\n', 2, "", BAD_STDIN),
        # the zero element
        (["phi", "--format", "text"], '{"d": 2, "terms": []}\n', 0, "0\n", ""),
    ],
)
def test_golden_stdin_elements(capsys, monkeypatch, argv, stdin, code, out, err):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
