"""Command-line front end.

Subcommands: multiply, shuffle, phi, g, graphs, verify, specialize, batch.
Output goes to stdout in the format picked by --format (json, text, latex);
errors are one JSON object on stderr.  Exit codes: 0 success, 1 verification
failure, 2 parse error, 3 resource limit.

There is one request path.  A request is a dict whose ``cmd`` names an entry
of COMMANDS; its other keys are fields, the parameter names of that command's
``run_*`` handler, and a field is required when its parameter has no default.
A command line parses into that dict (a flag is its field name with ``-`` for
``_``; ``phi`` and ``specialize`` read their ``element`` from stdin), and a
``batch`` line is that dict as JSON.  ``run_request`` checks either against
the handler's signature, reads each field with its argv or JSON reader from
FIELDS, and calls the handler.  A field the command does not take, a missing
required field and a mistyped one are all parse errors.

Everything is deterministic: given the same arguments (and seed, for verify
assoc) the bytes written are identical run to run.
"""
from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
from typing import Dict, Optional, Sequence

from .bipartite import list_orientations, product_via_graphs
from .errors import NotSymmetricError, ResourceLimitError
from .kernel import DEFAULT_TERM_CAP, KernelSpec, kernel_polynomial, structure_constants
from .partition_algebra import _capped_basis_product, _to_element, product, specialize
from .partitions import parse_partition
from .qlaurent import ONE, Rational
from .serialization import (
    STYLES,
    _partition_from_json,
    element_from_json,
    graded_to_json,
    grouped_json_text,
    mpoly_to_json,
    orientations_json_text,
    rational_from_json,
    render_element,
    render_graded,
    render_mpoly,
    render_specialized,
    render_symmetric,
    render_table,
    specialized_to_json,
    symmetric_to_json,
    table_to_json,
)
from .shuffle_algebra import partition_image, shuffle_product, to_symmetric_element
from .suites import SUITES

FORMATS = ("json", *STYLES)


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2 on its own; route through the
    # JSON error contract instead
    def error(self, message):
        raise ValueError(message)


# -- subcommand handlers ---------------------------------------------------------
#
# Each returns the JSON payload (a dict, or its JSON text already written)
# plus one "render" that takes a text or LaTeX style from STYLES, so only the
# format that is written out gets rendered.  A handler's parameters are its
# command's request fields, and its docstring is the subcommand's help line.


def run_multiply(
    d: int,
    left,
    right,
    at_q: Optional[Rational] = None,
    term_cap: int = DEFAULT_TERM_CAP,
) -> Dict[str, object]:
    """product of two partitions"""
    if at_q is None:
        # JSON text straight from the cached grouped rows; text and LaTeX fold them
        grouped = _capped_basis_product(left, right, d, term_cap)
        return {
            "payload": grouped_json_text(*grouped, d),
            "render": lambda style: render_element(_to_element(*grouped), style),
        }
    values = specialize(product(left, right, d, term_cap), at_q)
    return {
        "payload": specialized_to_json(values, d, at_q),
        "render": lambda style: render_specialized(values, style),
    }


def run_shuffle(
    d: int,
    left,
    right,
    at_q: Optional[Rational] = None,
    term_cap: int = DEFAULT_TERM_CAP,
) -> Dict[str, object]:
    """kernel-weighted product of two basis images"""
    se = shuffle_product(
        partition_image(left), partition_image(right), d, q_value=at_q, term_cap=term_cap
    )
    return {
        "payload": symmetric_to_json(se),
        "render": lambda style: render_symmetric(se, style),
    }


def run_phi(partition=None, element=None) -> Dict[str, object]:
    """map a partition or a JSON element to symmetric form"""
    if (partition is None) == (element is None):
        raise ValueError("phi takes exactly one of 'partition' and 'element'")
    ge = to_symmetric_element(
        {partition: ONE} if element is None else element_from_json(element)[1]
    )
    return {
        "payload": graded_to_json(ge),
        "render": lambda style: render_graded(ge, style),
    }


def run_g(
    d: int,
    m: int,
    n: int,
    shift: int = 0,
    table: bool = False,
    term_cap: int = DEFAULT_TERM_CAP,
) -> Dict[str, object]:
    """kernel polynomial or its structure constants"""
    spec = KernelSpec(m=m, n=n, d=d, shift=shift)
    if table:
        tab = structure_constants(spec, term_cap)
        return {
            "payload": table_to_json(tab),
            "render": lambda style: render_table(tab, style),
        }
    poly = kernel_polynomial(spec, term_cap)
    return {
        "payload": mpoly_to_json(poly),
        "render": lambda style: render_mpoly(poly, style),
    }


def run_graphs(left, right, list: bool = False) -> Dict[str, object]:
    """d=2 product as a sum over orientations"""
    # the field is named "list", so the builtin is shadowed in this body;
    # the listing is refused past one block before any work is done
    listed = list_orientations(left, right) if list else None
    grouped = product_via_graphs(left, right)
    # JSON text from the grouped rows, the listing spliced in before the close
    payload = grouped_json_text(*grouped, 2)
    if listed is not None:
        payload = payload[:-1] + ', "orientations": ' + orientations_json_text(*listed) + "}"
    return {
        "payload": payload,
        "render": lambda style: render_element(_to_element(*grouped), style),
    }


def run_specialize(element, at_q: Rational) -> Dict[str, object]:
    """evaluate a JSON element at a rational q"""
    d, element = element_from_json(element)
    values = specialize(element, at_q)
    return {
        "payload": specialized_to_json(values, d, at_q),
        "render": lambda style: render_specialized(values, style),
    }


# verify field -> the suite keyword it sets
_VERIFY_OPTIONS = {
    "d": "d_values",
    "max_len": "max_len",
    "max_part": "max_part",
    "seed": "seed",
    "count": "random_triples",
}

# suite -> the verify fields it takes, read from its signature once, so a
# SUITES entry later swapped for a wrapper or a stub keeps its options
_SUITE_OPTIONS = {
    suite: {f for f, kw in _VERIFY_OPTIONS.items() if kw in inspect.signature(fn).parameters}
    for suite, fn in SUITES.items()
}


def run_verify(
    suite: str,
    d: Optional[int] = None,
    max_len: Optional[int] = None,
    max_part: Optional[int] = None,
    seed: Optional[int] = None,
    count: Optional[int] = None,
) -> Dict[str, object]:
    """run a verification suite"""
    if suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)" % (suite, ", ".join(sorted(SUITES))))
    given = {"d": d, "max_len": max_len, "max_part": max_part, "seed": seed, "count": count}
    kwargs = {}
    for field, value in given.items():
        if value is None:
            continue
        if field not in _SUITE_OPTIONS[suite]:
            raise ValueError("suite %s does not take %s" % (suite, field))
        if value < 0 and field in ("max_len", "max_part", "count"):
            raise ValueError("%s must be non-negative, got %d" % (field, value))
        kwargs[_VERIFY_OPTIONS[field]] = (value,) if field == "d" else value
    report = SUITES[suite](**kwargs)
    lines = [
        "suite: %s" % report.name,
        "passed: %s" % ("yes" if report.passed else "no"),
        "checked: %d" % report.checked,
    ]
    lines += ["note: %s" % item for item in report.instances]
    lines += ["failure: %s" % item for item in report.failures]
    text = "\n".join(lines)
    return {
        "payload": report.to_json(),
        "render": lambda style: text,
        "passed": report.passed,
    }


COMMANDS = {
    "multiply": run_multiply,
    "shuffle": run_shuffle,
    "phi": run_phi,
    "g": run_g,
    "graphs": run_graphs,
    "verify": run_verify,
    "specialize": run_specialize,
}


# -- request fields ----------------------------------------------------------------
#
# Each field has a reader for its JSON value (given the field name for its
# message) and one for its argv string.  An int field's argv reader is
# argparse's type=, so its messages stay argparse's; bool marks a store_true
# flag; an element has no flag, its argv value is stdin.


def _typed(kind, noun, convert=None):
    """A JSON reader that takes values of exactly the type ``kind`` and
    passes them through ``convert`` when one is given."""

    def read(field, value):
        if type(value) is not kind:
            raise ValueError("field %r must be %s" % (field, noun))
        return value if convert is None else convert(value)

    return read


_integer = _typed(int, "an integer")
_boolean = _typed(bool, "true or false")
_string = _typed(str, "a string")
_parts = _typed(list, "a list of parts", _partition_from_json)
_rational = _typed(str, "a string", rational_from_json)


def _element(field, value):
    # checked here too, so that phi does not take a null element for an absent one
    if type(value) is not dict:
        raise ValueError("element must be {d, terms}")
    return value


def _loads(text: str):
    # nesting past the recursion limit is malformed input, not an engine bug
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _load_stdin(stdin):
    try:
        return _element("element", _loads(stdin.read()))
    except json.JSONDecodeError as exc:
        raise ValueError("bad element JSON on stdin: %s" % exc) from exc


FIELDS = {
    "d": (_integer, int),
    "m": (_integer, int),
    "n": (_integer, int),
    "shift": (_integer, int),
    "term_cap": (_integer, int),
    "max_len": (_integer, int),
    "max_part": (_integer, int),
    "seed": (_integer, int),
    "count": (_integer, int),
    "left": (_parts, parse_partition),
    "right": (_parts, parse_partition),
    "partition": (_parts, parse_partition),
    "at_q": (_rational, rational_from_json),
    "table": (_boolean, bool),
    "list": (_boolean, bool),
    "suite": (_string, str),
    "element": (_element, _load_stdin),
}

# command -> {field: required}, from its handler's signature
_COMMAND_FIELDS = {
    cmd: {name: p.default is p.empty for name, p in inspect.signature(handler).parameters.items()}
    for cmd, handler in COMMANDS.items()
}


def run_request(request, argv: bool = False) -> Dict[str, object]:
    """Check a request dict against its handler's signature and run it.

    ``argv`` says the field values are argparse's, to be read by the argv
    readers; otherwise they are JSON values.
    """
    if not isinstance(request, dict) or "cmd" not in request:
        raise ValueError("request must be an object with a 'cmd' field")
    cmd = request["cmd"]
    if type(cmd) is not str or cmd not in COMMANDS:
        raise ValueError("unknown cmd %r" % (cmd,))
    fields = _COMMAND_FIELDS[cmd]
    for field in request:
        if field not in fields and field != "cmd":
            raise ValueError("%s does not take %r" % (cmd, field))
    kwargs = {}
    for field, required in fields.items():
        if field in request:
            from_json, from_argv = FIELDS[field]
            value = request[field]
            kwargs[field] = from_argv(value) if argv else from_json(field, value)
        elif required:
            raise ValueError("%s needs %r" % (cmd, field))
    return COMMANDS[cmd](**kwargs)


def _classify(exc: Exception):
    """The error code and exit status of a request that raised ``exc``."""
    if isinstance(exc, ResourceLimitError):
        return "resource", 3
    if isinstance(exc, NotSymmetricError):
        return "check", 1
    return "parse", 2


_REQUEST_ERRORS = (ResourceLimitError, ValueError, KeyError, TypeError)

# every document written is a fresh acyclic tree, so the circular-reference
# check is skipped; the bytes are those of json.dumps
_dumps = json.JSONEncoder(check_circular=False).encode


def _encode(payload) -> str:
    """A handler's payload as JSON text: text it wrote already passes through."""
    return payload if type(payload) is str else _dumps(payload)


# -- argv and batch ------------------------------------------------------------------

_METAVARS = {parse_partition: "PARTS", rational_from_json: "RATIONAL"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcoha", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, handler in COMMANDS.items():
        # an absent flag stays out of the request, so the handler's default holds
        p = sub.add_parser(cmd, help=handler.__doc__, argument_default=argparse.SUPPRESS)
        for field, required in _COMMAND_FIELDS[cmd].items():
            from_argv = FIELDS[field][1]
            flag = "--" + field.replace("_", "-")
            if field == "suite":
                p.add_argument("suite", choices=sorted(SUITES))
            elif from_argv is bool:
                p.add_argument(flag, action="store_true")
            elif field != "element":
                kind = int if from_argv is int else None
                p.add_argument(flag, required=required, type=kind, metavar=_METAVARS.get(from_argv))
        p.add_argument("--format", choices=FORMATS, default="json")
    sub.add_parser("batch", help="read JSON requests from stdin, one per line")
    return parser


def run_batch(stdin, stdout) -> int:
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            result = run_request(_loads(line))
            # the bytes of json.dumps({"ok": true, "result": ..., "passed": ...})
            response = '{"ok": true, "result": ' + _encode(result["payload"])
            if "passed" in result:
                response += ', "passed": ' + _dumps(result["passed"])
            response += "}"
        except _REQUEST_ERRORS as exc:
            response = _dumps({"ok": False, "error": {"code": _classify(exc)[0], "message": str(exc)}})
        stdout.write(response + "\n")
        # a client may wait for each reply before sending the next request
        stdout.flush()
    return 0


def _attach_negative_rationals(argv: Sequence[str]):
    """``--at-q -1/2`` as ``--at-q=-1/2``, and so for an abbreviation such as
    ``--at``: argparse takes a token that starts with "-" for a flag unless it
    is a plain negative number."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and "--at-q".startswith(flag) and re.match(r"-\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        argv = _attach_negative_rationals(sys.argv[1:] if argv is None else argv)
        request = vars(build_parser().parse_args(argv))
        request["cmd"] = request.pop("command")
        if request["cmd"] == "batch":
            return run_batch(sys.stdin, sys.stdout)
        fmt = request.pop("format")
        if "element" in _COMMAND_FIELDS[request["cmd"]] and "partition" not in request:
            request["element"] = sys.stdin
        result = run_request(request, argv=True)
        out = _encode(result["payload"]) if fmt == "json" else result["render"](STYLES[fmt])
        sys.stdout.write(out + "\n")
        return 1 if result.get("passed") is False else 0
    except _REQUEST_ERRORS as exc:
        code, status = _classify(exc)
        sys.stderr.write(_dumps({"error": {"code": code, "message": str(exc)}}) + "\n")
        return status


if __name__ == "__main__":
    sys.exit(main())
