"""Command-line front end.

Subcommands: multiply, shuffle, phi, g, graphs, verify, specialize, batch.
Output goes to stdout in the format picked by --format (json, text, latex);
errors are one JSON object on stderr.  Exit codes: 0 success, 1 verification
failure, 2 parse error, 3 resource limit.

Everything is deterministic: given the same arguments (and seed, for verify
assoc) the bytes written are identical run to run.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from .bipartite import enumerate_graph_terms, product_via_graphs
from .errors import NotSymmetricError, ResourceLimitError
from .kernel import (
    DEFAULT_TERM_CAP,
    KernelSpec,
    check_term_cap,
    kernel_polynomial,
    structure_constants,
)
from .partition_algebra import product, specialize
from .partitions import parse_partition
from .qlaurent import Rational
from .serialization import (
    element_from_json,
    element_to_json,
    graded_to_json,
    mpoly_to_json,
    qlaurent_to_json,
    rational_from_json,
    render_element_latex,
    render_element_text,
    render_graded_latex,
    render_graded_text,
    render_mpoly_latex,
    render_mpoly_text,
    render_specialized_latex,
    render_specialized_text,
    render_symmetric_latex,
    render_symmetric_text,
    specialized_to_json,
    symmetric_to_json,
    table_to_json,
)
from .shuffle_algebra import partition_image, shuffle_product, to_symmetric_element
from .suites import DEFAULT_SEED, SUITES

FORMATS = ("json", "text", "latex")


class CliError(Exception):
    """Carries an error code name and the exit status for the shell."""

    def __init__(self, code: str, message: str, status: int):
        super().__init__(message)
        self.code = code
        self.status = status


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2 on its own; route through the
    # JSON error contract instead
    def error(self, message):
        raise CliError("parse", message, 2)


def _parse_at_q(text: Optional[str]) -> Optional[Rational]:
    if text is None:
        return None
    return rational_from_json(text)


def _emit(result: Dict[str, object], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result["payload"])
    return result[fmt]()


# -- subcommand cores (shared by argv mode and batch mode) ----------------------
#
# Each returns the JSON payload plus zero-argument "text" and "latex"
# renderers, so only the format that is written out gets rendered.


def run_multiply(
    d: int,
    left,
    right,
    at_q: Optional[Rational] = None,
    term_cap: int = DEFAULT_TERM_CAP,
) -> Dict[str, object]:
    check_term_cap(term_cap)
    e = product(left, right, d, term_cap)
    if at_q is None:
        return {
            "payload": element_to_json(e, d),
            "text": lambda: render_element_text(e),
            "latex": lambda: render_element_latex(e),
        }
    values = specialize(e, at_q)
    return {
        "payload": specialized_to_json(values, d, at_q),
        "text": lambda: render_specialized_text(values),
        "latex": lambda: render_specialized_latex(values),
    }


def run_shuffle(
    d: int,
    left,
    right,
    at_q: Optional[Rational] = None,
    term_cap: int = DEFAULT_TERM_CAP,
) -> Dict[str, object]:
    check_term_cap(term_cap)
    se = shuffle_product(
        partition_image(left), partition_image(right), d, q_value=at_q, term_cap=term_cap
    )
    return {
        "payload": symmetric_to_json(se),
        "text": lambda: render_symmetric_text(se),
        "latex": lambda: render_symmetric_latex(se),
    }


def run_phi(element) -> Dict[str, object]:
    ge = to_symmetric_element(element)
    return {
        "payload": graded_to_json(ge),
        "text": lambda: render_graded_text(ge),
        "latex": lambda: render_graded_latex(ge),
    }


def run_g(
    d: int,
    m: int,
    n: int,
    shift: int = 0,
    table: bool = False,
    term_cap: int = DEFAULT_TERM_CAP,
) -> Dict[str, object]:
    check_term_cap(term_cap)
    spec = KernelSpec(m=m, n=n, d=d, shift=shift)
    if table:
        tab = structure_constants(spec, term_cap)
        from .serialization import render_qlaurent_latex, render_qlaurent_text

        def lines(template, render):
            return "\n".join(
                template % (list(a), list(b), render(coeff))
                for (a, b), coeff in sorted(tab.entries.items())
            )

        return {
            "payload": table_to_json(tab),
            "text": lambda: lines("a=%r b=%r: %s", render_qlaurent_text),
            "latex": lambda: lines("c^{%r,%r} = %s", render_qlaurent_latex),
        }
    poly = kernel_polynomial(spec, term_cap)
    return {
        "payload": mpoly_to_json(poly),
        "text": lambda: render_mpoly_text(poly),
        "latex": lambda: render_mpoly_latex(poly),
    }


def run_graphs(left, right, list_orientations: bool = False) -> Dict[str, object]:
    e = product_via_graphs(left, right)
    payload = element_to_json(e, 2)
    if list_orientations:
        payload["orientations"] = [
            {
                "id": mask,
                "partition": list(term.partition),
                "coeff": qlaurent_to_json(term.coefficient),
            }
            for mask, term in enumerate_graph_terms(left, right)
        ]
    return {
        "payload": payload,
        "text": lambda: render_element_text(e),
        "latex": lambda: render_element_latex(e),
    }


def run_specialize(obj, at_q: Rational) -> Dict[str, object]:
    d, element = element_from_json(obj)
    values = specialize(element, at_q)
    return {
        "payload": specialized_to_json(values, d, at_q),
        "text": lambda: render_specialized_text(values),
        "latex": lambda: render_specialized_latex(values),
    }


_SUITE_KWARG_NAMES = {
    "assoc": ("d_values", "max_len", "max_part", "random_triples", "seed"),
    "iso": ("d_values", "max_len", "max_part"),
    "quasi": ("d_values", "max_len", "max_part"),
    "graphs": ("max_len", "max_part"),
    "lemma31": ("d_values",),
    "prop41": ("max_len", "max_part"),
    "prop43": ("max_len", "max_part"),
    "grading": ("d_values", "max_len", "max_part"),
}

# verify option -> the suite keyword it sets
_VERIFY_OPTIONS = {
    "d": "d_values",
    "max_len": "max_len",
    "max_part": "max_part",
    "seed": "seed",
    "count": "random_triples",
}


def run_verify(
    suite: str,
    d: Optional[int] = None,
    max_len: Optional[int] = None,
    max_part: Optional[int] = None,
    seed: Optional[int] = None,
    count: Optional[int] = None,
) -> Dict[str, object]:
    if suite not in SUITES:
        raise CliError(
            "parse", "unknown suite %r (choose from %s)" % (suite, ", ".join(sorted(SUITES))), 2
        )
    given = {"d": d, "max_len": max_len, "max_part": max_part, "seed": seed, "count": count}
    kwargs = {}
    for option, value in given.items():
        if value is None:
            continue
        name = _VERIFY_OPTIONS[option]
        if name not in _SUITE_KWARG_NAMES[suite]:
            raise CliError("parse", "suite %s does not take %s" % (suite, option), 2)
        kwargs[name] = (value,) if option == "d" else value
    report = SUITES[suite](**kwargs)
    lines = [
        "suite: %s" % report.name,
        "passed: %s" % ("yes" if report.passed else "no"),
        "checked: %d" % report.checked,
    ]
    for item in report.instances:
        lines.append("note: %s" % item)
    for item in report.failures:
        lines.append("failure: %s" % item)
    text = "\n".join(lines)
    return {
        "payload": report.to_json(),
        "text": lambda: text,
        "latex": lambda: text,
        "passed": report.passed,
    }


# -- argv plumbing ---------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_at_q: bool = True):
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP)
    if with_at_q:
        p.add_argument("--at-q", default=None, metavar="RATIONAL")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcoha", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiply", help="product of two partitions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--left", required=True, metavar="PARTS")
    p.add_argument("--right", required=True, metavar="PARTS")
    _add_common(p)

    p = sub.add_parser("shuffle", help="kernel-weighted product of two basis images")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--left", required=True, metavar="PARTS")
    p.add_argument("--right", required=True, metavar="PARTS")
    _add_common(p)

    p = sub.add_parser("phi", help="map a partition or a JSON element to symmetric form")
    p.add_argument("--partition", default=None, metavar="PARTS")
    _add_common(p, with_at_q=False)

    p = sub.add_parser("g", help="kernel polynomial or its structure constants")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--table", action="store_true")
    _add_common(p, with_at_q=False)

    p = sub.add_parser("graphs", help="d=2 product as a sum over orientations")
    p.add_argument("--left", required=True, metavar="PARTS")
    p.add_argument("--right", required=True, metavar="PARTS")
    p.add_argument("--list", action="store_true", dest="list_orientations")
    _add_common(p, with_at_q=False)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--max-part", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None, help="random triples for assoc")
    p.add_argument("--format", choices=FORMATS, default="json")

    p = sub.add_parser("specialize", help="evaluate a JSON element at a rational q")
    p.add_argument("--at-q", required=True, metavar="RATIONAL")
    p.add_argument("--format", choices=FORMATS, default="json")

    sub.add_parser("batch", help="read JSON requests from stdin, one per line")
    return parser


def _dispatch(args: argparse.Namespace, stdin) -> Dict[str, object]:
    cmd = args.command
    if cmd == "multiply":
        return run_multiply(
            args.d,
            parse_partition(args.left),
            parse_partition(args.right),
            _parse_at_q(args.at_q),
            args.term_cap,
        )
    if cmd == "shuffle":
        return run_shuffle(
            args.d,
            parse_partition(args.left),
            parse_partition(args.right),
            _parse_at_q(args.at_q),
            args.term_cap,
        )
    if cmd == "phi":
        if args.partition is not None:
            from .qlaurent import ONE

            element = {parse_partition(args.partition): ONE}
        else:
            try:
                obj = json.load(stdin)
            except json.JSONDecodeError as exc:
                raise ValueError("bad element JSON on stdin: %s" % exc) from exc
            _, element = element_from_json(obj)
        return run_phi(element)
    if cmd == "g":
        return run_g(args.d, args.m, args.n, args.shift, args.table, args.term_cap)
    if cmd == "graphs":
        return run_graphs(
            parse_partition(args.left),
            parse_partition(args.right),
            args.list_orientations,
        )
    if cmd == "verify":
        return run_verify(
            args.suite, args.d, args.max_len, args.max_part, args.seed, args.count
        )
    if cmd == "specialize":
        try:
            obj = json.load(stdin)
        except json.JSONDecodeError as exc:
            raise ValueError("bad element JSON on stdin: %s" % exc) from exc
        return run_specialize(obj, rational_from_json(args.at_q))
    raise CliError("parse", "unknown command %r" % cmd, 2)


# -- batch mode --------------------------------------------------------------------


def _batch_request(obj) -> Dict[str, object]:
    if not isinstance(obj, dict) or "cmd" not in obj:
        raise ValueError("request must be an object with a 'cmd' field")
    cmd = obj["cmd"]
    at_q = obj.get("at_q")
    if at_q is not None:
        at_q = rational_from_json(at_q)
    if cmd == "multiply":
        return run_multiply(
            _req_int(obj, "d"),
            _req_partition(obj, "left"),
            _req_partition(obj, "right"),
            at_q,
            _opt_int(obj, "term_cap", DEFAULT_TERM_CAP),
        )
    if cmd == "shuffle":
        return run_shuffle(
            _req_int(obj, "d"),
            _req_partition(obj, "left"),
            _req_partition(obj, "right"),
            at_q,
            _opt_int(obj, "term_cap", DEFAULT_TERM_CAP),
        )
    if cmd == "phi":
        if "element" in obj:
            _, element = element_from_json(obj["element"])
        else:
            from .qlaurent import ONE

            element = {_req_partition(obj, "partition"): ONE}
        return run_phi(element)
    if cmd == "g":
        return run_g(
            _req_int(obj, "d"),
            _req_int(obj, "m"),
            _req_int(obj, "n"),
            _opt_int(obj, "shift", 0),
            _opt_bool(obj, "table"),
            _opt_int(obj, "term_cap", DEFAULT_TERM_CAP),
        )
    if cmd == "graphs":
        return run_graphs(
            _req_partition(obj, "left"),
            _req_partition(obj, "right"),
            _opt_bool(obj, "list"),
        )
    if cmd == "specialize":
        if at_q is None:
            raise ValueError("specialize needs 'at_q'")
        return run_specialize(obj.get("element"), at_q)
    if cmd == "verify":
        return run_verify(
            obj["suite"],
            **{option: _opt_int(obj, option, None) for option in _VERIFY_OPTIONS},
        )
    raise ValueError("unknown cmd %r" % (cmd,))


def _req_int(obj, field) -> int:
    v = obj.get(field)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError("field %r must be an integer" % field)
    return v


def _opt_int(obj, field, default):
    if field not in obj:
        return default
    return _req_int(obj, field)


def _opt_bool(obj, field) -> bool:
    v = obj.get(field, False)
    if not isinstance(v, bool):
        raise ValueError("field %r must be true or false" % field)
    return v


def _req_partition(obj, field):
    v = obj.get(field)
    if not isinstance(v, list):
        raise ValueError("field %r must be a list of parts" % field)
    from .serialization import _partition_from_json

    return _partition_from_json(v)


def run_batch(stdin, stdout) -> int:
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            result = _batch_request(request)
            response = {"ok": True, "result": result["payload"]}
            if "passed" in result:
                response["passed"] = result["passed"]
        except ResourceLimitError as exc:
            response = {"ok": False, "error": {"code": "resource", "message": str(exc)}}
        except CliError as exc:
            response = {"ok": False, "error": {"code": exc.code, "message": str(exc)}}
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            response = {"ok": False, "error": {"code": "parse", "message": str(exc)}}
        stdout.write(json.dumps(response) + "\n")
        # a client may wait for each reply before sending the next request
        stdout.flush()
    return 0


# -- entry point --------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "batch":
            return run_batch(sys.stdin, sys.stdout)
        result = _dispatch(args, sys.stdin)
        fmt = getattr(args, "format", "json")
        sys.stdout.write(_emit(result, fmt) + "\n")
        if result.get("passed") is False:
            return 1
        return 0
    except CliError as exc:
        sys.stderr.write(
            json.dumps({"error": {"code": exc.code, "message": str(exc)}}) + "\n"
        )
        return exc.status
    except ResourceLimitError as exc:
        sys.stderr.write(
            json.dumps({"error": {"code": "resource", "message": str(exc)}}) + "\n"
        )
        return 3
    except NotSymmetricError as exc:
        sys.stderr.write(
            json.dumps({"error": {"code": "check", "message": str(exc)}}) + "\n"
        )
        return 1
    except ValueError as exc:
        sys.stderr.write(
            json.dumps({"error": {"code": "parse", "message": str(exc)}}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
