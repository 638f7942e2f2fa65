"""JSON wire formats plus text and LaTeX renderers.

All JSON is canonical: rationals are strings ("p" or "p/q"), polynomial terms
are sorted (exponent vectors lexicographically, partition keys by length then
lexicographically), and zero is always {"offset": 0, "coeffs": []}.  Decoders
validate shape and reject anything malformed with ValueError so the CLI can
map it to a parse error.  ``grouped_json_text`` writes a basis product's
JSON text straight from its cached grouped rows (see ``partition_algebra``):
the bytes of ``json.dumps(element_to_json(...))`` of its QLaurent dict, with
no QLaurent, no dict tree and no encoder pass; ``orientations_json_text``
writes the orientation listing of ``graphs --list`` the same way.

Renderers order a coefficient's powers of q descending and an element's keys
by (length, lex); both orders are fixed so output is byte-identical across
runs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .kernel import StructureConstantTable
from .mpoly import MPoly
from .partition_algebra import PartitionElement, _key_starts
from .partitions import Partition
from .qlaurent import QLaurent, Rational, as_rational
from .shuffle_algebra import GradedElement, SymmetricElement


def partition_sort_key(key: Partition) -> Tuple[int, Partition]:
    return (len(key), key)


# -- rationals -------------------------------------------------------------------


def rational_to_json(value: Rational) -> str:
    value = as_rational(value)
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    return str(value)


def rational_from_json(text) -> Rational:
    if not isinstance(text, str):
        raise ValueError("rational must be a string, got %r" % (text,))
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return int(parts[0])
        if len(parts) == 2:
            return as_rational(Fraction(int(parts[0]), int(parts[1])))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("bad rational %r" % text) from exc
    raise ValueError("bad rational %r" % text)


# -- QLaurent ---------------------------------------------------------------------


def qlaurent_to_json(f: QLaurent) -> dict:
    return {"offset": f.offset, "coeffs": [rational_to_json(c) for c in f.coeffs]}


def qlaurent_from_json(obj) -> QLaurent:
    if not isinstance(obj, dict) or set(obj) != {"offset", "coeffs"}:
        raise ValueError("coefficient must be {offset, coeffs}, got %r" % (obj,))
    offset = obj["offset"]
    coeffs = obj["coeffs"]
    if not isinstance(offset, int) or isinstance(offset, bool):
        raise ValueError("offset must be an integer")
    if not isinstance(coeffs, list):
        raise ValueError("coeffs must be a list")
    return QLaurent(offset, [rational_from_json(c) for c in coeffs])


# -- MPoly ------------------------------------------------------------------------


def mpoly_to_json(p: MPoly) -> dict:
    return {
        "arity": p.arity,
        "terms": [
            {"exp": list(exp), "coeff": qlaurent_to_json(c)}
            for exp, c in sorted(p.terms.items())
        ],
    }


# -- partition-keyed elements -------------------------------------------------------


def _partition_terms_to_json(terms: Mapping[Partition, QLaurent]) -> List[dict]:
    return [
        {"partition": list(key), "coeff": qlaurent_to_json(terms[key])}
        for key in sorted(terms, key=partition_sort_key)
    ]


def _partition_from_json(value) -> Partition:
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in value
    ):
        raise ValueError("partition must be a list of non-negative integers")
    key = tuple(value)
    if any(key[i] > key[i + 1] for i in range(len(key) - 1)):
        raise ValueError("partition %r is not weakly increasing" % (value,))
    return key


def element_to_json(e: PartitionElement, d: int) -> dict:
    return {"d": d, "terms": _partition_terms_to_json(e)}


def grouped_json_text(rows, coeffs, d: int) -> str:
    """``json.dumps(element_to_json(e, d))`` for the basis product e given
    as its grouped rows, or for the orientation sum, in the same layout.

    The rows of one basis product share one key length and come in (key,
    power) order, so the keys come out in canonical order with no sort.
    Every key's dense coefficient vector is laid out in one array: a
    coefficient goes to its key's offset there plus its power less the
    key's lowest power.  Powers lie in [0, (d-1)*m*n], so that index is
    int64 even when the keys need Python ints.  Every term is then written
    by one template, in one format call for the whole element; a key's
    first and last coefficients are nonzero, so its list is never empty.
    """
    if not len(coeffs):
        return '{"d": %d, "terms": []}' % d
    keys, starts = _key_starts(rows)
    powers = rows[:, -1].astype(np.int64)
    stops = np.append(starts[1:], len(powers))
    lows = powers[starts]
    widths = powers[stops - 1] - lows + 1
    ends = np.cumsum(widths)
    dense = np.zeros(ends[-1], dtype=coeffs.dtype)
    dense[powers + np.repeat(ends - widths - lows, stops - starts)] = coeffs
    text = list(map(str, dense.tolist()))
    cells = map(text.__getitem__, map(slice, (ends - widths).tolist(), ends.tolist()))
    # the template's arguments, term by term: the parts, the offset, the coefficients
    n, k = keys.shape
    args = [None] * (n * (k + 2))
    for j, column in enumerate(keys.T.tolist()):
        args[j :: k + 2] = column
    args[k :: k + 2] = lows.tolist()
    args[k + 1 :: k + 2] = map('", "'.join, cells)
    term = '{"partition": [' + ", ".join(["%d"] * k) + '], "coeff": {"offset": %d, "coeffs": ["%s"]}}'
    return ('{"d": %d, "terms": [' % d + ", ".join([term] * n) + "]}") % tuple(args)


def orientations_json_text(keys, powers) -> str:
    """The JSON list of ``graphs --list`` from the arrays of its orientations.

    Orientation ``id`` contributes its sorted key times (-q)**power, whose
    coefficient is written ``{"offset": power, "coeffs": ["1"]}``, or
    ``["-1"]`` for an odd power.  Every orientation is written by one
    template, in one format call, as in ``grouped_json_text``.
    """
    n, k = keys.shape
    args = [None] * (n * (k + 3))
    args[:: k + 3] = range(n)
    for j, column in enumerate(keys.T.tolist()):
        args[j + 1 :: k + 3] = column
    args[k + 1 :: k + 3] = powers.tolist()
    args[k + 2 :: k + 3] = map(("1", "-1").__getitem__, (powers & 1).tolist())
    term = '{"id": %d, "partition": [' + ", ".join(["%d"] * k) + '], "coeff": {"offset": %d, "coeffs": ["%s"]}}'
    return ("[" + ", ".join([term] * n) + "]") % tuple(args)


def element_from_json(obj) -> Tuple[int, PartitionElement]:
    if not isinstance(obj, dict) or set(obj) != {"d", "terms"}:
        raise ValueError("element must be {d, terms}")
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError("d must be a positive integer")
    if not isinstance(obj["terms"], list):
        raise ValueError("terms must be a list")
    out: Dict[Partition, QLaurent] = {}
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"partition", "coeff"}:
            raise ValueError("element term must be {partition, coeff}")
        key = _partition_from_json(entry["partition"])
        if key in out:
            raise ValueError("duplicate partition %r" % (entry["partition"],))
        coeff = qlaurent_from_json(entry["coeff"])
        if coeff:
            out[key] = coeff
    return d, out


def specialized_to_json(values: Mapping[Partition, Rational], d: int, at_q: Rational) -> dict:
    return {
        "d": d,
        "at_q": rational_to_json(at_q),
        "terms": [
            {"partition": list(key), "value": rational_to_json(values[key])}
            for key in sorted(values, key=partition_sort_key)
        ],
    }


# -- symmetric elements --------------------------------------------------------------


def symmetric_to_json(se: SymmetricElement) -> dict:
    return {"arity": se.arity, "terms": _partition_terms_to_json(se.terms)}


def graded_to_json(ge: GradedElement) -> dict:
    return {"components": [symmetric_to_json(ge[n]) for n in sorted(ge)]}


# -- structure-constant tables ---------------------------------------------------------


def _table_rows(table: StructureConstantTable):
    # (a, b, power, weight) per row, in stored order: the sorted (a, b) order
    m = table.spec.m
    rows = zip(table.exps.tolist(), table.powers.tolist(), table.weights.tolist())
    return [(e[:m], e[m:], p, w) for e, p, w in rows]


def table_to_json(table: StructureConstantTable) -> dict:
    # every weight is nonzero: a coefficient is the one term weight * q**power
    spec = table.spec
    entries = [
        {"a": a, "b": b, "coeff": {"offset": p, "coeffs": [str(w)]}}
        for a, b, p, w in _table_rows(table)
    ]
    return {"m": spec.m, "n": spec.n, "d": spec.d, "entries": entries}


# -- text and LaTeX rendering -----------------------------------------------------------


def _rational_text(value: Rational) -> str:
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    return str(value)


def _rational_latex(value: Rational) -> str:
    if isinstance(value, Fraction):
        return "\\frac{%d}{%d}" % (value.numerator, value.denominator)
    return str(value)


def _power_text(k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return "q"
    return "q^%d" % k


def _power_latex(k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return "q"
    return "q^{%d}" % k


def _render_qlaurent(f: QLaurent, power, rational) -> str:
    if not f:
        return "0"
    pieces: List[str] = []
    for k, c in sorted(f.items(), reverse=True):
        qpart = power(k)
        if not qpart:
            body = rational(c if c > 0 else -c)
        elif c == 1 or c == -1:
            body = qpart
        else:
            body = rational(c if c > 0 else -c) + qpart
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+" if c > 0 else "-") + body)
    return "".join(pieces)


def render_qlaurent_text(f: QLaurent) -> str:
    return _render_qlaurent(f, _power_text, _rational_text)


def render_qlaurent_latex(f: QLaurent) -> str:
    return _render_qlaurent(f, _power_latex, _rational_latex)


def _term_count(f: QLaurent) -> int:
    return sum(1 for _ in f.items())


def _partition_text(key: Partition) -> str:
    if len(key) == 1:
        return "(%d)" % key[0]
    return "(" + ", ".join(str(v) for v in key) + ")"


def _render_terms(
    keyed: Iterable[Tuple[str, str, bool]],
) -> str:
    """Join (coefficient string, key string, needs paren) triples."""
    out: List[str] = []
    for coeff, key, paren in keyed:
        if coeff == "1":
            piece = key
        elif coeff == "-1":
            piece = "-" + key
        else:
            body = "(%s)" % coeff if paren else coeff
            piece = body + "·" + key
        if not out:
            out.append(piece)
        elif piece.startswith("-"):
            out.append(" - " + piece[1:])
        else:
            out.append(" + " + piece)
    return "".join(out)


def _element_pieces(terms: Mapping[Partition, QLaurent], render) -> List[Tuple[str, str, bool]]:
    pieces = []
    for key in sorted(terms, key=partition_sort_key):
        f = terms[key]
        pieces.append((render(f), _partition_text(key), _term_count(f) > 1))
    return pieces


def render_element_text(e: PartitionElement) -> str:
    if not e:
        return "0"
    return _render_terms(_element_pieces(e, render_qlaurent_text))


def render_element_latex(e: PartitionElement) -> str:
    if not e:
        return "0"
    out = _render_terms(_element_pieces(e, render_qlaurent_latex))
    return out.replace("·", "\\cdot ")


def render_specialized_text(values: Mapping[Partition, Rational]) -> str:
    if not values:
        return "0"
    pieces = []
    for key in sorted(values, key=partition_sort_key):
        v = values[key]
        pieces.append((_rational_text(v), _partition_text(key), False))
    return _render_terms(pieces)


def render_specialized_latex(values: Mapping[Partition, Rational]) -> str:
    if not values:
        return "0"
    pieces = []
    for key in sorted(values, key=partition_sort_key):
        v = values[key]
        pieces.append((_rational_latex(v), _partition_text(key), False))
    return _render_terms(pieces).replace("·", "\\cdot ")


def _exp_text(exp: Sequence[int]) -> str:
    if len(exp) == 1:
        return "(%d)" % exp[0]
    return "(" + ", ".join(str(v) for v in exp) + ")"


def render_mpoly_text(p: MPoly) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for exp in sorted(p.terms):
        f = p.terms[exp]
        pieces.append((render_qlaurent_text(f), "x^" + _exp_text(exp), _term_count(f) > 1))
    return _render_terms(pieces)


def render_mpoly_latex(p: MPoly) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for exp in sorted(p.terms):
        f = p.terms[exp]
        pieces.append(
            (render_qlaurent_latex(f), "x^{%s}" % _exp_text(exp), _term_count(f) > 1)
        )
    return _render_terms(pieces).replace("·", "\\cdot ")


def _symmetric_pieces(se: SymmetricElement, render, key_format) -> List[Tuple[str, str, bool]]:
    pieces = []
    for key in sorted(se.terms, key=partition_sort_key):
        f = se.terms[key]
        pieces.append((render(f), key_format(key), _term_count(f) > 1))
    return pieces


def render_symmetric_text(se: SymmetricElement) -> str:
    if not se.terms:
        return "0"
    fmt = lambda key: "m" + _partition_text(key)
    return _render_terms(_symmetric_pieces(se, render_qlaurent_text, fmt))


def render_symmetric_latex(se: SymmetricElement) -> str:
    if not se.terms:
        return "0"
    fmt = lambda key: "m_{%s}" % _partition_text(key)
    out = _render_terms(_symmetric_pieces(se, render_qlaurent_latex, fmt))
    return out.replace("·", "\\cdot ")


def render_graded_text(ge: GradedElement) -> str:
    if not ge:
        return "0"
    lines = []
    for n in sorted(ge):
        lines.append("arity %d: %s" % (n, render_symmetric_text(ge[n])))
    return "\n".join(lines)


def render_graded_latex(ge: GradedElement) -> str:
    if not ge:
        return "0"
    return " \\oplus ".join(render_symmetric_latex(ge[n]) for n in sorted(ge))
