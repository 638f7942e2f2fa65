"""JSON wire formats plus the text and LaTeX renderer.

All JSON is canonical: rationals are strings ("p" or "p/q"), polynomial terms
are sorted (exponent vectors lexicographically, partition keys by length then
lexicographically), and zero is always {"offset": 0, "coeffs": []}.  Decoders
validate shape and reject anything malformed with ValueError so the CLI can
map it to a parse error.  ``grouped_json_text`` writes a basis product's
JSON text straight from its cached arrays (see ``partition_algebra``):
the bytes of ``json.dumps(element_to_json(...))`` of its QLaurent dict, with
no QLaurent, no dict tree and no encoder pass.  Three scatters lay every
term's parts, offset and dense coefficients into one flat integer array, and
one format call writes it through a template joined from one term template
per coefficient width, built for that element only, so nothing is cached
between requests.  ``orientations_json_text`` writes the orientation listing
of ``graphs --list`` with one template per orientation.

Text and LaTeX come from one renderer per kind of value (``render_qlaurent``,
``render_element`` and so on), each given a ``Style``: the spellings of one
format, such as its fraction, its power of q and its times sign.  ``STYLES``
holds one style per format, keyed by its ``--format`` name.  Renderers order a
coefficient's powers of q descending and an element's keys by (length, lex);
both orders are fixed so output is byte-identical across runs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .kernel import StructureConstantTable
from .mpoly import MPoly
from .partition_algebra import PartitionElement
from .partitions import Partition
from .qlaurent import QLaurent, Rational, as_rational, check_digits
from .shuffle_algebra import GradedElement, SymmetricElement


def partition_sort_key(key: Partition) -> Tuple[int, Partition]:
    return (len(key), key)


# -- rationals -------------------------------------------------------------------


def _written(value: int) -> int:
    """``value``, refused with ResourceLimitError if CPython cannot write it."""
    bits = value.bit_length()
    check_digits("rational", bits - 1, bits, lambda: abs(value))
    return value


def rational_to_json(value: Rational) -> str:
    value = as_rational(value)
    if isinstance(value, Fraction):
        return "%d/%d" % (_written(value.numerator), _written(value.denominator))
    return str(_written(value))


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


def grouped_json_text(keys, counts, powers, coeffs, d: int) -> str:
    """``json.dumps(element_to_json(e, d))`` for the basis product e, or the
    orientation sum, given key-major (``partition_algebra._basis_product``).

    The keys share one length k and come in order, so they come out in
    canonical order with no sort.  Term i is k + 1 + w fields of one flat
    array: its parts, its offset (its least power) and the w coefficients
    from that power to its greatest, zeros in the gaps.  The array is int64,
    or object when the keys or the coefficients are; the offsets and every
    position are int64 whatever the powers' dtype.  The template joins, in
    key order, one term template per distinct size k + 1 + w of this
    element, and one format call writes the whole element.
    """
    n, k = keys.shape
    stops = counts.cumsum()
    lows = powers[stops - counts].astype(np.int64)
    highs = powers[stops - 1]
    sizes = highs - lows + (k + 2)
    ends = sizes.cumsum()
    # the position of each term's power 0, and of its offset
    zeros = ends - highs - 1
    offsets = zeros + lows - 1
    flat = np.zeros(ends[-1], dtype=object if object in (keys.dtype, coeffs.dtype) else np.int64)
    flat[offsets[:, None] - np.arange(k, 0, -1)] = keys
    flat[offsets] = lows
    flat[zeros.repeat(counts) + powers] = coeffs
    sizes = sizes.tolist()
    # every field as str writes it: %s formats an int slightly faster than %d
    head = '{"partition": [' + ", ".join(["%s"] * k) + '], "coeff": {"offset": %s, "coeffs": ["'
    terms = {s: head + '", "'.join(["%s"] * (s - k - 1)) + '"]}}' for s in set(sizes)}
    template = '{"d": %s, "terms": [' + ", ".join(map(terms.__getitem__, sizes)) + "]}"
    return template % (d, *flat.tolist())


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


class Style(NamedTuple):
    """How one output format spells what the renderers write.

    ``fraction`` takes (numerator, denominator) and ``power`` an exponent of
    q other than 0 and 1; ``times`` goes between a coefficient and its key.
    ``symmetric`` and ``exponent`` wrap the ``(a, b, ...)`` key of a
    symmetric term and of a polynomial term.  ``table_line`` takes (a, b,
    coefficient) of one ``g --table`` entry, ``component`` the mapping
    {"arity", "body"} of one graded component, and ``joiner`` goes between
    graded components.
    """

    fraction: str
    power: str
    times: str
    symmetric: str
    exponent: str
    table_line: str
    component: str
    joiner: str


STYLES = {
    "text": Style(
        fraction="%d/%d",
        power="q^%d",
        times="·",
        symmetric="m%s",
        exponent="x^%s",
        table_line="a=%r b=%r: %s",
        component="arity %(arity)d: %(body)s",
        joiner="\n",
    ),
    "latex": Style(
        fraction="\\frac{%d}{%d}",
        power="q^{%d}",
        times="\\cdot ",
        symmetric="m_{%s}",
        exponent="x^{%s}",
        table_line="c^{%r,%r} = %s",
        component="%(body)s",
        joiner=" \\oplus ",
    ),
}


def _rational(value: Rational, style: Style) -> str:
    # the sign leads, outside the fraction: _render_terms reads it there
    if isinstance(value, Fraction):
        sign = "-" if value < 0 else ""
        return sign + style.fraction % (abs(_written(value.numerator)), _written(value.denominator))
    return str(_written(value))


def render_qlaurent(f: QLaurent, style: Style) -> str:
    pieces: List[str] = []
    for k, c in sorted(f.items(), reverse=True):
        qpart = "" if k == 0 else "q" if k == 1 else style.power % k
        body = qpart if qpart and abs(c) == 1 else _rational(abs(c), style) + qpart
        pieces.append(("-" if c < 0 else "+" if pieces else "") + body)
    return "".join(pieces) or "0"


def _tuple_text(key: Sequence[int]) -> str:
    return "(" + ", ".join(map(str, key)) + ")"


def _render_terms(pieces: Iterable[Tuple[str, str, bool]], style: Style) -> str:
    """Join (coefficient, key, needs parentheses) triples into a sum."""
    out: List[str] = []
    for coeff, key, paren in pieces:
        if coeff == "1":
            piece = key
        elif coeff == "-1":
            piece = "-" + key
        else:
            piece = ("(%s)" % coeff if paren else coeff) + style.times + key
        if not out:
            out.append(piece)
        elif piece.startswith("-"):
            out.append(" - " + piece[1:])
        else:
            out.append(" + " + piece)
    return "".join(out) or "0"


def _render_keyed(terms: Mapping, keys: Iterable, wrap: str, style: Style) -> str:
    """The sum of ``terms[key]`` times each key wrapped by ``wrap``, in ``keys`` order."""
    pieces = []
    for k in keys:
        f = terms[k]
        several = sum(1 for _ in f.items()) > 1
        pieces.append((render_qlaurent(f, style), wrap % _tuple_text(k), several))
    return _render_terms(pieces, style)


def render_element(e: PartitionElement, style: Style) -> str:
    return _render_keyed(e, sorted(e, key=partition_sort_key), "%s", style)


def render_symmetric(se: SymmetricElement, style: Style) -> str:
    return _render_keyed(se.terms, sorted(se.terms, key=partition_sort_key), style.symmetric, style)


def render_mpoly(p: MPoly, style: Style) -> str:
    terms = p.terms
    return _render_keyed(terms, sorted(terms), style.exponent, style)


def render_specialized(values: Mapping[Partition, Rational], style: Style) -> str:
    keys = sorted(values, key=partition_sort_key)
    pieces = [(_rational(values[k], style), _tuple_text(k), False) for k in keys]
    return _render_terms(pieces, style)


def render_graded(ge: GradedElement, style: Style) -> str:
    if not ge:
        return "0"
    return style.joiner.join(
        style.component % {"arity": n, "body": render_symmetric(ge[n], style)} for n in sorted(ge)
    )


def render_table(table: StructureConstantTable, style: Style) -> str:
    """``g --table``: one line per entry, in stored order."""
    return "\n".join(
        style.table_line % (a, b, render_qlaurent(QLaurent.term(w, p), style))
        for a, b, p, w in _table_rows(table)
    )
