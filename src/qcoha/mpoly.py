"""Sparse multivariate polynomials over Z[q, q^-1], or Q[q, q^-1], as integer rows.

A polynomial has a fixed ``arity`` (its ambient variable count) and is stored
as grouped rows: row r of ``rows`` is an exponent vector of length ``arity``
followed by a power of q, and ``weights[r]`` is the rational coefficient of
that monomial times that power.  Rows are distinct and in lexicographic order
and no weight is zero, so equal polynomials have equal arrays.  The zero
polynomial has no rows.  Values are immutable: every operation returns a new
polynomial.

Arithmetic acts on the columns.  A product sums every row of one factor with
every row of the other and groups equal rows; a sum concatenates and groups;
relabelling variables permutes the exponent columns.  Rows are grouped on
the packed keys of ``packed``, the row format this module shares with the
table engine.  The bounds come from the operands: a product's column ranges
from the sum of the factors' minima to the sum of their maxima, and each
factor packs less its own minima, so the keys of a product are the sums of
its factors' keys; a relabelling packs with a matrix of field scales.  No
operation stages more than STAGE_ROWS keys at once.  A relabelled sum groups
each staged chunk and regroups the chunks.  A product of more than
STAGE_ROWS pairs of rows is staged in key order instead, one range of
product keys at a time.  Fields add without carry and both factors' keys are
sorted, so a range takes one run of the larger factor's keys from each row
of the smaller one.  Each range stages at most STAGE_ROWS pairs unless it
is one key, and is grouped once; the ranges are joined in order with no
final regroup.  A one-key range takes at most one row of the larger factor
per row of the smaller, so it is staged STAGE_ROWS rows of the smaller at a
time and regrouped within itself.  Weights are int64 only while the sum of
their absolute values is below 2**63, which a product keeps when
``sum|wa| * sum|wb|`` is, and Python ints or Fractions (dtype=object)
otherwise.  Rows are stored in the narrowest integer dtype of their bounds
(int8 for every kernel), or dtype=object past int64, so readers widen them
before scalar arithmetic.  The polynomial checks share only ``packed`` with
the engine they check, and ``tests/test_packed.py`` checks it against a
dict on its own; the orientation sum (``bipartite``), the shuffle oracle's
``_key_major`` split and the brute force in ``perfbench/checks.py`` share
nothing with either.

``terms`` is a read-only ``{exponent: QLaurent}`` view for the JSON and
text renderers, ``coefficient`` and failure messages, built on each read: a
caller that looks up many exponents reads it once.
"""
from __future__ import annotations

from operator import add
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .packed import STAGE_ROWS, RowLayout, group_chunks, group_rows, pack_rows
from .qlaurent import ONE, ZERO, QLaurent

Exponent = Tuple[int, ...]

_INT64_MAX = (1 << 63) - 1


def _int_array(values, shape) -> np.ndarray:
    """Python ints as an int64 array, or dtype=object past int64."""
    try:
        return np.array(values, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(values, dtype=object).reshape(shape)


def _slices(ka: np.ndarray, kb: np.ndarray):
    """The pairs of rows of two sorted key arrays, cut into ranges [v0, v1]
    of product keys that cover every key sum in increasing order.

    Each range is yielded as ``(first, last)``: row i of ``ka`` takes the rows
    first[i]:last[i] of ``kb``.  Keys add without carry, so the keys of
    ``kb`` that one key of ``ka`` sends into a range are one run of them.
    The key range is halved until each part stages at most STAGE_ROWS pairs
    unless it is one key, and consecutive parts are joined while they fit.
    """
    pending = [(int(ka[0] + kb[0]), int(ka[-1] + kb[-1]))]
    joined, size = None, 0
    while pending:
        v0, v1 = pending.pop()
        first = np.searchsorted(kb, v0 - ka, "left")
        last = np.searchsorted(kb, v1 - ka, "right")
        count = int((last - first).sum())
        if count > STAGE_ROWS and v0 < v1:
            mid = (v0 + v1) // 2
            pending += [(mid + 1, v1), (v0, mid)]
        elif count:
            if joined and size + count <= STAGE_ROWS:
                joined, size = (joined[0], last), size + count
            else:
                if joined:
                    yield joined
                joined, size = (first, last), count
    if joined:
        yield joined


def _stage(ka, wa, kb, wb, first, last):
    """The key sums and weight products of row i of ``ka`` with the rows
    first[i]:last[i] of ``kb``, for every i, each in one array."""
    counts = last - first
    index = np.repeat(first - (counts.cumsum() - counts), counts)
    index += np.arange(len(index))
    keys, weights = kb[index], wb[index]
    del index
    keys += np.repeat(ka, counts)
    weights *= np.repeat(wa, counts)
    return keys, weights


def _weight_dtype(bound):
    """int64 when ``bound`` (None: uncertified) certifies every sum."""
    return np.int64 if bound is not None and bound <= _INT64_MAX else object


def _certified(weights: np.ndarray) -> np.ndarray:
    """Int64 ``weights`` as they are when their |weights| sum below 2**63,
    else as dtype=object.

    The cheap bound max|w| * len is tried first; only when it fails is the
    exact sum taken, in Python ints.
    """
    top = max(int(weights.max()), -int(weights.min()))
    if top * len(weights) <= _INT64_MAX or sum(map(abs, weights.tolist())) <= _INT64_MAX:
        return weights
    return weights.astype(object)


class MPoly:
    __slots__ = ("arity", "rows", "weights", "_layout")

    def __init__(self, arity: int, terms: Mapping[Exponent, QLaurent] | None = None):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        rows: List[List[int]] = []
        weights: List = []
        for exp, coeff in (terms or {}).items():
            e = tuple(exp)
            if len(e) != arity:
                raise ValueError("exponent %r does not match arity %d" % (e, arity))
            if any(k < 0 for k in e):
                raise ValueError("negative exponent in %r" % (e,))
            if not isinstance(coeff, QLaurent):
                coeff = QLaurent.const(coeff)
            for power, c in coeff.items():
                rows.append(list(e) + [power])
                weights.append(c)
        grouped = MPoly.from_rows(arity, rows, weights)
        self._set(arity, grouped.rows, grouped.weights, grouped._layout)

    def _set(self, arity: int, rows: np.ndarray, weights: np.ndarray, layout):
        self.arity = arity
        self.rows = rows
        self.weights = weights
        self._layout = layout

    @classmethod
    def _make(cls, arity: int, rows: np.ndarray, weights: np.ndarray, layout=None):
        # trusted constructor: rows already grouped and sorted, no zero
        # weight; ``layout`` packs the rows, within bounds that may be wider
        # than they reach, and only the zero polynomial has none
        self = object.__new__(cls)
        self._set(arity, rows, weights, layout)
        return self

    @classmethod
    def from_rows(cls, arity: int, rows: np.ndarray, weights: np.ndarray) -> "MPoly":
        """Group (exponent..., power) rows, summing the weights of equal rows.

        ``rows`` and ``weights`` are lists of Python ints and rationals, or
        arrays: integer or dtype=object rows, int64 or dtype=object weights.
        Int64 weights stay int64 only while the sum of their absolute values
        is below 2**63, as every operation on them assumes.  The grouped rows
        are stored in the narrowest integer dtype of their bounds, or as
        dtype=object past int64.
        """
        if not len(weights):
            return cls.zero(arity)
        if not isinstance(weights, np.ndarray):
            exact = all(type(w) is int for w in weights)
            dtype = _weight_dtype(sum(map(abs, weights)) if exact else None)
            weights = np.array(weights, dtype=dtype)
        elif weights.dtype != object:
            weights = _certified(weights)
        if not isinstance(rows, np.ndarray):
            rows = _int_array(rows, (len(weights), arity + 1))
        return cls._make(arity, *group_rows(rows, weights))

    @classmethod
    def zero(cls, arity: int) -> "MPoly":
        return cls._make(
            arity, np.zeros((0, arity + 1), dtype=np.int64), np.zeros(0, dtype=np.int64)
        )

    @classmethod
    def constant(cls, arity: int, coeff) -> "MPoly":
        return cls(arity, {(0,) * arity: coeff})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MPoly":
        if not 0 <= index < arity:
            raise ValueError("variable index out of range")
        return cls(arity, {tuple(1 if i == index else 0 for i in range(arity)): ONE})

    # -- accessors -----------------------------------------------------------

    def __bool__(self) -> bool:
        return len(self.weights) > 0

    def __len__(self) -> int:
        """The number of terms: distinct exponent vectors."""
        if len(self.weights) < 2:
            return len(self.weights)
        exps = self.rows[:, :-1]
        return 1 + int(np.any(exps[1:] != exps[:-1], axis=1).sum())

    def _abs_weight(self):
        """Sum of |weights| when they are int64 (it is then below 2**63), else None."""
        if self.weights.dtype == object:
            return None
        return int(np.abs(self.weights).sum())

    @property
    def terms(self) -> Mapping[Exponent, QLaurent]:
        """Read-only {exponent: QLaurent} view, in lexicographic exponent order."""
        return MappingProxyType(self._as_terms())

    def _as_terms(self) -> Dict[Exponent, QLaurent]:
        count = len(self.weights)
        keys = zip(*self.rows[:, :-1].T.tolist()) if self.arity else [()] * count
        powers, weights = self.rows[:, -1], self.weights
        if count and len(self) == count and object not in (powers.dtype, weights.dtype):
            # one power of q per exponent, as in every kernel; a kernel has
            # few distinct (power, weight) pairs, so each pair, packed into
            # one integer when it fits, gets one shared QLaurent; the
            # powers are widened from the narrow rows first
            powers = powers.astype(np.int64)
            p_lo, w_lo = int(powers.min()), int(weights.min())
            radix = int(weights.max()) - w_lo + 1
            if (int(powers.max()) - p_lo + 1) * radix <= _INT64_MAX:
                pairs, which = np.unique(
                    (powers - p_lo) * radix + (weights - w_lo), return_inverse=True
                )
                coeffs = [
                    QLaurent._monomial(k % radix + w_lo, k // radix + p_lo)
                    for k in pairs.tolist()
                ]
                return dict(zip(keys, map(coeffs.__getitem__, which.tolist())))
        grouped: Dict[Exponent, Dict[int, object]] = {}
        for e, p, w in zip(keys, powers.tolist(), weights.tolist()):
            grouped.setdefault(e, {})[p] = w
        # from_dict stores an integral Fraction sum as an int
        return {e: QLaurent.from_dict(t) for e, t in grouped.items()}

    def coefficient(self, exp: Sequence[int]) -> QLaurent:
        return self.terms.get(tuple(exp), ZERO)

    def rows_where(self, mask: np.ndarray) -> "MPoly":
        """The polynomial made of the rows where ``mask`` holds."""
        return MPoly._make(self.arity, self.rows[mask], self.weights[mask], self._layout)

    # -- arithmetic ----------------------------------------------------------

    def _check_arity(self, other: "MPoly"):
        if self.arity != other.arity:
            raise ValueError(
                "arity mismatch: %d vs %d" % (self.arity, other.arity)
            )

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_arity(other)
        if not other:
            return self
        if not self:
            return other
        sa, sb = self._abs_weight(), other._abs_weight()
        dtype = _weight_dtype(None if sa is None or sb is None else sa + sb)
        rows = np.concatenate([self.rows, other.rows])
        weights = np.concatenate([p.weights.astype(dtype) for p in (self, other)])
        return MPoly._make(self.arity, *group_rows(rows, weights))

    def __neg__(self):
        return MPoly._make(self.arity, self.rows, -self.weights, self._layout)

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QLaurent):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return multiply(self, other)

    def scale(self, coeff: QLaurent) -> "MPoly":
        if not coeff:
            return MPoly.zero(self.arity)
        if coeff == ONE:
            return self
        return multiply(self, MPoly.constant(self.arity, coeff))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (
            self.arity == other.arity
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash(
            (self.arity, tuple(map(tuple, self.rows.tolist())), tuple(self.weights.tolist()))
        )

    def __repr__(self):
        return "MPoly(%d, %d terms)" % (self.arity, len(self))


def multiply(a: MPoly, b: MPoly) -> MPoly:
    """The product of two polynomials of one arity.

    Every row of ``a`` is summed with every row of ``b``: as packed keys, the
    sum of the two rows' keys under the product's column bounds.  At most
    STAGE_ROWS pairs are staged in one chunk; more are staged one range of
    product keys at a time (see ``_slices``).
    """
    a._check_arity(b)
    if not a or not b:
        return MPoly.zero(a.arity)
    la, lb = a._layout, b._layout
    layout = RowLayout(list(map(add, la.lows, lb.lows)), list(map(add, la.spans, lb.spans)))
    sa, sb = a._abs_weight(), b._abs_weight()
    dtype = _weight_dtype(None if sa is None or sb is None else sa * sb)
    ka, wa = pack_rows(layout, a.rows, lows=la.lows), a.weights.astype(dtype)
    kb, wb = pack_rows(layout, b.rows, lows=lb.lows), b.weights.astype(dtype)
    if len(ka) > len(kb):
        ka, wa, kb, wb = kb, wb, ka, wa
    if len(ka) * len(kb) <= STAGE_ROWS:
        keys, weights = group_chunks([((ka[:, None] + kb).ravel(), (wa[:, None] * wb).ravel())])
    else:
        keys, weights = [], []
        chunks = [slice(i, i + STAGE_ROWS) for i in range(0, len(ka), STAGE_ROWS)]
        for first, last in _slices(ka, kb):
            # a slice of one key past STAGE_ROWS takes at most one row of kb
            # per row of ka, so STAGE_ROWS rows of ka stage at most as many
            k, w = group_chunks(
                _stage(ka[c], wa[c], kb, wb, first[c], last[c]) for c in chunks
            )
            keys.append(k)
            weights.append(w)
        keys, weights = np.concatenate(keys), np.concatenate(weights)
    return MPoly._make(a.arity, layout.unpack(keys), weights, layout)


def _relabelling(p: MPoly, relabellings: Sequence[Sequence[int]]):
    """A layout under which any relabelled row of p packs, and its scales.

    Column i of the scale matrix holds, in row k, the field scale of the
    column where relabelling i sends variable k (the power stays last).  So
    the keys of the rows relabelled by every relabelling are one matrix
    product of the shifted rows with it.
    """
    perms = [tuple(perm) for perm in relabellings]
    n = p.arity
    for perm in perms:
        if sorted(perm) != list(range(n)):
            raise ValueError("%r is not a permutation of %d variables" % (perm, n))
    lows, spans = p._layout.lows, p._layout.spans
    # any exponent column may land in any position
    lo = min(lows[:-1], default=0)
    hi = max(map(add, lows[:-1], spans[:-1]), default=0)
    layout = RowLayout([lo] * n + lows[-1:], [hi - lo] * n + spans[-1:])
    return layout, layout.scale[np.array([perm + (n,) for perm in perms]).T]


def relabelled_sum(p: MPoly, relabellings: Sequence[Sequence[int]]) -> MPoly:
    """Sum of p with its variables relabelled, once per relabelling.

    A relabelling sends variable k to ``perm[k]`` and must be a permutation
    of range(arity).
    """
    if not p or not relabellings:
        return MPoly.zero(p.arity)
    layout, scales = _relabelling(p, relabellings)
    count = scales.shape[1]
    sw = p._abs_weight()
    weights = p.weights.astype(_weight_dtype(None if sw is None else sw * count))
    step = max(1, STAGE_ROWS // len(weights))
    keys, weights = group_chunks(
        (
            pack_rows(layout, p.rows, scale=scales[:, i : i + step]).ravel(),
            np.repeat(weights, min(step, count - i)),
        )
        for i in range(0, count, step)
    )
    return MPoly._make(p.arity, layout.unpack(keys), weights, layout)


def fixed_by(p: MPoly, relabellings: Sequence[Sequence[int]]) -> List[bool]:
    """Whether p is unchanged by each relabelling of its variables.

    The relabelled rows are distinct, so p is unchanged exactly when they
    sort back into its own rows with its own weights.
    """
    if not relabellings:
        return []
    if not p:
        return [True] * len(relabellings)
    layout, scales = _relabelling(p, relabellings)
    # p's rows are in order, and so are their keys
    own = pack_rows(layout, p.rows)
    moved = pack_rows(layout, p.rows, scale=scales)
    order = np.argsort(moved, axis=0)
    moved = np.take_along_axis(moved, order, axis=0)
    return [
        np.array_equal(moved[:, i], own) and np.array_equal(p.weights[order[:, i]], p.weights)
        for i in range(len(relabellings))
    ]


def embed(p: MPoly, arity: int, positions: Sequence[int]) -> MPoly:
    """Relabel p's variables into a larger ambient arity.

    ``positions[k]`` is the new index of p's variable k; the map must be
    injective.  Used to place the factors of a shuffle term on a chosen
    subset of the variables.
    """
    pos = list(positions)
    if len(pos) != p.arity:
        raise ValueError("positions must name every variable of p")
    if len(set(pos)) != len(pos):
        raise ValueError("positions must be distinct")
    if pos and (min(pos) < 0 or max(pos) >= arity):
        raise ValueError("position out of range for arity %d" % arity)
    rows = np.zeros((len(p.weights), arity + 1), dtype=p.rows.dtype, order="F")
    rows[:, pos + [arity]] = p.rows
    return MPoly.from_rows(arity, rows, p.weights)
