"""Packed integer rows: one sort key per row, grouped and unpacked.

This is the one implementation of the row format that the table engine
(``kernel``, ``partition_algebra``) and the polynomials of the oracles
(``mpoly``) share, so ``tests/test_packed.py`` checks it against a dict
reference of its own.  It imports only numpy, so every module can import it.
"""
from __future__ import annotations

from itertools import accumulate
from operator import add, lshift, mul, sub
from typing import Iterable, List, Tuple

import numpy as np

# rows of one staged chunk, and cells of one unpacked block
STAGE_ROWS = 1 << 16

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)

# the integer dtypes of rows, narrowest first
_INT_RANGES = [
    (int(np.iinfo(t).min), int(np.iinfo(t).max), t) for t in (np.int8, np.int16, np.int32, np.int64)
]


def narrowest_dtype(lo: int, hi: int):
    """The narrowest integer dtype that holds [lo, hi], or object past int64."""
    for low, high, dtype in _INT_RANGES:
        if low <= lo and hi <= high:
            return dtype
    return object


class _on_demand:
    """A field made the first time an instance reads it, then kept in the
    instance's ``__dict__``, which shadows this descriptor from then on.

    ``functools.cached_property`` does the same, but before Python 3.12 it
    takes a lock on every first read: about 0.8 us more per layout on Python
    3.11 and a 2-CPU Xeon, a fifth of a six-column layout's construction.
    """

    def __init__(self, make):
        self.make = make
        self.name = make.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.make(instance)
        return value


class RowLayout:
    """The packed sort key of integer rows whose columns lie within bounds.

    ``lows`` and ``spans`` are two lists of Python ints, one entry per
    column: every entry of column c lies in [lows[c], lows[c] + spans[c]].
    Each column, less its low, takes the bits its span needs, first column
    highest, and a column of span 0 takes none, so the key of a row is the
    row times ``scale`` less ``base``, and it orders rows lexicographically.
    The key is int64 when those bits fit in 63 and every low fits in int64,
    and a Python int (dtype=object) otherwise.  An int64 key is packed on
    uint64 words: a partial sum may wrap modulo 2**64, the key itself is
    below 2**63 and exact.  Rows unpack in ``row_dtype``, the narrowest
    integer dtype that holds every bound (``narrowest_dtype``), or as Python
    ints past int64.  A bound that is too narrow makes fields overlap and
    merges distinct rows, so pass only bounds that are proven.

    The constructor makes only what every packing reads, each from the
    widths once: the shifts, ``dtype``, ``scale``, ``step`` and ``base``.
    ``row_dtype``, read only to unpack, is made the first time it is read
    and then kept (``_on_demand``).
    """

    def __init__(self, lows: List[int], spans: List[int]):
        self.lows = lows
        self.spans = spans
        self.widths = widths = [span.bit_length() for span in spans]
        bits = sum(widths)
        # a column's shift is the bits of the columns after it
        self.shifts = shifts = list(accumulate(widths, sub, initial=bits))[1:]
        fits = bits <= 63 and _INT64_MIN <= min(lows) and max(lows) <= _INT64_MAX
        self.dtype = np.int64 if fits else object
        # a width of 0 is False, which scales its column by 0
        scale = list(map(lshift, map(bool, widths), shifts))
        self.base = sum(map(mul, lows, scale))
        self.step = scale[-1]
        self.scale = np.array(scale, dtype=np.uint64 if fits else object)

    @_on_demand
    def row_dtype(self):
        return narrowest_dtype(min(self.lows), max(map(add, self.lows, self.spans)))

    def words(self, values: np.ndarray) -> np.ndarray:
        """Integers as the key's words: uint64 modulo 2**64, or Python ints."""
        if self.dtype is object:
            return values.astype(object, copy=False)
        if values.dtype == object:
            return (values % (1 << 64)).astype(np.uint64)
        if values.dtype == np.int64:
            return values.view(np.uint64)
        # a narrower integer is widened, not reinterpreted: a view would read
        # several of its entries as one word
        return values.astype(np.uint64)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The rows, in ``row_dtype`` and column-major order, whose packed
        keys are ``keys``.

        Blocks of at most STAGE_ROWS cells are unpacked straight into the
        columns: an integer dtype takes the shifted keys, the masks and the
        lows in its own width, where they agree with the key's fields modulo
        the width and every entry fits, so nothing is staged in int64.  From
        Python-int keys, or past int64, the fields are summed as Python ints.
        """
        dtype = self.row_dtype
        narrow = dtype is not object and keys.dtype != object
        shifts = np.array(self.shifts, dtype=keys.dtype)[:, None]
        masks = np.array([(1 << width) - 1 for width in self.widths], dtype=keys.dtype)[:, None]
        # a mask as wide as a narrow dtype wraps to all ones in it
        masks = masks.astype(dtype) if narrow else masks
        lows = np.array(self.lows, dtype=dtype)[:, None]
        columns = np.empty((len(lows), len(keys)), dtype=dtype)
        step = max(1, STAGE_ROWS // len(lows))
        for start in range(0, len(keys), step):
            block, fields = columns[:, start : start + step], keys[start : start + step]
            if narrow:
                np.right_shift(fields, shifts, out=block, casting="unsafe")
                block &= masks
                block += lows
            else:
                block[...] = ((fields >> shifts) & masks).astype(object) + lows
        return columns.T


def pack_rows(layout: RowLayout, parts: np.ndarray, powers=None, shift: int = 0, lows=None, scale=None):
    """The packed keys of rows, ``shift`` added to every power.

    The rows' last column is ``powers`` and their other columns ``parts``;
    with ``powers`` None, ``parts`` holds the rows' leading columns and
    every column after them is 0: the whole rows, or only their keys.  Every
    row, its power shifted, must lie within the layout's bounds.  The row
    ``lows`` (by default the layout's) takes key 0, so rows packed less the
    lows of their own bounds add up to the keys of their sums.  ``scale``,
    for whole rows only, replaces the layout's field scales by a matrix with
    one column of scales per key of a row, as for relabelled columns.
    """
    if scale is not None:
        # a row less the lows is below 2**63, so its words need no offset
        lows = np.array(layout.lows if lows is None else lows, dtype=object)
        keys = (layout.words(parts) - layout.words(lows)) @ scale
        return keys if layout.dtype is object else keys.view(np.int64)
    if powers is None:
        keys = layout.words(parts) @ layout.scale[: parts.shape[1]]
    else:
        keys = layout.words(parts) @ layout.scale[:-1] + layout.words(powers) * layout.step
    base = layout.base if lows is None else sum(map(mul, lows, layout.scale.tolist()))
    offset = shift * layout.step - base
    if layout.dtype is object:
        return keys + offset
    return (keys + np.uint64(offset % (1 << 64))).view(np.int64)


def key_runs(keys: np.ndarray):
    """The order that sorts ``keys``, the sorted keys, and the start of each
    run of equal keys among them."""
    order = keys.argsort()
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order, ordered, first.nonzero()[0]


def group_keys(keys: np.ndarray, weights: np.ndarray):
    """Sum ``weights`` over equal packed keys.

    Returns the index in ``keys`` of the first of each distinct key, in
    increasing key order, with its sum, and drops keys whose sum is zero.
    ``weights`` may be int64 or object; the caller certifies that int64
    sums cannot overflow.
    """
    if not len(keys):
        return np.zeros(0, dtype=np.intp), weights
    order, ordered, starts = key_runs(keys)
    # free the sorted copy before the weights are gathered: it lowers the
    # peak of a full staged slice
    del ordered
    sums = np.add.reduceat(weights[order], starts)
    keep = sums != 0
    return order[starts[keep]], sums[keep]


def group_chunks(chunks: Iterable[Tuple[np.ndarray, np.ndarray]]):
    """Group each staged (keys, weights) chunk, then regroup the results:
    the distinct keys in increasing order with their sums, zeros dropped."""
    keys, sums = [], []
    for k, w in chunks:
        index, w = group_keys(k, w)
        keys.append(k[index])
        sums.append(w)
    if len(keys) == 1:
        return keys[0], sums[0]
    return group_chunks([(np.concatenate(keys), np.concatenate(sums))])


def group_rows(rows: np.ndarray, weights: np.ndarray):
    """Sum ``weights`` over equal rows of an integer matrix of at least one row.

    The rows are packed under their column minima and maxima and grouped
    STAGE_ROWS rows at a time (``group_chunks``).  Returns the distinct rows
    in lexicographic order, in the narrowest dtype of those bounds, with
    their sums, zero sums dropped, and the layout of those bounds.
    """
    # one contiguous row per column: column reductions are several times
    # faster on it than along axis 0 of a tall matrix
    cols = np.ascontiguousarray(rows.T)
    # Python ints: an int64 column may range wider than int64
    lows, highs = cols.min(axis=1).tolist(), cols.max(axis=1).tolist()
    layout = RowLayout(lows, list(map(sub, highs, lows)))
    keys, sums = group_chunks(
        (pack_rows(layout, rows[i : i + STAGE_ROWS]), weights[i : i + STAGE_ROWS])
        for i in range(0, len(weights), STAGE_ROWS)
    )
    return layout.unpack(keys), sums, layout
