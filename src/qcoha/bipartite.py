"""The d = 2 product as a sum over orientations of a complete bipartite graph.

Take one node per part of mu on the left and one per part of nu on the right,
and orient each of the n*k edges independently.  Every orientation contributes
a single term: each part grows by the indegree of its node, the key is the
sorted concatenation, and the coefficient is (-q) to the number of edges
pointing left.  Summing over all 2**(n*k) orientations reproduces the d = 2
partition-algebra product, which gives a fully independent oracle for it.

Orientations are staged in blocks of at most 2**16 rows from a bit matrix
(``_orientations``).  ``_graph_products`` sums many pairs of one shape
(m, n) at a time: a block builds the indegree rows of its orientations
once, adds each of its pairs' parts to them, and counts equal (pair, key,
edges toward the left) triples through one packed integer per row, into
grouped rows split by pair and by key into the key-major layout of a basis
product.  A pair of more than 2**16 orientations spans several blocks of its
own.  ``product_via_graphs`` is that core on one pair; it shares no
grouping code with the table engine it checks.  ``list_orientations``
returns the terms of one block as they are, one per orientation, for
``graphs --list``.
"""
from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError
from .kernel import DEFAULT_TERM_CAP
from .partition_algebra import _capped_basis_product, _offsets, _to_element
from .partitions import Partition, is_partition
from .reports import CheckReport

DEFAULT_BIT_BUDGET = 24
# the most orientations staged at once, and the most listed
BLOCK_ORIENTATIONS = 1 << 16


def _check_factors(mu: Partition, nu: Partition, max_bits: int) -> int:
    """The edge count of mu x nu, after validating both factors against it."""
    if not is_partition(mu) or not is_partition(nu):
        raise ValueError("factors must be weakly increasing")
    bits = len(mu) * len(nu)
    if bits > max_bits:
        raise ResourceLimitError(
            "%d edges exceed the %d-bit orientation budget" % (bits, max_bits)
        )
    return bits


def _orientations(parts: np.ndarray, n: int, k: int, start: int, stop: int):
    """Sorted grown keys and left-edge counts of orientations start..stop-1.

    Orientation ``mask`` is row ``mask - start`` of a bit matrix of shape
    (orientations, n, k), with entry (i, j) set when edge i-j points left (bit
    i*k + j of the mask), so the left indegrees are its row sums and the
    right indegrees are n less its column sums.  The indegree rows are built
    once and ``parts``, mu then nu in the dtype the keys take, is added to
    them: shape (n + k,) gives keys of shape (orientations, n + k), and
    shape (pairs, 1, n + k) the keys of each pair in turn.
    """
    masks = np.arange(start, stop, dtype=np.int64)
    edges = ((masks[:, None] >> np.arange(n * k)) & 1).reshape(len(masks), n, k)
    left = edges.sum(axis=2)
    keys = np.concatenate([left, n - edges.sum(axis=1)], axis=1) + parts
    keys.sort(axis=-1)
    return keys, left.sum(axis=1)


def _graph_products(pairs, max_bits: int = DEFAULT_BIT_BUDGET):
    """``product_via_graphs`` of each of many pairs of one shape, in order.

    The pairs are summed a block at a time.  A block takes consecutive pairs
    while their orientations fit BLOCK_ORIENTATIONS rows and the pair index,
    above every pair's packed key, keeps the packed word within 63 bits; a
    pair with more orientations than one block has a block of its own,
    staged BLOCK_ORIENTATIONS orientations at a time.  Every factor is
    checked before any block is staged.
    """
    pairs = [(tuple(mu), tuple(nu)) for mu, nu in pairs]
    for mu, nu in pairs:
        _check_factors(mu, nu, max_bits)
    shapes = {(len(mu), len(nu)) for mu, nu in pairs}
    if len(shapes) != 1:
        raise ValueError("the pairs must share one shape, got %r" % sorted(shapes))
    ((n, k),) = shapes
    out = []
    cols, power_width = n + k, (n * k).bit_length()
    per_block = max(1, BLOCK_ORIENTATIONS >> (n * k))
    block, width = [], 0
    for mu, nu in pairs:
        # every grown part less lo lies in [0, 2**own)
        lo = min(mu + nu, default=0)
        hi = max(mu + nu, default=0) + max(n, k)
        own = (hi - lo).bit_length()
        if block and (
            len(block) == per_block
            or len(block).bit_length() + cols * max(width, own) + power_width > 63
        ):
            out.extend(_block_products(block, n, k, width))
            block, width = [], 0
        block.append((mu + nu, lo, hi))
        width = max(width, own)
    out.extend(_block_products(block, n, k, width))
    return out


def _block_products(block, n: int, k: int, width: int):
    """The key-major sums of one block of (mu + nu, lo, hi) of shape (n, k).

    Each orientation packs its pair's index, its sorted key less lo in
    fields of ``width`` bits and its left-edge count into one integer, in
    that order from the top; the integers are counted, and summed over the
    chunks of a pair staged in several.  A key starts where the bits above
    the power change, and a pair where the index changes.
    """
    cols, bits = n + k, n * k
    power_width = bits.bit_length()
    shift = cols * width + power_width
    # a block of one pair packs in Python ints when int64 is too narrow
    dtype = np.int64 if (len(block) - 1).bit_length() + shift <= 63 else object
    parts = np.array([[p - lo for p in factors] for factors, lo, _ in block], dtype=dtype)
    parts = parts.reshape(len(block), 1, cols)
    scale = np.array(
        [1 << (width * (cols - 1 - i) + power_width) for i in range(cols)], dtype=dtype
    )
    index = np.arange(len(block)).astype(dtype)[:, None] << shift
    packed, grown, counts = [], [], []
    total = 1 << bits
    for start in range(0, total, BLOCK_ORIENTATIONS):
        keys, powers = _orientations(parts, n, k, start, min(start + BLOCK_ORIENTATIONS, total))
        keys = keys.reshape(keys.shape[0] * keys.shape[1], cols)
        distinct, first, found = np.unique(
            ((keys @ scale).reshape(len(block), -1) + index + powers).ravel(),
            return_index=True,
            return_counts=True,
        )
        packed.append(distinct)
        grown.append(keys[first])
        counts.append(found)
    if len(packed) == 1:
        (words,), (grown,), (summed,) = packed, grown, counts
    else:
        words, first, where = np.unique(
            np.concatenate(packed), return_index=True, return_inverse=True
        )
        summed = np.zeros(len(first), dtype=np.int64)
        np.add.at(summed, where, np.concatenate(counts))
        grown = np.concatenate(grown)[first]
    heads = words >> power_width
    marks = np.ones(len(words) + 1, dtype=bool)
    np.not_equal(heads[1:], heads[:-1], out=marks[1:-1])
    marks = marks.nonzero()[0]
    starts = marks[:-1]
    powers = (words & ((1 << power_width) - 1)).astype(np.int64)
    coeffs = np.where(powers & 1, -summed, summed)
    rows, sizes = grown[starts], marks[1:] - starts
    # every pair has a key, and its keys are consecutive
    ends = np.searchsorted(
        (heads[starts] >> (cols * width)).astype(np.int64), np.arange(1, len(block) + 1)
    ).tolist()
    out = []
    for (_, lo, hi), a, b in zip(block, [0] + ends[:-1], ends):
        # the keys hold the grown parts themselves, lo added back
        row_dtype = dtype if hi < 1 << 63 else object
        w, z = marks[a], marks[b]
        out.append((rows[a:b].astype(row_dtype) + lo, sizes[a:b], powers[w:z], coeffs[w:z]))
    return out


def product_via_graphs(mu: Partition, nu: Partition, max_bits: int = DEFAULT_BIT_BUDGET):
    """Sum of h over every orientation; the graph-side d = 2 product.

    Returns (keys, counts, powers, coeffs) in the key-major layout of a
    basis product, a power's coefficient being its orientation count times
    (-1)**power: ``_graph_products`` of the one pair.
    """
    (product,) = _graph_products([(mu, nu)], max_bits)
    return product


def list_orientations(mu: Partition, nu: Partition):
    """Every orientation's sorted key and edges toward the left, in mask order.

    Orientation ``mask`` contributes its key times (-q)**edges.  A listing
    holds one block at most: past BLOCK_ORIENTATIONS orientations it raises
    ResourceLimitError before any is built.
    """
    mu, nu = tuple(mu), tuple(nu)
    bits = _check_factors(mu, nu, DEFAULT_BIT_BUDGET)
    if 1 << bits > BLOCK_ORIENTATIONS:
        raise ResourceLimitError(
            "listing 2**%d orientations exceeds the limit of %d"
            % (bits, BLOCK_ORIENTATIONS)
        )
    # a part below 2**62 stays in int64 when it grows by at most 16
    return _orientations(_offsets(mu + nu), len(mu), len(nu), 0, 1 << bits)


def _graph_model_reports(pairs):
    """``verify_graph_model`` of each of many pairs of one shape, in order,
    their graph sides staged together by ``_graph_products``."""
    pairs = [(tuple(mu), tuple(nu)) for mu, nu in pairs]
    reports = []
    for (mu, nu), graphs in zip(pairs, _graph_products(pairs)):
        table = _capped_basis_product(mu, nu, 2, DEFAULT_TERM_CAP)
        passed = all(map(np.array_equal, graphs, table))
        failures = []
        if not passed:
            failures.append(
                "graph model disagrees for mu=%r nu=%r: %r vs %r"
                % (mu, nu, _to_element(*graphs), _to_element(*table))
            )
        reports.append(
            CheckReport(
                name="graph-model %r %r" % (mu, nu),
                passed=passed,
                checked=1,
                failures=failures,
            )
        )
    return reports


def verify_graph_model(mu: Partition, nu: Partition) -> CheckReport:
    """Graph-side product against the structure-constant product at d = 2,
    key-major: they agree exactly when their arrays are equal."""
    (report,) = _graph_model_reports([(mu, nu)])
    return report
