"""The d = 2 product as a sum over orientations of a complete bipartite graph.

Take one node per part of mu on the left and one per part of nu on the right,
and orient each of the n*k edges independently.  Every orientation contributes
a single term: each part grows by the indegree of its node, the key is the
sorted concatenation, and the coefficient is (-q) to the number of edges
pointing left.  Summing over all 2**(n*k) orientations reproduces the d = 2
partition-algebra product, which gives a fully independent oracle for it.

Orientations are taken 2**16 at a time from a bit matrix (``_orientations``).
``product_via_graphs`` counts equal (key, edges toward the left) pairs of
each block through its own packed integer key, into grouped rows split by
key into the key-major layout of a basis product; it shares no grouping
code with the table engine it checks.  ``list_orientations`` returns the
terms of one block as they are, one per orientation, for ``graphs --list``.
"""
from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError
from .kernel import DEFAULT_TERM_CAP
from .partition_algebra import _capped_basis_product, _offsets, _to_element
from .partitions import Partition, is_partition
from .reports import CheckReport

DEFAULT_BIT_BUDGET = 24
# orientations staged at once by product_via_graphs, and the most listed
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
    right indegrees are n less its column sums.  ``parts`` holds mu then nu,
    in the dtype the keys take.
    """
    masks = np.arange(start, stop, dtype=np.int64)
    edges = ((masks[:, None] >> np.arange(n * k)) & 1).reshape(len(masks), n, k)
    left = edges.sum(axis=2)
    keys = np.concatenate([left, n - edges.sum(axis=1)], axis=1) + parts
    keys.sort(axis=1)
    return keys, left.sum(axis=1)


def product_via_graphs(mu: Partition, nu: Partition, max_bits: int = DEFAULT_BIT_BUDGET):
    """Sum of h over every orientation; the graph-side d = 2 product.

    Returns (keys, counts, powers, coeffs) in the key-major layout of a
    basis product, a power's coefficient being its orientation count times
    (-1)**power.  Each block of orientations packs its sorted keys and its
    left-edge counts into one integer per orientation, key bits above the
    power's, and counts them; the blocks' counts are summed per packed
    integer, and a key starts where the key bits change.
    """
    mu, nu = tuple(mu), tuple(nu)
    bits = _check_factors(mu, nu, max_bits)
    n, k = len(mu), len(nu)
    # every grown part less lo lies in [0, 2**width); the power takes the
    # low bits of the packed key
    lo = min(mu + nu, default=0)
    hi = max(mu + nu, default=0) + max(n, k)
    width = (hi - lo).bit_length()
    power_width = bits.bit_length()
    dtype = np.int64 if (n + k) * width + power_width <= 63 else object
    # the keys hold the grown parts themselves, lo added back
    row_dtype = dtype if hi < 1 << 63 else object
    parts = np.array([p - lo for p in mu + nu], dtype=dtype)
    scale = np.array(
        [1 << (width * (n + k - 1 - i) + power_width) for i in range(n + k)],
        dtype=dtype,
    )
    packed, grown, counts = [], [], []
    total = 1 << bits
    for start in range(0, total, BLOCK_ORIENTATIONS):
        keys, powers = _orientations(parts, n, k, start, min(start + BLOCK_ORIENTATIONS, total))
        distinct, first, found = np.unique(
            keys @ scale + powers, return_index=True, return_counts=True
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
    powers = (words & ((1 << power_width) - 1)).astype(np.int64)
    keys = grown[marks[:-1]].astype(row_dtype) + lo
    return keys, marks[1:] - marks[:-1], powers, np.where(powers & 1, -summed, summed)


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


def verify_graph_model(mu: Partition, nu: Partition) -> CheckReport:
    """Graph-side product against the structure-constant product at d = 2,
    key-major: they agree exactly when their arrays are equal."""
    mu = tuple(mu)
    nu = tuple(nu)
    graphs = product_via_graphs(mu, nu)
    table = _capped_basis_product(mu, nu, 2, DEFAULT_TERM_CAP)
    passed = all(map(np.array_equal, graphs, table))
    failures = []
    if not passed:
        failures.append(
            "graph model disagrees for mu=%r nu=%r: %r vs %r"
            % (mu, nu, _to_element(*graphs), _to_element(*table))
        )
    return CheckReport(
        name="graph-model %r %r" % (mu, nu),
        passed=passed,
        checked=1,
        failures=failures,
    )
