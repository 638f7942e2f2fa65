"""The d = 2 product as a sum over orientations of a complete bipartite graph.

Take one node per part of mu on the left and one per part of nu on the right,
and orient each of the n*k edges independently.  Every orientation contributes
a single term: each part grows by the indegree of its node, the key is the
sorted concatenation, and the coefficient is (-q) to the number of edges
pointing left.  Summing over all 2**(n*k) orientations reproduces the d = 2
partition-algebra product, which gives a fully independent oracle for it.

``product_via_graphs`` runs that sum on integer arrays, 2**16 orientations
at a time, counting equal (key, edges toward the left) pairs through its own
packed integer key, into grouped rows in the layout of a basis product; it
shares no grouping code with the table engine it checks.
``enumerate_graph_terms`` and ``h_of_graph`` walk the same sum one
orientation at a time, for listing orientations and as a reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Tuple

import numpy as np

from .errors import ResourceLimitError
from .kernel import DEFAULT_TERM_CAP
from .partition_algebra import _capped_basis_product, _to_element
from .partitions import Partition, is_partition, sort_ascending, vec_add
from .qlaurent import QLaurent, signed_q_power
from .reports import CheckReport

DEFAULT_BIT_BUDGET = 24
# orientations staged at once by product_via_graphs
BLOCK_ORIENTATIONS = 1 << 16


@dataclass(frozen=True)
class OrientedBipartiteGraph:
    """One orientation of the complete bipartite graph on n + k nodes.

    Bit i*k + j of ``mask`` is set exactly when the edge between left node i
    and right node j points toward the left node.
    """

    n: int
    k: int
    mask: int

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise ValueError("node counts must be non-negative")
        if not 0 <= self.mask < 1 << (self.n * self.k):
            raise ValueError(
                "mask %d out of range for a %d x %d graph" % (self.mask, self.n, self.k)
            )

    def points_left(self, i: int, j: int) -> bool:
        return bool(self.mask >> (i * self.k + j) & 1)

    def left_indegrees(self) -> Tuple[int, ...]:
        row = (1 << self.k) - 1
        return tuple(
            ((self.mask >> (i * self.k)) & row).bit_count() for i in range(self.n)
        )

    def right_indegrees(self) -> Tuple[int, ...]:
        return tuple(
            sum(1 for i in range(self.n) if not self.points_left(i, j))
            for j in range(self.k)
        )

    def edges_toward_left(self) -> int:
        return self.mask.bit_count()


class GraphTerm(NamedTuple):
    partition: Partition
    coefficient: QLaurent


def h_of_graph(mu: Partition, nu: Partition, graph: OrientedBipartiteGraph) -> GraphTerm:
    """The single term an orientation contributes to mu * nu."""
    mu = tuple(mu)
    nu = tuple(nu)
    if len(mu) != graph.n or len(nu) != graph.k:
        raise ValueError(
            "graph is %d x %d but partitions have lengths %d and %d"
            % (graph.n, graph.k, len(mu), len(nu))
        )
    a = vec_add(mu, graph.left_indegrees())
    b = vec_add(nu, graph.right_indegrees())
    return GraphTerm(sort_ascending(a + b), signed_q_power(graph.edges_toward_left()))


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


def enumerate_graph_terms(
    mu: Partition, nu: Partition, max_bits: int = DEFAULT_BIT_BUDGET
) -> Iterator[Tuple[int, GraphTerm]]:
    """All (orientation id, term) pairs, ids counting up from 0."""
    mu = tuple(mu)
    nu = tuple(nu)
    bits = _check_factors(mu, nu, max_bits)
    n = len(mu)
    k = len(nu)
    for mask in range(1 << bits):
        yield mask, h_of_graph(mu, nu, OrientedBipartiteGraph(n, k, mask))


def product_via_graphs(mu: Partition, nu: Partition, max_bits: int = DEFAULT_BIT_BUDGET):
    """Sum of h over every orientation; the graph-side d = 2 product.

    Returns grouped (rows, coeffs) in the layout of a basis product (sorted
    key, then power of q; rows in order), a row's coefficient being its
    orientation count times (-1)**power.  Orientation ``mask`` is row
    ``mask`` of a bit matrix of shape (orientations, n, k), with entry (i, j)
    set when edge i-j points left, so the left indegrees are its row sums and
    the right indegrees are n less its column sums.  Each block packs its
    sorted keys and its left-edge counts into one integer per orientation, in
    row order, and counts them; the blocks' counts are summed per packed key.
    """
    mu = tuple(mu)
    nu = tuple(nu)
    bits = _check_factors(mu, nu, max_bits)
    n = len(mu)
    k = len(nu)
    # every grown part less lo lies in [0, 2**width); the power takes the
    # low bits of the packed key
    lo = min(mu + nu, default=0)
    hi = max(mu + nu, default=0) + max(n, k)
    width = (hi - lo).bit_length()
    power_width = bits.bit_length()
    dtype = np.int64 if (n + k) * width + power_width <= 63 else object
    # the rows hold the grown parts themselves, lo added back
    row_dtype = dtype if hi < 1 << 63 else object
    parts = np.array([p - lo for p in mu + nu], dtype=dtype)
    scale = np.array(
        [1 << (width * (n + k - 1 - i) + power_width) for i in range(n + k)],
        dtype=dtype,
    )
    shifts = np.arange(bits, dtype=np.int64)
    packed, rows, counts = [], [], []
    total = 1 << bits
    for start in range(0, total, BLOCK_ORIENTATIONS):
        masks = np.arange(start, min(start + BLOCK_ORIENTATIONS, total), dtype=np.int64)
        edges = ((masks[:, None] >> shifts) & 1).reshape(len(masks), n, k)
        left = edges.sum(axis=2)
        keys = np.concatenate([left, n - edges.sum(axis=1)], axis=1) + parts
        keys.sort(axis=1)
        powers = left.sum(axis=1)
        distinct, first, found = np.unique(
            keys @ scale + powers, return_index=True, return_counts=True
        )
        packed.append(distinct)
        rows.append(np.column_stack([keys[first].astype(row_dtype) + lo, powers[first]]))
        counts.append(found)
    if len(packed) == 1:
        (rows,), (summed,) = rows, counts
    else:
        _, first, where = np.unique(
            np.concatenate(packed), return_index=True, return_inverse=True
        )
        summed = np.zeros(len(first), dtype=np.int64)
        np.add.at(summed, where, np.concatenate(counts))
        rows = np.concatenate(rows)[first]
    return rows, np.where(rows[:, -1] & 1, -summed, summed)


def verify_graph_model(mu: Partition, nu: Partition) -> CheckReport:
    """Graph-side product against the structure-constant product at d = 2,
    as grouped rows: they agree exactly when their arrays are equal."""
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
