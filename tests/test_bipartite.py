"""Orientation model for the d = 2 product."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoha.bipartite as bipartite
from qcoha import QLaurent, ResourceLimitError, product, q_power, signed_q_power
from qcoha.bipartite import (
    GraphTerm,
    OrientedBipartiteGraph,
    enumerate_graph_terms,
    h_of_graph,
    product_via_graphs,
    verify_graph_model,
)
from qcoha.partitions import partitions_up_to
from qcoha.suites import BOUNDARY_GRAPH_PAIRS


def QL(offset, *coeffs):
    return QLaurent(offset, list(coeffs))


def test_orientation_bit_layout():
    g = OrientedBipartiteGraph(2, 3, 53)
    assert [g.points_left(0, j) for j in range(3)] == [True, False, True]
    assert [g.points_left(1, j) for j in range(3)] == [False, True, True]
    assert g.left_indegrees() == (2, 2)
    assert g.right_indegrees() == (1, 1, 0)
    assert g.edges_toward_left() == 4


def test_orientation_validates_mask():
    with pytest.raises(ValueError):
        OrientedBipartiteGraph(1, 1, 2)
    with pytest.raises(ValueError):
        OrientedBipartiteGraph(-1, 1, 0)


def test_h_of_graph_worked_orientation():
    term = h_of_graph((1, 2), (0, 2, 3), OrientedBipartiteGraph(2, 3, 53))
    assert term == GraphTerm((1, 3, 3, 3, 4), q_power(4))


def test_h_of_graph_all_edges_right():
    term = h_of_graph((1, 2), (0, 2, 3), OrientedBipartiteGraph(2, 3, 0))
    assert term.coefficient == QLaurent.const(1)
    assert term.partition == (1, 2, 2, 4, 5)


def test_h_of_graph_single_edge_left():
    term = h_of_graph((2,), (0,), OrientedBipartiteGraph(1, 1, 1))
    assert term == GraphTerm((0, 3), signed_q_power(1))
    assert term.coefficient == QL(1, -1)


def test_h_of_graph_dimension_mismatch():
    with pytest.raises(ValueError):
        h_of_graph((1, 2), (0,), OrientedBipartiteGraph(1, 1, 0))


def test_smallest_product():
    assert product_via_graphs((0,), (0,)) == {(0, 1): QL(0, 1, -1)}


def test_empty_factor():
    assert product_via_graphs((), (1, 2)) == {(1, 2): QLaurent.const(1)}
    assert product_via_graphs((1, 2), ()) == {(1, 2): QLaurent.const(1)}
    assert product_via_graphs((), ()) == {(): QLaurent.const(1)}


def test_worked_product_matches_table():
    rep = verify_graph_model((1, 2), (0, 2, 3))
    assert rep.passed, rep.failures


def test_bit_budget():
    with pytest.raises(ResourceLimitError):
        product_via_graphs((0,) * 5, (0,) * 5)
    # a custom budget admits the same shape
    assert product_via_graphs((0,), (0,), max_bits=1)


def test_rejects_unsorted_input():
    with pytest.raises(ValueError):
        product_via_graphs((2, 1), (0,))


def test_checks_come_before_any_staging():
    # 2**4096 orientations: refused by the budget, not by running out of memory
    with pytest.raises(ResourceLimitError, match="4096 edges exceed the 24-bit"):
        product_via_graphs((0,) * 64, (0,) * 64)
    with pytest.raises(ValueError, match="weakly increasing"):
        product_via_graphs((0,) * 64, (1, 0) * 32)


def test_enumeration_is_exhaustive():
    mu, nu = (0, 1), (2,)
    terms = list(enumerate_graph_terms(mu, nu))
    assert [mask for mask, _ in terms] == list(range(4))
    weight = sum(mu) + sum(nu) + len(mu) * len(nu)
    for mask, term in terms:
        assert sum(term.partition) == weight
        assert term.coefficient == signed_q_power(mask.bit_count())


small_parts = st.builds(
    tuple,
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=2).map(sorted),
)


@given(small_parts, small_parts)
@settings(max_examples=60)
def test_graph_model_matches_table_product(mu, nu):
    rep = verify_graph_model(mu, nu)
    assert rep.passed, rep.failures


@given(st.integers(min_value=0, max_value=63))
@settings(max_examples=30)
def test_term_coefficient_tracks_orientation(mask):
    g = OrientedBipartiteGraph(2, 3, mask)
    term = h_of_graph((1, 2), (0, 2, 3), g)
    e = mask.bit_count()
    assert term.coefficient.min_power() == term.coefficient.max_power() == e
    assert sum(g.left_indegrees()) == e
    assert sum(g.right_indegrees()) == 6 - e


def folded_graph_terms(mu, nu, max_bits=bipartite.DEFAULT_BIT_BUDGET):
    # the orientation sum one term at a time, as the reference
    out = {}
    for _, term in enumerate_graph_terms(mu, nu, max_bits):
        key = term.partition
        out[key] = out[key] + term.coefficient if key in out else term.coefficient
    return {key: c for key, c in out.items() if c}


def test_orientation_sum_matches_term_fold_on_suite_grid():
    parts = partitions_up_to(3, 3)
    pairs = [(mu, nu) for mu in parts for nu in parts] + list(BOUNDARY_GRAPH_PAIRS)
    for mu, nu in pairs:
        assert product_via_graphs(mu, nu) == folded_graph_terms(mu, nu), (mu, nu)


def test_orientation_sum_across_blocks():
    # 2**17 orientations take two blocks of 2**16
    mu, nu = (1,), (0,) * 8 + (2,) * 9
    assert product_via_graphs(mu, nu, max_bits=17) == product(mu, nu, 2)


def test_orientation_sum_with_tiny_blocks(monkeypatch):
    monkeypatch.setattr(bipartite, "BLOCK_ORIENTATIONS", 5)
    for mu, nu in [((0, 1), (2,)), ((1, 2), (0, 2, 3)), ((0, 0, 3), (0, 1))]:
        assert product_via_graphs(mu, nu) == folded_graph_terms(mu, nu), (mu, nu)


@pytest.mark.parametrize("c", [2**40, 2**70])
def test_orientation_sum_with_huge_parts(c):
    # parts this far apart overflow an int64 packed key
    for mu, nu in [((0, c), (1,)), ((c,), (0, 1, c)), ((0,), (c, c))]:
        assert product_via_graphs(mu, nu) == folded_graph_terms(mu, nu), (mu, nu)
