"""Orientation model for the d = 2 product."""
import json
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoha.bipartite as bipartite
from qcoha import QLaurent, ResourceLimitError, product, signed_q_power
from qcoha.bipartite import (
    BLOCK_ORIENTATIONS,
    list_orientations,
    product_via_graphs,
    verify_graph_model,
)
from qcoha.cli import main
from qcoha.partition_algebra import _basis_product
from qcoha.partitions import partitions_up_to
from qcoha.serialization import element_to_json, qlaurent_to_json
from qcoha.suites import BOUNDARY_GRAPH_PAIRS


def QL(offset, *coeffs):
    return QLaurent(offset, list(coeffs))


def fold_rows(keys, counts, powers, coeffs):
    # a key-major product as {key: QLaurent}, this module's own fold: key i
    # takes the next counts[i] powers and coefficients
    terms = {}
    rows = zip(np.repeat(keys, counts, axis=0).tolist(), powers.tolist(), coeffs.tolist())
    for key, p, c in rows:
        terms.setdefault(tuple(key), {})[p] = c
    return {key: QLaurent.from_dict(t) for key, t in terms.items()}


def assert_same_arrays(got, want):
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b), (a, b)


def orientation_term(mu, nu, mask):
    # the term of one orientation, edge by edge: bit i*k + j set means edge
    # i-j points left, so left node i grows; the coefficient is (-q)**edges
    k = len(nu)
    a, b = list(mu), list(nu)
    for i in range(len(mu)):
        for j in range(k):
            if mask >> (i * k + j) & 1:
                a[i] += 1
            else:
                b[j] += 1
    return tuple(sorted(a + b)), mask.bit_count()


def all_reference_terms(mu, nu):
    return [orientation_term(mu, nu, mask) for mask in range(1 << (len(mu) * len(nu)))]


def all_listed_terms(mu, nu):
    keys, powers = list_orientations(mu, nu)
    return list(zip(map(tuple, keys.tolist()), powers.tolist()))


def listed_term(mu, nu, mask):
    keys, powers = list_orientations(mu, nu)
    return tuple(keys[mask].tolist()), int(powers[mask])


def test_orientation_bit_layout():
    # parts far apart show each node's indegree: 53 = 0b110101, so left node
    # 0 takes edges 0 and 2, left node 1 edges 1 and 2, and right nodes 0, 1
    # and 2 take one, one and none
    mu, nu = (0, 10), (20, 30, 40)
    want = ((2, 12, 21, 31, 40), 4)
    assert orientation_term(mu, nu, 53) == want
    assert listed_term(mu, nu, 53) == want


def test_h_of_graph_worked_orientation():
    assert listed_term((1, 2), (0, 2, 3), 53) == orientation_term((1, 2), (0, 2, 3), 53)
    assert listed_term((1, 2), (0, 2, 3), 53) == ((1, 3, 3, 3, 4), 4)


def test_h_of_graph_all_edges_right():
    assert listed_term((1, 2), (0, 2, 3), 0) == ((1, 2, 2, 4, 5), 0)


def test_h_of_graph_single_edge_left():
    assert listed_term((2,), (0,), 1) == ((0, 3), 1)
    assert signed_q_power(1) == QL(1, -1)


def test_smallest_product():
    # the sorted key, its powers; the coefficient counts with (-1)**power
    keys, counts, powers, coeffs = got = product_via_graphs((0,), (0,))
    assert keys.tolist() == [[0, 1]] and counts.tolist() == [2]
    assert powers.tolist() == [0, 1]
    assert coeffs.tolist() == [1, -1]
    assert fold_rows(*got) == {(0, 1): QL(0, 1, -1)}


def test_empty_factor():
    for mu, nu in [((), (1, 2)), ((1, 2), ()), ((), ())]:
        keys, counts, powers, coeffs = got = product_via_graphs(mu, nu)
        # one orientation, of no edges: the other factor's key at power 0
        assert keys.tolist() == [[*mu, *nu]] and counts.tolist() == [1]
        assert powers.tolist() == [0] and coeffs.tolist() == [1]
        assert_same_arrays(got, _basis_product(mu, nu, 2))


def test_worked_product_matches_table():
    rep = verify_graph_model((1, 2), (0, 2, 3))
    assert rep.passed, rep.failures


def test_bit_budget():
    with pytest.raises(ResourceLimitError):
        product_via_graphs((0,) * 5, (0,) * 5)
    # a custom budget admits the same shape
    assert len(product_via_graphs((0,), (0,), max_bits=1)[2]) == 2


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
    keys, powers = list_orientations(mu, nu)
    assert len(keys) == len(powers) == 4
    weight = sum(mu) + sum(nu) + len(mu) * len(nu)
    for mask, (key, power) in enumerate(zip(keys.tolist(), powers.tolist())):
        assert sum(key) == weight
        assert (tuple(key), power) == orientation_term(mu, nu, mask)
        assert power == mask.bit_count()


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
    key, e = listed_term((1, 2), (0, 2, 3), mask)
    assert (key, e) == orientation_term((1, 2), (0, 2, 3), mask)
    assert e == mask.bit_count()
    # with the factors far apart the left parts stay first: they grow by e
    # in all, and the right parts by the other 6 - e
    key, _ = listed_term((0, 10), (20, 30, 40), mask)
    assert sum(key[:2]) - 10 == e
    assert sum(key[2:]) - 90 == 6 - e


def folded_graph_terms(mu, nu):
    # the orientation sum one term at a time, as the reference
    out = {}
    for mask in range(1 << (len(mu) * len(nu))):
        key, edges = orientation_term(mu, nu, mask)
        c = signed_q_power(edges)
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


SUITE_GRID_PAIRS = [
    (mu, nu) for mu in partitions_up_to(3, 3) for nu in partitions_up_to(3, 3)
] + list(BOUNDARY_GRAPH_PAIRS)


def test_orientation_sum_matches_term_fold_on_suite_grid():
    for mu, nu in SUITE_GRID_PAIRS:
        got = fold_rows(*product_via_graphs(mu, nu))
        assert got == folded_graph_terms(mu, nu), (mu, nu)


def test_rows_equal_the_basis_product_on_the_suite_grid():
    for mu, nu in SUITE_GRID_PAIRS:
        assert_same_arrays(product_via_graphs(mu, nu), _basis_product(mu, nu, 2))


def assert_same_typed(got, want):
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), (a, b)


def shape_runs(pairs):
    # consecutive pairs of one shape, in order, as verify graphs stages them
    return [list(run) for _, run in groupby(pairs, key=lambda p: (len(p[0]), len(p[1])))]


def staged_blocks(monkeypatch):
    # the pair count of each block _graph_products stages, and the chunks of
    # orientations staged in all
    sizes, chunks = [], []
    real_block, real_chunk = bipartite._block_products, bipartite._orientations

    def block(pairs, *args):
        sizes.append(len(pairs))
        return real_block(pairs, *args)

    def chunk(*args):
        chunks.append(args[3:])
        return real_chunk(*args)

    monkeypatch.setattr(bipartite, "_block_products", block)
    monkeypatch.setattr(bipartite, "_orientations", chunk)
    return sizes, chunks


# one shape, huge parts beside small: 2**63 - 1 and 2**70 pack past int64
# alone, (2**70,)*(2**70,) packs small but its keys are Python ints, and
# (0,)*(2**30,) fills 63 bits alone, so no index fits above it
HUGE_RUN = [
    ((0,), (2**63 - 1,)),
    ((1,), (2,)),
    ((2**70,), (2**70,)),
    ((0,), (2**30,)),
    ((0,), (1,)),
    ((3,), (2**70,)),
    ((2,), (2,)),
]


@pytest.mark.parametrize("block", [BLOCK_ORIENTATIONS, 64, 5])
def test_batched_sums_equal_single_pair_sums(monkeypatch, block):
    runs = shape_runs(SUITE_GRID_PAIRS) + [HUGE_RUN]
    want = [[product_via_graphs(mu, nu) for mu, nu in run] for run in runs]
    monkeypatch.setattr(bipartite, "BLOCK_ORIENTATIONS", block)
    sizes, chunks = staged_blocks(monkeypatch)
    for run, alone in zip(runs, want):
        got = bipartite._graph_products(run)
        assert len(got) == len(run)
        for g, w in zip(got, alone):
            assert_same_typed(g, w)
    # some block holds several pairs, and each block of the huge run holds
    # one pair but for the two small ones an index fits above
    assert max(sizes) > 1 and sum(sizes) == sum(map(len, runs))
    assert sizes[-6:] == [1, 2, 1, 1, 1, 1]
    # past 64 orientations a pair is staged in several chunks of one block
    assert (len(chunks) > len(sizes)) == (block < BLOCK_ORIENTATIONS)


def test_batched_pairs_share_one_shape():
    with pytest.raises(ValueError, match=r"one shape, got \[\(1, 1\), \(2, 1\)\]"):
        bipartite._graph_products([((0,), (0,)), ((0, 0), (0,))])
    # every factor is checked first, whatever the shapes
    with pytest.raises(ValueError, match="weakly increasing"):
        bipartite._graph_products([((0,), (0,)), ((1, 0), (0,))])


def test_orientation_sum_across_blocks():
    # 2**17 orientations take two blocks of 2**16
    mu, nu = (1,), (0,) * 8 + (2,) * 9
    got = product_via_graphs(mu, nu, max_bits=17)
    assert_same_arrays(got, _basis_product(mu, nu, 2))
    assert fold_rows(*got) == product(mu, nu, 2)


def test_blocks_of_64_give_the_arrays_of_one_block(monkeypatch):
    pairs = [((0, 1), (2, 2, 3, 3)), ((1, 2, 2), (0, 2, 3)), ((0, 0, 3), (0, 1, 1, 2)), ((0,) * 12, (3,))]
    # each pair fits one default block, and takes more than one block of 64
    assert all(64 < 2 ** (len(mu) * len(nu)) <= BLOCK_ORIENTATIONS for mu, nu in pairs)
    whole = [product_via_graphs(mu, nu) for mu, nu in pairs]
    monkeypatch.setattr(bipartite, "BLOCK_ORIENTATIONS", 64)
    for (mu, nu), want in zip(pairs, whole):
        assert_same_arrays(product_via_graphs(mu, nu), want)


def test_orientation_sum_with_tiny_blocks(monkeypatch):
    monkeypatch.setattr(bipartite, "BLOCK_ORIENTATIONS", 5)
    for mu, nu in [((0, 1), (2,)), ((1, 2), (0, 2, 3)), ((0, 0, 3), (0, 1))]:
        got = fold_rows(*product_via_graphs(mu, nu))
        assert got == folded_graph_terms(mu, nu), (mu, nu)


@pytest.mark.parametrize("c", [2**40, 2**63 - 1, 2**70])
def test_orientation_sum_with_huge_parts(c):
    # parts this far apart overflow an int64 packed key; huge parts close
    # together pack small but grow out of int64 once the smallest is added back
    for mu, nu in [((0, c), (1,)), ((c,), (0, 1, c)), ((0,), (c, c)), ((c,), (c,)), ((), (c,))]:
        got = product_via_graphs(mu, nu)
        assert fold_rows(*got) == folded_graph_terms(mu, nu), (mu, nu)
        assert_same_arrays(got, _basis_product(mu, nu, 2))
        assert all_listed_terms(mu, nu) == all_reference_terms(mu, nu), (mu, nu)


def test_listing_stops_past_one_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("orientations were built")

    # 16 edges: one whole block
    keys, powers = list_orientations((0,) * 4, (1,) * 4)
    assert len(keys) == len(powers) == BLOCK_ORIENTATIONS
    monkeypatch.setattr(bipartite, "_orientations", refuse)
    message = r"listing 2\*\*17 orientations exceeds the limit of 65536"
    with pytest.raises(ResourceLimitError, match=message):
        list_orientations((0,), (0,) * 17)
    # past the 24-bit budget the budget's own message comes first
    with pytest.raises(ResourceLimitError, match="25 edges exceed the 24-bit"):
        list_orientations((0,) * 5, (0,) * 5)


@pytest.mark.parametrize(
    "mu,nu",
    [
        ((), ()),
        ((), (1, 2)),
        ((1, 2), ()),
        ((0,), (0,)),
        ((2**70,), (0, 1, 2**70)),
        ((1, 2), (0, 2, 3)),
        ((0, 0, 3), (0, 1, 1, 2)),
        ((0, 1, 2, 3), (0, 0, 1, 1)),
    ],
)
def test_graphs_list_json_matches_the_reference(capsys, mu, nu):
    # the bytes of graphs --list: the product, then every orientation's term
    # in mask order
    assert all_listed_terms(mu, nu) == all_reference_terms(mu, nu)
    want = element_to_json(product(mu, nu, 2), 2)
    want["orientations"] = [
        {"id": mask, "partition": list(key), "coeff": qlaurent_to_json(signed_q_power(edges))}
        for mask, (key, edges) in enumerate(all_reference_terms(mu, nu))
    ]
    argv = ["graphs", "--left", ",".join(map(str, mu)), "--right", ",".join(map(str, nu))]
    assert main(argv + ["--list"]) == 0
    assert capsys.readouterr().out == json.dumps(want) + "\n"
