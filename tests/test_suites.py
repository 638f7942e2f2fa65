"""Verification suite drivers: small-bound runs, determinism, the cost gates."""
import pytest

from qcoha import suites
from qcoha.errors import ResourceLimitError
from qcoha.kernel import structure_table
from qcoha.partitions import distinct_permutations, partitions_up_to
from qcoha.suites import (
    SUITES,
    _table_points,
    suite_assoc,
    suite_augmented_rule,
    suite_graphs,
    suite_grading,
    suite_iso,
    suite_kernel_identity,
    suite_quasi,
    suite_subset_sum,
    triple_cost,
)


def test_registry_has_cli_suite_names():
    for name in ("assoc", "iso", "quasi", "graphs", "lemma31", "prop41", "prop43"):
        assert name in SUITES


def test_assoc_suite_small_grid():
    rep = suite_assoc(
        d_values=(1, 2),
        max_len=1,
        max_part=1,
        random_triples=5,
        random_max_len=2,
        random_max_part=2,
    )
    assert rep.passed, rep.failures
    # per d: 9 pair checks plus 27 triples; plus the 5 random triples
    assert rep.checked == 2 * (9 + 27) + 5
    assert len(rep.instances) == 5


def test_assoc_suite_is_seed_deterministic():
    kwargs = dict(
        d_values=(2,),
        max_len=1,
        max_part=1,
        random_triples=4,
        random_max_len=2,
        random_max_part=2,
    )
    a = suite_assoc(seed=7, **kwargs)
    b = suite_assoc(seed=7, **kwargs)
    c = suite_assoc(seed=8, **kwargs)
    assert a.instances == b.instances
    assert a.instances != c.instances


def test_cost_gate_values():
    assert triple_cost(1, 1, 1, 1) == 4
    # the gate must reject the shapes measured to take many seconds each
    assert triple_cost(3, 3, 3, 2) > 30_000
    assert triple_cost(3, 3, 1, 3) > 30_000
    assert triple_cost(2, 3, 2, 3) > 30_000
    # and admit the ones measured to be fast
    assert triple_cost(2, 2, 2, 3) <= 30_000
    assert triple_cost(3, 3, 2, 2) <= 30_000


def test_table_points_counts_lattice_points():
    # degree-8 points in [0,4]^4: inclusion-exclusion gives 85
    assert _table_points(2, 2, 3) == 85
    assert _table_points(1, 1, 2) == 2
    assert _table_points(5, 7, 1) == 1
    assert _table_points(0, 3, 2) == 1


def test_iso_suite_default_grid():
    rep = suite_iso()
    assert rep.passed, rep.failures
    assert rep.checked == 300


def test_quasi_suite_flags_exactly_odd_exponents():
    rep = suite_quasi()
    assert rep.passed, rep.failures
    assert rep.checked == 300
    # at d=2 the exponent is |mu|*|nu|: odd only for the nine length-1 pairs
    assert len(rep.instances) == 9
    assert all("d=2" in line and "exponent=1" in line for line in rep.instances)


def test_grading_suite():
    rep = suite_grading()
    assert rep.passed, rep.failures


def test_graphs_suite_small():
    rep = suite_graphs(max_len=2, max_part=2, boundary_pairs=False)
    assert rep.passed, rep.failures
    assert rep.checked == 100


def test_kernel_identity_suite_single_cell():
    rep = suite_kernel_identity(block_range=(1,), d_values=(2,))
    assert rep.passed, rep.failures
    assert rep.checked == 1


def test_augmented_rule_suite_small():
    rep = suite_augmented_rule(max_len=2, max_part=2)
    assert rep.passed, rep.failures
    assert rep.checked == 2 * (1 + 9 + 36)


def test_subset_sum_suite_small():
    rep = suite_subset_sum(max_len=2, max_part=2)
    assert rep.passed, rep.failures
    assert rep.checked == 100


# -- the grid work budget ------------------------------------------------------

GRID_SUITES = sorted(name for name in SUITES if name != "assoc")


class _Predicted(Exception):
    pass


def _predicted_work(monkeypatch, name, **kwargs):
    """The work a suite's grid predicts, with nothing run and no limit applied."""
    seen = []

    def record(suite, work, d_values=()):
        seen.append(sum(work))
        raise _Predicted

    monkeypatch.setattr(suites, "_check_grid", record)
    with pytest.raises(_Predicted):
        SUITES[name](**kwargs)
    return seen[0]


@pytest.mark.parametrize("name", GRID_SUITES)
def test_grid_suites_refuse_before_any_work(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid ran past its work limit")

    monkeypatch.setattr(suites, "partitions_up_to", refuse)
    monkeypatch.setattr(suites, "verify_coefficient_identity", refuse)
    monkeypatch.setattr(suites, "GRID_WORK_LIMIT", 0)
    with pytest.raises(ResourceLimitError, match="verify %s: .* work limit 0$" % name):
        SUITES[name]()


@pytest.mark.parametrize("name", GRID_SUITES)
def test_default_grids_predict_well_under_the_limit(monkeypatch, name):
    assert _predicted_work(monkeypatch, name) < suites.GRID_WORK_LIMIT / 10


@pytest.mark.parametrize("name", ["iso", "grading", "lemma31", "quasi"])
def test_a_loop_count_below_one_is_still_a_parse_error(monkeypatch, name):
    # even on a grid far past the limit, as before the budget
    monkeypatch.setattr(suites, "GRID_WORK_LIMIT", 0)
    with pytest.raises(ValueError, match="loop count"):
        SUITES[name](d_values=(0,))


@pytest.mark.parametrize("max_len,max_part", [(0, 0), (3, 0), (2, 3), (4, 2)])
def test_grid_lengths_count_the_partitions_and_their_rearrangements(max_len, max_part):
    parts = partitions_up_to(max_len, max_part)
    for n, count, words in suites._lengths(max_len, max_part):
        of_length = [p for p in parts if len(p) == n]
        assert count == len(of_length)
        assert words == sum(len(distinct_permutations(p)) for p in of_length)


@pytest.mark.parametrize(
    "m,n,d", [(1, 1, 2), (1, 2, 3), (2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2), (1, 3, 4), (2, 2, 1)]
)
def test_kernel_terms_bound_the_table(m, n, d):
    assert len(structure_table(m, n, d)) <= suites._kernel_terms(m, n, d)
