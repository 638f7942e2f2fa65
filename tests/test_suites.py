"""Verification suite drivers: small-bound runs, determinism, the cost gates."""
import sys
from itertools import combinations_with_replacement

import pytest

from qcoha import cli, partition_algebra, shuffle_algebra, suites
from qcoha import kernel as kernel_mod
from qcoha.bipartite import verify_graph_model
from qcoha.errors import NotSymmetricError, ResourceLimitError
from qcoha.kernel import DEFAULT_TERM_CAP, structure_table
from qcoha.mpoly import MPoly
from qcoha.partitions import (
    distinct_permutation_count,
    distinct_permutations,
    iter_partitions,
    partitions_up_to,
)
from qcoha.qlaurent import ONE
from qcoha.shuffle_algebra import DEFAULT_MAX_SUBSETS, _shuffle_rows, verify_homomorphism
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
def test_grid_suites_refuse_before_any_work(monkeypatch, refuse_checks, name):
    refuse_checks("the grid ran past its work limit")
    monkeypatch.setattr(suites, "GRID_WORK_LIMIT", 0)
    with pytest.raises(ResourceLimitError, match="verify %s: .* work limit 0$" % name):
        SUITES[name]()


@pytest.mark.parametrize("name", GRID_SUITES)
def test_default_grids_predict_well_under_the_limit(monkeypatch, name):
    assert _predicted_work(monkeypatch, name) < suites.GRID_WORK_LIMIT / 10


def test_graphs_prediction_counts_the_boundary_pairs(monkeypatch):
    # each boundary pair stages 4096 orientations beside its table product
    boundary = sum(
        suites._graph_work(len(mu), len(nu)) for mu, nu in suites.BOUNDARY_GRAPH_PAIRS
    )
    assert boundary == 765_504
    assert _predicted_work(monkeypatch, "graphs", boundary_pairs=False) == 17_047_846
    assert _predicted_work(monkeypatch, "graphs") == 17_047_846 + boundary


# (suite, grid, predicted work): every default grid and some smaller and
# larger ones, each sum equal to the per-length formulas the cases replaced
PREDICTIONS = [
    ("assoc", {}, 62_521_172),
    ("iso", {}, 3_414_420),
    ("quasi", {}, 6_060_882),
    ("graphs", {}, 17_813_350),
    ("lemma31", {}, 29_303_240),
    ("prop41", {}, 37_562_880),
    ("prop43", {}, 12_966_497),
    ("grading", {}, 3_030_441),
    ("assoc", dict(d_values=(2, 3), max_len=2, max_part=1, random_triples=3), 8_864_394),
    ("assoc", dict(d_values=(2,), max_len=1, max_part=1, random_triples=0), 360_466),
    ("iso", dict(d_values=(2,), max_len=1, max_part=1), 90_090),
    ("iso", dict(max_len=3, max_part=3), 10_461_644_958),
    ("prop41", dict(max_len=5, max_part=2), 20_063_884),
    ("prop43", dict(max_len=2, max_part=1), 360_729),
    ("lemma31", dict(block_range=(1, 2, 3), d_values=(2,)), 12_071_173_944),
    ("quasi", dict(d_values=(4,), max_len=3, max_part=1), 25_650_636),
    ("graphs", dict(max_len=2, max_part=2, boundary_pairs=False), 1_009_242),
]


@pytest.mark.parametrize("name,grid,want", PREDICTIONS)
def test_predicted_work_is_pinned(monkeypatch, name, grid, want):
    assert _predicted_work(monkeypatch, name, **grid) == want


@pytest.mark.parametrize("name", sorted(SUITES))
def test_the_checks_walk_exactly_the_predicted_cases(monkeypatch, name):
    predicted, walked = [], []
    run = suites._run

    def spy(suite, cases, work, checks, *args, **kwargs):
        def counted(*case):
            predicted.append(case)
            return work(*case)

        def walking(stream):
            return checks(walked.append(case) or case for case in stream)

        return run(suite, cases, counted, walking, *args, **kwargs)

    monkeypatch.setattr(suites, "_run", spy)
    rep = SUITES[name](**GUARD_GRIDS[name])
    assert rep.passed, rep.failures
    assert predicted and walked == predicted


def _recording_budgets(monkeypatch):
    """Replace the suites' budget by one that records what each call spends."""
    spent = []

    class Recording(suites._WorkBudget):
        def __init__(self, suite):
            super().__init__(suite)
            spent.append(0)

        def __call__(self, units):
            spent[-1] += units
            super().__call__(units)

    monkeypatch.setattr(suites, "_WorkBudget", Recording)
    return spent


def test_default_assoc_spends_well_under_the_limit(monkeypatch):
    spent = _recording_budgets(monkeypatch)
    rep = suite_assoc()
    assert rep.passed and rep.checked == 3350
    assert len(spent) == 1 and spent[0] < suites.GRID_WORK_LIMIT / 2
    # the budget charges the full table's rows for every build, whatever
    # rows a build re-keys
    assert spent == [218122026]
    # the grid's prediction, before any check, is smaller still
    assert _predicted_work(monkeypatch, "assoc") < spent[0]


def test_assoc_budget_refuses_once_the_checks_pass_the_limit(monkeypatch):
    kwargs = dict(d_values=(2, 3), max_len=2, max_part=1, random_triples=3)
    spent = _recording_budgets(monkeypatch)
    want = suite_assoc(**kwargs)
    (total,) = spent
    with pytest.MonkeyPatch.context() as mp:
        assert _predicted_work(mp, "assoc", **kwargs) < total - 1
    monkeypatch.setattr(suites, "GRID_WORK_LIMIT", total)
    assert suite_assoc(**kwargs) == want
    monkeypatch.setattr(suites, "GRID_WORK_LIMIT", total - 1)
    message = "^verify assoc: the checks exceed the work limit %d$" % (total - 1)
    with pytest.raises(ResourceLimitError, match=message):
        suite_assoc(**kwargs)
    # each suite call has its own budget
    monkeypatch.setattr(suites, "GRID_WORK_LIMIT", total)
    assert suite_assoc(**kwargs) == want
    assert suite_assoc(**kwargs) == want


def test_a_budget_of_zero_refuses_before_the_first_side_is_staged(monkeypatch):
    mu, nu, w, d = (0, 1), (1,), (0, 2), 3
    assert partition_algebra.check_associativity(mu, nu, w, d).passed
    staged, fetched = [], []
    pack, basis = partition_algebra.pack_rows, partition_algebra._basis_product
    monkeypatch.setattr(partition_algebra, "pack_rows", lambda *a: staged.append(a) or pack(*a))
    monkeypatch.setattr(partition_algebra, "_basis_product", lambda *a: fetched.append(a) or basis(*a))
    monkeypatch.setattr(suites, "GRID_WORK_LIMIT", 0)
    budget = suites._WorkBudget("assoc")
    message = "^verify assoc: the checks exceed the work limit 0$"
    with pytest.raises(ResourceLimitError, match=message):
        partition_algebra.check_associativity(mu, nu, w, d, budget)
    # the outer product was fetched, and no product of a side
    assert fetched == [(mu, nu, d)] and staged == []


@pytest.mark.parametrize("count", [10**6, 10**30])
def test_a_huge_random_count_is_refused_before_any_work(refuse_checks, count):
    refuse_checks("the grid started")
    limit = suites.GRID_WORK_LIMIT
    message = "^verify assoc: the grid is predicted to exceed the work limit %d$" % limit
    with pytest.raises(ResourceLimitError, match=message):
        suite_assoc(random_triples=count)


def test_each_product_shape_is_checked_once(monkeypatch):
    # the cap replay runs once per shape and cap, not on every cache hit
    calls = []
    real = partition_algebra.structure_table
    monkeypatch.setattr(
        partition_algebra, "structure_table", lambda *a: calls.append(a) or real(*a)
    )
    partition_algebra._check_shape.cache_clear()
    for suite in ("assoc", "iso", "quasi", "graphs", "grading"):
        SUITES[suite](**SMALL_GRIDS[suite])
        SUITES[suite](**SMALL_GRIDS[suite])
    capped = [a for a in calls if a[3] != sys.maxsize]
    assert capped and len(capped) == len(set(capped))
    # a failing check is not remembered: it fails on every request
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            partition_algebra.product((0, 1), (1, 2), 3, term_cap=1)


@pytest.mark.parametrize("name", ["iso", "grading", "lemma31", "quasi"])
def test_a_loop_count_below_one_is_still_a_parse_error(monkeypatch, name):
    # even on a grid far past the limit, as before the budget
    monkeypatch.setattr(suites, "GRID_WORK_LIMIT", 0)
    with pytest.raises(ValueError, match="loop count"):
        SUITES[name](d_values=(0,))


@pytest.mark.parametrize("max_len,max_part", [(0, 0), (3, 0), (2, 3), (4, 2)])
def test_the_partition_walk_is_the_grid_in_length_lex_order(max_len, max_part):
    # the weakly increasing tuples of each length, in lex order, shortest first
    want = [
        p
        for n in range(max_len + 1)
        for p in combinations_with_replacement(range(max_part + 1), n)
    ]
    assert list(iter_partitions(max_len, max_part)) == want
    assert partitions_up_to(max_len, max_part) == want
    for p in want:
        assert distinct_permutation_count(p) == len(distinct_permutations(p))


def test_the_partition_walk_builds_nothing_before_it_is_walked():
    walk = iter_partitions(10**18, 10**18)
    assert [next(walk) for _ in range(4)] == [(), (0,), (1,), (2,)]
    # a long run of equal parts is counted without its factorial
    assert distinct_permutation_count((0,) * 10**6) == 1
    assert distinct_permutation_count((0,) * 10**6 + (1,)) == 10**6 + 1


@pytest.mark.parametrize(
    "m,n,d", [(1, 1, 2), (1, 2, 3), (2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2), (1, 3, 4), (2, 2, 1)]
)
def test_kernel_terms_bound_the_table(m, n, d):
    assert len(structure_table(m, n, d)) <= suites._kernel_terms(m, n, d)


# -- a corrupted basis product fails every oracle ---------------------------------

# (mu, nu, d) of the one product corrupted below; every small grid reaches it
BROKEN = ((0,), (1,), 2)
SMALL_GRIDS = {
    "assoc": dict(d_values=(2,), max_len=1, max_part=1, random_triples=0),
    "iso": dict(d_values=(2,), max_len=1, max_part=1),
    "quasi": dict(d_values=(2,), max_len=1, max_part=1),
    "graphs": dict(max_len=1, max_part=1, boundary_pairs=False),
    "grading": dict(d_values=(2,), max_len=1, max_part=1),
}


def _corrupt(monkeypatch, how, broken=BROKEN):
    """Make the cached basis product of ``broken`` come back corrupted.

    ``flip`` negates the coefficient of its first row, ``drop`` drops that
    row, and its key with it when the key has no other row, and ``shift``
    adds 1 to the first key's first part, so that the key has the wrong
    weight.
    """
    real = partition_algebra._basis_product

    def corrupted(mu, nu, d):
        keys, counts, powers, coeffs = real(mu, nu, d)
        if (mu, nu, d) != broken:
            return keys, counts, powers, coeffs
        if how == "flip":
            coeffs = coeffs.copy()
            coeffs[0] = -coeffs[0]
        elif how == "drop":
            counts = counts.copy()
            counts[0] -= 1
            keys, counts, powers, coeffs = keys[counts > 0], counts[counts > 0], powers[1:], coeffs[1:]
        else:
            keys = keys.copy()
            keys[0, 0] += 1
        return keys, counts, powers, coeffs

    monkeypatch.setattr(partition_algebra, "_basis_product", corrupted)


@pytest.mark.parametrize("how", ["flip", "drop"])
def test_a_corrupted_product_fails_the_library_oracles(monkeypatch, how):
    _corrupt(monkeypatch, how)
    rep = verify_graph_model((0,), (1,))
    assert not rep.passed
    (failure,) = rep.failures
    assert failure.startswith("graph model disagrees for mu=(0,) nu=(1,): {(0, 2): ")
    rep = verify_homomorphism((0,), (1,), 2)
    assert not rep.passed
    (failure,) = rep.failures
    assert failure.startswith("homomorphism fails for mu=(0,) nu=(1,) d=2: ")
    # the other products are left as they were
    assert verify_graph_model((1,), (0,)).passed
    assert verify_homomorphism((0,), (1,), 3).passed


@pytest.mark.parametrize(
    "name,how,failure",
    [
        ("graphs", "flip", "graph model disagrees for mu=(0,) nu=(1,): "),
        ("graphs", "drop", "graph model disagrees for mu=(0,) nu=(1,): "),
        ("iso", "flip", "homomorphism fails for mu=(0,) nu=(1,) d=2: "),
        ("iso", "drop", "homomorphism fails for mu=(0,) nu=(1,) d=2: "),
        ("quasi", "flip", "signed relation fails for (0,) (1,) d=2"),
        ("quasi", "drop", "signed relation fails for (1,) (0,) d=2"),
        ("assoc", "flip", "q=0 of (0,) * (1,) (d=2) is {(0, 2): -1}, want {(0, 2): 1}"),
        ("assoc", "drop", "q=0 of (0,) * (1,) (d=2) is {}, want {(0, 2): 1}"),
        # the grading reads keys only, so only a wrong key can fail it
        ("grading", "shift", "term (1, 2) of (0,) * (1,) (d=2) has weight 3, want 2"),
    ],
)
def test_a_corrupted_product_fails_the_suite(monkeypatch, name, how, failure):
    _corrupt(monkeypatch, how)
    rep = SUITES[name](**SMALL_GRIDS[name])
    assert not rep.passed
    assert any(f.startswith(failure) for f in rep.failures), rep.failures


@pytest.mark.parametrize(
    "mu,nu",
    [((0, 1, 2), (1, 1, 3)), ((1, 1), (0, 2, 3)), ((0,), (2,)), ((0,) * 12, (3,))],
)
def test_a_corrupted_pair_in_a_staged_run_is_reported_alone(monkeypatch, mu, nu):
    # the pair sits inside a run of pairs of its shape whose orientation sums
    # are staged together; only that pair fails, under its own name
    _corrupt(monkeypatch, "flip", (mu, nu, 2))
    rep = suite_graphs()
    assert rep.checked == 1229 and not rep.passed
    (failure,) = rep.failures
    assert failure.startswith("graph model disagrees for mu=%r nu=%r: " % (mu, nu))


def test_a_failing_suite_says_so_on_the_command_line(monkeypatch, capsys):
    _corrupt(monkeypatch, "flip")
    code = cli.main(["verify", "graphs", "--max-len", "1", "--max-part", "1", "--format", "text"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[:2] == ["suite: graphs", "passed: no"]
    assert any(line.startswith("failure: graph model disagrees for mu=(0,) nu=(1,)") for line in out)


def test_the_shuffle_oracle_still_certifies_symmetry(monkeypatch):
    # x_2 alone is not symmetric, and the one split of (2, 0) variables keeps it
    asymmetric = MPoly(2, {(0, 1): ONE})
    with pytest.raises(NotSymmetricError):
        _shuffle_rows(asymmetric, MPoly(0, {(): ONE}), 2, None, DEFAULT_MAX_SUBSETS, DEFAULT_TERM_CAP)
    monkeypatch.setattr(shuffle_algebra, "augmented_monomial", lambda lam: asymmetric)
    with pytest.raises(NotSymmetricError):
        verify_homomorphism((0, 1), (), 2)


# -- no suite folds a product into QLaurent on its passing path ---------------------

GUARD_GRIDS = dict(
    SMALL_GRIDS,
    assoc=dict(d_values=(1, 2), max_len=1, max_part=1, random_triples=2, random_max_len=2, random_max_part=2),
    graphs=dict(max_len=1, max_part=1),
    lemma31=dict(block_range=(1,), d_values=(2,)),
    prop41=dict(max_len=2, max_part=1),
    prop43=dict(max_len=2, max_part=1),
)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_no_suite_folds_a_product(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError("a suite folded a product into QLaurent values")

    for attr in ("product", "_to_element"):
        original = getattr(partition_algebra, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qcoha" or mod_name.startswith("qcoha."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, forbidden)
    rep = SUITES[name](**GUARD_GRIDS[name])
    assert rep.passed, rep.failures


# -- failure wordings that only a wrong rule or identity reaches ---------------------


def test_a_wrong_unsigned_flag_fails_both_quasi_branches(monkeypatch):
    # the unsigned form flipped: it then holds at odd exponents and fails at even ones
    real = suites.quasi_commutativity_report

    def flipped(mu, nu, d):
        rep = real(mu, nu, d)
        rep.unsigned_matches = not rep.unsigned_matches
        return rep

    monkeypatch.setattr(suites, "quasi_commutativity_report", flipped)
    rep = suite_quasi(d_values=(2,), max_len=1, max_part=0)
    assert not rep.passed
    assert rep.failures == [
        "unsigned form fails at even exponent for () () d=2",
        "unsigned form fails at even exponent for () (0,) d=2",
        "unsigned form fails at even exponent for (0,) () d=2",
        "unsigned form unexpectedly holds for (0,) (0,) d=2",
    ]
    assert rep.instances == [
        "unsigned differs: mu=() nu=() d=2 exponent=0",
        "unsigned differs: mu=() nu=(0,) d=2 exponent=0",
        "unsigned differs: mu=(0,) nu=() d=2 exponent=0",
    ]


def test_a_wrong_factorization_fails_the_kernel_identity_suite(monkeypatch):
    # the right side of K_lm * K_{l+m,n} == K_{l,m+n} * K_mn doubled
    real = kernel_mod._factorization_sides

    def doubled(kernel, l, m, n):
        left, right = real(kernel, l, m, n)
        return left, right.scale(2 * ONE)

    monkeypatch.setattr(kernel_mod, "_factorization_sides", doubled)
    rep = suite_kernel_identity(block_range=(1,), d_values=(2,))
    assert not rep.passed and rep.checked == 1
    first, mismatch, last = rep.failures
    assert first == "identity fails at l=1 m=1 n=1 d=2"
    assert mismatch == "convolution mismatch at (a,b,c)=((0,), (1,), (2,)): %r vs %r" % (ONE, 2 * ONE)
    assert last == "kernel factorization identity fails as polynomials"


def test_random_triples_past_the_cost_limit_are_refused_after_their_attempts(monkeypatch):
    monkeypatch.setattr(suites, "triple_cost", lambda *args: suites.DEFAULT_COST_LIMIT + 1)
    message = "^could not find 2 random triples under cost limit %d$" % suites.DEFAULT_COST_LIMIT
    with pytest.raises(ResourceLimitError, match=message):
        suite_assoc(d_values=(2,), max_len=0, max_part=0, random_triples=2)
