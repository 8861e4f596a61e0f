"""Exact dimension computations, certificates, and witnesses."""

from __future__ import annotations

import math
import random

import pytest

from learndim import (
    BudgetExceededError,
    ConstantLearner,
    FiniteClass,
    LittlestoneTree,
    RandomConsistentAdversary,
    SOALearner,
    TeachingSet,
    WitnessUnresolvedError,
    consistent_toy,
    escape_witness,
    goedel_class,
    growth_schedule,
    halting_class,
    inconsistent_toy,
    is_shattered,
    littlestone_dim,
    materialize,
    play_online_game,
    saturating_index_count,
    saturation_scan,
    step_class,
    teaching_dim,
    teaching_set,
    tree_witness,
    vc_dim,
)
from learndim import dimensions

from conftest import hypercube_class, random_finite_class
from oracles import (
    naive_littlestone_dim,
    naive_min_teaching_size,
    naive_pruned_littlestone_states,
    naive_teaching_dim,
    naive_teaching_search,
    naive_threshold_littlestone_states,
    naive_vc_dim,
    naive_verify_constructive,
)

SINGLETON = FiniteClass.from_rows(range(3), [(0, 1, 0)])


def with_budget(limit: int, search, *args):
    """`search(*args)` with dimensions.DEFAULT_SEARCH_BUDGET patched to
    `limit`; safe inside Hypothesis tests, unlike the monkeypatch fixture."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimensions, "DEFAULT_SEARCH_BUDGET", limit)
        return search(*args)


def test_is_shattered_empty_set():
    assert is_shattered(SINGLETON, ())


def test_is_shattered_singleton_class():
    assert not is_shattered(SINGLETON, (0,))
    assert not is_shattered(SINGLETON, (1,))


def test_is_shattered_outside_domain():
    with pytest.raises(ValueError):
        is_shattered(SINGLETON, (9,))


def test_is_shattered_halting_window(halters):
    fc = materialize(halting_class(halters[3]), 5, 64)
    assert is_shattered(fc, (0, 1, 2))
    assert not is_shattered(fc, (0, 1, 2, 3))


def test_vc_dim_singleton():
    report = vc_dim(SINGLETON)
    assert report.value == 0
    assert report.certificate == ()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_vc_dim_halting_windows(halters, k):
    n = k + 2
    fc = materialize(halting_class(halters[k]), n, saturating_index_count(n))
    report = vc_dim(fc)
    assert report.value == k
    assert report.certificate == tuple(range(k))
    assert is_shattered(fc, report.certificate)


def test_vc_dim_step_window():
    fc = materialize(step_class(), 7, 20)
    report = vc_dim(fc)
    # Thresholds realize (0,1) and constants but never the pattern (1,0)
    # on an ordered pair, so one point is the most that shatters.
    assert report.value == 1


def test_littlestone_singleton():
    report = littlestone_dim(SINGLETON)
    assert report.value == 0
    assert report.certificate.depth == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_littlestone_halting_windows(halters, k):
    n = k + 2
    fc = materialize(halting_class(halters[k]), n, saturating_index_count(n))
    report = littlestone_dim(fc)
    assert report.value == k
    assert report.certificate.depth == k
    assert report.certificate.verify_against(fc)


def test_littlestone_step_three_concepts():
    # Thresholds 0 and 1 plus the zero tail on domain {0, 1}: dimension 1,
    # checked by hand through the recursion's case analysis.
    fc = materialize(step_class(), 1, 3)
    assert sorted(fc.concepts) == [(0, 0), (0, 1), (1, 1)]
    assert littlestone_dim(fc).value == 1


def test_teaching_set_singleton_empty():
    # One concept checks nothing, so even a zero budget answers.
    ts = with_budget(0, teaching_set, SINGLETON, (0, 1, 0))
    assert ts.examples == ()
    assert ts.verify(SINGLETON)
    assert with_budget(0, teaching_dim, SINGLETON).value == 0


def test_teaching_set_concept_must_belong():
    with pytest.raises(ValueError):
        teaching_set(SINGLETON, (1, 1, 1))
    with pytest.raises(ValueError, match="concept not in class"):
        TeachingSet(target=(1, 1, 1), examples=()).verify(SINGLETON)
    assert not TeachingSet(target=(0, 1, 0), examples=((0, 1),)).verify(SINGLETON)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_step_threshold_teaching_pair(k):
    fc = materialize(step_class(), 8, 11)
    target = tuple(1 if n >= k else 0 for n in range(9))
    ts = teaching_set(fc, target)
    assert ts.examples == ((k - 1, 0), (k, 1))
    assert ts.verify(fc)


def test_hypercube_concepts_need_every_point(halters):
    fc = materialize(halting_class(halters[3]), 5, 64)
    for concept in fc.concepts:
        ts = teaching_set(fc, concept)
        assert sorted(x for x, _ in ts.examples) == [0, 1, 2]
        assert naive_min_teaching_size(fc, concept) == 3


def test_teaching_dim_singleton():
    assert teaching_dim(SINGLETON).value == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_teaching_dim_halting_windows(halters, k):
    n = k + 2
    fc = materialize(halting_class(halters[k]), n, saturating_index_count(n))
    report = teaching_dim(fc)
    assert report.value == k
    assert all(ts.verify(fc) for ts in report.certificate)


def test_teaching_dim_grows_for_inconsistent_goedel():
    ic = goedel_class(inconsistent_toy())
    values = [
        teaching_dim(materialize(ic, n, m)).value
        for n, m in growth_schedule(ic)
    ]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_escape_witness_values():
    assert escape_witness([(0, 0)]) == 1
    sample = [(2, 0), (7, 0), (4, 0)]
    threshold = escape_witness(sample)
    assert threshold == 8
    # The threshold concept is a step_class member (index threshold + 1),
    # consistent with the sample and distinct from zero at the threshold.
    fc = materialize(step_class(), threshold, threshold + 2)
    row = fc.row(threshold + 1)
    assert all(row[x] == y for x, y in sample)
    assert row[threshold] == 1


def test_escape_witness_rejects_one_labels():
    with pytest.raises(ValueError):
        escape_witness([(2, 0), (3, 1)])
    with pytest.raises(ValueError):
        escape_witness([])


def test_tree_witness_loop_layers(loopers):
    ic = halting_class(loopers[0])
    tree = tree_witness(ic, 4, "layer")
    assert tree.depth == 4
    assert {tree.labels[p] for p in tree.labels if len(p) == 2} == {2}
    assert naive_verify_constructive(tree, ic)


def test_tree_witness_goedel_active_labels():
    ic = goedel_class(inconsistent_toy())
    tree = tree_witness(ic, 3, "active")
    layers = [tree.labels[()], tree.labels[(0,)], tree.labels[(0, 0)]]
    assert layers == [1, 2, 17]
    assert naive_verify_constructive(tree, ic)


def test_tree_witness_depth_beyond_halting_fails(halters):
    ic = halting_class(halters[3])
    with pytest.raises(WitnessUnresolvedError):
        tree_witness(ic, 4, "layer")


def test_tree_witness_insufficient_actives(monkeypatch):
    ic = goedel_class(consistent_toy())
    monkeypatch.setattr(dimensions, "ACTIVE_SCAN_LIMIT", 5000)
    with pytest.raises(WitnessUnresolvedError):
        tree_witness(ic, 2, "active")


def test_saturation_scan_halting_stabilizes(halters):
    report = saturation_scan(
        halting_class(halters[3]), "vc", [(0, 2), (1, 4), (2, 8), (3, 16), (4, 32)]
    )
    assert report.values == (1, 2, 3, 3, 3)
    assert report.stabilized and not report.incomplete


def test_saturation_scan_loop_never_stabilizes(loopers):
    report = saturation_scan(
        halting_class(loopers[0]), "vc", [(2, 8), (3, 16), (4, 32), (5, 64)]
    )
    assert report.values == (3, 4, 5, 6)
    assert not report.stabilized


def test_saturation_scan_consistent_constant_zero():
    report = saturation_scan(
        goedel_class(consistent_toy()), "vc", [(3, 16), (4, 32), (5, 64)]
    )
    assert report.values == (0, 0, 0)
    assert report.stabilized


def test_saturation_scan_flags_incomplete(loopers, monkeypatch):
    monkeypatch.setenv("LEARNDIM_EVAL_BUDGET", "10000")
    report = saturation_scan(halting_class(loopers[0]), "vc", [(2, 8), (3, 16), (20, 2**21)])
    assert report.incomplete
    assert report.values == (3, 4)


def test_saturation_scan_rejects_bad_schedules(loopers):
    with pytest.raises(ValueError):
        saturation_scan(halting_class(loopers[0]), "vc", [(3, 16), (2, 8)])
    with pytest.raises(ValueError):
        saturation_scan(halting_class(loopers[0]), "nope", [(2, 8)])


def test_budget_guards_raise():
    steps = materialize(step_class(), 7, 20)
    with pytest.raises(BudgetExceededError):
        with_budget(3, vc_dim, steps)
    cube = hypercube_class(4)
    # The VC sandwich settles a full cube at its root: one state.
    assert with_budget(1, littlestone_dim, cube).value == 4
    with pytest.raises(BudgetExceededError):
        with_budget(0, littlestone_dim, cube)
    # The step window's thresholds shatter no pair, so the sandwich settles
    # only its small states.  Its threshold queries visit 8 states; the
    # exact-value recursion they replaced visited 24 (27 with the halving
    # bound alone).
    assert naive_threshold_littlestone_states(steps) == 8
    assert naive_pruned_littlestone_states(steps) == 24
    assert with_budget(8, littlestone_dim, steps).value == 3
    with pytest.raises(BudgetExceededError):
        with_budget(7, littlestone_dim, steps)
    with pytest.raises(BudgetExceededError):
        with_budget(2, teaching_set, cube, cube.concepts[0])


def test_one_search_budget_reaches_every_search(monkeypatch):
    # Every search reads dimensions.DEFAULT_SEARCH_BUDGET, so patching that
    # one constant reaches each of them, SOA's memo and the game's round
    # bound among them.
    cube = hypercube_class(4)
    monkeypatch.setattr(dimensions, "DEFAULT_SEARCH_BUDGET", 0)
    adversary = RandomConsistentAdversary(cube)
    searches = [
        ("vc_dim exceeded 0 subset checks at size 4", lambda: vc_dim(cube)),
        ("littlestone_dim exceeded 0 memo words", lambda: littlestone_dim(cube)),
        ("teaching_set exceeded 0 subset checks at size 0", lambda: teaching_set(cube, cube.concepts[0])),
        ("teaching_set exceeded 0 subset checks at size 0", lambda: teaching_dim(cube)),
        ("littlestone_dim exceeded 0 memo words", lambda: SOALearner(cube).predict(0)),
        ("depth-0 tree has over 0 paths", lambda: tree_witness(step_class(), 0)),
        ("1 rounds exceed the game budget of 0", lambda: play_online_game(cube, ConstantLearner(0), adversary, 1)),
    ]
    for message, search in searches:
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            search()


def test_teaching_budget_charges_the_plain_search_on_a_cube():
    # All four points are forced for the 4-cube's zero concept, so they are
    # the first set tried; the charge is still the plain search's 1 + 4 + 6
    # + 4 subsets below size 4 plus the first of size 4.
    cube = hypercube_class(4)
    assert naive_teaching_search(cube, cube.concepts[0], 16)[1] == 16
    assert len(with_budget(16, teaching_set, cube, cube.concepts[0]).examples) == 4
    with pytest.raises(BudgetExceededError, match="exceeded 15 subset checks at size 4"):
        with_budget(15, teaching_set, cube, cube.concepts[0])


def test_empty_class_rejected():
    empty = FiniteClass.from_rows((0,), [])
    for measure in (vc_dim, littlestone_dim, teaching_dim):
        with pytest.raises(ValueError):
            measure(empty)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hypercube_identities(k):
    fc = hypercube_class(k)
    assert vc_dim(fc).value == k
    assert littlestone_dim(fc).value == k
    assert teaching_dim(fc).value == k


def test_oracle_agreement_and_inequality_chain_random_classes():
    rng = random.Random(20240811)
    for _ in range(120):
        fc = random_finite_class(rng)
        vc = vc_dim(fc).value
        ld = littlestone_dim(fc).value
        td = teaching_dim(fc).value
        assert vc == naive_vc_dim(fc)
        assert ld == naive_littlestone_dim(fc)
        assert td == naive_teaching_dim(fc)
        # VCdim <= Ldim <= log2 |class|, kept integer-exact via 2**ld.
        assert vc <= ld
        assert 2**ld <= len(fc.concepts)
        assert ld <= math.ceil(math.log2(len(fc.concepts))) if len(fc.concepts) > 1 else ld == 0


def test_certificates_reverify_on_random_classes():
    rng = random.Random(99)
    for _ in range(40):
        fc = random_finite_class(rng)
        shattered = vc_dim(fc).certificate
        assert is_shattered(fc, shattered)
        tree = littlestone_dim(fc).certificate
        assert tree.verify_against(fc)
        for ts in teaching_dim(fc).certificate:
            assert ts.verify(fc)


def test_window_monotonicity(halters, loopers):
    for tm in (halters[2], loopers[0]):
        ic = halting_class(tm)
        previous = {"vc": -1, "littlestone": -1, "teaching": -1}
        for n, m in [(1, 4), (2, 8), (3, 16), (4, 32)]:
            fc = materialize(ic, n, m)
            values = {
                "vc": vc_dim(fc).value,
                "littlestone": littlestone_dim(fc).value,
                "teaching": teaching_dim(fc).value,
            }
            for key in values:
                assert values[key] >= previous[key]
            previous = values


def test_tree_size_bounded_before_allocation(loopers):
    with pytest.raises(BudgetExceededError):
        LittlestoneTree.uniform(range(200))
    with pytest.raises(BudgetExceededError):
        tree_witness(halting_class(loopers[0]), 10**9, "layer")


def test_tree_witness_depth_zero_active(loopers):
    tree = tree_witness(halting_class(loopers[0]), 0, "active")
    assert tree.depth == 0 and tree.labels == {}


def test_tree_refuses_an_incomplete_node_tuple():
    # Two nodes make no complete tree: a short tuple would pass
    # verify_against and cut a tree adversary short.
    with pytest.raises(ValueError, match="2\\*\\*d - 1 nodes, not 2"):
        LittlestoneTree((1, 2))
    assert LittlestoneTree((1, 2, 3)).depth == 2
