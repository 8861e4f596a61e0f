"""Exact dimension computations, certificates, and witnesses."""

from __future__ import annotations

import math
import random

import pytest

from learndim import (
    BudgetExceededError,
    FiniteClass,
    LittlestoneTree,
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
    saturating_index_count,
    saturation_scan,
    step_class,
    teaching_dim,
    teaching_set,
    tree_witness,
    vc_dim,
)

from conftest import hypercube_class, random_finite_class
from oracles import naive_littlestone_dim, naive_min_teaching_size, naive_teaching_dim, naive_vc_dim

SINGLETON = FiniteClass.from_rows(range(3), [(0, 1, 0)])


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
    ts = teaching_set(SINGLETON, (0, 1, 0))
    assert ts.examples == ()
    assert ts.verify(SINGLETON)


def test_teaching_set_concept_must_belong():
    with pytest.raises(ValueError):
        teaching_set(SINGLETON, (1, 1, 1))


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
    assert escape_witness([(0, 0)]).threshold == 1
    witness = escape_witness([(2, 0), (7, 0), (4, 0)])
    assert witness.threshold == 8
    # Consistent with the sample, distinct from zero at the threshold.
    assert all(witness(x) == 0 for x in (2, 7, 4))
    assert witness(8) == 1


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
    assert tree.verify_constructive(ic)


def test_tree_witness_goedel_active_labels():
    ic = goedel_class(inconsistent_toy())
    tree = tree_witness(ic, 3, "active")
    layers = [tree.labels[()], tree.labels[(0,)], tree.labels[(0, 0)]]
    assert layers == [1, 2, 17]
    assert tree.verify_constructive(ic)


def test_tree_witness_depth_beyond_halting_fails(halters):
    ic = halting_class(halters[3])
    with pytest.raises(WitnessUnresolvedError):
        tree_witness(ic, 4, "layer")


def test_tree_witness_insufficient_actives():
    ic = goedel_class(consistent_toy())
    with pytest.raises(WitnessUnresolvedError):
        tree_witness(ic, 2, "active", scan_limit=5000)


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


def test_saturation_scan_flags_incomplete(loopers):
    report = saturation_scan(
        halting_class(loopers[0]),
        "vc",
        [(2, 8), (3, 16), (20, 2**21)],
        eval_budget=10_000,
    )
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
        vc_dim(steps, budget=3)
    cube = hypercube_class(4)
    with pytest.raises(BudgetExceededError):
        littlestone_dim(cube, budget=3)
    with pytest.raises(BudgetExceededError):
        teaching_set(cube, cube.concepts[0], budget=2)


def test_empty_class_rejected():
    empty = FiniteClass(domain=(0,), concepts=(), witnesses=())
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
