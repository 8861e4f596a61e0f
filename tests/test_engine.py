"""Differential tests: the concept-id bitmask engine behind the Littlestone
and teaching measures, SOA, the online harness and the PAC experiment's ERM
fits, and the packed-row VC search, against the naive row-based oracles on
small random classes whose domains come in shuffled order; plus cost guards
on large full-cube windows."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from learndim import (
    BudgetExceededError,
    ConstantLearner,
    FiniteClass,
    MajorityFlipAdversary,
    RandomConsistentAdversary,
    RandomLearner,
    SOALearner,
    goedel_class,
    goedel_prefix_class,
    halting_class,
    inconsistent_toy,
    inconsistent_toy_at,
    is_shattered,
    littlestone_dim,
    load_tm,
    materialize,
    pac_experiment,
    play_online_game,
    sample_size_bound,
    step_class,
    soa_predict,
    teaching_dim,
    tree_adversary,
    vc_dim,
)

from oracles import (
    all_patterns_present,
    naive_littlestone_dim,
    naive_littlestone_states,
    naive_min_teaching_size,
    naive_pac_experiment,
    naive_soa_predict,
    naive_teaching_dim,
    naive_vc_dim,
)


@st.composite
def finite_classes(draw, max_points: int = 7, max_concepts: int = 40) -> FiniteClass:
    """Distinct rows on a shuffled domain of at most max_points points."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    codes = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**n - 1),
            min_size=1,
            max_size=min(max_concepts, 2**n),
            unique=True,
        )
    )
    scale = draw(st.sampled_from([1, 3]))
    domain = draw(st.permutations([scale * i for i in range(n)]))
    rows = [tuple((code >> i) & 1 for i in range(n)) for code in codes]
    return FiniteClass.from_rows(domain, rows)


def _consistent_rows(fc: FiniteClass, history) -> list[tuple[int, ...]]:
    return [
        row for row in fc.concepts
        if all(row[fc.domain.index(x)] == y for x, y in history)
    ]


@settings(max_examples=100, deadline=None)
@given(finite_classes())
def test_measures_match_oracles_with_verified_certificates(fc):
    vc = vc_dim(fc)
    assert vc.value == naive_vc_dim(fc)
    assert len(vc.certificate) == vc.value
    assert all_patterns_present(fc, vc.certificate)

    ld = littlestone_dim(fc)
    assert ld.value == naive_littlestone_dim(fc)
    assert ld.certificate.depth == ld.value
    assert ld.certificate.verify_against(fc)

    td = teaching_dim(fc)
    assert td.value == naive_teaching_dim(fc)
    assert [ts.target for ts in td.certificate] == list(fc.concepts)
    for ts in td.certificate:
        assert ts.verify(fc)
        assert len(ts.examples) == naive_min_teaching_size(fc, ts.target)


@settings(max_examples=100, deadline=None)
@given(finite_classes())
def test_littlestone_budget_counts_each_state_once(fc):
    states = naive_littlestone_states(fc)
    assert littlestone_dim(fc, budget=states).value == naive_littlestone_dim(fc)
    with pytest.raises(BudgetExceededError):
        littlestone_dim(fc, budget=states - 1)


@settings(max_examples=100, deadline=None)
@given(finite_classes(), st.data())
def test_is_shattered_matches_pattern_count(fc, data):
    subset = data.draw(st.lists(st.sampled_from(fc.domain), max_size=len(fc.domain)))
    assert is_shattered(fc, subset) == all_patterns_present(fc, tuple(subset))


def test_vc_dim_memory_is_linear_on_a_full_cube_window():
    # A looper keeps every point active: the window is the full 13-cube, and
    # the only candidate set is the whole domain.  Splitting id masks level
    # by level held about 10 MB here; counting row patterns holds about 2.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 12, 2**13)
    tracemalloc.start()
    try:
        report = vc_dim(fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == 13
    assert peak < 32 * len(fc.concepts) * len(fc.domain)


def test_masks_build_in_linear_time():
    # 2**17 concepts: about 0.2 s built from binary strings; summing shifted
    # bits, quadratic in the number of concepts, took over 5 s.
    fc = FiniteClass.from_rows(range(17), itertools.product((0, 1), repeat=17))
    start = time.perf_counter()
    masks = fc.masks
    assert time.perf_counter() - start < 2.0
    assert masks[0] == fc.all_ids ^ ((1 << 2**16) - 1)
    assert masks[16] == int("10" * 2**16, 2)


@settings(max_examples=100, deadline=None)
@given(finite_classes(), st.data())
def test_soa_matches_naive_rule_along_a_realizable_history(fc, data):
    for x in fc.domain:
        assert soa_predict(fc, x) == naive_soa_predict(fc, x)
    target = data.draw(st.sampled_from(fc.concepts))
    queries = data.draw(st.lists(st.sampled_from(fc.domain), max_size=2 * len(fc.domain)))
    learner = SOALearner(fc)
    history: list[tuple[int, int]] = []
    for x in queries:
        version_space = FiniteClass.from_rows(fc.domain, _consistent_rows(fc, history))
        expected = naive_soa_predict(version_space, x)
        assert learner.predict(x) == expected
        assert soa_predict(version_space, x) == expected
        y = target[fc.domain.index(x)]
        learner.observe(x, y)
        history.append((x, y))


@settings(max_examples=100, deadline=None)
@given(
    finite_classes(),
    st.sampled_from(["soa", "const0", "random"]),
    st.sampled_from(["tree", "random", "flip"]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=16),
)
def test_game_witness_is_first_row_consistent_with_history(fc, learner, adversary, seed, rounds):
    player = {
        "soa": lambda: SOALearner(fc),
        "const0": lambda: ConstantLearner(0),
        "random": lambda: RandomLearner(seed),
    }[learner]()
    opponent = {
        "tree": lambda: tree_adversary(fc, littlestone_dim(fc).certificate),
        "random": lambda: RandomConsistentAdversary(fc, seed),
        "flip": lambda: MajorityFlipAdversary(fc),
    }[adversary]()
    transcript = play_online_game(fc, player, opponent, rounds)
    assert len(transcript.witnesses) == rounds
    history: list[tuple[int, int]] = []
    for (x, _, y), witness in zip(transcript.rounds, transcript.witnesses):
        history.append((x, y))
        assert witness == _consistent_rows(fc, history)[0]


@settings(max_examples=100, deadline=None)
@given(finite_classes(), st.integers(min_value=0, max_value=16))
def test_adversaries_follow_their_rules_on_rows(fc, rounds):
    # Past the tree, the tree adversary answers by the first concept
    # consistent with the tree's part of the history.
    tree = littlestone_dim(fc).certificate
    transcript = play_online_game(fc, ConstantLearner(0), tree_adversary(fc, tree), rounds)
    forced = [(x, y) for x, _, y in transcript.rounds[: tree.depth]]
    committed = _consistent_rows(fc, forced)[0]
    for x, _, y in transcript.rounds[tree.depth:]:
        assert y == committed[fc.domain.index(x)]

    # The flip adversary asks the first most contested point and reveals the
    # label fewer consistent concepts carry (ties 0), never an empty one.
    transcript = play_online_game(fc, ConstantLearner(0), MajorityFlipAdversary(fc), rounds)
    history: list[tuple[int, int]] = []
    for x, _, y in transcript.rounds:
        rows = _consistent_rows(fc, history)
        ones = [sum(row[col] for row in rows) for col in range(len(fc.domain))]
        minority = [min(len(rows) - n, n) for n in ones]
        assert x == fc.domain[minority.index(max(minority))]
        n1 = ones[fc.domain.index(x)]
        n0 = len(rows) - n1
        assert y == (0 if n1 == 0 else 1 if n0 == 0 else int(n0 > n1))
        history.append((x, y))


@settings(max_examples=100, deadline=None)
@given(
    finite_classes(),
    st.data(),
    st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.5]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)
def test_pac_experiment_matches_row_erm(fc, data, epsilon, trials, seed):
    target = data.draw(st.sampled_from(fc.concepts))
    support = data.draw(st.lists(st.sampled_from(fc.domain), min_size=1, unique=True))
    weights = data.draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=len(support), max_size=len(support))
    )
    if not any(weights):
        weights[0] = 1  # zero-weight points stay in the support, never drawn
    dist = dict(zip(support, weights))
    sizes = data.draw(
        st.none() | st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=3)
    )
    report = pac_experiment(fc, target, dist, epsilon, 0.1, trials, sample_sizes=sizes, seed=seed)
    if sizes is None:
        sizes = [sample_size_bound(naive_vc_dim(fc), epsilon, 0.1)]
    assert report.sample_sizes == tuple(sizes)
    assert list(report.success_frequencies) == naive_pac_experiment(
        fc, target, dist, epsilon, trials, sizes, seed
    )


def test_witnesses_strictly_increase():
    # The lowest id of a set of concepts has its smallest witness: ERM in
    # pac_experiment and the online witnesses rely on this order.
    def increasing(fc):
        return all(a < b for a, b in zip(fc.witnesses, fc.witnesses[1:]))

    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 40))]
        fc = FiniteClass.from_rows(rng.sample(range(3 * n), n), rows)
        assert increasing(fc) and fc.witnesses[0] == 0

    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    halter = load_tm(Path(__file__).resolve().parents[1] / "machines" / "halt3.tm")
    for ic in (
        halting_class(looper),
        halting_class(halter),
        goedel_class(inconsistent_toy()),
        goedel_prefix_class(inconsistent_toy_at(3)),
        step_class(),
    ):
        for window in ((5, 64), (5, 40), (6, 100), (4, 16)):  # masked and generic paths
            fc = materialize(ic, *window)
            assert increasing(fc), (ic.label, window)
