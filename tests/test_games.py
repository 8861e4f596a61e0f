"""Online game protocol, learners, adversaries, and the PAC experiment."""

from __future__ import annotations

import random

import pytest

from learndim import (
    BudgetExceededError,
    ConstantLearner,
    FiniteClass,
    MajorityFlipAdversary,
    ProtocolViolationError,
    RandomConsistentAdversary,
    RandomLearner,
    SOALearner,
    halting_class,
    littlestone_dim,
    materialize,
    pac_experiment,
    play_online_game,
    sample_size_bound,
    tree_adversary,
)

from conftest import hypercube_class, random_finite_class
from oracles import naive_erm

SINGLETON = FiniteClass.from_rows(range(3), [(0, 1, 0)])


def _adversaries(fc, seed=0):
    tree = littlestone_dim(fc).certificate
    return {
        "tree": lambda: tree_adversary(fc, tree),
        "random": lambda: RandomConsistentAdversary(fc, seed),
        "flip": lambda: MajorityFlipAdversary(fc),
    }


def _learners(fc, seed=0):
    return {
        "soa": lambda: SOALearner(fc),
        "const0": lambda: ConstantLearner(0),
        "const1": lambda: ConstantLearner(1),
        "random": lambda: RandomLearner(seed),
    }


def test_soa_predict_singleton():
    assert SOALearner(SINGLETON).predict(0) == 0
    assert SOALearner(SINGLETON).predict(1) == 1


def test_soa_predict_empty_version_space():
    empty = FiniteClass.from_rows((0,), [])
    with pytest.raises(ValueError):
        SOALearner(empty).predict(0)


def test_soa_predict_hypercube_tie_breaks_to_zero():
    fc = hypercube_class(3)
    for x in fc.domain:
        assert SOALearner(fc).predict(x) == 0


def test_soa_vs_tree_on_hypercube_exact_mistakes(halters):
    fc = materialize(halting_class(halters[3]), 5, 64)
    ldim = littlestone_dim(fc).value
    transcript = play_online_game(
        fc, SOALearner(fc), _adversaries(fc)["tree"](), max_rounds=10
    )
    assert ldim == 3
    assert transcript.mistakes == 3


def test_tree_forces_const0_learner():
    fc = hypercube_class(3)
    transcript = play_online_game(
        fc, ConstantLearner(0), _adversaries(fc)["tree"](), max_rounds=8
    )
    assert transcript.mistakes >= 3


def test_random_learner_forced_by_tree():
    fc = hypercube_class(3)
    transcript = play_online_game(
        fc, RandomLearner(5), _adversaries(fc)["tree"](), max_rounds=8
    )
    assert transcript.mistakes >= 3


def test_singleton_class_soa_never_errs():
    for name, make in _adversaries(SINGLETON).items():
        transcript = play_online_game(SINGLETON, SOALearner(SINGLETON), make(), 6)
        assert transcript.mistakes == 0, name


def test_transcript_witnesses_are_realizable(halters):
    fc = materialize(halting_class(halters[2]), 4, 32)
    transcript = play_online_game(
        fc, RandomLearner(3), RandomConsistentAdversary(fc, 11), 12
    )
    for t in range(1, len(transcript.rounds) + 1):
        witness = transcript.witnesses[t - 1]
        for x, _, truth in transcript.rounds[:t]:
            assert witness[fc.column(x)] == truth


def test_game_witnesses_build_no_class_rows(loopers):
    # Each witness row is built alone, once, and shared by the rounds it
    # covers; the 2**17 rows are never listed.
    fc = materialize(halting_class(loopers[0]), 16, 2**17)
    transcript = play_online_game(fc, ConstantLearner(0), RandomConsistentAdversary(fc, 0), 10)
    assert len(transcript.witnesses) == 10
    assert len(set(map(id, transcript.witnesses))) == len(set(transcript.witnesses))
    assert "concepts" not in fc.__dict__

def test_cheating_adversary_detected():
    class Liar:
        def __init__(self, fc):
            self.fc = fc
            self.t = 0

        def question(self):
            return self.fc.domain[0]

        def reveal(self, x, guess):
            self.t += 1
            return 0 if self.t == 1 else 1  # contradicts itself at the same point

    fc = SINGLETON
    with pytest.raises(ProtocolViolationError) as err:
        play_online_game(fc, ConstantLearner(0), Liar(fc), 5)
    assert err.value.round_index == 2


def test_game_rounds_bounded_before_the_first_question():
    from learndim.dimensions import DEFAULT_SEARCH_BUDGET

    class Mute:
        def question(self):
            raise AssertionError("asked a question past the round budget")

    with pytest.raises(BudgetExceededError, match="2000001 rounds"):
        play_online_game(SINGLETON, ConstantLearner(0), Mute(), DEFAULT_SEARCH_BUDGET + 1)


def test_tree_adversary_requires_realizable_tree():
    from learndim import LittlestoneTree

    fc = SINGLETON
    bogus = LittlestoneTree.uniform([0, 1])
    with pytest.raises(ValueError):
        tree_adversary(fc, bogus)


def test_soa_mistake_bound_suite():
    rng = random.Random(424242)
    for trial in range(30):
        fc = random_finite_class(rng)
        ldim = littlestone_dim(fc).value
        for name, make in _adversaries(fc, seed=trial).items():
            transcript = play_online_game(
                fc, SOALearner(fc), make(), max_rounds=ldim + len(fc.domain) + 2
            )
            assert transcript.mistakes <= ldim, (trial, name)


def test_tree_adversary_lower_bound_suite():
    rng = random.Random(31337)
    for trial in range(30):
        fc = random_finite_class(rng)
        ldim = littlestone_dim(fc).value
        for name, make in _learners(fc, seed=trial).items():
            transcript = play_online_game(
                fc, make(), _adversaries(fc, seed=trial)["tree"](), max_rounds=ldim + 3
            )
            assert transcript.mistakes >= ldim, (trial, name)


def test_erm_realizable_returns_consistent():
    fc = hypercube_class(3)
    target = fc.concepts[5]
    sample = [(x, target[i]) for i, x in enumerate(fc.domain)]
    assert naive_erm(fc, sample) == target


def test_erm_teaching_sample_identifies_target(halters):
    from learndim import teaching_set

    fc = materialize(halting_class(halters[2]), 4, 32)
    target = fc.concepts[2]
    ts = teaching_set(fc, target)
    assert ts.verify(fc)
    assert naive_erm(fc, list(ts.examples)) == target


def test_erm_contradictory_sample():
    fc = hypercube_class(2)
    sample = [(0, 0), (0, 1)]
    best = naive_erm(fc, sample)
    errors = sum(1 for x, y in sample if best[fc.column(x)] != y)
    assert errors >= 1
    # Ties resolve to the smallest witness: the all-zeros concept.
    assert best == fc.concepts[0]


def test_sample_size_bound_values():
    assert sample_size_bound(0, 0.5, 0.5) > 0
    # Frozen from the closed-form bound at (3, 0.25, 0.1).
    assert sample_size_bound(3, 0.25, 0.1) == 715
    bounds = [sample_size_bound(d, 0.25, 0.1) for d in range(5)]
    assert bounds == sorted(bounds)
    assert sample_size_bound(3, 0.1, 0.1) > sample_size_bound(3, 0.25, 0.1)
    with pytest.raises(ValueError):
        sample_size_bound(3, 0.0, 0.1)
    with pytest.raises(ValueError):
        sample_size_bound(3, 0.25, 1.0)


def test_pac_singleton_always_succeeds():
    report = pac_experiment(
        SINGLETON,
        SINGLETON.concepts[0],
        {0: 1, 1: 1, 2: 1},
        epsilon=0.25,
        delta=0.1,
        trials=20,
        sample_sizes=[1],
        seed=3,
    )
    assert report.success_frequencies == (1.0,)


def test_pac_requires_valid_inputs():
    fc = hypercube_class(2)
    with pytest.raises(ValueError):
        pac_experiment(fc, fc.concepts[0], {0: 1}, 0.0, 0.1, 5)
    with pytest.raises(ValueError):
        pac_experiment(fc, fc.concepts[0], {0: 1}, 0.25, 0.1, 0)
    with pytest.raises(ValueError):
        pac_experiment(fc, (1, 1, 1), {0: 1}, 0.25, 0.1, 5)  # target not in class
    with pytest.raises(ValueError):
        pac_experiment(fc, fc.concepts[0], {9: 1}, 0.25, 0.1, 5)  # support off-domain


@pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan")])
def test_pac_rejects_non_finite_weights(weight):
    fc = hypercube_class(2)
    with pytest.raises(ValueError, match="finite"):
        pac_experiment(fc, fc.concepts[0], {0: 1, 1: weight}, 0.25, 0.1, 5)


def test_pac_reproducible_and_monotone(halters):
    fc = materialize(halting_class(halters[3]), 5, 64)
    target = fc.concepts[-1]
    dist = {x: 1 for x in fc.domain}
    sizes = [4, 16, 64]
    first = pac_experiment(fc, target, dist, 0.25, 0.1, 200, sample_sizes=sizes, seed=9)
    second = pac_experiment(fc, target, dist, 0.25, 0.1, 200, sample_sizes=sizes, seed=9)
    assert first == second
    freqs = first.success_frequencies
    for earlier, later in zip(freqs, freqs[1:]):
        assert later >= earlier - 0.05
