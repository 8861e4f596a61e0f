"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its checks hold (failures surface
as ordinary assertion errors with context).  Run with -s to see the lines.
"""

from __future__ import annotations

import random
import time

import pytest

from learndim import (
    ConstantLearner,
    MajorityFlipAdversary,
    RandomConsistentAdversary,
    RandomLearner,
    SOALearner,
    active_index,
    agreement_check,
    budgeted_vc_decider,
    class_code,
    consistent_toy,
    decode_machine,
    encode_tm,
    decode_tm,
    escape_witness,
    goedel_class,
    growth_schedule,
    halting_class,
    halting_from_vc,
    inconsistent_toy,
    littlestone_dim,
    materialize,
    pac_experiment,
    pair,
    parse_tm,
    play_online_game,
    run_bounded,
    sample_size_bound,
    saturating_index_count,
    seq_bit,
    serialize_tm,
    step_class,
    teaching_dim,
    teaching_set,
    tree_adversary,
    tree_witness,
    unpair,
    vc_dim,
)
from learndim import HALTS, NO_ANSWER
from learndim.dimensions import DEFAULT_SCHEDULE

from conftest import hypercube_class, random_finite_class
from oracles import (
    naive_littlestone_dim,
    naive_teaching_dim,
    naive_vc_dim,
    naive_verify_constructive,
)


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {name}")


@pytest.fixture(scope="module")
def random_classes():
    rng = random.Random(0xC0FFEE)
    return [random_finite_class(rng) for _ in range(500)]


def test_criterion_01_halting_dimension_identity(halters):
    for k in (1, 2, 3, 4):
        n = k + 2
        fc = materialize(halting_class(halters[k]), n, saturating_index_count(n))
        for measure in (vc_dim, littlestone_dim, teaching_dim):
            start = time.perf_counter()
            assert measure(fc).value == k
            assert time.perf_counter() - start < 10.0
    _ok(1, "vc = littlestone = teaching = K on saturating windows, K in 1..4")


def test_criterion_02_consistency_collapse():
    ic = goedel_class(consistent_toy())
    assert growth_schedule(ic) == DEFAULT_SCHEDULE
    for n, m in growth_schedule(ic):
        fc = materialize(ic, n, m)
        assert len(fc.concepts) == 1
        assert vc_dim(fc).value == 0
        assert littlestone_dim(fc).value == 0
        assert teaching_dim(fc).value == 0
    _ok(2, "consistent system collapses to {0}: one concept, all measures 0")


def test_criterion_03_inconsistency_growth():
    fs = inconsistent_toy()
    ic = goedel_class(fs)
    schedule = growth_schedule(ic)
    values = []
    for n, m in schedule:
        fc = materialize(ic, n, m)
        value = vc_dim(fc).value
        assert value == sum(1 for k in range(n + 1) if active_index(fs, k))
        values.append(value)
    assert all(a < b for a, b in zip(values, values[1:])), values
    # The equality also holds on the generic saturating windows, where the
    # sparse active set keeps the window value flat.
    for n, m in DEFAULT_SCHEDULE:
        fc = materialize(ic, n, m)
        assert vc_dim(fc).value == sum(1 for k in range(n + 1) if active_index(fs, k))
    _ok(3, f"window vc equals active count and grows strictly: {values}")


def test_criterion_04_teaching_identities():
    fc = materialize(step_class(), 8, 11)
    for k in (1, 2, 3):
        target = tuple(1 if n >= k else 0 for n in range(9))
        ts = teaching_set(fc, target)
        assert ts.examples == ((k - 1, 0), (k, 1))
    rng = random.Random(44)
    for _ in range(50):
        points = [rng.randrange(1000) for _ in range(rng.randint(1, 8))]
        assert escape_witness([(x, 0) for x in points]) == max(points) + 1
    _ok(4, "threshold teaching pairs {(k-1,0),(k,1)} and escape witness max+1")


def test_criterion_05_inequality_chain(random_classes):
    for fc in random_classes:
        vc = vc_dim(fc).value
        ld = littlestone_dim(fc).value
        assert vc <= ld
        assert 2**ld <= len(fc.concepts)  # Ldim <= log2 |class|, integer-exact
    _ok(5, "vc <= littlestone <= log2(#concepts) on 500 random classes")


def test_criterion_06_oracle_equivalence(random_classes):
    start = time.perf_counter()
    for fc in random_classes:
        assert vc_dim(fc).value == naive_vc_dim(fc)
        assert littlestone_dim(fc).value == naive_littlestone_dim(fc)
        assert teaching_dim(fc).value == naive_teaching_dim(fc)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(6, f"optimized = naive on 500 random classes in {elapsed:.1f}s")


def test_criterion_07_online_game_bounds(halters):
    rng = random.Random(0xFEED)
    classes = [random_finite_class(rng) for _ in range(100)]
    classes += [hypercube_class(k) for k in (1, 2, 3, 4)]
    for index, fc in enumerate(classes):
        report = littlestone_dim(fc)
        ldim, tree = report.value, report.certificate
        rounds = ldim + len(fc.domain) + 2
        adversaries = {
            "tree": lambda: tree_adversary(fc, tree),
            "random": lambda: RandomConsistentAdversary(fc, index),
            "flip": lambda: MajorityFlipAdversary(fc),
        }
        for name, make in adversaries.items():
            t = play_online_game(fc, SOALearner(fc), make(), rounds)
            assert t.mistakes <= ldim, (index, name)
        learners = {
            "soa": lambda: SOALearner(fc),
            "const0": lambda: ConstantLearner(0),
            "const1": lambda: ConstantLearner(1),
            "random": lambda: RandomLearner(index),
        }
        for name, make in learners.items():
            t = play_online_game(fc, make(), tree_adversary(fc, tree), rounds)
            assert t.mistakes >= ldim, (index, name)
    _ok(7, "SOA <= Ldim vs all adversaries; tree forces >= Ldim vs all learners")


def test_criterion_08_tree_witnesses(loopers):
    start = time.perf_counter()
    loop_tree = tree_witness(halting_class(loopers[0]), 5, "layer")
    assert naive_verify_constructive(loop_tree, halting_class(loopers[0]))
    assert len(list(loop_tree.paths())) == 32
    goedel_tree = tree_witness(goedel_class(inconsistent_toy()), 4, "active")
    assert naive_verify_constructive(goedel_tree, goedel_class(inconsistent_toy()))
    assert len(list(goedel_tree.paths())) == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok(8, f"depth-5 and depth-4 witnesses verified on all paths in {elapsed:.2f}s")


def test_criterion_09_reduction_fidelity(halters, loopers):
    suite = [(f"halt{k}", halters[k]) for k in range(1, 11)]
    suite += [(f"loop{i}", tm) for i, tm in enumerate(loopers)]
    report = agreement_check(suite, budget=100)
    assert report.halts == 10
    assert report.no_answer == 5
    assert report.disagreements == 0
    for budget in (0, 1, 2, 4, 7, 11, 100):
        decider = lambda code: budgeted_vc_decider(code, budget)
        for name, tm in suite:
            verdict = halting_from_vc(decider, tm)
            if verdict == HALTS:
                assert run_bounded(tm, budget).halted, (name, budget)
            if name.startswith("loop"):
                assert verdict == NO_ANSWER, (name, budget)
    _ok(9, "reduction matches simulation on 15 machines; sweep never unsound")


def test_criterion_10_pac_experiment(halters):
    start = time.perf_counter()
    fc = materialize(halting_class(halters[3]), 5, 64)
    target = fc.concepts[-1]
    dist = {x: 1 for x in fc.domain}
    bound = sample_size_bound(3, 0.25, 0.1)
    assert bound == 715  # frozen from the closed form
    report = pac_experiment(
        fc, target, dist, 0.25, 0.1, trials=2000, sample_sizes=[10, 50, bound], seed=2024
    )
    freqs = report.success_frequencies
    assert freqs[-1] >= 0.85  # 1 - delta - 0.05 slack
    for earlier, later in zip(freqs, freqs[1:]):
        assert later >= earlier - 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(10, f"PAC at m={bound}: frequency {freqs[-1]:.3f} >= 0.85 in {elapsed:.1f}s")


def test_criterion_11_encoding_roundtrips(halters, loopers, beaver):
    for n in range(10**6):
        i, j = unpair(n)
        assert pair(i, j) == n
    for length in range(11):
        for code in range(2**length):
            bits = [(code >> b) & 1 for b in range(length)]
            m = sum(bit << b for b, bit in enumerate(bits))
            assert all(seq_bit(m, b) == bits[b] for b in range(length))
            assert m < 2**length
    machines = [halters[k] for k in range(11)] + list(loopers) + [beaver]
    for tm in machines:
        assert parse_tm(serialize_tm(tm)) == tm
        assert decode_tm(encode_tm(tm)) == tm
        assert decode_machine(class_code(tm)) == tm
    _ok(11, "pair/unpair to 1e6, patterns to length 10, machine codes: exact")
