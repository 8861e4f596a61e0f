"""Differential tests: the concept-id bitmask engine behind the Littlestone
and teaching measures, SOA, the online harness and the PAC experiment's ERM
fits, and the pruned VC search and its budget charges, against the naive
row-based oracles on small random classes whose domains come in shuffled
order (for the Littlestone threshold queries: every state's value and
threshold answers, the tree labels and the states they charge, also on
Hamming balls and subcube unions where the halving cap is loose; on
cube-shaped classes, the states and subtrees the VC sandwich settles, and
the teaching sets read off Hamming neighbours); a mistake tree's two
realizability checks against their path-by-path references (the finite
one also on trees uniform below some nodes, with uniform subtrees counted
nowhere, where they pay or everywhere); the label lookups against the rows
and domain order; the flip adversary's transcripts against its
max-of-min reference; materialize
against the cell-by-cell window scan, also on irregular tables read in many
batches, and every packed and derived form of a class against its rows
(the rows decoded in bulk against row by row, across word widths, a chunk
boundary and the three window builders); plus the generic window's one
evaluator call per cell and its batch-bounded memory, the step class's
closed-form windows (and that only its own evaluator takes them), and cost
guards on large full-cube and near-cube windows (the heap-ordered tree on
(16, 2**17), teaching_dim's growth and the row decode's memory among them),
on large Hamming balls, wide PAC supports and large PAC samples, and the
draw counts of PAC trials that stop early and of those that cannot."""

from __future__ import annotations

import itertools
import random
import re
import time
import timeit
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from learndim import (
    BudgetExceededError,
    ConstantLearner,
    FiniteClass,
    IndexedClass,
    LittlestoneTree,
    MajorityFlipAdversary,
    RandomConsistentAdversary,
    RandomLearner,
    SOALearner,
    WitnessUnresolvedError,
    consistent_toy,
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
    teaching_dim,
    teaching_set,
    tree_adversary,
    tree_witness,
    vc_dim,
)

from learndim import classes, dimensions
from learndim.dimensions import littlestone_memo

from conftest import hypercube_class
from oracles import (
    NaiveMajorityFlipAdversary,
    all_patterns_present,
    bit_of,
    goedel_eval_oracle,
    goedel_prefix_eval_oracle,
    halting_eval_oracle,
    naive_littlestone_dim,
    naive_littlestone_states,
    naive_littlestone_tree,
    naive_materialize,
    naive_min_teaching_size,
    naive_pac_experiment,
    naive_pruned_littlestone_states,
    naive_soa_predict,
    naive_teaching_dim,
    naive_teaching_search,
    naive_threshold_littlestone_states,
    naive_threshold_littlestone_words,
    naive_vc_dim,
    naive_vc_search,
    naive_verify_against,
    naive_verify_constructive,
    reference_codes,
    reference_masks,
    step_eval_oracle,
)


def with_budget(limit: int, search, *args):
    """`search(*args)` with dimensions.DEFAULT_SEARCH_BUDGET patched to
    `limit`; safe inside Hypothesis tests, unlike the monkeypatch fixture."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimensions, "DEFAULT_SEARCH_BUDGET", limit)
        return search(*args)


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


@st.composite
def cube_like_classes(draw, full_subcube: bool = False) -> FiniteClass:
    """Classes on which some concepts are settled by their Hamming
    neighbours and others are not.

    A full subcube on a drawn subset of the columns, with drawn constant
    values on the others; sometimes a few of its concepts removed and a few
    added one flip away from it, so that one class mixes concepts whose
    neighbour across every varying column is in it with concepts missing
    one.  With `full_subcube`, always the subcube itself, on a proper
    subset of at least two columns.  Concept order is shuffled, and the
    domain shuffled and scaled."""
    n = draw(st.integers(min_value=1 + full_subcube, max_value=8))
    most = min(n - full_subcube, 5)
    free = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=most))
    codes = [draw(st.integers(min_value=0, max_value=2**n - 1)) & ~sum(1 << j for j in free)]
    for j in free:
        codes += [code | 1 << j for code in codes]
    if not full_subcube and draw(st.booleans()):
        removed = draw(st.sets(st.sampled_from(codes), min_size=1, max_size=min(3, len(codes) - 1)))
        flips = st.tuples(st.sampled_from(codes), st.integers(min_value=0, max_value=n - 1))
        added = [code ^ 1 << j for code, j in draw(st.lists(flips, max_size=3))]
        codes = [code for code in codes if code not in removed] + added
    codes = draw(st.permutations(codes))
    scale = draw(st.sampled_from([1, 3]))
    domain = draw(st.permutations([scale * i for i in range(n)]))
    return FiniteClass.from_rows(domain, [tuple(code >> j & 1 for j in range(n)) for code in codes])


def _assert_teaching_matches_the_plain_search(fc: FiniteClass) -> None:
    """Every concept's teaching set, and its answer or error message at
    budgets charge - 1, charge and 0, are the plain size-ordered search's."""
    for target in fc.concepts:
        examples, charge = naive_teaching_search(fc, target, dimensions.DEFAULT_SEARCH_BUDGET)
        assert teaching_set(fc, target).examples == examples
        for limit in (charge - 1, charge, 0):
            try:
                want = naive_teaching_search(fc, target, limit)[0]
            except BudgetExceededError as exc:
                with pytest.raises(BudgetExceededError) as got:
                    with_budget(limit, teaching_set, fc, target)
                assert str(got.value) == str(exc)
            else:
                assert with_budget(limit, teaching_set, fc, target).examples == want


@settings(max_examples=100, deadline=None)
@given(finite_classes(max_points=8))
def test_teaching_sets_and_charges_match_the_plain_search(fc):
    # The search starts from the forced points but charges, and reports on
    # running out, exactly as the plain size-ordered search over all subsets.
    _assert_teaching_matches_the_plain_search(fc)


@settings(max_examples=200, deadline=None)
@given(cube_like_classes())
def test_teaching_sets_and_charges_match_the_plain_search_on_cube_like_classes(fc):
    # Random classes rarely hold every Hamming neighbour of a concept, so
    # the answers read off the set of codes are checked here, next to the
    # forced-set search on the concepts of the same class that miss one.
    _assert_teaching_matches_the_plain_search(fc)
    assert teaching_dim(fc).certificate == [teaching_set(fc, target) for target in fc.concepts]


@settings(max_examples=100, deadline=None)
@given(cube_like_classes(full_subcube=True))
def test_teaching_dim_builds_a_full_subcube_certificate_as_teaching_set_does(fc):
    # teaching_dim builds a full cube's sets in one batch, off the rows,
    # with one charge of all 2**c subsets of its c candidate points; the
    # domain is shuffled, so point order is not column order.
    c = (len(fc.codes) - 1).bit_length()
    report = teaching_dim(fc)
    assert report.value == c
    assert report.certificate == [teaching_set(fc, target) for target in fc.concepts]
    assert with_budget(2**c, teaching_dim, fc) == report
    with pytest.raises(BudgetExceededError) as bulk:
        with_budget(2**c - 1, teaching_dim, fc)
    with pytest.raises(BudgetExceededError) as single:
        with_budget(2**c - 1, teaching_set, fc, fc.concepts[0])
    assert str(bulk.value) == str(single.value)


def test_teaching_dim_time_grows_linearly_with_a_full_cube_window():
    # Four times the concepts (the looper's (14, 2**15) window against its
    # (12, 2**13) one, each built afresh so its rows are decoded again)
    # take about five times as long, 0.08 s against 0.016 s on a 2-core x86
    # VM; work quadratic in the concepts would take sixteen times or more.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    ic = halting_class(looper)

    def best(domain_max):
        fc = materialize(ic, domain_max, 2 ** (domain_max + 1))

        def run():
            teaching_dim(FiniteClass(domain=fc.domain, codes=fc.codes, witnesses=fc.witnesses))

        return min(timeit.repeat(run, "gc.enable()", number=1, repeat=5))

    small, large = best(12), best(14)
    assert large / small < 8, f"(12, 2**13): {small:.4f} s, (14, 2**15): {large:.4f} s"


def test_teaching_dim_resolves_no_concept_by_row(monkeypatch):
    # teaching_dim works by concept id: looking each concept up with
    # index_of, a scan over the codes, would make it quadratic in |C|.
    calls = 0
    index_of = FiniteClass.index_of

    def counting_index_of(self, row):
        nonlocal calls
        calls += 1
        return index_of(self, row)

    monkeypatch.setattr(FiniteClass, "index_of", counting_index_of)
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 5, 64)
    assert teaching_dim(fc).value == 6
    assert calls == 0


def test_teaching_sets_on_a_full_cube_window_are_the_forced_points():
    # The looper's (11, 4096) window is the full 12-cube.  Every point is
    # forced for every concept (its neighbour across that point is in the
    # class), so every answer is all the points, built at once off the
    # rows: no id mask is built and no subset search runs.  About 0.007 s
    # on a 2-core x86 VM, 0.015 s by a set-of-codes lookup per concept,
    # 0.2 s for the forced-set search and over 20 s for a greedy cover
    # followed by a search from size 0.  The charge is still the plain
    # search's, all 2**12 subsets of the 12 candidate points.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 11, 4096)
    report = teaching_dim(fc)
    assert report.value == 12
    assert "masks" not in fc.__dict__
    codes = set(fc.codes)
    for code, ts in zip(fc.codes, report.certificate):
        forced = [x for j, x in enumerate(fc.domain) if code ^ 1 << j in codes]
        assert [x for x, _ in ts.examples] == sorted(forced)
    assert with_budget(2**12, teaching_dim, fc).value == 12
    with pytest.raises(BudgetExceededError, match=r"exceeded 4095 subset checks at size 12$"):
        with_budget(2**12 - 1, teaching_dim, fc)


def test_teaching_dim_memory_on_a_full_cube_window():
    # On the (13, 16384) window the certificate is most of the peak: one row
    # and one examples tuple per concept, the examples sharing one (x, y)
    # pair per point and label.  Building the id masks for the forced-set
    # search as well peaked at about 19 MB.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 13, 2**14)
    tracemalloc.start()
    try:
        report = teaching_dim(fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == 14
    assert peak <= 10 * 2**20


@settings(max_examples=100, deadline=None)
@given(finite_classes())
def test_littlestone_budget_counts_each_state_once(fc):
    states = naive_threshold_littlestone_states(fc)
    assert states <= naive_pruned_littlestone_states(fc) <= naive_littlestone_states(fc)
    assert with_budget(states, littlestone_dim, fc).value == naive_littlestone_dim(fc)
    with pytest.raises(BudgetExceededError):
        with_budget(states - 1, littlestone_dim, fc)


@settings(max_examples=100, deadline=None)
@given(finite_classes(), st.data())
def test_pruned_littlestone_values_are_exact_on_every_state(fc, data):
    # SOA reads the values of arbitrary version spaces from one shared memo,
    # so a prune that returned only a lower bound on some state would
    # corrupt its predictions even where the whole class's value is right.
    dim, at_least, _ = littlestone_memo(fc)
    subsets = st.integers(min_value=1, max_value=fc.all_ids)
    for ids in data.draw(st.lists(subsets, min_size=1, max_size=8)):
        rows = [row for i, row in enumerate(fc.concepts) if ids >> i & 1]
        value = naive_littlestone_dim(FiniteClass.from_rows(fc.domain, rows))
        t = data.draw(st.integers(min_value=-1, max_value=len(rows).bit_length()))
        assert at_least(ids, t) == (value >= t)
        assert dim(ids) == value
    assert littlestone_dim(fc).certificate.labels == naive_littlestone_tree(fc)


@st.composite
def sandwich_classes(draw) -> FiniteClass:
    """Classes on which the VC sandwich settles some states and not others.

    A k-cube, or a random subset of its rows, with extra columns inserted at
    random places: constant columns, copies or negations of a cube column
    (which split a state without adding a pattern), and random functions of
    the row, which can make the lowest splitting points unshattered while
    later ones are."""
    k = draw(st.integers(min_value=1, max_value=4))
    codes = range(2**k)
    if draw(st.booleans()):
        codes = sorted(draw(st.sets(st.sampled_from(codes), min_size=1)))
    columns = [[code >> i & 1 for code in codes] for i in range(k)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["zero", "one", "copy", "negation", "random"]))
        if kind in ("copy", "negation"):
            source = draw(st.sampled_from(columns[:k]))
            column = source if kind == "copy" else [1 - y for y in source]
        elif kind == "random":
            column = draw(st.lists(st.integers(0, 1), min_size=len(codes), max_size=len(codes)))
        else:
            column = [int(kind == "one")] * len(codes)
        columns.insert(draw(st.integers(min_value=0, max_value=len(columns))), column)
    domain = draw(st.permutations([3 * i for i in range(len(columns))]))
    return FiniteClass.from_rows(domain, zip(*columns))


@settings(max_examples=200, deadline=None)
@given(sandwich_classes(), st.data())
def test_sandwich_keeps_values_trees_and_soa_exact(fc, data):
    # A settled state's value, a settled node's uniform subtree and SOA's
    # reads of settled version spaces must all be what the plain recursion
    # gives.
    report = littlestone_dim(fc)
    assert report.value == naive_littlestone_dim(fc)
    assert report.certificate.labels == naive_littlestone_tree(fc)
    subsets = st.sets(st.sampled_from(fc.concepts), min_size=1)
    for rows in data.draw(st.lists(subsets, min_size=1, max_size=4)):
        version_space = FiniteClass.from_rows(fc.domain, sorted(rows))
        learner = SOALearner(version_space)
        for x in fc.domain:
            assert learner.predict(x) == naive_soa_predict(version_space, x)


@st.composite
def loose_cap_classes(draw) -> FiniteClass:
    """Classes whose Littlestone dimension is often well below the halving
    cap floor(log2 n): a Hamming ball, or a union of a few subcubes, on the
    columns left free by drawn constant ones.  Concept order is shuffled,
    and the domain shuffled and scaled; `finite_classes` rarely draws
    such a class."""
    n = draw(st.integers(min_value=1, max_value=7))
    width = draw(st.integers(min_value=1, max_value=n))
    free = draw(st.permutations(range(n)))[:width]
    base = draw(st.integers(min_value=0, max_value=2**n - 1)) & ~sum(1 << j for j in free)
    if draw(st.booleans()):
        center = draw(st.integers(min_value=0, max_value=2**width - 1))
        radius = draw(st.integers(min_value=1, max_value=width))
        patterns = {center ^ e for e in range(2**width) if e.bit_count() <= radius}
    else:
        patterns = set()
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            fixed = draw(st.integers(min_value=0, max_value=2**width - 1))
            cube = draw(st.integers(min_value=0, max_value=2**width - 1))
            patterns |= {fixed & ~cube | sub for sub in range(2**width) if sub & ~cube == 0}
    codes = [base | sum(1 << j for i, j in enumerate(free) if p >> i & 1) for p in patterns]
    codes = draw(st.permutations(sorted(codes)))
    scale = draw(st.sampled_from([1, 3]))
    domain = draw(st.permutations([scale * i for i in range(n)]))
    return FiniteClass.from_rows(domain, [tuple(code >> j & 1 for j in range(n)) for code in codes])


@settings(max_examples=150, deadline=None)
@given(loose_cap_classes(), st.data())
def test_threshold_queries_match_the_oracles_where_the_cap_is_loose(fc, data):
    # Values, tree nodes, sub-state values and SOA's predictions are the
    # unpruned recursion's, the threshold queries visit no more states than
    # the exact-value recursion they replaced, and each state charges its
    # key's width in words.
    report = littlestone_dim(fc)
    assert report.value == naive_littlestone_dim(fc)
    labels = naive_littlestone_tree(fc)
    assert report.certificate.nodes == tuple(labels[p] for p in sorted(labels, key=lambda p: (len(p), p)))
    assert naive_threshold_littlestone_states(fc) <= naive_pruned_littlestone_states(fc)
    words = naive_threshold_littlestone_words(fc)
    assert with_budget(words, littlestone_dim, fc) == report
    with pytest.raises(BudgetExceededError):
        with_budget(words - 1, littlestone_dim, fc)
    dim, at_least, _ = littlestone_memo(fc)
    for ids in data.draw(st.lists(st.integers(min_value=1, max_value=fc.all_ids), max_size=4)):
        rows = [row for i, row in enumerate(fc.concepts) if ids >> i & 1]
        value = naive_littlestone_dim(FiniteClass.from_rows(fc.domain, rows))
        t = data.draw(st.integers(min_value=0, max_value=len(rows).bit_length()))
        assert at_least(ids, t) == (value >= t)
        assert dim(ids) == value
    target = data.draw(st.sampled_from(fc.concepts))
    queries = data.draw(st.lists(st.sampled_from(fc.domain), max_size=len(fc.domain)))
    learner = SOALearner(fc)
    history: list[tuple[int, int]] = []
    for x in queries:
        version_space = FiniteClass.from_rows(fc.domain, _consistent_rows(fc, history))
        assert learner.predict(x) == naive_soa_predict(version_space, x)
        y = target[fc.domain.index(x)]
        learner.observe(x, y)
        history.append((x, y))


def _hamming_ball(points: int, radius: int) -> FiniteClass:
    codes = [code for code in range(2**points) if code.bit_count() <= radius]
    return FiniteClass.from_rows(range(points), [tuple(code >> j & 1 for j in range(points)) for code in codes])


def test_littlestone_on_a_hamming_ball_asks_few_states():
    # The radius-3 ball on 16 points: 697 concepts, Ldim 3 against a halving
    # cap of 9.  The exact-value recursion passed 2M states after 25 s and
    # 292 MB; the threshold queries visit 141 states of 11 words each.
    fc = _hamming_ball(16, 3)
    report = with_budget(141 * 11, littlestone_dim, fc)
    assert report.value == 3
    assert report.certificate.verify_against(fc)
    with pytest.raises(BudgetExceededError, match="exceeded 1550 memo words"):
        with_budget(141 * 11 - 1, littlestone_dim, fc)


def test_littlestone_memory_on_a_large_hamming_ball():
    # The radius-4 ball on 24 points: 12,951 concepts, Ldim 4 against a
    # halving cap of 13.  The exact-value recursion hit a 3 GB memory limit
    # after 112 s; the threshold queries visit 2,336 states of 203 words
    # in about 0.25 s, about 4 MB traced (2-core x86 VM, Python 3.11.7).
    fc = _hamming_ball(24, 4)
    fc.masks  # cached: built outside the traced peak
    tracemalloc.start()
    try:
        report = littlestone_dim(fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == 4
    assert report.certificate.verify_against(fc)
    assert peak < 8 * 2**20
    assert with_budget(2336 * 203, littlestone_dim, fc) == report
    with pytest.raises(BudgetExceededError):
        with_budget(2336 * 203 - 1, littlestone_dim, fc)



def test_tree_fill_asks_the_smaller_side_first():
    # The fill scans a node as a threshold query does, smaller side first:
    # 9 states here, where asking the zeros side first visited 10.
    rows = [
        (1, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 1),
        (1, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 0), (1, 0, 0, 0),
    ]
    fc = FiniteClass.from_rows(range(4), rows)
    assert naive_threshold_littlestone_states(fc) == 9
    report = with_budget(9, littlestone_dim, fc)
    assert report.value == naive_littlestone_dim(fc) == 3
    assert report.certificate.labels == naive_littlestone_tree(fc)
    with pytest.raises(BudgetExceededError):
        with_budget(8, littlestone_dim, fc)


def _random_codes_class(points: int, draws: int) -> FiniteClass:
    rng = random.Random(1)
    codes = tuple(sorted({rng.getrandbits(points) for _ in range(draws)}))
    return FiniteClass(domain=tuple(range(points)), codes=codes, witnesses=tuple(range(len(codes))))


def test_littlestone_memo_is_charged_in_words():
    # 2,000 random 40-point codes: 890 states of 32 words each.
    fc = _random_codes_class(40, 2000)
    assert len(fc.codes) == 2000
    assert with_budget(890 * 32, littlestone_dim, fc).value == 10
    with pytest.raises(BudgetExceededError, match="exceeded 28479 memo words"):
        with_budget(890 * 32 - 1, littlestone_dim, fc)


def test_littlestone_memo_words_are_bounded_before_they_grow():
    # 20,000 random 40-point codes: each state's key is 313 words, so the
    # default budget stops the climb after 6,389 states, about 16 MB traced
    # here.  Charged by states, it answered 14 after 18,309 states and
    # about 45 MB traced (2-core x86 VM, Python 3.11.7).
    fc = _random_codes_class(40, 20000)
    fc.masks  # cached: built outside the traced peak
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"exceeded {dimensions.DEFAULT_SEARCH_BUDGET} memo words"):
            littlestone_dim(fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20

@settings(max_examples=100, deadline=None)
@given(finite_classes(), st.data())
def test_is_shattered_matches_pattern_count(fc, data):
    subset = data.draw(st.lists(st.sampled_from(fc.domain), max_size=len(fc.domain)))
    assert is_shattered(fc, subset) == all_patterns_present(fc, tuple(subset))


@st.composite
def vc_classes(draw) -> FiniteClass:
    """Classes of up to 9 points for the VC search: random rows, a subcube
    or a Hamming ball on the columns left free by drawn constant ones, on a
    shuffled domain with gaps."""
    n = draw(st.integers(min_value=1, max_value=9))
    width = draw(st.integers(min_value=1, max_value=n))
    free = draw(st.permutations(range(n)))[:width]
    base = draw(st.integers(min_value=0, max_value=2**n - 1)) & ~sum(1 << j for j in free)
    kind = draw(st.sampled_from(["random", "subcube", "ball"]))
    if kind == "random":
        count = draw(st.integers(min_value=1, max_value=min(80, 2**width)))
        patterns = random.Random(draw(st.integers(0, 2**32))).sample(range(2**width), count)
    elif kind == "subcube":
        fixed = draw(st.integers(min_value=0, max_value=2**width - 1))
        cube = draw(st.integers(min_value=0, max_value=2**width - 1))
        patterns = {fixed & ~cube | sub for sub in range(2**width) if sub & ~cube == 0}
    else:
        center = draw(st.integers(min_value=0, max_value=2**width - 1))
        radius = draw(st.integers(min_value=0, max_value=width))
        patterns = [center ^ e for e in range(2**width) if e.bit_count() <= radius]
    codes = [base | sum(1 << j for i, j in enumerate(free) if p >> i & 1) for p in patterns]
    points = draw(st.sets(st.integers(min_value=0, max_value=40), min_size=n, max_size=n))
    domain = draw(st.permutations(sorted(points)))
    rows = [tuple(code >> j & 1 for j in range(n)) for code in codes]
    return FiniteClass.from_rows(domain, rows)


@settings(max_examples=200, deadline=None)
@given(vc_classes())
def test_vc_search_and_charges_match_the_plain_search(fc):
    # The pruned search returns the plain largest-first search's first
    # shattered set, and charges, and reports on running out, as it does.
    value, certificate, charge = naive_vc_search(fc, dimensions.DEFAULT_SEARCH_BUDGET)
    report = vc_dim(fc)
    assert (report.value, report.certificate) == (value, certificate)
    for limit in (charge - 1, charge, 0):
        try:
            want = naive_vc_search(fc, limit)[1]
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError) as got:
                with_budget(limit, vc_dim, fc)
            assert str(got.value) == str(exc)
        else:
            assert with_budget(limit, vc_dim, fc).certificate == want


@settings(max_examples=100, deadline=None)
@given(st.one_of(finite_classes(), sandwich_classes(), vc_classes()), st.data())
def test_row_code_checks_past_the_cell_batch_match_the_oracles(fc, data):
    # A CELL_BATCH of 1, 2 or 4 sends small classes through the row-code
    # checks: the VC search's past its first cuts, and the VC sandwich's on
    # the whole class, on drawn id sets and on the sub-states that the tree
    # fill and SOA reach.
    value, certificate, charge = naive_vc_search(fc, dimensions.DEFAULT_SEARCH_BUDGET)
    outcomes = {}
    for limit in (charge - 1, charge, 0):
        try:
            outcomes[limit] = naive_vc_search(fc, limit)[1]
        except BudgetExceededError as exc:
            outcomes[limit] = str(exc)
    ldim = naive_littlestone_dim(fc)
    labels = naive_littlestone_tree(fc)
    words = naive_threshold_littlestone_words(fc)
    values = {}
    for ids in data.draw(st.lists(st.integers(min_value=1, max_value=fc.all_ids), max_size=4)):
        rows = [row for i, row in enumerate(fc.concepts) if ids >> i & 1]
        values[ids] = naive_littlestone_dim(FiniteClass.from_rows(fc.domain, rows))
    target = data.draw(st.sampled_from(fc.concepts))
    queries = data.draw(st.lists(st.sampled_from(fc.domain), max_size=len(fc.domain)))
    for batch in (1, 2, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dimensions, "CELL_BATCH", batch)
            report = vc_dim(fc)
            assert (report.value, report.certificate) == (value, certificate)
            for limit, want in outcomes.items():
                try:
                    got = with_budget(limit, vc_dim, fc).certificate
                except BudgetExceededError as exc:
                    got = str(exc)
                assert got == want
            report = with_budget(words, littlestone_dim, fc)
            assert report.value == ldim
            assert report.certificate.labels == labels
            with pytest.raises(BudgetExceededError):
                with_budget(words - 1, littlestone_dim, fc)
            dim, _, _ = littlestone_memo(fc)
            assert {ids: dim(ids) for ids in values} == values
            learner = SOALearner(fc)
            history: list[tuple[int, int]] = []
            for x in queries:
                version_space = FiniteClass.from_rows(fc.domain, _consistent_rows(fc, history))
                assert learner.predict(x) == naive_soa_predict(version_space, x)
                y = target[fc.domain.index(x)]
                learner.observe(x, y)
                history.append((x, y))


def test_vc_charge_on_a_sparse_goedel_window():
    # The inconsistent toy's (18, 2**19) window is a 4-cube on points 1, 2,
    # 17 and 18 with zero columns between: the plain search checks the 816
    # sets starting at point 0 and 119 more before (1, 2, 17, 18).
    fc = materialize(goedel_class(inconsistent_toy()), 18, 2**19)
    assert len(fc.codes) == 16
    assert naive_vc_search(fc, dimensions.DEFAULT_SEARCH_BUDGET) == (4, (1, 2, 17, 18), 936)
    assert with_budget(936, vc_dim, fc).certificate == (1, 2, 17, 18)
    with pytest.raises(BudgetExceededError, match=r"exceeded 935 subset checks at size 4$"):
        with_budget(935, vc_dim, fc)


def test_vc_search_stops_once_its_charge_passes_the_budget(monkeypatch):
    # Every cut that drops a prefix rules out at least one subset, and each
    # drop follows at most 6 cuts that pass, so a size-6 search that runs
    # out of a budget of 10 cuts at most 7 * 12 times.  Run to the end of
    # the size, it cuts 524 times.
    codes = random.Random(0).sample(range(2**12), 120)
    rows = [tuple(code >> j & 1 for j in range(12)) for code in codes]
    fc = FiniteClass.from_rows(range(12), rows)
    cuts = 0
    cut = dimensions._cut

    def counting_cut(*args):
        nonlocal cuts
        cuts += 1
        return cut(*args)

    monkeypatch.setattr(dimensions, "_cut", counting_cut)
    with pytest.raises(BudgetExceededError, match=r"exceeded 10 subset checks at size 6$"):
        with_budget(10, vc_dim, fc)
    assert cuts <= 7 * 12


def test_vc_search_on_a_wide_near_cube_stops_cutting_at_the_cell_batch():
    # Points 1-15 carry a 15-cube missing a tenth of its rows, and point 0
    # copies point 1.  No 14 points are shattered; the plain search
    # (naive_vc_search, about 30 s on a 2-core x86 VM) checks all 120 sets of size 14 and
    # 366 of size 13 before (0, 2, ..., 12, 15).  Prefixes of 10 points
    # still leave every cell large on both sides, so the search holds
    # CELL_BATCH = 1024 cells as wide as the class before it checks the
    # completions on the codes: about 12 MB traced, against 59 MB when it
    # cuts down to the leaves.
    codes = random.Random(0).sample(range(2**15), 2**15 - 2**15 // 10)
    rows = [(code & 1,) + tuple(code >> j & 1 for j in range(15)) for code in codes]
    fc = FiniteClass.from_rows(range(16), rows)
    tracemalloc.start()
    try:
        report = with_budget(487, vc_dim, fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.certificate == (0, *range(2, 13), 15)
    assert peak < 24 * 2**20
    with pytest.raises(BudgetExceededError, match=r"exceeded 486 subset checks at size 13$"):
        with_budget(486, vc_dim, fc)


def test_vc_dim_on_a_full_cube_window_answers_from_the_codes():
    # The looper's (13, 16384) window is the full 14-cube: its 14 lowest
    # points, the plain search's first candidate, are shattered, so one
    # codes count answers, charged as one check, and no id mask is built.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 13, 2**14)
    report = with_budget(1, vc_dim, fc)
    assert (report.value, report.certificate) == (14, fc.domain)
    assert "masks" not in fc.__dict__
    with pytest.raises(BudgetExceededError, match=r"exceeded 0 subset checks at size 14$"):
        with_budget(0, vc_dim, fc)


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


def test_littlestone_states_on_a_full_cube_window_stay_linear():
    # The looper's (9, 1024) window is the full 10-cube.  It shatters its 10
    # splitting points, so the VC sandwich settles the root and the tree
    # fill emits the uniform tree: 1 state of 16 words.  The halving bound
    # alone left 2**11 - 1 states (the subcubes fixing a prefix of the
    # points), and expanding every split visited all 3**10 = 59049
    # restrictions.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 9, 1024)
    report = with_budget(16, littlestone_dim, fc)
    assert report.value == 10
    assert report.certificate == LittlestoneTree.uniform(fc.domain)
    with pytest.raises(BudgetExceededError):
        with_budget(15, littlestone_dim, fc)


def test_littlestone_cut_cells_on_a_large_cube_window_stay_small():
    # The (13, 16384) window settles at its root, one state of 256 words.
    # Cutting its id set level by level would hold 2**14 cells of 2 KB at
    # the last level; a check past CELL_BATCH cells counts the row codes
    # instead, about 1 MB here.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 13, 2**14)
    fc.masks  # cached: built outside the traced peak
    tracemalloc.start()
    try:
        report = with_budget(256, littlestone_dim, fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == 14
    assert peak < 16 * 2**20
    with pytest.raises(BudgetExceededError):
        with_budget(255, littlestone_dim, fc)


def test_littlestone_memory_on_a_full_cube_window():
    # The VC sandwich settles the (11, 4096) window at its root: its cut
    # cells and tree nodes peak near 0.3 MB here.  The 2**13 - 1 states of
    # 512-byte id masks left by the halving bound alone held about 5 MB; the
    # 3**12 states of the unpruned recursion peaked near 300 MB.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 11, 4096)
    fc.masks  # cached: built outside the traced peak
    tracemalloc.start()
    try:
        report = littlestone_dim(fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == 12
    assert peak < 16 * 2**20


def test_littlestone_tree_memory_on_a_large_cube_window():
    # The (16, 2**17) window settles at its root, one state of 2,048 words,
    # and its tree is one tuple of 2**17 - 1 node points: the traced peak is
    # near 9 MB, mostly the root's row-code count.  A dict from 2**17 tuple prefixes peaked
    # near 31 MB.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 16, 2**17)
    fc.masks  # cached: built outside the traced peak
    tracemalloc.start()
    try:
        tree = with_budget(2048, littlestone_dim, fc).certificate
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tree.nodes) == 2**17 - 1
    assert tree == LittlestoneTree.uniform(fc.domain)
    assert peak < 16 * 2**20
    with pytest.raises(BudgetExceededError):
        with_budget(2047, littlestone_dim, fc)


def test_masked_materialize_memory_on_a_large_cube_window():
    # The looper's (16, 2**17) window: its witness list, which is also its
    # codes, peaks near 6 MB here.  Building a row tuple per concept as
    # well peaked at 29 MB.  Its masks peak near 2.7 MB; joining one binary
    # string of every concept's digits peaked at 12.2 MB.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    ic = halting_class(looper)
    materialize(ic, 3, 16)  # the machine's scan runs outside the traced peak
    tracemalloc.start()
    try:
        fc = materialize(ic, 16, 2**17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fc.codes) == 2**17
    assert peak < 12 * 2**20
    tracemalloc.start()
    try:
        masks = fc.masks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A full cube: concept i is the index i, so point j's mask has bit i of
    # every i with bit j set.
    for j, mask in enumerate(masks):
        assert all(mask >> i & 1 == i >> j & 1 for i in range(0, 2**17, 97))
    assert peak < 6 * 2**20


def test_settled_root_is_checked_for_shattering_once(monkeypatch):
    # The value pass settles the cube's root by its shattered points; the
    # tree fill reuses them rather than cutting every id mask again.
    calls = []
    shattered_prefix = dimensions._shattered_prefix

    def counting(fc, ids, count):
        calls.append(ids)
        return shattered_prefix(fc, ids, count)

    monkeypatch.setattr(dimensions, "_shattered_prefix", counting)
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 9, 1024)
    report = littlestone_dim(fc)
    assert report.certificate == LittlestoneTree.uniform(fc.domain)
    assert calls == [fc.all_ids]


def test_wide_root_is_settled_by_one_row_code_count(monkeypatch):
    # The looper's (15, 2**16) window is the full 16-cube: its root's 16
    # splitting points would cut 2**16 cells, past CELL_BATCH, so the VC
    # sandwich counts the row codes once and the tree fill reuses the
    # settled root: one state of 1,024 words.
    calls = 0
    shatters = dimensions._shatters

    def counting(codes, columns):
        nonlocal calls
        calls += 1
        return shatters(codes, columns)

    monkeypatch.setattr(dimensions, "_shatters", counting)
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 15, 2**16)
    report = with_budget(1024, littlestone_dim, fc)
    assert report.value == 16
    assert report.certificate == LittlestoneTree.uniform(fc.domain)
    assert calls == 1
    with pytest.raises(BudgetExceededError):
        with_budget(1023, littlestone_dim, fc)


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
        assert SOALearner(fc).predict(x) == naive_soa_predict(fc, x)
    target = data.draw(st.sampled_from(fc.concepts))
    queries = data.draw(st.lists(st.sampled_from(fc.domain), max_size=2 * len(fc.domain)))
    learner = SOALearner(fc)
    history: list[tuple[int, int]] = []
    for x in queries:
        version_space = FiniteClass.from_rows(fc.domain, _consistent_rows(fc, history))
        expected = naive_soa_predict(version_space, x)
        assert learner.predict(x) == expected
        assert SOALearner(version_space).predict(x) == expected
        y = target[fc.domain.index(x)]
        learner.observe(x, y)
        history.append((x, y))


@settings(max_examples=100, deadline=None)
@given(
    finite_classes(),
    st.sampled_from(["tree", "random", "flip"]),
    st.integers(min_value=0, max_value=2**16),
)
def test_soa_stays_inside_the_unpruned_closure(fc, adversary, seed):
    # SOA may ask about states the value climb never visited, but each is a
    # split of a version space, so the unpruned closure bounds its memo.
    learner = SOALearner(fc)
    learner.dim, learner.at_least, _ = with_budget(naive_littlestone_states(fc), littlestone_memo, fc)
    opponent = {
        "tree": lambda: tree_adversary(fc, littlestone_dim(fc).certificate),
        "random": lambda: RandomConsistentAdversary(fc, seed),
        "flip": lambda: MajorityFlipAdversary(fc),
    }[adversary]()
    transcript = play_online_game(fc, learner, opponent, 2 * len(fc.domain))
    assert transcript.mistakes <= naive_littlestone_dim(fc)


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
    # The first concept settles every trial before its first draw; the last
    # has the most concepts below it for a trial to rule out.
    ends = st.sampled_from([fc.concepts[0], fc.concepts[-1]])
    target = data.draw(ends | st.sampled_from(fc.concepts))
    support = data.draw(st.lists(st.sampled_from(fc.domain), min_size=1, unique=True))
    weights = data.draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=len(support), max_size=len(support))
    )
    if not any(weights):
        weights[0] = 1  # zero-weight points stay in the support, never drawn
    dist = dict(zip(support, weights))
    sizes = data.draw(
        st.none()
        | st.lists(st.just(1) | st.integers(min_value=1, max_value=400), min_size=1, max_size=3)
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
        IndexedClass(evaluate=step_eval_oracle),
    ):
        for window in ((5, 64), (5, 40), (6, 100), (4, 16)):  # masked, closed-form and read
            fc = materialize(ic, *window)
            assert increasing(fc), (ic, window)


def _pac_rare_point_setup(support: int, rarity: int = 16):
    # Two concepts on `support` points: zero (witness 0) and the target, 1
    # only at the last point.  ERM fits the target exactly when a sample
    # draws that point, which carries about 2**-rarity of the weight.
    last = support - 1
    fc = FiniteClass.from_rows(range(support), [(0,) * support, (0,) * last + (1,)])
    dist = {x: 2**rarity if x < last else support - 1 for x in range(support)}
    return fc, fc.concepts[1], dist


def test_pac_one_point_draws_match_one_list_draws():
    # Each point is drawn as `choices` draws it, so samples around 2**16
    # points match one list of m draws from the same generator.
    fc, target, dist = _pac_rare_point_setup(2)
    sizes = [65535, 65536, 65537]
    report = pac_experiment(fc, target, dist, 2**-20, 0.1, 8, sample_sizes=sizes, seed=7)
    expected = naive_pac_experiment(fc, target, dist, 2**-20, 8, sizes, 7)
    assert list(report.success_frequencies) == expected
    assert 0 < sum(expected) < len(expected)  # the rare point decides some trials


def test_pac_sample_memory_is_bounded():
    # One list of 2M draws held about 16 MB; a trial drawing one point at
    # a time holds no list of draws at all.
    # The rare point is never drawn, so the trial never stops early.
    fc, target, dist = _pac_rare_point_setup(4, rarity=32)
    tracemalloc.start()
    try:
        report = pac_experiment(fc, target, dist, 2**-40, 0.1, 1, sample_sizes=[2_000_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.success_frequencies == (0.0,)
    assert peak < 4 * 2**20


class _CountingRandom(random.Random):
    """Counts constructions and random() calls, one per point drawn.  Its
    own getrandbits keeps randrange on the base class's algorithm, so the
    master stream's per-trial seeds stay those of random.Random."""

    made = 0
    draws = 0

    def __init__(self, x=None):
        _CountingRandom.made += 1
        super().__init__(x)

    def random(self):
        _CountingRandom.draws += 1
        return super().random()

    def getrandbits(self, k):
        return super().getrandbits(k)


def _count_pac_draws(monkeypatch, *args, **kwargs):
    _CountingRandom.made = _CountingRandom.draws = 0
    with monkeypatch.context() as patch:
        patch.setattr(random, "Random", _CountingRandom)
        report = pac_experiment(*args, **kwargs)
    return report, _CountingRandom.draws


def test_pac_trials_stop_once_the_version_space_is_pinned(monkeypatch):
    # At the PAC bound nearly every draw falls after the sample has pinned
    # ERM's fit; the frequencies still equal drawing all m points.  Drawing
    # until the version space reached the floor, checked per chunk, took
    # 3468 draws for either target.
    halt3 = load_tm(Path(__file__).resolve().parents[1] / "machines" / "halt3.tm")
    fc = materialize(halting_class(halt3), 5, 64)
    dist = {x: 1 for x in fc.domain}
    for target_index, pinned in ((0, 0), (-1, 2205)):
        target = fc.concepts[target_index]
        report, draws = _count_pac_draws(monkeypatch, fc, target, dist, 0.25, 0.1, 200, seed=1)
        assert report.sample_sizes == (715,)
        assert list(report.success_frequencies) == naive_pac_experiment(
            fc, target, dist, 0.25, 200, [715], 1
        )
        assert draws == pinned, target_index


def test_pac_dense_trials_stop_at_the_settling_draw(monkeypatch):
    # Small fixed sizes on a dense class rarely pin the version space; a
    # trial still stops once no concept below the target survives.  Drawing
    # until the version space reached the floor, checked per chunk, took
    # 7966 draws.
    fc = FiniteClass.from_rows(range(11), [
        tuple(code >> i & 1 for i in range(11))
        for code in random.Random(11).sample(range(2**11), 90)
    ])
    target = fc.concepts[45]
    dist = {x: 1 + x % 4 for x in fc.domain}
    sizes = [4, 16, 64]
    report, draws = _count_pac_draws(
        monkeypatch, fc, target, dist, 0.25, 0.1, 200, sample_sizes=sizes, seed=5
    )
    assert list(report.success_frequencies) == naive_pac_experiment(
        fc, target, dist, 0.25, 200, sizes, 5
    )
    assert draws == 4567


def test_pac_first_target_draws_nothing(monkeypatch):
    # ERM's fit is the lowest id consistent with the sample, and the first
    # concept is consistent with every sample it labels.
    fc = hypercube_class(4)
    target, dist = fc.concepts[0], {x: x + 1 for x in fc.domain}
    report, draws = _count_pac_draws(
        monkeypatch, fc, target, dist, 0.1, 0.1, 30, sample_sizes=[1, 50], seed=4
    )
    assert list(report.success_frequencies) == naive_pac_experiment(
        fc, target, dist, 0.1, 30, [1, 50], 4
    )
    assert draws == 0


@pytest.mark.parametrize("trials", [1, 7, 300])
def test_pac_builds_two_generators_whatever_the_trials(monkeypatch, trials):
    # The master stream and one trial generator, reseeded by each trial.
    fc = hypercube_class(4)
    dist = {x: 1 for x in fc.domain}
    _count_pac_draws(
        monkeypatch, fc, fc.concepts[-1], dist, 0.1, 0.1, trials, sample_sizes=[3, 9], seed=6
    )
    assert _CountingRandom.made == 2


def test_pac_zero_weight_points_do_not_hold_trials_open(monkeypatch):
    # Only the zero-weight point tells the two concepts apart: no sample can
    # shrink the version space, so no trial draws at all.
    fc, target, dist = _pac_rare_point_setup(4)
    dist[3] = 0
    report, draws = _count_pac_draws(
        monkeypatch, fc, target, dist, 0.25, 0.1, 50, sample_sizes=[1000], seed=2
    )
    assert list(report.success_frequencies) == naive_pac_experiment(
        fc, target, dist, 0.25, 50, [1000], 2
    )
    assert draws == 0


def test_pac_trials_that_never_pin_draw_every_point(monkeypatch):
    # The rare point decides the target: a trial that never draws it never
    # settles, so it draws all m points.
    fc, target, dist = _pac_rare_point_setup(4, rarity=32)
    m, trials = 196_609, 2
    report, draws = _count_pac_draws(
        monkeypatch, fc, target, dist, 2**-40, 0.1, trials, sample_sizes=[m], seed=3
    )
    assert report.success_frequencies == (0.0,)  # no trial drew the rare point
    assert report.success_frequencies == tuple(
        naive_pac_experiment(fc, target, dist, 2**-40, trials, [m], 3)
    )
    assert draws == trials * m


def test_pac_cumulative_weights_are_linear_in_the_support():
    # Re-summing each Fraction prefix took about 13 s on 3001 points.
    fc, target, dist = _pac_rare_point_setup(3001)
    start = time.perf_counter()
    pac_experiment(fc, target, dist, 0.1, 0.1, 1, sample_sizes=[1])
    assert time.perf_counter() - start < 2.0


def _window_cases(halters, loopers, beaver):
    """(class, oracle evaluator) pairs: every gated construction, step, and
    step's thresholds read through an evaluator of their own."""
    cases = [
        (halting_class(tm), lambda m, n, tm=tm: halting_eval_oracle(tm, m, n))
        for tm in [*halters.values(), *loopers, beaver]
    ]
    for fs in (consistent_toy(), inconsistent_toy(), inconsistent_toy_at(3)):
        cases.append((goedel_class(fs), lambda m, n, t=fs.theorem: goedel_eval_oracle(t, m, n)))
        cases.append(
            (goedel_prefix_class(fs), lambda m, n, t=fs.theorem: goedel_prefix_eval_oracle(t, m, n))
        )
    cases.append((step_class(), step_eval_oracle))
    cases.append((IndexedClass(evaluate=step_eval_oracle), step_eval_oracle))
    return cases


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=1, max_value=1100),
)
def test_materialize_matches_definitional_scan(halters, loopers, beaver, data, domain_max, index_count):
    ic, evaluate = data.draw(st.sampled_from(_window_cases(halters, loopers, beaver)))
    fc = materialize(ic, domain_max, index_count)
    rows, witnesses = naive_materialize(evaluate, domain_max, index_count)
    _assert_packs_rows(fc, rows, witnesses)


def _assert_packs_rows(fc: FiniteClass, rows, witnesses) -> None:
    """Every stored and derived form of `fc` agrees with the distinct rows
    `rows`, first seen at `witnesses`, as the row-based references read them."""
    assert list(fc.concepts) == rows
    assert [fc.row(i) for i in range(len(rows))] == rows
    assert list(fc.witnesses) == witnesses
    assert fc.codes == reference_codes(rows)
    assert fc.masks == reference_masks(rows, len(fc.domain))
    assert fc.all_ids == 2 ** len(rows) - 1
    for col, x in enumerate(fc.domain):
        for y in (0, 1):
            assert fc.labelled(x, y) == sum(1 << i for i, row in enumerate(rows) if row[col] == y)
    for i, row in enumerate(rows):
        assert fc.index_of(row) == i
    width = len(fc.domain)
    present = set(fc.codes)
    missing = next(c for c in itertools.count() if c not in present)
    absent = [(0,) * (width + 1)]
    if width:
        absent.append((2,) + (0,) * (width - 1))
    if missing < 2**width:
        absent.append(tuple(missing >> j & 1 for j in range(width)))
    for row in absent:
        with pytest.raises(ValueError, match="concept not in class"):
            fc.index_of(row)


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([1, 2, 3, 50, 257]) | st.integers(min_value=1, max_value=400),
    st.sampled_from([1, 5, 24, 64, 1000, classes.BATCH_CELLS]),
)
def test_generic_window_matches_definitional_scan_on_irregular_tables(
    data, domain_max, index_count, batch_cells
):
    # A class without `active` looking up a 0/1 table whose rows repeat at
    # scattered indexes.  Small batches split the window into many, of
    # fewer indexes than points (read by rows) or of more (by columns).
    width = domain_max + 1
    row = st.lists(st.integers(min_value=0, max_value=1), min_size=width, max_size=width)
    pool = data.draw(st.lists(row, min_size=1, max_size=8))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    table = [rng.choice(pool) for _ in range(index_count)]
    ic = IndexedClass(evaluate=lambda m, n: table[m][n])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classes, "BATCH_CELLS", batch_cells)
        fc = materialize(ic, domain_max, index_count)
    _assert_packs_rows(fc, *naive_materialize(ic.evaluate, domain_max, index_count))


@pytest.mark.parametrize("domain_max, batches", [(3, 3), (299, 3)])
def test_generic_window_calls_the_evaluator_once_per_cell(domain_max, batches):
    # Several full batches and a partial one, read by columns on 4 points
    # and by rows on 300 (a batch there holds fewer indexes than points).
    # The thresholds through a function other than step_class's own are
    # read too: only that function chooses the closed form.
    width = domain_max + 1
    index_count = batches * (classes.BATCH_CELLS // width) + 5
    hits = bytearray(width * index_count)

    def evaluate(m: int, n: int) -> int:
        hits[m * width + n] += 1
        return step_eval_oracle(m, n)

    fc = materialize(IndexedClass(evaluate=evaluate), domain_max, index_count)
    assert hits == b"\x01" * len(hits)
    rows, witnesses = naive_materialize(step_eval_oracle, domain_max, index_count)
    assert list(fc.concepts) == rows and list(fc.witnesses) == witnesses


def test_generic_window_memory_is_bounded_by_its_batch():
    # Reading the thresholds' (1000, 1001) window a batch at a time peaks
    # well below one transpose of the whole window into row tuples (about
    # 8 MB).  The evaluator is not step_class's own, which is never read.
    domain_max, index_count = 1000, 1001
    ic = IndexedClass(evaluate=step_eval_oracle)
    columns = [bytes(map(ic.evaluate, range(index_count), itertools.repeat(n))) for n in range(domain_max + 1)]
    tracemalloc.start()
    try:
        rows = list(zip(*columns))
        unbatched = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del rows, columns
    tracemalloc.start()
    try:
        fc = materialize(ic, domain_max, index_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fc.codes) == index_count
    assert unbatched > 7 * 2**20
    assert peak < unbatched / 8


def _step_windows():
    """(domain_max, index_count) pairs around the closed form's bends."""
    windows = set()
    for n in range(65):
        for m in (1, 2, n, n + 1, n + 2, n + 3, *(2**k for k in range(8))):
            windows.add((n, m))
    for n in (0, 1, 2, 13, 64, 200):
        for m in (255, 256, 1024, 4096, 4999, 5000):
            windows.add((n, m))
    return sorted((n, m) for n, m in windows if m >= 1)


def test_step_windows_in_closed_form_match_the_definitional_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("a step window reached the evaluator reader")

    monkeypatch.setattr(classes, "_read_window", refuse)
    for domain_max, index_count in _step_windows():
        fc = materialize(step_class(), domain_max, index_count)
        rows, witnesses = naive_materialize(step_eval_oracle, domain_max, index_count)
        assert list(fc.witnesses) == witnesses, (domain_max, index_count)
        assert fc.codes == reference_codes(rows), (domain_max, index_count)
        assert fc.domain == tuple(range(domain_max + 1))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=7))
def test_from_rows_packs_like_the_row_reference(data, width):
    # Rows drawn with repeats, and sometimes none at all, on a shuffled domain.
    codes = data.draw(st.lists(st.integers(min_value=0, max_value=2**width - 1), max_size=40))
    rows = [tuple(code >> j & 1 for j in range(width)) for code in codes]
    domain = data.draw(st.permutations([3 * i for i in range(width)]))
    first: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    _assert_packs_rows(FiniteClass.from_rows(domain, rows), list(first), list(first.values()))


def _assert_concepts_decode_row_by_row(fc: FiniteClass) -> None:
    """fc.concepts, decoded in bulk, holds fc.row(i) for each concept i,
    tuples of plain ints."""
    assert fc.concepts == tuple(fc.row(i) for i in range(len(fc.codes)))
    assert all(type(row) is tuple for row in fc.concepts)
    assert all(type(label) is int for row in fc.concepts for label in row)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([0, 1, 8, 63, 64, 65, 130]))
def test_concepts_decode_in_bulk_as_row_by_row(data, width):
    # Widths either side of a machine word, and the empty domain, whose
    # one possible concept is the empty row.
    codes = data.draw(
        st.lists(st.integers(min_value=0, max_value=2**width - 1), max_size=40, unique=True)
    )
    domain = data.draw(st.permutations([3 * i for i in range(width)]))
    rows = [tuple(code >> j & 1 for j in range(width)) for code in codes]
    _assert_concepts_decode_row_by_row(FiniteClass.from_rows(domain, rows))


def test_concepts_decode_across_a_chunk_boundary():
    # More than MASK_CHUNK concepts, so the rows come from two chunks.
    rng = random.Random(29)
    for width in (13, 65):
        codes: set[int] = set()
        while len(codes) <= classes.MASK_CHUNK:
            codes.add(rng.getrandbits(width))
        rows = [tuple(code >> j & 1 for j in range(width)) for code in codes]
        fc = FiniteClass.from_rows(range(width), rows)
        assert len(fc.codes) > classes.MASK_CHUNK
        _assert_concepts_decode_row_by_row(fc)
        assert list(fc.concepts) == rows


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=1, max_value=1100),
)
def test_concepts_decode_in_bulk_on_every_window_builder(
    halters, loopers, beaver, data, domain_max, index_count
):
    # The gated classes' masked witness lists, step's closed form, and the
    # thresholds read through another evaluator by _read_window.
    ic, _ = data.draw(st.sampled_from(_window_cases(halters, loopers, beaver)))
    _assert_concepts_decode_row_by_row(materialize(ic, domain_max, index_count))


def test_concepts_memory_beyond_the_rows_is_bounded_by_a_chunk():
    # The looper's (15, 2**16) window: its rows take about 11 MB, and the
    # decode peaks about 0.63 MB above them, most of it the list the rows
    # are gathered in.  Decoding every code in one chunk peaked about
    # 2.04 MB above them.
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 15, 2**16)
    tracemalloc.start()
    try:
        rows = fc.concepts
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 2**16
    assert peak - held <= 2**20, (held, peak)


def test_masks_across_chunk_boundaries(monkeypatch):
    # Chunks of 3 concepts: the lowest ids fill a chunk, part of one, or none.
    monkeypatch.setattr(classes, "MASK_CHUNK", 3)
    rng = random.Random(13)
    for count in range(12):
        width = rng.randint(4, 6)
        codes = rng.sample(range(2**width), count)
        rows = [tuple(c >> j & 1 for j in range(width)) for c in codes]
        fc = FiniteClass.from_rows(range(width), rows)
        assert fc.masks == reference_masks(rows, width)


def _lying_class(base: IndexedClass, cell=None):
    """`base` with its evaluator calls logged, and its answer at `cell`,
    an (index, point) pair, flipped."""
    calls = []

    def evaluate(m, n):
        calls.append((m, n))
        return base.evaluate(m, n) ^ ((m, n) == cell)

    return IndexedClass(evaluate=evaluate, active=base.active), calls


def _witness_holds(ic: IndexedClass, points: list[int]) -> bool:
    """Whether tree_witness accepts the uniform tree on the sorted, distinct
    `points`, given to its active labeling as the class's only active ones."""
    ic = IndexedClass(evaluate=ic.evaluate, active=set(points).__contains__)
    try:
        tree = tree_witness(ic, len(points), "active")
    except WitnessUnresolvedError:
        return False
    assert tree == LittlestoneTree.uniform(points)
    return True


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sets(st.integers(min_value=0, max_value=63), max_size=7))
def test_tree_witness_check_matches_the_wanted_labels_reference(halters, loopers, data, points):
    # Distinct layer points below 64, on classes that shatter them or not,
    # and often with one answer flipped on a path the check reads.
    points = sorted(points)
    for base in (
        step_class(),
        halting_class(halters[3]),
        halting_class(loopers[0]),
        goedel_class(inconsistent_toy()),
    ):
        if points and data.draw(st.booleans()):
            ones = data.draw(st.sets(st.sampled_from(points)))
            base = _lying_class(base, (sum(1 << x for x in ones), data.draw(st.sampled_from(points))))[0]
        want = naive_verify_constructive(LittlestoneTree.uniform(points), base)
        assert _witness_holds(base, points) == want


def test_tree_witness_reads_every_path_point_and_fails_on_one_lie(halters, loopers):
    # A depth-d witness holds after exactly d * 2**d evaluator calls, one per
    # point of each path; a single wrong answer on any path refutes it, read
    # after every earlier path in heap order and the path's points above it.
    rng = random.Random(7)
    cases = (
        (halting_class(loopers[0]), "layer", 6),
        (goedel_class(inconsistent_toy()), "active", 6),
        (halting_class(halters[3]), "layer", 3),
    )
    for base, labeling, top in cases:
        for depth in range(top + 1):
            ic, calls = _lying_class(base)
            tree = tree_witness(ic, depth, labeling)
            assert len(calls) == depth * 2**depth
            for _ in range(4 if depth else 0):
                leaf = rng.randrange(2**depth, 2 ** (depth + 1))
                path = [(tree.nodes[(leaf >> k) - 1], leaf >> k - 1 & 1) for k in range(depth, 0, -1)]
                cell = (sum(y << x for x, y in path), rng.choice(path)[0])
                liar, calls = _lying_class(base, cell)
                with pytest.raises(WitnessUnresolvedError, match="is not realizable$"):
                    tree_witness(liar, depth, labeling)
                points = [x for x, _ in path]
                assert len(calls) == (leaf - 2**depth) * depth + points.index(cell[1]) + 1


@settings(max_examples=200, deadline=None)
@given(finite_classes(), st.data())
def test_verify_against_matches_the_path_by_path_reference(fc, data):
    # Random trees over the domain rarely hold; optimal trees with one node
    # changed sit at the edge of holding.
    if data.draw(st.booleans()):
        size = 2 ** data.draw(st.integers(min_value=0, max_value=5)) - 1
        nodes = data.draw(st.lists(st.sampled_from(fc.domain), min_size=size, max_size=size))
    else:
        nodes = list(littlestone_dim(fc).certificate.nodes)
        if nodes:
            v = data.draw(st.integers(0, len(nodes) - 1))
            nodes[v] = data.draw(st.sampled_from(fc.domain))
    tree = LittlestoneTree(tuple(nodes))
    assert tree.verify_against(fc) == naive_verify_against(tree.labels, fc)


def with_codes_per_path(limit: int, check, *args):
    """`check(*args)` with dimensions.CODES_PER_PATH patched to `limit`: 0
    cuts every node, a huge limit counts every uniform subtree of two or
    more layers that the walk reaches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimensions, "CODES_PER_PATH", limit)
        return check(*args)


@st.composite
def patchy_trees(draw, fc: FiniteClass, max_depth: int = 5) -> LittlestoneTree:
    """Trees over fc's domain that are uniform below some nodes and not
    others.  Each node either takes a point and recurses, or roots a
    uniform subtree.  Points are mostly ones not fixed above the node, so
    that many trees hold; a uniform subtree's layers may still repeat one
    of its own points or take one already fixed above it."""
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    nodes = [None] * ((1 << depth) - 1)

    def fill(v: int, above: list[int]) -> None:
        k = depth + 1 - v.bit_length()
        if k == 0:
            return
        fresh = draw(st.permutations([x for x in fc.domain if x not in above]))
        fresh = fresh or list(above)  # every point fixed above: the tree cannot hold
        if k == 1 or not draw(st.booleans()):
            nodes[v - 1] = draw(st.sampled_from(fresh[:2] + [fc.domain[0]]))
            fill(2 * v, above + [nodes[v - 1]])
            fill(2 * v + 1, above + [nodes[v - 1]])
            return
        layers = (fresh * k)[:k]
        flawed = draw(st.integers(min_value=0, max_value=k - 1))
        flaw = draw(st.sampled_from(["none", "none", "repeat", "above"]))
        if flaw == "repeat" and flawed:
            layers[flawed] = layers[draw(st.integers(min_value=0, max_value=flawed - 1))]
        elif flaw == "above" and above:
            layers[flawed] = draw(st.sampled_from(above))
        for j, x in enumerate(layers):
            nodes[(v << j) - 1 : ((v + 1) << j) - 1] = [x] * (1 << j)

    fill(1, [])
    return LittlestoneTree(tuple(nodes))


@settings(max_examples=300, deadline=None)
@given(st.one_of(cube_like_classes(), finite_classes()), st.data())
def test_verify_against_counts_match_the_path_by_path_reference(fc, data):
    # Counted at no node, at the default switch, and at every uniform
    # subtree the walk reaches, the answer is the reference's.
    tree = data.draw(patchy_trees(fc))
    want = naive_verify_against(tree.labels, fc)
    for limit in (0, dimensions.CODES_PER_PATH, 2**30):
        assert with_codes_per_path(limit, tree.verify_against, fc) == want


def test_verify_against_counts_a_uniform_subtree_once(monkeypatch):
    counts: list[list[int]] = []
    shatters = dimensions._shatters

    def counting(codes, columns):
        counts.append(list(columns))
        return shatters(codes, columns)

    def no_cut(self, x, y):
        raise AssertionError("a counted subtree is not cut")

    monkeypatch.setattr(dimensions, "_shatters", counting)
    cube = hypercube_class(3)
    # The full cube's uniform tree: one count on all its codes, no cut.
    with monkeypatch.context() as mp:
        mp.setattr(FiniteClass, "labelled", no_cut)
        assert LittlestoneTree.uniform((0, 1, 2)).verify_against(cube)
        # A point repeated in the layers fails the count.
        assert not LittlestoneTree.uniform((0, 1, 0)).verify_against(cube)
    assert counts == [[0, 1, 2], [0, 1, 0]]
    # Root 0, then uniform subtrees on (1, 2) and on (0, 2): point 0 is
    # fixed above the second, so its count sees one label there and fails.
    counts.clear()
    tree = LittlestoneTree((0, 1, 0, 2, 2, 2, 2))
    assert not naive_verify_against(tree.labels, cube)
    assert not with_codes_per_path(2**30, tree.verify_against, cube)
    assert counts == [[1, 2], [0, 2]]
    assert LittlestoneTree((0, 1, 1, 2, 2, 2, 2)).verify_against(cube)


def test_verify_against_counts_an_optimal_cube_tree_at_its_root(monkeypatch):
    looper = load_tm(Path(__file__).resolve().parents[1] / "machines" / "loop.tm")
    fc = materialize(halting_class(looper), 13, 2**14)
    tree = littlestone_dim(fc).certificate
    calls = []
    shatters = dimensions._shatters
    monkeypatch.setattr(dimensions, "_shatters", lambda codes, columns: calls.append(codes) or shatters(codes, columns))
    monkeypatch.setattr(FiniteClass, "labelled", None)  # any cut would fail
    assert tree.verify_against(fc)
    assert calls == [fc.codes]


@settings(max_examples=100, deadline=None)
@given(finite_classes())
def test_label_lookups_match_the_rows_and_domain_order(fc):
    fresh = FiniteClass(domain=fc.domain, codes=fc.codes, witnesses=fc.witnesses)
    assert [fresh.column(x) for x in fc.domain] == [fc.domain.index(x) for x in fc.domain]
    assert "masks" not in vars(fresh)  # a column lookup builds no masks
    ones = reference_masks(fc.concepts, len(fc.domain))
    for x, mask in zip(fc.domain, ones):
        assert fc.labelled(x, 1) == mask
        assert fc.labelled(x, 0) == mask ^ fc.all_ids
    for x in (max(fc.domain) + 1, -1, 0.5, "0", [0]):
        for lookup in (fc.column, lambda x: fc.labelled(x, 0), lambda x: fc.labelled(x, 1)):
            with pytest.raises(ValueError, match=re.escape(f"point {x} not in domain window")):
                lookup(x)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(finite_classes(), cube_like_classes()),
    st.sampled_from(["soa", "const0", "const1", "random"]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=16),
)
def test_flip_transcripts_match_the_max_of_min_reference(fc, learner, seed, rounds):
    def play(adversary):
        player = {
            "soa": lambda: SOALearner(fc),
            "const0": lambda: ConstantLearner(0),
            "const1": lambda: ConstantLearner(1),
            "random": lambda: RandomLearner(seed),
        }[learner]()
        return play_online_game(fc, player, adversary, rounds)

    assert play(MajorityFlipAdversary(fc)) == play(NaiveMajorityFlipAdversary(fc))


def test_masked_materialize_reads_only_the_activity_predicate(halters, loopers):
    for base in (halting_class(halters[3]), halting_class(loopers[0]), goedel_class(inconsistent_toy())):
        calls = {"evaluate": 0, "active": 0}

        def evaluate(m, n):
            calls["evaluate"] += 1
            return base.evaluate(m, n)

        def active(n):
            calls["active"] += 1
            return base.active(n)

        ic = IndexedClass(evaluate=evaluate, active=active)
        for domain_max in (0, 1, 5, 12):
            for index_count in (1, 2, 3, 7, 64, 100, 4096, 5000):
                calls.update(evaluate=0, active=0)
                fc = materialize(ic, domain_max, index_count)
                assert calls["evaluate"] == 0
                assert calls["active"] <= min(domain_max + 1, (index_count - 1).bit_length())
                assert fc.witnesses[-1] < index_count
                assert all(
                    row == tuple(bit_of(w, n) if base.active(n) else 0 for n in fc.domain)
                    for row, w in zip(fc.concepts, fc.witnesses)
                )
