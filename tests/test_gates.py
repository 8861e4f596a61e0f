"""Differential tests: the resumable halting and contradiction scans behind
both gates against the literal oracles, over query sequences that rise,
fall and repeat."""

from __future__ import annotations

from hypothesis import given, strategies as st

from learndim import (
    consistent_toy,
    f_of_machine,
    f_of_system,
    goedel_prefix_class,
    halting_class,
    inconsistency_onset,
    inconsistent_toy,
    inconsistent_toy_at,
    parse_tm,
    prefix_consistent,
    run_bounded,
)

from conftest import BEAVER2, LOOP_TEXTS, halter_text
from oracles import (
    halting_step_oracle,
    inconsistency_onset_oracle,
    prefix_consistent_oracle,
)

MACHINES = (
    [parse_tm(halter_text(k)) for k in range(11)]
    + [parse_tm(text) for text in LOOP_TEXTS]
    + [parse_tm(BEAVER2)]
)

machines = st.sampled_from(MACHINES)
systems = st.one_of(
    st.just(consistent_toy()),
    st.just(inconsistent_toy()),
    st.integers(min_value=0, max_value=30).map(inconsistent_toy_at),
)


def query_sequences(max_n: int):
    base = st.lists(st.integers(min_value=0, max_value=max_n), min_size=1, max_size=20)
    return st.one_of(
        base,
        base.map(sorted),
        base.map(lambda q: sorted(q, reverse=True)),
        base.map(lambda q: q + q[::-1] + q),
    )


@given(machines, query_sequences(60))
def test_halting_gate_matches_oracle(tm, queries):
    f = f_of_machine(tm)
    ic = halting_class(tm)
    for n in queries:
        halted = halting_step_oracle(tm, n) is not None
        assert f(n) == int(halted)
        assert ic.active(n) == (not halted)


@given(systems, query_sequences(70))
def test_contradiction_gate_matches_oracle(fs, queries):
    f = f_of_system(fs)
    ic = goedel_prefix_class(fs)
    for n in queries:
        consistent = prefix_consistent_oracle(fs.theorem, n)
        assert f(n) == int(not consistent)
        assert ic.active(n) == consistent


@given(machines, query_sequences(60))
def test_run_bounded_matches_oracle(tm, queries):
    for n in queries:
        k = halting_step_oracle(tm, n)
        result = run_bounded(tm, n)
        assert (result.halted, result.steps) == ((False, n) if k is None else (True, k))


@given(systems, query_sequences(70))
def test_formal_scans_match_oracle(fs, queries):
    for n in queries:
        assert prefix_consistent(fs, n) == prefix_consistent_oracle(fs.theorem, n)
        assert inconsistency_onset(fs, n) == inconsistency_onset_oracle(fs.theorem, n)
