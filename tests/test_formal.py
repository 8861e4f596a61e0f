"""Toy formal systems and their contradiction predicates, and the toys'
onsets in closed form against the scanning loop and the oracle."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from learndim import (
    FormalSystem,
    active_index,
    consistent_toy,
    inconsistency_onset,
    inconsistent_toy,
    inconsistent_toy_at,
    negation,
    pair,
    prefix_consistent,
    system_from_spec,
)
from learndim.formal import contradiction_scanner

from oracles import inconsistency_onset_oracle


def test_negation_values_and_involution():
    assert negation(0) == 1
    assert negation(7) == 6
    for s in range(10_000):
        assert negation(negation(s)) == s
        assert negation(s) != s


def test_negative_theorem_code_rejected_by_scan():
    # theorem(3) = -1 raises negation's ValueError, on a fresh scan and on a
    # paused one, and again when the scan is retried.
    fs = FormalSystem(theorem=lambda i: -1 if i == 3 else 2 * i + 4)
    onset = contradiction_scanner(fs)
    assert onset(2) is None
    for scan in (onset, contradiction_scanner(fs), onset):
        with pytest.raises(ValueError, match="nonnegative"):
            scan(10)
    assert onset(2) is None


def test_consistent_toy_enumeration():
    fs = consistent_toy()
    assert fs.theorem(3) == 6
    assert all(fs.theorem(i) % 2 == 0 for i in range(2000))


def test_consistent_toy_never_active():
    fs = consistent_toy()
    assert not any(active_index(fs, n) for n in range(10_000))


def test_inconsistent_toy_enumeration():
    fs = inconsistent_toy()
    assert fs.theorem(5) == 5
    # Both halves of every contradictory pair are enumerated.
    for k in range(200):
        assert fs.theorem(2 * k) == 2 * k
        assert fs.theorem(2 * k + 1) == negation(2 * k)


def test_inconsistent_toy_active_at_pair_0_1():
    fs = inconsistent_toy()
    # theorem(0) = 0 and theorem(1) = 1 = negation(0).
    assert active_index(fs, pair(0, 1))


def test_inconsistent_toy_has_many_active_indices():
    fs = inconsistent_toy()
    count = sum(1 for n in range(100_000) if active_index(fs, n))
    assert count >= 100


def test_active_count_grows_across_prefix_windows():
    fs = inconsistent_toy()
    counts = []
    active = 0
    checkpoints = {10**3, 10**4, 10**5}
    for n in range(10**5 + 1):
        if active_index(fs, n):
            active += 1
        if n in checkpoints:
            counts.append(active)
    assert counts[0] < counts[1] < counts[2]


def test_prefix_consistent_consistent_system():
    fs = consistent_toy()
    assert prefix_consistent(fs, 1000)
    assert prefix_consistent(fs, 0)


def test_prefix_consistent_inconsistent_toy():
    fs = inconsistent_toy()
    # theorem(0) = 0, theorem(1) = 1 = negation(0).
    assert prefix_consistent(fs, 0)
    assert not prefix_consistent(fs, 1)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
def test_delayed_onset_located_by_scan(k):
    fs = inconsistent_toy_at(k)
    onset = inconsistency_onset(fs, 1000)
    assert onset is not None
    assert all(prefix_consistent(fs, n) for n in range(onset))
    assert not any(prefix_consistent(fs, n) for n in range(onset, onset + 20))


def test_onset_none_for_consistent_system():
    assert inconsistency_onset(consistent_toy(), 2000) is None


def test_toy_onsets_in_closed_form_match_the_scan_and_the_oracle():
    # Queries at k, k + 1 and k + 2, rising then falling, on one scanner
    # each for the toy and for the same enumeration behind a lambda, which
    # the scanner walks theorem by theorem.
    for k in range(301):
        toy = inconsistent_toy_at(k)
        wrapped = FormalSystem(theorem=lambda i, theorem=toy.theorem: theorem(i))
        closed, scan = contradiction_scanner(toy), contradiction_scanner(wrapped)
        queries = [k, k + 1, k + 2]
        codes = [toy.theorem(i) for i in range(k + 3)]
        want = {n: inconsistency_onset_oracle(codes.__getitem__, n) for n in queries}
        for n in queries + queries[::-1]:
            assert closed(n) == scan(n) == want[n], (k, n)


def test_toy_scans_hold_no_theorem_set():
    # Scanning the theorems holds a set of a million codes: 67 MB each.
    tracemalloc.start()
    try:
        onset = inconsistency_onset(inconsistent_toy_at(10**6), 2 * 10**6)
        consistent = prefix_consistent(consistent_toy(), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (onset, consistent) == (10**6 + 1, True)
    assert peak < 2**20


def test_delayed_onset_must_be_a_nonnegative_integer():
    with pytest.raises(TypeError):
        inconsistent_toy_at(2.5)
    with pytest.raises(ValueError, match="nonnegative"):
        inconsistent_toy_at(-1)


@given(st.integers(min_value=0, max_value=60))
def test_prefix_consistency_antitone(n):
    fs = inconsistent_toy_at(3)
    if not prefix_consistent(fs, n):
        assert not prefix_consistent(fs, n + 1)


def test_system_from_spec():
    assert system_from_spec({"kind": "consistent"}).theorem(4) == 8
    assert system_from_spec({"kind": "inconsistent"}).theorem(4) == 4
    fs = system_from_spec({"kind": "inconsistent_at", "onset": 3})
    assert fs.theorem(0) == 0 and fs.theorem(3) == 0
    with pytest.raises(ValueError):
        system_from_spec({"kind": "nope"})
    with pytest.raises(ValueError):
        system_from_spec({"kind": "inconsistent_at"})
