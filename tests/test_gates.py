"""Differential tests: the resumable halting and contradiction scans behind
both gates against the literal oracles, over query sequences that rise,
fall and repeat, the contradiction scan on the toys' closed forms and on
enumerations that take the scanning loop; and the halting scan against
plain stepping, tape growth and its refusal included."""

from __future__ import annotations

import random
from functools import partial
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from learndim import (
    FormalSystem,
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
    turing,
)

from conftest import BEAVER2, COUNTER, LOOP_TEXTS, bounded_counter_text, halter_text
from oracles import (
    halting_step_oracle,
    inconsistency_onset_oracle,
    prefix_consistent_oracle,
    stepping_halt_scanner,
)

MACHINES = (
    [parse_tm(halter_text(k)) for k in range(11)]
    + [parse_tm(text) for text in LOOP_TEXTS]
    + [parse_tm(BEAVER2)]
)

machines = st.sampled_from(MACHINES)


def listed_then_evens(codes: tuple[int, ...], i: int) -> int:
    return codes[i] if i < len(codes) else 2 * i


toys = st.one_of(
    st.just(consistent_toy()),
    st.just(inconsistent_toy()),
    st.integers(min_value=0, max_value=30).map(inconsistent_toy_at),
)
# The toys take the scanner's closed forms.  The same enumerations behind a
# lambda, and listed codes (odd ones first, repeats, and clashes wherever
# they fall) followed by evens, take its scanning loop.
systems = st.one_of(
    toys,
    toys.map(lambda fs: FormalSystem(theorem=lambda i: fs.theorem(i))),
    st.lists(st.integers(min_value=0, max_value=60), max_size=40).map(
        lambda codes: FormalSystem(theorem=partial(listed_then_evens, tuple(codes)))
    ),
)


def machine_text(states, alphabet, blank, initial, table) -> str:
    rows = [f"{q} {a} -> {w} {m} {nxt}" for (q, a), (w, m, nxt) in table.items()]
    header = [
        f"states: {' '.join(states)}",
        f"alphabet: {' '.join(alphabet)}",
        f"blank: {blank}",
        f"initial: {initial}",
        "halting: halt",
    ]
    return "\n".join(header + rows) + "\n"


@st.composite
def total_machines(draw):
    """Random total machines: 1-4 working states, 2-3 symbols, any blank,
    moves both ways, and next states that include the halting state."""
    working = [f"q{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    states = working + ["halt"]
    alphabet = ("_", "0", "1")[: draw(st.integers(min_value=2, max_value=3))]
    table = {
        (q, a): (draw(st.sampled_from(alphabet)), draw(st.sampled_from("LR")),
                 draw(st.sampled_from(states)))
        for q in working
        for a in alphabet
    }
    blank, initial = draw(st.sampled_from(alphabet)), draw(st.sampled_from(working))
    return parse_tm(machine_text(states, alphabet, blank, initial, table))


# A machine that starts in its halting state, with a table that is never read.
HALTS_AT_START = parse_tm(machine_text(
    ["q0", "halt"], ("_", "1"), "1", "halt",
    {("q0", "_"): ("1", "L", "q0"), ("q0", "1"): ("_", "R", "halt")},
))


def assert_scans_match_oracle(tm, queries) -> None:
    """run_bounded, f_of_machine and halting_class(...).active against the
    oracle; the last two share one paused run across the queries."""
    f = f_of_machine(tm)
    ic = halting_class(tm)
    for n in queries:
        k = halting_step_oracle(tm, n)
        result = run_bounded(tm, n)
        assert (result.halted, result.steps) == ((False, n) if k is None else (True, k))
        assert f(n) == int(k is not None)
        assert ic.active(n) == (k is None)


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


# From a 4-cell start tape, runs of up to 300 steps double the tape several
# times on whichever sides the head visits.
@given(total_machines(), query_sequences(300), st.sampled_from([4, turing.TAPE_START]))
@example(HALTS_AT_START, [0, 3, 0], 4)
def test_generated_machines_match_oracle(tm, queries, tape_start):
    with mock.patch.object(turing, "TAPE_START", tape_start):
        assert_scans_match_oracle(tm, queries)


def test_wide_alphabet_machine_matches_oracle():
    # 300 symbols do not fit a byte, so the run keeps its tape as a list.
    # This seed's machine halts at step 283, on cells -4..12, having
    # written 34 symbols past 255.
    rng = random.Random(319)
    alphabet = tuple(f"s{i:03d}" for i in range(300))
    table = {
        (q, a): (rng.choice(alphabet), rng.choice("LR"), rng.choice(("q0", "q1")))
        for q in ("q0", "q1")
        for a in alphabet
    }
    table[("q1", "s299")] = ("s299", "L", "halt")
    tm = parse_tm(machine_text(["q0", "q1", "halt"], alphabet, "s150", "q0", table))
    assert halting_step_oracle(tm, 1000) == 283
    queries = [0, 5, 1, 40, 282, 2000, 283, 700, 3000]
    for tape_start in (4, turing.TAPE_START):
        with mock.patch.object(turing, "TAPE_START", tape_start):
            assert_scans_match_oracle(tm, queries)


def outcome(query, n: int):
    """query(n), or the type and message of the exception it raised."""
    try:
        return query(n)
    except Exception as exc:
        return type(exc), str(exc)


def assert_scans_match_stepping(tm, queries) -> None:
    """run_bounded, f_of_machine and halting_class(...).active against plain
    stepping: answers, exception types and messages.  The last two share one
    paused run across the queries, as the reference does."""
    f = f_of_machine(tm)
    ic = halting_class(tm)
    reference = stepping_halt_scanner(tm)
    for n in queries:
        fresh = outcome(stepping_halt_scanner(tm), n)
        want = fresh if isinstance(fresh, tuple) else (
            (False, n) if fresh is None else (True, fresh))
        result = outcome(lambda n: run_bounded(tm, n), n)
        assert (result if isinstance(result, tuple) else (result.halted, result.steps)) == want
        shared = outcome(reference, n)
        if isinstance(shared, tuple):
            assert outcome(f, n) == outcome(ic.active, n) == shared
        else:
            assert outcome(f, n) == int(shared is not None)
            assert outcome(ic.active, n) == (shared is None)


# Machines that the never-halting proofs must see through: the loopers (one
# runaway each way, two cycles, a runaway writer), the counter, which
# neither proof catches, and bounded counters, whose head and state recur
# at stretch ends long before they halt.
PROOF_MACHINES = (
    [parse_tm(text) for text in LOOP_TEXTS]
    + [parse_tm(COUNTER), parse_tm(BEAVER2)]
    + [parse_tm(bounded_counter_text(k)) for k in (3, 6, 8)]
)


# Creeps left and never halts: from q1 it runs left over blanks, but a 0
# under its head turns it back, so it is no runaway.
CREEPER = parse_tm(machine_text(
    ["q0", "q1", "halt"], ("_", "0"), "_", "q0",
    {("q0", "_"): ("0", "R", "q1"), ("q0", "0"): ("_", "L", "q0"),
     ("q1", "_"): ("_", "L", "q1"), ("q1", "0"): ("_", "L", "q0")},
))


# CREEPER with 299 more symbols, none of them ever written: its tape is a
# list of ints, not a bytearray.
EXTRA = [f"x{i:03d}" for i in range(299)]
WIDE_CREEPER = parse_tm(machine_text(
    ["q0", "q1", "halt"], ("_", "0", *EXTRA), "_", "q0",
    {**{(q, a): CREEPER.transitions[(q, a)] for q in ("q0", "q1") for a in "_0"},
     **{(q, a): ("_", "L", q) for q in ("q0", "q1") for a in EXTRA}},
))

# bounded_counter_text(8), but the carry into the wall moves right through
# r0 ... r39 before it halts: their blank chain moves one way into the
# halting row, which is no runaway.
RUN_OUT = [f"r{i}" for i in range(40)]
RUN_OUT_COUNTER = parse_tm(
    bounded_counter_text(8)
    .replace("inc w -> w R halt", "inc w -> w R r0")
    .replace(" halt\nalphabet", f" {' '.join(RUN_OUT)} halt\nalphabet")
    + "".join(f"{q} {a} -> {a} R {nxt}\n"
              for q, nxt in zip(RUN_OUT, RUN_OUT[1:] + ["halt"]) for a in "_01mw")
)


# From a 4-cell start tape and under a limit of 32 or 256 bytes, runs of a
# few thousand steps grow the tape often, and walkers are refused.
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(PROOF_MACHINES), total_machines()),
       query_sequences(3000), st.sampled_from([32, 256]))
@example(HALTS_AT_START, [0, 3, 0], 32)
@example(CREEPER, [43], 32)
@example(parse_tm(bounded_counter_text(6)), [262], 32)
@example(parse_tm(LOOP_TEXTS[0]), [30], 32)
@example(RUN_OUT_COUNTER, [20000], 256)
@example(WIDE_CREEPER, [100000], 2**15)
@example(WIDE_CREEPER, [100000], 2**18)
def test_halting_scans_match_plain_stepping(tm, queries, tape_limit):
    with mock.patch.object(turing, "TAPE_START", 4), \
            mock.patch.object(turing, "TAPE_LIMIT", tape_limit):
        assert_scans_match_stepping(tm, queries)
