"""Shared fixtures: machine descriptions and random finite classes."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from learndim import FiniteClass, parse_tm

MACHINES_DIR = Path(__file__).resolve().parent.parent / "machines"


def halter_text(k: int) -> str:
    """A machine that halts after exactly k steps on the empty input."""
    if k == 0:
        return "states: halt\nalphabet: _\nblank: _\ninitial: halt\nhalting: halt\n"
    states = " ".join([f"q{i}" for i in range(k)] + ["halt"])
    lines = [
        f"states: {states}",
        "alphabet: _ 1",
        "blank: _",
        "initial: q0",
        "halting: halt",
    ]
    for i in range(k):
        nxt = "halt" if i + 1 == k else f"q{i + 1}"
        lines.append(f"q{i} _ -> 1 R {nxt}")
        lines.append(f"q{i} 1 -> 1 R q{i}")
    return "\n".join(lines) + "\n"


LOOP_RIGHT = """\
states: q0 halt
alphabet: _ 1
blank: _
initial: q0
halting: halt
q0 _ -> _ R q0
q0 1 -> 1 R q0
"""

LOOP_LEFT = """\
states: q0 halt
alphabet: _ 1
blank: _
initial: q0
halting: halt
q0 _ -> _ L q0
q0 1 -> 1 L q0
"""

LOOP_PINGPONG = """\
states: q0 q1 halt
alphabet: _ 1
blank: _
initial: q0
halting: halt
q0 _ -> 1 R q1
q0 1 -> 1 R q1
q1 _ -> _ L q0
q1 1 -> 1 L q0
"""

LOOP_WRITER = """\
states: q0 halt
alphabet: _ 1
blank: _
initial: q0
halting: halt
q0 _ -> 1 R q0
q0 1 -> 1 R q0
"""

LOOP_ERASER = """\
states: q0 q1 halt
alphabet: _ 1
blank: _
initial: q0
halting: halt
q0 _ -> 1 L q1
q0 1 -> _ L q1
q1 _ -> 1 R q0
q1 1 -> _ R q0
"""

BEAVER2 = """\
states: A B halt
alphabet: _ 1
blank: _
initial: A
halting: halt
A _ -> 1 R B
A 1 -> 1 L B
B _ -> 1 L A
B 1 -> 1 R halt
"""

LOOP_TEXTS = (LOOP_RIGHT, LOOP_LEFT, LOOP_PINGPONG, LOOP_WRITER, LOOP_ERASER)

# A binary counter that never halts and never repeats a configuration: a
# marker m at cell 0, the count from cell 1 on, least digit first; each
# increment carries rightward and walks back to the marker, and a carry onto
# a blank widens the count by a cell.  It defeats both never-halting proofs
# of turing.halt_scanner, so its runs time plain stepping.
COUNTER = """\
states: q0 inc back halt
alphabet: _ 0 1 m
blank: _
initial: q0
halting: halt
q0 _ -> m R inc
q0 0 -> 0 R inc
q0 1 -> 1 R inc
q0 m -> m R inc
inc _ -> 1 L back
inc 0 -> 1 L back
inc 1 -> 0 R inc
inc m -> m R inc
back _ -> _ R inc
back 0 -> 0 L back
back 1 -> 1 L back
back m -> m R inc
"""


def bounded_counter_text(k: int) -> str:
    """COUNTER with a wall w after k digits: it halts when the count first
    carries into the wall, after counting to 2**k - 1."""
    setup = [f"p{i}" for i in range(k + 2)]
    symbols = ("_", "0", "1", "m", "w")
    rules = {(p, a): f"{a} R {p}" for p in setup for a in symbols}
    rules[("p0", "_")] = "m R p1"
    for i in range(1, k + 1):
        rules[(f"p{i}", "_")] = f"0 R p{i + 1}"
    rules[(f"p{k + 1}", "_")] = "w L back"
    for a in symbols:
        rules[("inc", a)] = {"0": "1 L back", "1": "0 R inc", "w": "w R halt"}.get(a, f"{a} R inc")
        rules[("back", a)] = {"0": "0 L back", "1": "1 L back"}.get(a, f"{a} R inc")
    lines = [
        f"states: {' '.join(setup)} inc back halt",
        f"alphabet: {' '.join(symbols)}",
        "blank: _",
        "initial: p0",
        "halting: halt",
    ]
    lines += [f"{q} {a} -> {rule}" for (q, a), rule in rules.items()]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def halters():
    return {k: parse_tm(halter_text(k)) for k in range(0, 11)}


@pytest.fixture(scope="session")
def loopers():
    return [parse_tm(text) for text in LOOP_TEXTS]


@pytest.fixture(scope="session")
def beaver():
    return parse_tm(BEAVER2)


def random_finite_class(
    rng: random.Random, max_points: int = 6, max_concepts: int = 12
) -> FiniteClass:
    """Random deduplicated class on a prefix domain."""
    n_points = rng.randint(1, max_points)
    n_concepts = rng.randint(1, min(max_concepts, 2**n_points))
    codes = rng.sample(range(2**n_points), n_concepts)
    rows = [tuple((code >> i) & 1 for i in range(n_points)) for code in codes]
    return FiniteClass.from_rows(range(n_points), rows)


def hypercube_class(k: int, padding: int = 0) -> FiniteClass:
    """All 2**k patterns on the first k points, zero-padded to k + padding."""
    rows = [
        tuple((code >> i) & 1 for i in range(k)) + (0,) * padding
        for code in range(2**k)
    ]
    return FiniteClass.from_rows(range(k + padding), rows)
