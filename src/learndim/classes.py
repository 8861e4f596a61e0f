"""Computable function classes as total indexed evaluators, and their finite
materializations on domain/index windows.

The central constructions gate the bits of the index sequence behind a
per-point activity predicate:

* goedel_class:   bit passes iff the point decodes to a contradictory
                  theorem pair of the formal system,
* halting_class:  bit passes iff the machine has not halted within the
                  point's step budget,
* goedel_prefix_class: bit passes iff the theorem prefix up to the point
                  is still consistent.

step_class is the threshold family (plus the zero function at index 0) used
by the teaching constructions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .encoding import seq_bit
from .errors import BudgetExceededError
from .formal import FormalSystem, active_index, contradiction_scanner, system_from_spec
from .turing import TuringMachine, halt_scanner, load_tm

EVAL_BUDGET_ENV = "LEARNDIM_EVAL_BUDGET"
DEFAULT_EVAL_BUDGET = 2**24


def eval_budget() -> int:
    """Evaluator-call budget for materialization, also the bound on a PAC
    experiment's total sample draws; overridable via env var, which must
    then hold a positive integer (ValueError otherwise)."""
    raw = os.environ.get(EVAL_BUDGET_ENV, "").strip()
    if raw and (not raw.isdecimal() or int(raw) == 0):
        raise ValueError(f"{EVAL_BUDGET_ENV} must be a positive integer, got {raw!r}")
    return int(raw) if raw else DEFAULT_EVAL_BUDGET


@dataclass(frozen=True)
class IndexedClass:
    """A class { n -> evaluate(m, n) : m in N } given by a total evaluator.

    `active` is set for the bit-masking constructions above: evaluate(m, n)
    equals seq_bit(m, n) when active(n) and 0 otherwise.  It powers witness
    construction and fast exact materialization; leave it None for classes
    not of that shape.
    """

    evaluate: Callable[[int, int], int]
    provenance: str
    label: str
    active: Callable[[int], bool] | None = None


@dataclass(frozen=True)
class Concept:
    """A single total 0/1 function with a finite description."""

    kind: str  # "zero" | "threshold" | "system" | "machine"
    fn: Callable[[int], int]
    threshold: int | None = None
    label: str = ""

    def __call__(self, n: int) -> int:
        return self.fn(n)


def zero_concept() -> Concept:
    return Concept(kind="zero", fn=lambda n: 0, label="zero")


def step_concept(k: int) -> Concept:
    """Threshold function: 1 at points >= k, 0 below."""
    if k < 0:
        raise ValueError("threshold must be nonnegative")
    return Concept(
        kind="threshold",
        fn=lambda n, _k=k: 1 if n >= _k else 0,
        threshold=k,
        label=f"threshold_{k}",
    )


@dataclass(frozen=True)
class FiniteClass:
    """Deduplicated restriction of a class to a finite domain window.

    Concepts are bit vectors over `domain`; `witnesses[i]` is the smallest
    index realizing concept i (or the row's first position for synthetic
    classes built via from_rows).  from_rows and materialize list concepts
    in strictly increasing witness order, so the lowest id of a set of
    concepts is the one with the smallest witness.  Sets of concepts are
    `int` bitmasks over concept ids: bit i stands for concept i.  `masks`
    packs the class by column (one id mask per point), `codes` by row (one
    column mask per concept).
    """

    domain: tuple[int, ...]
    concepts: tuple[tuple[int, ...], ...]
    witnesses: tuple[int, ...]

    @classmethod
    def from_rows(cls, domain: Sequence[int], rows: Iterable[Sequence[int]]) -> "FiniteClass":
        dom = tuple(domain)
        seen: dict[tuple[int, ...], int] = {}
        for i, row in enumerate(rows):
            vec = tuple(row)
            if len(vec) != len(dom):
                raise ValueError("row length does not match domain size")
            seen.setdefault(vec, i)
        concepts = tuple(seen.keys())
        witnesses = tuple(seen.values())
        return cls(domain=dom, concepts=concepts, witnesses=witnesses)

    def index_of(self, row: Sequence[int]) -> int:
        vec = tuple(row)
        for i, concept in enumerate(self.concepts):
            if concept == vec:
                return i
        raise ValueError("concept not in class")

    def column(self, x: int) -> int:
        try:
            return self.domain.index(x)
        except ValueError:
            raise ValueError(f"point {x} not in domain window") from None

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per domain column, the bitmask of the concepts labelling it 1
        (built from a binary string, linear in the number of concepts)."""
        rows = self.concepts[::-1]
        return tuple(
            int("".join(["1" if concept[col] else "0" for concept in rows]) or "0", 2)
            for col in range(len(self.domain))
        )

    @cached_property
    def codes(self) -> tuple[int, ...]:
        """Per concept, its row packed into an int: bit j set when the
        concept labels column j with 1 (linear in the number of cells)."""
        table = bytes.maketrans(b"\x00\x01", b"01")
        return tuple(int(bytes(row[::-1]).translate(table) or b"0", 2) for row in self.concepts)

    @cached_property
    def all_ids(self) -> int:
        """Bitmask of every concept."""
        return (1 << len(self.concepts)) - 1

    def labelled(self, x: int, y: int) -> int:
        """Bitmask of the concepts labelling point x with y."""
        ones = self.masks[self.column(x)]
        return ones if y else ones ^ self.all_ids

    def to_csv_text(self) -> str:
        header = "witness," + ",".join(str(x) for x in self.domain)
        lines = [header]
        for w, concept in zip(self.witnesses, self.concepts):
            lines.append(str(w) + "," + ",".join(str(b) for b in concept))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "domain": list(self.domain),
            "concepts": [list(c) for c in self.concepts],
            "witnesses": list(self.witnesses),
        }


def masked_sequence_class(
    active: Callable[[int], bool], provenance: str, label: str
) -> IndexedClass:
    """Class whose m-th member is the m-th bit sequence gated by `active`."""

    def evaluate(m: int, n: int) -> int:
        return seq_bit(m, n) if active(n) else 0

    return IndexedClass(evaluate=evaluate, provenance=provenance, label=label, active=active)


def goedel_class(fs: FormalSystem) -> IndexedClass:
    """Bits pass at points whose pair decodes to a contradictory theorem pair."""
    return masked_sequence_class(
        lambda n: active_index(fs, n), "goedel", f"goedel[{fs.name}]"
    )


def halting_class(tm: TuringMachine) -> IndexedClass:
    """Bits pass at point n while the machine has not halted within n steps."""
    onset = halt_scanner(tm)
    return masked_sequence_class(lambda n: onset(n) is None, "halting", "halting")


def goedel_prefix_class(fs: FormalSystem) -> IndexedClass:
    """Bits pass at point n while the theorem prefix 0..n is consistent."""
    onset = contradiction_scanner(fs)
    return masked_sequence_class(
        lambda n: onset(n) is None, "goedel_prefix", f"goedel_prefix[{fs.name}]"
    )


def step_class() -> IndexedClass:
    """Thresholds indexed by m >= 1 (threshold m-1) plus the zero function at m = 0."""

    def evaluate(m: int, n: int) -> int:
        if m == 0:
            return 0
        return 1 if n >= m - 1 else 0

    return IndexedClass(evaluate=evaluate, provenance="step", label="step")


def f_of_system(fs: FormalSystem) -> Concept:
    """Indicator of prefix inconsistency; a member of the step family.

    Zero everywhere iff the system is consistent, otherwise a threshold at
    the inconsistency onset.
    """
    onset = contradiction_scanner(fs)
    return Concept(
        kind="system",
        fn=lambda n: 0 if onset(n) is None else 1,
        label=f"f[{fs.name}]",
    )


def f_of_machine(tm: TuringMachine) -> Concept:
    """Indicator of halting within n steps; a member of the step family."""
    onset = halt_scanner(tm)
    return Concept(kind="machine", fn=lambda n: 0 if onset(n) is None else 1, label="f[machine]")


def saturating_index_count(domain_max: int) -> int:
    """Index window guaranteeing every achievable pattern on [0, domain_max]:
    indices below 2**(N+1) have support covering the whole window."""
    return 2 ** (domain_max + 1)


def _magnitude(n: int) -> str:
    """n in decimal, or as a power of two once it is too long to print."""
    return str(n) if n.bit_length() <= 256 else f"at least 2**{n.bit_length() - 1}"


def materialize(
    ic: IndexedClass,
    domain_max: int,
    index_count: int,
    *,
    budget: int | None = None,
) -> FiniteClass:
    """Deduplicated window { evaluate(m, .)|[0, domain_max] : m < index_count }.

    Keeps the smallest witness index per concept, ordered by witness.  Fails
    with BudgetExceededError when (domain_max + 1) * index_count exceeds the
    evaluation budget, signalling the caller to shrink the window.
    """
    if domain_max < 0:
        raise ValueError("domain_max must be nonnegative")
    if index_count < 1:
        raise ValueError("index_count must be at least 1")
    limit = eval_budget() if budget is None else budget
    cost = (domain_max + 1) * index_count
    if cost > limit:
        raise BudgetExceededError(
            f"window ({_magnitude(domain_max)}, {_magnitude(index_count)}) needs "
            f"{_magnitude(cost)} evaluator calls, budget is {limit}"
        )
    domain = tuple(range(domain_max + 1))

    if ic.active is not None and index_count & (index_count - 1) == 0:
        return _materialize_masked(ic, domain, index_count)

    seen: dict[tuple[int, ...], int] = {}
    for m in range(index_count):
        row = tuple(ic.evaluate(m, n) for n in domain)
        seen.setdefault(row, m)
    return FiniteClass(
        domain=domain, concepts=tuple(seen.keys()), witnesses=tuple(seen.values())
    )


def _materialize_masked(
    ic: IndexedClass, domain: tuple[int, ...], index_count: int
) -> FiniteClass:
    """Exact fast path for bit-masked classes with a power-of-two index window.

    Indices m < 2**t realize precisely the patterns over the active positions
    below t (bits at or above t are 0 for every such m), and the smallest
    witness of a pattern is the index with exactly those bits set.  Agrees
    with the generic scan by construction; the test suite cross-checks.
    """
    assert ic.active is not None
    t = index_count.bit_length() - 1  # index_count == 2**t
    # Active positions at or beyond t are constantly 0 for every m < 2**t.
    free = [n for n in domain if n < t and ic.active(n)]

    entries: list[tuple[int, tuple[int, ...]]] = []
    for bits in range(2**len(free)):
        assignment = {n: (bits >> k) & 1 for k, n in enumerate(free)}
        row = tuple(assignment.get(n, 0) for n in domain)
        witness = sum(1 << n for n, b in assignment.items() if b)
        entries.append((witness, row))
    entries.sort()
    return FiniteClass(
        domain=domain,
        concepts=tuple(row for _, row in entries),
        witnesses=tuple(w for w, _ in entries),
    )


def class_from_spec(spec: Mapping) -> IndexedClass:
    """Build a class from a config mapping.

    {"construction": "goedel" | "goedel_prefix", "system": <system spec>}
    {"construction": "halting", "machine": <path to machine file>}
    {"construction": "step"}
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"class spec must be a JSON object, got {type(spec).__name__}")
    construction = spec.get("construction")
    if construction == "step":
        return step_class()
    if construction in ("goedel", "goedel_prefix"):
        system = spec.get("system")
        if not isinstance(system, Mapping):
            raise ValueError(f"{construction} construction requires a 'system' mapping")
        fs = system_from_spec(system)
        return goedel_class(fs) if construction == "goedel" else goedel_prefix_class(fs)
    if construction == "halting":
        machine = spec.get("machine")
        if not isinstance(machine, str) or not machine:
            raise ValueError("halting construction requires a 'machine' path")
        return halting_class(load_tm(machine))
    raise ValueError(f"unknown class spec: construction {construction!r}")


def load_class_spec(path) -> IndexedClass:
    with open(path, "r", encoding="utf-8") as fh:
        return class_from_spec(json.load(fh))
