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
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cached_property
from itertools import repeat

from ._record import Record
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


class IndexedClass(Record):
    """A class { n -> evaluate(m, n) : m in N } given by a total evaluator.

    `active` is set for the bit-masking constructions above: evaluate(m, n)
    equals seq_bit(m, n) when active(n) and 0 otherwise.  materialize builds
    every window of such a class from `active` alone and tree_witness takes
    its layer points from it, so a class that sets `active` must keep this
    contract; leave it None for classes not of that shape.
    """

    evaluate: Callable[[int, int], int]
    provenance: str
    active: Callable[[int], bool] | None = None


class Concept(Record):
    """Threshold function: 1 at points >= threshold, 0 below."""

    threshold: int

    def __call__(self, n: int) -> int:
        return 1 if n >= self.threshold else 0


def step_concept(k: int) -> Concept:
    """Threshold function: 1 at points >= k, 0 below."""
    if k < 0:
        raise ValueError("threshold must be nonnegative")
    return Concept(threshold=k)


# Maps a row's 0/1 entries to the digits of its code, and back.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


# Concepts whose binary digits FiniteClass.masks joins into one string.
MASK_CHUNK = 4096

# Evaluator cells that materialize reads per batch of indexes on a class
# without `active`.
BATCH_CELLS = 2**16


def _pack(row: tuple[int, ...]) -> int:
    """A 0/1 row as an int: bit j set when the row labels column j with 1."""
    return int(bytes(row[::-1]).translate(_DIGITS) or b"0", 2)


def _row_code(i: int, vec: tuple, width: int) -> int:
    """Row i packed, once it is checked to have `width` entries, each 0 or 1."""
    if len(vec) != width:
        raise ValueError("row length does not match domain size")
    if not set(vec) <= {0, 1}:
        raise ValueError(f"row {i} {vec} has an entry other than 0 or 1")
    return _pack(vec)


def _unpack(code: int, top: int) -> tuple[int, ...]:
    """The row packed as `code`, given top = 1 << (number of columns)."""
    return tuple(bin(code | top)[:2:-1].encode().translate(_BITS))


class FiniteClass(Record):
    """Deduplicated restriction of a class to a finite domain window.

    Stored once, packed by row: `codes[i]` is concept i as an int whose bit
    j is its label on column j (on point domain[j]; from_rows refuses a
    domain that repeats a point with ValueError), and `witnesses[i]` is
    the smallest index realizing it (or the row's first position for
    synthetic classes built via from_rows).  from_rows and materialize list
    concepts in strictly increasing witness order, so the lowest id of a
    set of concepts is the one with the smallest witness.  Sets of concepts
    are `int` bitmasks over concept ids: bit i stands for concept i.

    Derived and cached on first use: `masks`, the class packed by column
    (one id mask per point), `concepts`, the rows as tuples of 0/1 for
    output that lists them, and `all_ids`.  `row(i)` builds one row
    without the others.
    """

    domain: tuple[int, ...]
    codes: tuple[int, ...]
    witnesses: tuple[int, ...]

    @classmethod
    def from_rows(cls, domain: Sequence[int], rows: Iterable[Sequence[int]]) -> "FiniteClass":
        dom = tuple(domain)
        if len(set(dom)) < len(dom):
            raise ValueError("domain repeats a point")
        seen: dict[int, int] = {}
        for i, row in enumerate(rows):
            seen.setdefault(_row_code(i, tuple(row), len(dom)), i)
        return cls(domain=dom, codes=tuple(seen), witnesses=tuple(seen.values()))

    def index_of(self, row: Sequence[int]) -> int:
        vec = tuple(row)
        code = _pack(vec) if len(vec) == len(self.domain) and set(vec) <= {0, 1} else None
        if code not in self.codes:
            raise ValueError("concept not in class")
        return self.codes.index(code)

    def column(self, x: int) -> int:
        try:
            return self.domain.index(x)
        except ValueError:
            raise ValueError(f"point {x} not in domain window") from None

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per domain column, the bitmask of the concepts labelling it 1,
        read off the codes' binary digits, highest id first (linear in the
        number of cells).  The digits are joined MASK_CHUNK concepts at a
        time and sliced into per-column pieces, so only the columns' digits
        are held at once."""
        width = len(self.domain) + 3  # "0b", a 1 that fixes the width, a digit per column
        top = 1 << len(self.domain)
        pieces: list[list[str]] = [[] for _ in self.domain]
        for stop in range(len(self.codes), 0, -MASK_CHUNK):
            chunk = self.codes[max(stop - MASK_CHUNK, 0) : stop]
            block = "".join([bin(code | top) for code in reversed(chunk)])
            for j, column in enumerate(pieces):
                column.append(block[width - 1 - j :: width])
        return tuple(int("".join(column) or "0", 2) for column in pieces)

    @cached_property
    def concepts(self) -> tuple[tuple[int, ...], ...]:
        """Per concept, its row: its label on each domain column."""
        top = 1 << len(self.domain)
        return tuple([_unpack(code, top) for code in self.codes])

    def row(self, i: int) -> tuple[int, ...]:
        """Concept i's row, built alone: `concepts[i]` without the others."""
        return _unpack(self.codes[i], 1 << len(self.domain))

    @cached_property
    def all_ids(self) -> int:
        """Bitmask of every concept."""
        return (1 << len(self.codes)) - 1

    def labelled(self, x: int, y: int) -> int:
        """Bitmask of the concepts labelling point x with y."""
        ones = self.masks[self.column(x)]
        return ones if y else ones ^ self.all_ids


def masked_sequence_class(active: Callable[[int], bool], provenance: str) -> IndexedClass:
    """Class whose m-th member is the m-th bit sequence gated by `active`."""

    def evaluate(m: int, n: int) -> int:
        return seq_bit(m, n) if active(n) else 0

    return IndexedClass(evaluate=evaluate, provenance=provenance, active=active)


def goedel_class(fs: FormalSystem) -> IndexedClass:
    """Bits pass at points whose pair decodes to a contradictory theorem pair."""
    return masked_sequence_class(lambda n: active_index(fs, n), "goedel")


def halting_class(tm: TuringMachine) -> IndexedClass:
    """Bits pass at point n while the machine has not halted within n steps."""
    onset = halt_scanner(tm)
    return masked_sequence_class(lambda n: onset(n) is None, "halting")


def goedel_prefix_class(fs: FormalSystem) -> IndexedClass:
    """Bits pass at point n while the theorem prefix 0..n is consistent."""
    onset = contradiction_scanner(fs)
    return masked_sequence_class(lambda n: onset(n) is None, "goedel_prefix")


def step_class() -> IndexedClass:
    """Thresholds indexed by m >= 1 (threshold m-1) plus the zero function at m = 0."""

    def evaluate(m: int, n: int) -> int:
        if m == 0:
            return 0
        return 1 if n >= m - 1 else 0

    return IndexedClass(evaluate=evaluate, provenance="step")


def f_of_system(fs: FormalSystem) -> Callable[[int], int]:
    """Indicator of prefix inconsistency; a member of the step family.

    Zero everywhere iff the system is consistent, otherwise a threshold at
    the inconsistency onset.
    """
    onset = contradiction_scanner(fs)
    return lambda n: 0 if onset(n) is None else 1


def f_of_machine(tm: TuringMachine) -> Callable[[int], int]:
    """Indicator of halting within n steps; a member of the step family."""
    onset = halt_scanner(tm)
    return lambda n: 0 if onset(n) is None else 1


def saturating_index_count(domain_max: int) -> int:
    """Index window guaranteeing every achievable pattern on [0, domain_max]:
    indices below 2**(N+1) have support covering the whole window."""
    return 2 ** (domain_max + 1)


def _magnitude(n: int) -> str:
    """n in decimal, or as a power of two once it is too long to print."""
    return str(n) if n.bit_length() <= 256 else f"at least 2**{n.bit_length() - 1}"


def materialize(ic: IndexedClass, domain_max: int, index_count: int) -> FiniteClass:
    """Deduplicated window { evaluate(m, .)|[0, domain_max] : m < index_count }.

    Keeps the smallest witness index per concept, ordered by witness.  A
    class without `active` is read through its evaluator, one call per cell,
    (domain_max + 1) * index_count calls in all, a batch of consecutive
    indexes of about BATCH_CELLS cells at a time: one evaluator map along
    each column of the batch (along each row when the batch holds fewer
    indexes than points), then the batch's distinct rows kept with their
    first index, and only those packed.  So a batch holds O(BATCH_CELLS)
    cells however large the window, or one row when a row alone is wider.
    A batch with an entry other than 0 or 1 is read again row by row and
    fails as from_rows fails on that row.  A class with `active` never
    calls the evaluator: the row of index m is the set S of active points
    <= domain_max that m carries, the smallest index carrying S is S
    itself, so the window is every such S below index_count, witnessed by
    S.  Either way, fails with BudgetExceededError when (domain_max + 1) *
    index_count exceeds eval_budget(), signalling the caller to shrink the
    window.
    """
    if domain_max < 0:
        raise ValueError("domain_max must be nonnegative")
    if index_count < 1:
        raise ValueError("index_count must be at least 1")
    limit = eval_budget()
    cost = (domain_max + 1) * index_count
    if cost > limit:
        raise BudgetExceededError(
            f"window ({_magnitude(domain_max)}, {_magnitude(index_count)}) needs "
            f"{_magnitude(cost)} evaluator calls, budget is {limit}"
        )
    domain = tuple(range(domain_max + 1))
    if ic.active is None:
        return _read_window(ic.evaluate, domain, index_count)
    # Adding active point n appends only sets >= 2**n, above every earlier
    # set, so the list stays in strictly increasing witness order.
    witnesses = [0]
    for n in range(min(domain_max + 1, (index_count - 1).bit_length())):
        if ic.active(n):
            bit = 1 << n
            witnesses += [w | bit for w in witnesses if w | bit < index_count]
    # The row of witness S is S itself, so the witnesses are the codes.
    codes = tuple(witnesses)
    return FiniteClass(domain=domain, codes=codes, witnesses=codes)


def _read_window(
    evaluate: Callable[[int, int], int], domain: tuple[int, ...], index_count: int
) -> FiniteClass:
    """materialize's window of a class without `active`, read a batch of
    consecutive indexes at a time."""
    width = len(domain)
    points = domain[::-1]  # highest first, so a row reads as its code's digits
    step = max(1, BATCH_CELLS // width)
    seen: dict[int, int] = {}
    for start in range(0, index_count, step):
        indexes = tuple(range(start, min(start + step, index_count)))
        size = len(indexes)
        try:
            # One evaluator map along each line of the batch's longer side.
            if size >= width:
                block = b"".join([bytes(map(evaluate, indexes, repeat(n))) for n in points])
                rows = [block[j::size] for j in range(size)]
            else:
                rows = [bytes(map(evaluate, repeat(m), points)) for m in indexes]
                block = b"".join(rows)
        except (TypeError, ValueError):  # an entry that is no byte
            block = None
        if block is None or block.translate(None, b"\x00\x01"):
            for m in indexes:
                seen.setdefault(_row_code(m, tuple([evaluate(m, n) for n in domain]), width), m)
            continue
        first = dict(zip(rows[::-1], indexes[::-1]))  # read backwards, the first index stays
        for m, row in sorted(zip(first.values(), first)):
            seen.setdefault(int(row.translate(_DIGITS), 2), m)
    codes = tuple(seen)
    return FiniteClass(domain=domain, codes=codes, witnesses=tuple(seen.values()))


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
