"""Deterministic single-tape Turing machines.

Machines are described in a line-oriented text format::

    # optional comments
    states: q0 q1 halt
    alphabet: _ 1
    blank: _
    initial: q0
    halting: halt
    q0 _ -> 1 R q1
    q0 1 -> 1 R q0
    ...

The transition table must be total over (non-halting state, symbol) pairs,
and the halting state has no outgoing transitions.  Simulation always starts
on the empty (all-blank) tape with the head at cell 0, matching the halting
predicate used by the class constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .errors import MachineParseError

HEADER_KEYS = ("states", "alphabet", "blank", "initial", "halting")


@dataclass(frozen=True)
class TuringMachine:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    initial: str
    halting: str
    # (state, symbol) -> (write, move, next_state); move is "L" or "R"
    transitions: Mapping[tuple[str, str], tuple[str, str, str]]

    def transition(self, state: str, symbol: str) -> tuple[str, str, str]:
        return self.transitions[(state, symbol)]


@dataclass
class Configuration:
    """Machine snapshot: sparse tape (absent cell = blank), head, state."""

    tape: dict[int, str] = field(default_factory=dict)
    head: int = 0
    state: str = ""
    steps_taken: int = 0


@dataclass(frozen=True)
class RunResult:
    """Outcome of a budgeted run: Halted(steps) or StillRunning(budget)."""

    halted: bool
    steps: int  # exact halting step K if halted, else the exhausted budget

    def __str__(self) -> str:
        return f"Halted({self.steps})" if self.halted else f"StillRunning({self.steps})"


def parse_tm(text: str) -> TuringMachine:
    """Parse and validate a machine description.

    Raises MachineParseError (with line number) on syntax errors, unknown
    states or symbols, duplicate or missing transitions, and transitions
    out of the halting state.
    """
    headers: dict[str, list[str]] = {}
    transitions: dict[tuple[str, str], tuple[str, str, str]] = {}
    transition_lines: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if sep and key.strip() in HEADER_KEYS:
            name = key.strip()
            if name in headers:
                raise MachineParseError(f"duplicate header '{name}'", lineno)
            values = rest.split()
            if not values:
                raise MachineParseError(f"header '{name}' needs at least one token", lineno)
            headers[name] = values
        else:
            transition_lines.append((lineno, line.split()))

    for name in HEADER_KEYS:
        if name not in headers:
            raise MachineParseError(f"missing header '{name}'")
    for name in ("blank", "initial", "halting"):
        if len(headers[name]) != 1:
            raise MachineParseError(f"header '{name}' takes exactly one token")

    states = tuple(sorted(set(headers["states"])))
    alphabet = tuple(sorted(set(headers["alphabet"])))
    blank = headers["blank"][0]
    initial = headers["initial"][0]
    halting = headers["halting"][0]

    if blank not in alphabet:
        raise MachineParseError(f"blank symbol '{blank}' not in alphabet")
    for role, name in (("initial", initial), ("halting", halting)):
        if name not in states:
            raise MachineParseError(f"{role} state '{name}' not in states")

    for lineno, tokens in transition_lines:
        if len(tokens) != 6 or tokens[2] != "->":
            raise MachineParseError(
                "expected 'state symbol -> symbol move state'", lineno
            )
        state, symbol, _, write, move, nxt = tokens
        if state not in states:
            raise MachineParseError(f"unknown state '{state}'", lineno)
        if nxt not in states:
            raise MachineParseError(f"unknown state '{nxt}'", lineno)
        if symbol not in alphabet:
            raise MachineParseError(f"unknown symbol '{symbol}'", lineno)
        if write not in alphabet:
            raise MachineParseError(f"unknown symbol '{write}'", lineno)
        if move not in ("L", "R"):
            raise MachineParseError(f"move must be L or R, got '{move}'", lineno)
        if state == halting:
            raise MachineParseError("halting state cannot have outgoing transitions", lineno)
        if (state, symbol) in transitions:
            raise MachineParseError(f"duplicate transition for ({state}, {symbol})", lineno)
        transitions[(state, symbol)] = (write, move, nxt)

    for state in states:
        if state == halting:
            continue
        for symbol in alphabet:
            if (state, symbol) not in transitions:
                raise MachineParseError(f"missing transition for ({state}, {symbol})")

    return TuringMachine(states, alphabet, blank, initial, halting, transitions)


def serialize_tm(tm: TuringMachine) -> str:
    """Canonical text form: sorted states/symbols, sorted transition rows.

    parse_tm(serialize_tm(tm)) is structurally identical to tm, and
    structurally equal machines serialize identically, which makes this
    the basis for the canonical machine code.
    """
    lines = [
        "states: " + " ".join(sorted(tm.states)),
        "alphabet: " + " ".join(sorted(tm.alphabet)),
        f"blank: {tm.blank}",
        f"initial: {tm.initial}",
        f"halting: {tm.halting}",
    ]
    for (state, symbol), (write, move, nxt) in sorted(tm.transitions.items()):
        lines.append(f"{state} {symbol} -> {write} {move} {nxt}")
    return "\n".join(lines) + "\n"


def load_tm(path) -> TuringMachine:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tm(fh.read())


def initial_configuration(tm: TuringMachine) -> Configuration:
    """Empty input: all-blank tape, head at cell 0, initial state."""
    return Configuration(tape={}, head=0, state=tm.initial, steps_taken=0)


def step(tm: TuringMachine, config: Configuration) -> Configuration:
    """Apply one transition in place; caller must check for the halting state."""
    symbol = config.tape.get(config.head, tm.blank)
    write, move, nxt = tm.transitions[(config.state, symbol)]
    if write == tm.blank:
        config.tape.pop(config.head, None)
    else:
        config.tape[config.head] = write
    config.head += 1 if move == "R" else -1
    config.state = nxt
    config.steps_taken += 1
    return config


def trace(tm: TuringMachine, budget: int) -> Iterator[Configuration]:
    """Yield configurations from step 0 up to halting or the budget."""
    config = initial_configuration(tm)
    yield config
    while config.state != tm.halting and config.steps_taken < budget:
        yield step(tm, config)


def halt_scanner(tm: TuringMachine) -> Callable[[int], int | None]:
    """Resumable halting scan on the empty input.

    Returns onset(n): the halting step K if K <= n, else None.  One paused
    configuration is shared by all calls, so each call only steps past the
    budget earlier calls already covered, whatever order the queries come in.
    """
    paused = initial_configuration(tm)
    halting = tm.halting

    def onset(n: int) -> int | None:
        config = paused  # a local, not a closure cell: read on every step
        while config.state != halting:
            if config.steps_taken >= n:
                return None
            step(tm, config)
        return config.steps_taken if config.steps_taken <= n else None

    return onset


def run_bounded(tm: TuringMachine, budget: int) -> RunResult:
    """Run on the empty input for at most `budget` transition applications.

    Returns Halted(K) when the halting state is first occupied after exactly
    K <= budget steps (K = 0 when the initial state is the halting state),
    StillRunning(budget) otherwise.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    k = halt_scanner(tm)(budget)
    return RunResult(halted=False, steps=budget) if k is None else RunResult(halted=True, steps=k)


def halts_within(tm: TuringMachine, n: int) -> bool:
    """True iff the machine halts after at most n steps on the empty input."""
    return run_bounded(tm, n).halted


def encode_tm(tm: TuringMachine) -> int:
    """Injective natural-number code: the canonical serialization as a big-endian
    integer.  decode_tm inverts it exactly."""
    return int.from_bytes(serialize_tm(tm).encode("utf-8"), "big")


def decode_tm(code: int) -> TuringMachine:
    if code <= 0:
        raise ValueError("machine codes are positive")
    text = code.to_bytes((code.bit_length() + 7) // 8, "big").decode("utf-8")
    return parse_tm(text)
