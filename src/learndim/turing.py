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

Simulation compiles the machine once into a flat table of int tuples:
symbols are numbered with the blank as 0, each state owns a row of one entry
per symbol, and entry row(state) + symbol holds (written symbol, head move
+1 or -1, row of the next state).  The halting state's row is all None, and
a table with any other gap is refused with MachineParseError, so None only
ever means halted.  The tape is a flat array of symbol numbers: a bytearray
when the alphabet has at most 256 symbols, a list of ints otherwise.  It
doubles in place on the side the head approaches, up to TAPE_LIMIT bytes,
and between growths the step loop runs without bounds or halting checks
(see halt_scanner).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from ._record import Record
from .errors import BudgetExceededError, MachineParseError

HEADER_KEYS = ("states", "alphabet", "blank", "initial", "halting")
# Cells of a fresh tape, at least 4 so that a quarter of it is a cell.  The
# head starts in the middle, at cell 128, so a machine that stays near its
# start steps on CPython's cached small ints.
TAPE_START = 256
# Bytes a tape may grow to: one per cell for a bytearray, 8 (a pointer) per
# cell for a list.  A growth past it raises BudgetExceededError.
TAPE_LIMIT = 2**27


class TuringMachine(Record):
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    initial: str
    halting: str
    # (state, symbol) -> (write, move, next_state); move is "L" or "R"
    transitions: Mapping[tuple[str, str], tuple[str, str, str]]


class RunResult(Record):
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


def _compile(tm: TuringMachine) -> tuple[list[tuple[int, int, int] | None], int, int, int]:
    """Flat transition table of `tm` (laid out as the module docstring says),
    with the initial state's row, the halting state's row and the symbol count.

    State q's row starts at its position in tm.states times the symbol count.
    Raises MachineParseError, as parse_tm would, on a missing transition.
    """
    symbols = {tm.blank: 0}
    for symbol in tm.alphabet:
        symbols.setdefault(symbol, len(symbols))
    width = len(symbols)
    rows = {state: i * width for i, state in enumerate(tm.states)}
    table: list[tuple[int, int, int] | None] = [None] * (width * len(rows))
    for (state, symbol), (write, move, nxt) in tm.transitions.items():
        if state != tm.halting:
            entry = (symbols[write], 1 if move == "R" else -1, rows[nxt])
            table[rows[state] + symbols[symbol]] = entry
    if table.count(None) > width:  # a gap besides the halting row
        names = list(symbols)
        for i, entry in enumerate(table):
            state = tm.states[i // width]
            if entry is None and state != tm.halting:
                raise MachineParseError(f"missing transition for ({state}, {names[i % width]})")
    return table, rows[tm.initial], rows[tm.halting], width


def halt_scanner(tm: TuringMachine) -> Callable[[int], int | None]:
    """Resumable halting scan on the empty input.

    Returns onset(n): the halting step K if K <= n, else None.  One paused
    run (tape, head, state row, steps taken) is shared by all calls, so each
    call only steps past the budget earlier calls already covered, whatever
    order the queries come in.

    The machine is compiled once (see _compile).  Each stretch of the run
    takes as many steps as neither tape edge nor the budget can interrupt,
    with no check inside the loop: reading the halting state's None entry
    ends the stretch, and the loop index is then the exact halting step.
    A growth that would take the tape past TAPE_LIMIT bytes raises
    BudgetExceededError before it allocates.
    """
    table, start_row, halt_row, width = _compile(tm)
    tape = bytearray(TAPE_START) if width <= 256 else [0] * TAPE_START
    cell_bytes = 1 if width <= 256 else 8
    blank = tape[:1]  # one blank cell, of the tape's own type
    head, row, steps = TAPE_START // 2, start_row, 0
    halted_at = 0 if start_row == halt_row else None  # set as soon as the run halts

    def onset(n: int) -> int | None:
        nonlocal head, row, steps, halted_at
        if halted_at is None and n > steps:
            # Locals, not closure cells: read on every step.
            t, cells, h, r, s = table, tape, head, row, steps
            while s < n:
                size = len(cells)
                # Double the tape on the head's nearer side once that edge is
                # closer than both a quarter of the tape and the budget left.
                if min(h, size - 1 - h) < min(n - s, size // 4):
                    if 2 * size * cell_bytes > TAPE_LIMIT:
                        head, row, steps = h, r, s  # the paused run stays resumable
                        raise BudgetExceededError(
                            f"tape of {size} cells would grow past {TAPE_LIMIT} bytes "
                            f"at step {s}"
                        )
                    if h < size - 1 - h:
                        cells[:0] = blank * size
                        h += size
                    else:
                        cells.extend(blank * size)
                room = min(h, len(cells) - 1 - h, n - s)
                try:
                    for i in range(room):
                        cells[h], move, r = t[r + cells[h]]
                        h += move
                except TypeError:  # unpacked the halting row's None
                    halted_at = s + i
                    break
                s += room
            else:
                if r == halt_row:
                    halted_at = s
            head, row, steps = h, r, s
        return halted_at if halted_at is not None and halted_at <= n else None

    return onset


def run_bounded(tm: TuringMachine, budget: int) -> RunResult:
    """Run on the empty input for at most `budget` transition applications.

    Returns Halted(K) when the halting state is first occupied after exactly
    K <= budget steps (K = 0 when the initial state is the halting state),
    StillRunning(budget) otherwise.  Raises BudgetExceededError when the run
    would need a tape of over TAPE_LIMIT bytes (see halt_scanner).
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    k = halt_scanner(tm)(budget)
    return RunResult(halted=False, steps=budget) if k is None else RunResult(halted=True, steps=k)


def encode_tm(tm: TuringMachine) -> int:
    """Injective natural-number code: the canonical serialization as a big-endian
    integer.  decode_tm inverts it exactly."""
    return int.from_bytes(serialize_tm(tm).encode("utf-8"), "big")


def decode_tm(code: int) -> TuringMachine:
    if code <= 0:
        raise ValueError("machine codes are positive")
    text = code.to_bytes((code.bit_length() + 7) // 8, "big").decode("utf-8")
    return parse_tm(text)
