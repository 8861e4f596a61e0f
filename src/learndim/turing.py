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

A run goes in stretches, each as long as neither a tape edge nor the
budget can cut it.  Where an edge cuts a stretch, two exact proofs that the
run never halts are tried, the checks that busy-beaver enumerations run
before simulating further:
- blank runaway: the head sees only blanks from its cell outward in one
  direction, and every blank-reading step from its state on moves that way
  without halting, so each later stretch only moves the head: nothing
  reads the cells it writes behind it, so they are not written, and a
  growth allocates no cells: only the tape's length count doubles;
- exact cycle: two boundary configurations (state, head, tape) are equal
  (Brent's method), so the run repeats with the least period P of that
  configuration, and a stretch of k steps takes only k % P of them.
A proof skips only steps in which stepping would neither halt nor grow the
tape, so the growths, the refusals and every answer are those of stepping.
After a runaway proof the paused tape and state are no longer stepping's.
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
    out of the halting state.  Lines are checked in text order, and each
    transition line's checks in a fixed order (token count, states,
    symbols, move, halting source, duplicate), so a line with two faults
    reports the first.

    The cost is linear in the text: each line is tokenized once, and names
    are checked against sets of the declared states and symbols.
    """
    headers: dict[str, list[str]] = {}
    transitions: dict[tuple[str, str], tuple[str, str, str]] = {}
    transition_lines: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if ":" in line:
            key, _, rest = line.partition(":")
            name = key.strip()
            if name in HEADER_KEYS:
                if name in headers:
                    raise MachineParseError(f"duplicate header '{name}'", lineno)
                values = rest.split()
                if not values:
                    raise MachineParseError(f"header '{name}' needs at least one token", lineno)
                headers[name] = values
                continue
        tokens = line.split()
        if tokens:
            transition_lines.append((lineno, tokens))

    for name in HEADER_KEYS:
        if name not in headers:
            raise MachineParseError(f"missing header '{name}'")
    for name in ("blank", "initial", "halting"):
        if len(headers[name]) != 1:
            raise MachineParseError(f"header '{name}' takes exactly one token")

    state_set = set(headers["states"])
    symbol_set = set(headers["alphabet"])
    states = tuple(sorted(state_set))
    alphabet = tuple(sorted(symbol_set))
    blank = headers["blank"][0]
    initial = headers["initial"][0]
    halting = headers["halting"][0]

    if blank not in symbol_set:
        raise MachineParseError(f"blank symbol '{blank}' not in alphabet")
    for role, name in (("initial", initial), ("halting", halting)):
        if name not in state_set:
            raise MachineParseError(f"{role} state '{name}' not in states")

    for lineno, tokens in transition_lines:
        if len(tokens) != 6 or tokens[2] != "->":
            raise MachineParseError(
                "expected 'state symbol -> symbol move state'", lineno
            )
        state, symbol, _, write, move, nxt = tokens
        if state not in state_set:
            raise MachineParseError(f"unknown state '{state}'", lineno)
        if nxt not in state_set:
            raise MachineParseError(f"unknown state '{nxt}'", lineno)
        if symbol not in symbol_set:
            raise MachineParseError(f"unknown symbol '{symbol}'", lineno)
        if write not in symbol_set:
            raise MachineParseError(f"unknown symbol '{write}'", lineno)
        if move not in ("L", "R"):
            raise MachineParseError(f"move must be L or R, got '{move}'", lineno)
        if state == halting:
            raise MachineParseError("halting state cannot have outgoing transitions", lineno)
        if (state, symbol) in transitions:
            raise MachineParseError(f"duplicate transition for ({state}, {symbol})", lineno)
        transitions[(state, symbol)] = (write, move, nxt)

    # Every key is a distinct (non-halting state, symbol) pair, so the table
    # is total exactly when it holds them all; otherwise name the first gap.
    if len(transitions) < (len(states) - 1) * len(alphabet):
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
    """The machine in the file at `path`.  A file that is not UTF-8 text or
    not a valid description raises MachineParseError naming `path` first
    (and keeping the offending line number, if any)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_tm(fh.read())
    except (UnicodeDecodeError, MachineParseError) as exc:
        error = MachineParseError(f"{path}: {exc}")
        error.line = getattr(exc, "line", None)
        raise error from exc


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


def _blank_drift(table: list[tuple[int, int, int] | None], row: int) -> int:
    """The move d (+1 or -1) of every blank-reading step from `row` on, when
    those steps never reach the halting row and all move d; else 0.

    A run in `row` whose head sees only blanks from its cell outward in
    direction d therefore never halts (see halt_scanner).  The blank chain
    is walked until a row repeats.
    """
    moves: dict[int, int] = {}  # row -> the head move of its blank entry
    while row not in moves:
        if table[row] is None:  # the halting row
            return 0
        _, moves[row], row = table[row]
    distinct = set(moves.values())
    return distinct.pop() if len(distinct) == 1 else 0


def _blank_ahead(cells: bytearray | list[int], head: int, d: int) -> bool:
    """Whether every cell from `head` to the tape's end in direction d is blank."""
    lo, hi = (head, len(cells)) if d > 0 else (0, head + 1)
    if isinstance(cells, bytearray):
        return cells.count(0, lo, hi) == hi - lo
    return cells[lo:hi].count(0) == hi - lo


def _first_return(table: list, cells: bytearray | list[int], head: int,
                  row: int) -> tuple[int, int, int]:
    """The least period of a run whose configuration is known to recur, and
    the lowest and highest cell its head visits in one period.  The steps
    leave the run as they found it."""
    start, h, r, i = cells[:], head, row, 0
    low = high = head
    while True:
        cells[h], move, r = table[r + cells[h]]
        h += move
        i += 1
        low, high = min(low, h), max(high, h)
        if r == row and h == head and cells == start:
            return i, low, high


# Cells of the largest tape the cycle proof copies for later comparison.
_SNAPSHOT_CELLS = 4096


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
    Before each stretch the tape doubles on the head's nearer side once
    that edge is closer than both a quarter of the tape and the budget
    left; a growth that would take the tape past TAPE_LIMIT bytes raises
    BudgetExceededError before it allocates, unless the run halted on the
    last stretch's last step.

    Before a stretch that an edge cuts short of the budget, once the run
    has taken a step per table entry and until one holds, two proofs that
    the run never halts are tried:
    - Blank runaway: every cell from the head outward in direction d is
      blank, and every blank-reading step from the current row on moves d
      (see _blank_drift).  The run then only ever reads blanks ahead and
      never reads what it writes behind, so a stretch of k steps only
      moves the head k * d: it writes nothing and keeps its row, and a
      growth doubles the tape's length count but allocates no cells.
    - Exact cycle: Brent's method over the boundary configurations (row,
      head, tape), with at most one snapshot, none of a tape over
      _SNAPSHOT_CELLS cells, and a fresh start at every growth.  Once the
      current configuration equals the snapshot, the run is periodic; its
      least period P is the first return to it (see _first_return), and a
      stretch of k steps takes only k % P of them.  If the cells the head
      visits in a period keep clear of both growth margins, the tape never
      grows again and the rest of the budget is one stretch.
    A proof skips only steps in which stepping would neither halt nor grow
    the tape, so the growths, the TAPE_LIMIT refusal (its step and
    message included) and every answer are those of plain stepping, and
    so is the paused run unless a runaway was proven.  A run that reaches
    no edge-cut stretch pays nothing for the proofs.
    """
    table, start_row, halt_row, width = _compile(tm)
    tape = bytearray(TAPE_START) if width <= 256 else [0] * TAPE_START
    cell_bytes = 1 if width <= 256 else 8
    blank = tape[:1]  # one blank cell, of the tape's own type
    head, row, steps = TAPE_START // 2, start_row, 0
    # The tape's length in cells.  A proven runaway grows only this count:
    # nothing reads its cells again.
    length = TAPE_START
    halted_at = 0 if start_row == halt_row else None  # set as soon as the run halts
    # The proofs wait for a step per table entry, so that a short run pays
    # nothing for them and a blank chain walk (a step per state at most, one
    # walk per row) costs less than the steps already taken.
    warmup = len(table)
    drift: dict[int, int] = {}  # row -> _blank_drift(table, row), once walked
    # Brent's cycle search: one snapshot, boundaries since it, its horizon.
    snap: bytearray | list[int] | None = None
    snap_row = snap_head = 0
    since, horizon = 0, 1
    # Proofs, kept once found: the least period of a cycle and the cells its
    # head spans, the direction of a blank runaway; 0 while none is known.
    period = low = high = drifting = 0

    def onset(n: int) -> int | None:
        nonlocal head, row, steps, length, halted_at, snap, snap_row, snap_head
        nonlocal since, horizon, period, low, high, drifting
        if halted_at is None and n > steps:
            # Locals, not closure cells: read on every step.
            t, cells, h, r, s, size = table, tape, head, row, steps, length
            while s < n:
                left = n - s
                # Double the tape on the head's nearer side once that edge is
                # closer than both a quarter of the tape and the budget left.
                if min(h, size - 1 - h) < min(left, size // 4):
                    if 2 * size * cell_bytes > TAPE_LIMIT:
                        if r == halt_row:  # the last stretch ended on the halt
                            halted_at = s
                            break
                        head, row, steps, length = h, r, s, size  # the paused run stays resumable
                        raise BudgetExceededError(
                            f"tape of {size} cells would grow past {TAPE_LIMIT} bytes "
                            f"at step {s}"
                        )
                    if h < size - 1 - h:
                        if not drifting:
                            cells[:0] = blank * size
                        h += size
                        low += size
                        high += size
                    elif not drifting:
                        cells.extend(blank * size)
                    size *= 2
                    snap, since, horizon = None, 0, 1
                room = min(h, size - 1 - h, left)
                if drifting:
                    h += drifting * room
                    s += room
                    continue
                if period:
                    if min(low, size - 1 - high) >= size // 4:
                        # The head keeps clear of both growth margins, so
                        # the tape never grows again: the rest of the budget
                        # is one stretch.
                        room = left
                    for _ in range(room % period):
                        cells[h], move, r = t[r + cells[h]]
                        h += move
                    s += room
                    continue
                if room < left and s >= warmup:
                    # An edge cuts the stretch short of the budget: try the
                    # proofs.  One that holds takes over from the next
                    # stretch on.
                    if r not in drift:
                        drift[r] = _blank_drift(t, r)
                    d = drift[r]
                    if d and _blank_ahead(cells, h, d):
                        drifting = d
                    elif r == snap_row and h == snap_head and cells == snap:
                        # The configuration recurs, so the run is periodic
                        # from here on; its least period is the first return.
                        period, low, high = _first_return(t, cells, h, r)
                    else:
                        since += 1
                        if since >= horizon and size <= _SNAPSHOT_CELLS:
                            snap, snap_row, snap_head = cells[:], r, h
                            since, horizon = 0, 2 * horizon
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
            head, row, steps, length = h, r, s, size
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
