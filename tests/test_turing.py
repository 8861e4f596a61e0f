"""Parser, simulator, and canonical-code behavior."""

from __future__ import annotations

import re
import timeit
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from learndim import (
    BudgetExceededError,
    MachineParseError,
    TuringMachine,
    decode_tm,
    encode_tm,
    f_of_machine,
    load_tm,
    parse_tm,
    run_bounded,
    serialize_tm,
    turing,
)

from conftest import (
    BEAVER2,
    COUNTER,
    LOOP_ERASER,
    LOOP_LEFT,
    LOOP_PINGPONG,
    LOOP_RIGHT,
    LOOP_TEXTS,
    LOOP_WRITER,
    MACHINES_DIR,
    bounded_counter_text,
    halter_text,
)
from oracles import naive_parse_tm, stepping_halt_scanner

ONE_RULE = """\
states: q0 halt
alphabet: _
blank: _
initial: q0
halting: halt
q0 _ -> _ R halt
"""


def test_one_rule_machine_is_one_step_halter():
    tm = parse_tm(ONE_RULE)
    assert run_bounded(tm, 5) == run_bounded(tm, 5)
    assert run_bounded(tm, 5).halted
    assert run_bounded(tm, 5).steps == 1


def test_zero_step_halter_allowed():
    tm = parse_tm(halter_text(0))
    result = run_bounded(tm, 0)
    assert result.halted and result.steps == 0


def test_beaver_roundtrips_through_serialization():
    tm = parse_tm(BEAVER2)
    assert parse_tm(serialize_tm(tm)) == tm


def test_beaver_halts_after_six_steps():
    # Frozen from direct simulation of the two-state beaver.
    assert run_bounded(parse_tm(BEAVER2), 10_000) == run_bounded(parse_tm(BEAVER2), 6)
    assert run_bounded(parse_tm(BEAVER2), 10_000).steps == 6


def test_transition_from_halting_state_rejected():
    bad = ONE_RULE + "halt _ -> _ R halt\n"
    with pytest.raises(MachineParseError) as err:
        parse_tm(bad)
    assert "halting" in str(err.value)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("q0 _ -> _ X halt", "move"),
        ("q0 _ -> _ R nowhere", "unknown state"),
        ("q0 ? -> _ R halt", "unknown symbol"),
        ("q0 _ -> _ R", "expected"),
    ],
)
def test_bad_transition_lines_report_line_numbers(mutation, fragment):
    bad = ONE_RULE.replace("q0 _ -> _ R halt", mutation)
    with pytest.raises(MachineParseError) as err:
        parse_tm(bad)
    assert fragment in str(err.value)
    assert err.value.line == 6


def test_load_errors_name_the_file_and_keep_the_line(tmp_path):
    path = tmp_path / "bad.tm"
    path.write_text(ONE_RULE.replace("q0 _ -> _ R halt", "q0 ? -> _ R halt"), encoding="utf-8")
    with pytest.raises(MachineParseError) as err:
        load_tm(path)
    assert str(err.value) == f"{path}: line 6: unknown symbol '?'"
    assert err.value.line == 6
    path.write_bytes(b"states: caf\xe9\n")
    with pytest.raises(MachineParseError, match="^" + re.escape(f"{path}: 'utf-8' codec")) as err:
        load_tm(path)
    assert err.value.line is None


def test_duplicate_transition_rejected():
    bad = ONE_RULE + "q0 _ -> _ L halt\n"
    with pytest.raises(MachineParseError) as err:
        parse_tm(bad)
    assert "duplicate" in str(err.value)


def test_missing_transition_rejected():
    text = halter_text(2).replace("q1 1 -> 1 R q1\n", "")
    with pytest.raises(MachineParseError) as err:
        parse_tm(text)
    assert "missing transition" in str(err.value)


def test_missing_header_rejected():
    with pytest.raises(MachineParseError):
        parse_tm("states: a\nalphabet: _\nblank: _\ninitial: a\nq0 _ -> _ R a\n")


def _rule(line: str) -> str:
    """ONE_RULE with its transition line replaced."""
    return ONE_RULE.replace("q0 _ -> _ R halt", line)


# Every raise in parse_tm: (case, text, the error's str, its line).
PARSE_FAULTS = [
    ("duplicate header", ONE_RULE + "states: q0 halt\n", "line 7: duplicate header 'states'", 7),
    ("empty header", ONE_RULE.replace("initial: q0", "initial: # none"),
     "line 4: header 'initial' needs at least one token", 4),
    ("missing header", ONE_RULE.replace("alphabet: _\n", ""), "missing header 'alphabet'", None),
    ("multi-token header", ONE_RULE.replace("blank: _", "blank: _ 1"),
     "header 'blank' takes exactly one token", None),
    ("blank", ONE_RULE.replace("blank: _", "blank: 1"), "blank symbol '1' not in alphabet", None),
    ("initial", ONE_RULE.replace("initial: q0", "initial: q9"),
     "initial state 'q9' not in states", None),
    ("halting", ONE_RULE.replace("halting: halt", "halting: stop"),
     "halting state 'stop' not in states", None),
    ("token count", _rule("q0 _ -> _ R"),
     "line 6: expected 'state symbol -> symbol move state'", 6),
    ("arrow", _rule("q0 _ => _ R halt"),
     "line 6: expected 'state symbol -> symbol move state'", 6),
    ("source", _rule("q9 _ -> _ R halt"), "line 6: unknown state 'q9'", 6),
    ("target", _rule("q0 _ -> _ R q9"), "line 6: unknown state 'q9'", 6),
    ("read", _rule("q0 1 -> _ R halt"), "line 6: unknown symbol '1'", 6),
    ("write", _rule("q0 _ -> 1 R halt"), "line 6: unknown symbol '1'", 6),
    ("move", _rule("q0 _ -> _ X halt"), "line 6: move must be L or R, got 'X'", 6),
    ("from halting", ONE_RULE + "halt _ -> _ R halt\n",
     "line 7: halting state cannot have outgoing transitions", 7),
    ("duplicate transition", ONE_RULE + "q0 _ -> _ L halt\n",
     "line 7: duplicate transition for (q0, _)", 7),
    ("missing transition", halter_text(2).replace("q1 1 -> 1 R q1\n", ""),
     "missing transition for (q1, 1)", None),
    # Two faults on one line: the unknown state is checked before the move.
    ("state before move", _rule("q0 _ -> _ X q9"), "line 6: unknown state 'q9'", 6),
]


@pytest.mark.parametrize(
    "text, message, line",
    [case[1:] for case in PARSE_FAULTS],
    ids=[case[0] for case in PARSE_FAULTS],
)
def test_every_parse_error_pins_message_and_line(text, message, line):
    with pytest.raises(MachineParseError) as err:
        parse_tm(text)
    assert str(err.value) == message
    assert err.value.line == line


def _fresh(taken, stem: str) -> str:
    """A name of `stem` and digits that is not in `taken`."""
    i = 0
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


# Names without whitespace or '#'; ':', '-' and '>' let tokens look like
# header keys or arrows.
NAMES = st.text(alphabet="ab01_:->", min_size=1, max_size=3)
CORRUPTIONS = (
    "source", "target", "read", "write", "move", "count", "from halting",
    "duplicate transition", "missing transition", "duplicate header",
    "empty header", "missing header", "multi-token header", "blank",
    "initial", "halting",
)


@st.composite
def machine_texts(draw):
    """Machine descriptions with random names, comments, blank lines and
    shuffled lines, valid or with one corruption."""
    states = draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))
    if draw(st.booleans()):
        symbols = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    else:  # past 256 symbols the tape is a list
        stem = draw(NAMES)
        symbols = [f"{stem}{i}" for i in range(draw(st.integers(257, 300)))]
    rng = draw(st.randoms(use_true_random=True))
    halting, initial = rng.choice(states), rng.choice(states)
    blank = rng.choice(symbols)
    headers = {
        "states": " ".join(rng.sample(states, len(states)) + rng.sample(states, 1)),
        "alphabet": " ".join(rng.sample(symbols, len(symbols))),
        "blank": blank,
        "initial": initial,
        "halting": halting,
    }
    rules = [
        [q, a, "->", rng.choice(symbols), rng.choice("LR"), rng.choice(states)]
        for q in states if q != halting for a in symbols
    ]
    kind = draw(st.sampled_from((None,) + CORRUPTIONS))
    if kind in ("source", "target", "read", "write", "move", "count"):
        rule = rng.choice(rules)
        if kind == "source":
            rule[0] = _fresh(states, "q")
        elif kind == "target":
            rule[5] = _fresh(states, "q")
        elif kind == "read":
            rule[1] = _fresh(symbols, "s")
        elif kind == "write":
            rule[3] = _fresh(symbols, "s")
        elif kind == "move":
            rule[4] = rng.choice(["X", "l", "LR", "->"])
        elif rng.random() < 0.5:
            rule.pop(rng.randrange(6))
        else:
            rule.insert(rng.randrange(7), rng.choice(symbols))
    elif kind == "from halting":
        rules.append([halting, rng.choice(symbols), "->", blank, "R", initial])
    elif kind == "duplicate transition":
        rules.append(rng.choice(rules)[:3] + [rng.choice(symbols), "L", rng.choice(states)])
    elif kind == "missing transition":
        rules.pop(rng.randrange(len(rules)))
    elif kind in ("empty header", "missing header", "multi-token header"):
        key = rng.choice(list(headers))
        if kind == "empty header":
            headers[key] = ""
        elif kind == "missing header":
            del headers[key]
        else:
            headers[key] += " " + rng.choice(states + symbols)
    elif kind == "blank":
        headers["blank"] = _fresh(symbols, "s")
    elif kind in ("initial", "halting"):
        headers[kind] = _fresh(states, "q")
    lines = [" ".join(rule) for rule in rules]
    if kind == "duplicate header":
        key = rng.choice(list(headers))
        lines.append(f"{key}: {headers[key]}")
    lines += [
        rng.choice(["{}: {}", "{} :{}", "{}:\t{} "]).format(key, value)
        for key, value in headers.items()
    ]
    rng.shuffle(lines)
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "   ", "# note", " # x: y"]))
    lines = [
        rng.choice(["", " "]) + line + rng.choice(["", "", " # why", "\t"])
        if rng.random() < 0.3 else line
        for line in lines
    ]
    return "\n".join(lines) + rng.choice(["", "\n"])


@settings(max_examples=300, deadline=None)
@given(machine_texts())
def test_parse_tm_matches_naive_parser(text):
    try:
        expected = naive_parse_tm(text)
    except MachineParseError as naive:
        with pytest.raises(MachineParseError) as err:
            parse_tm(text)
        assert str(err.value) == str(naive)
        assert err.value.line == naive.line
    else:
        tm = parse_tm(text)
        assert tm == expected
        assert repr(tm) == repr(expected)  # transitions in the same order too


def test_parse_tm_matches_naive_parser_on_fixtures():
    texts = [halter_text(k) for k in range(0, 701, 50)]
    texts += [*LOOP_TEXTS, BEAVER2, COUNTER, ONE_RULE, bounded_counter_text(4)]
    texts += [path.read_text() for path in sorted(MACHINES_DIR.glob("*.tm"))]
    for text in texts:
        assert repr(parse_tm(text)) == repr(naive_parse_tm(text))


def test_parse_time_grows_linearly_with_the_machine():
    # Four times the states takes about four times as long; checking each
    # name by a scan of the declared names took about sixteen times.
    def best(text):
        return min(timeit.repeat(lambda: parse_tm(text), number=1, repeat=3))

    small, large = best(halter_text(2000)), best(halter_text(8000))
    assert large / small < 8, f"2000 states: {small:.4f} s, 8000 states: {large:.4f} s"


def test_run_bounded_budgets():
    one = parse_tm(halter_text(1))
    assert str(run_bounded(one, 0)) == "StillRunning(0)"
    assert str(run_bounded(one, 5)) == "Halted(1)"


def test_run_bounded_halted_basics_and_loop():
    one = parse_tm(halter_text(1))
    assert not run_bounded(one, 0).halted
    assert run_bounded(one, 1).halted
    loop = parse_tm(LOOP_TEXTS[0])
    assert not run_bounded(loop, 10_000).halted


def test_halting_monotone_and_step_stable(halters):
    tm = halters[4]
    observed = [run_bounded(tm, n).halted for n in range(8)]
    assert observed == [False] * 4 + [True] * 4
    for budget in range(4, 10):
        assert run_bounded(tm, budget).steps == 4


def test_long_walk_peak_memory():
    # The writer is proven a runaway after its warm-up and writes no more;
    # from then on only its tape's length count grows, not its cells.
    tm = parse_tm(LOOP_WRITER)
    tracemalloc.start()
    try:
        assert str(run_bounded(tm, 2_000_000)) == "StillRunning(2000000)"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_drifting_runaway_refused_without_allocating_its_tape():
    # loop.tm is proven a runaway after its warm-up.  Its tape's length
    # count still doubles up to the refusal at plain stepping's step, but
    # no cell is allocated past the proof, where stepping's tape reaches
    # 128 MB.
    loop = load_tm(MACHINES_DIR / "loop.tm")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            run_bounded(loop, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "tape of 134217728 cells would grow past 134217728 bytes at step 133693312"
    )
    assert peak < 16 * 2**20


def test_tape_growth_past_the_byte_limit_is_refused(monkeypatch):
    # A right walker needs one more cell per step.  Under a 4096-byte limit
    # a bytearray tape (a byte per cell) stops doubling at 4096 cells and a
    # list tape (8 bytes per cell) at 512, before either is allocated.
    monkeypatch.setattr(turing, "TAPE_LIMIT", 4096)
    walker = parse_tm(LOOP_WRITER)
    assert str(run_bounded(walker, 3000)) == "StillRunning(3000)"
    with pytest.raises(BudgetExceededError, match="tape of 4096 cells would grow past 4096 bytes"):
        run_bounded(walker, 10_000)
    symbols = [f"s{i:03d}" for i in range(300)]
    wide = parse_tm(
        f"states: q0 halt\nalphabet: {' '.join(symbols)}\nblank: s000\n"
        "initial: q0\nhalting: halt\n" + "".join(f"q0 {a} -> {a} R q0\n" for a in symbols)
    )
    assert str(run_bounded(wide, 300)) == "StillRunning(300)"
    message = outcome(stepping_halt_scanner(wide), 1000)
    assert message.startswith("tape of 512 cells would grow past 4096 bytes at step ")
    with pytest.raises(BudgetExceededError) as err:
        run_bounded(wide, 1000)
    assert str(err.value) == message


def outcome(onset, n: int):
    try:
        return onset(n)
    except BudgetExceededError as exc:
        return str(exc)


def test_halt_on_the_last_cell_before_the_limit_is_a_halt(monkeypatch):
    # From a 4-cell tape the 4-step halter ends its second stretch halted,
    # with its head on the last cell of the 8-cell tape that TAPE_LIMIT
    # allows.  The halt is seen before any further growth is asked for.
    monkeypatch.setattr(turing, "TAPE_START", 4)
    monkeypatch.setattr(turing, "TAPE_LIMIT", 8)
    tm = parse_tm(halter_text(4))
    assert str(run_bounded(tm, 54)) == "Halted(4)"
    f = f_of_machine(tm)
    assert [f(54), f(4), f(3)] == [1, 1, 0]
    five = parse_tm(halter_text(5))
    with pytest.raises(BudgetExceededError, match="tape of 8 cells would grow past 8 bytes at step 4"):
        run_bounded(five, 54)


@pytest.mark.parametrize("tape_limit", [16, 32, 64, turing.TAPE_LIMIT])
def test_counter_matches_plain_stepping_across_growths(monkeypatch, tape_limit):
    # The counter needs a cell more each time its count doubles.  From a
    # 4-cell tape a run of 30,000 steps doubles the tape four times, to 64
    # cells, and a limit of 16 or 32 bytes refuses one of those doublings.
    monkeypatch.setattr(turing, "TAPE_START", 4)
    monkeypatch.setattr(turing, "TAPE_LIMIT", tape_limit)
    tm = parse_tm(COUNTER)
    onset, reference = turing.halt_scanner(tm), stepping_halt_scanner(tm)
    for n in (30_000, 10, 700, 5_000, 30_000, 29_999):
        assert outcome(onset, n) == outcome(reference, n)
        assert outcome(turing.halt_scanner(tm), n) == outcome(stepping_halt_scanner(tm), n)


def test_cycles_answer_any_budget_at_once():
    # Both cycles keep their heads clear of the growth margins, so a budget
    # of any size is one stretch of fewer steps than the period.
    for text in (LOOP_PINGPONG, LOOP_ERASER):
        assert str(run_bounded(parse_tm(text), 10**18)) == f"StillRunning({10**18})"


# Ten steps left, ten steps right, over a blank tape that it never writes.
BOUNCER = (
    "states: " + " ".join(f"b{i}" for i in range(20)) + " halt\n"
    "alphabet: _\nblank: _\ninitial: b0\nhalting: halt\n"
    + "".join(f"b{i} _ -> _ {'L' if i < 10 else 'R'} b{(i + 1) % 20}\n" for i in range(20))
)


def test_cycle_within_a_growth_margin_is_refused_where_plain_stepping_is(monkeypatch):
    # The bouncer's cycle reaches cell 6 of a 32-cell tape, inside the
    # quarter-tape margin, so a later stretch that ends there asks for a
    # growth that the limit refuses: the cycle proof found by the first
    # query must not answer the rest of the second one in one stretch.
    monkeypatch.setattr(turing, "TAPE_START", 32)
    monkeypatch.setattr(turing, "TAPE_LIMIT", 32)
    tm = parse_tm(BOUNCER)
    onset, reference = turing.halt_scanner(tm), stepping_halt_scanner(tm)
    for n in (77, 3000):
        assert outcome(onset, n) == outcome(reference, n)
    assert outcome(reference, 3000) == "tape of 32 cells would grow past 32 bytes at step 90"


@pytest.mark.parametrize("text", [LOOP_RIGHT, LOOP_LEFT, LOOP_WRITER])
def test_runaways_refused_where_plain_stepping_is(monkeypatch, text):
    monkeypatch.setattr(turing, "TAPE_LIMIT", 2**15)
    tm = parse_tm(text)
    message = outcome(stepping_halt_scanner(tm), 10**6)
    assert message.startswith("tape of 32768 cells would grow past 32768 bytes at step ")
    assert outcome(turing.halt_scanner(tm), 10**18) == message
    # Queries resumed past the proof grow the tape from the length it reached.
    onset, reference = turing.halt_scanner(tm), stepping_halt_scanner(tm)
    for n in (5_000, 3_000, 20_000, 10**6, 10**18):
        assert outcome(onset, n) == outcome(reference, n)


@pytest.mark.parametrize("budget", [0, 1, 2, 100])
def test_hand_built_gap_is_refused_not_halted(budget):
    # The run would first read the missing (q1, _) entry on its second step.
    # The table is checked whole before any step, so budgets that stop short
    # of the gap refuse the machine too, and no budget reads it as a halt.
    tm = TuringMachine(
        states=("halt", "q0", "q1"),
        alphabet=("1", "_"),
        blank="_",
        initial="q0",
        halting="halt",
        transitions={
            ("q0", "_"): ("1", "R", "q1"),
            ("q0", "1"): ("1", "R", "q0"),
            ("q1", "1"): ("1", "R", "q1"),
        },
    )
    with pytest.raises(MachineParseError, match=r"missing transition for \(q1, _\)"):
        run_bounded(tm, budget)


def _fixture_suite():
    texts = [halter_text(k) for k in range(11)]
    texts += list(LOOP_TEXTS)
    texts.append(BEAVER2)
    # Renamed beaver: structurally different states, different code expected.
    texts.append(BEAVER2.replace("A", "s0").replace("B", "s1"))
    texts.append(
        "states: p q halt\nalphabet: _ a b\nblank: _\ninitial: p\nhalting: halt\n"
        "p _ -> a R q\np a -> b L q\np b -> b R p\n"
        "q _ -> b L halt\nq a -> a R p\nq b -> _ R halt\n"
    )
    texts.append(ONE_RULE)
    return [parse_tm(t) for t in texts]


def test_encode_injective_and_roundtrips():
    suite = _fixture_suite()
    assert len(suite) == 20
    codes = [encode_tm(tm) for tm in suite]
    assert len(set(codes)) == len(codes)
    for tm, code in zip(suite, codes):
        assert decode_tm(code) == tm


def test_structurally_equal_machines_share_codes():
    reordered = BEAVER2.replace("states: A B halt", "states: halt B A")
    lines = BEAVER2.strip().splitlines()
    shuffled = "\n".join(lines[:5] + list(reversed(lines[5:]))) + "\n"
    base = encode_tm(parse_tm(BEAVER2))
    assert encode_tm(parse_tm(reordered)) == base
    assert encode_tm(parse_tm(shuffled)) == base


def test_determinism(halters):
    tm = halters[3]
    assert run_bounded(tm, 100) == run_bounded(tm, 100)
