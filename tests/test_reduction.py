"""Class codes and the halting-to-dimension reduction pipeline."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from learndim import (
    HALTS,
    NO_ANSWER,
    ClassCodeError,
    agreement_check,
    budgeted_vc_decider,
    class_code,
    decode_class_code,
    decode_machine,
    encode_tm,
    halting_class,
    halting_from_vc,
    materialize,
    run_bounded,
    saturating_index_count,
    vc_dim,
)

from conftest import BEAVER2, LOOP_TEXTS, halter_text
from learndim import parse_tm

FIXTURE_MACHINES = [parse_tm(halter_text(k)) for k in range(11)]
FIXTURE_MACHINES += [parse_tm(text) for text in (*LOOP_TEXTS, BEAVER2)]


def _suite(halters, loopers):
    machines = [(f"halt{k}", halters[k]) for k in range(1, 11)]
    machines += [(f"loop{i}", tm) for i, tm in enumerate(loopers)]
    return machines


def test_class_codes_distinct(halters, loopers):
    codes = {class_code(tm) for _, tm in _suite(halters, loopers)}
    assert len(codes) == 15


def test_class_code_deterministic(halters):
    assert class_code(halters[3]) == class_code(parse_tm(halter_text(3)))


def test_decode_machine_roundtrip():
    for tm in FIXTURE_MACHINES:
        assert decode_machine(class_code(tm)) == tm
        assert class_code(decode_machine(class_code(tm))) == class_code(tm)


def test_decoded_class_evaluates_identically(halters, loopers):
    rng = random.Random(5)
    for tm in (halters[2], loopers[0]):
        original = halting_class(tm)
        decoded = decode_class_code(class_code(tm))
        for _ in range(120):
            m, n = rng.randrange(200), rng.randrange(200)
            assert decoded.evaluate(m, n) == original.evaluate(m, n)


def test_class_code_is_the_machine_code():
    for tm in FIXTURE_MACHINES:
        assert class_code(tm) == encode_tm(tm)


def _code(raw: bytes) -> int:
    return int.from_bytes(raw, "big")


def test_malformed_codes_rejected():
    # Text parse_tm refuses, bytes that are not UTF-8, and a non-positive code.
    with pytest.raises(ClassCodeError):
        decode_machine(_code(b"NOPE" + b"\x00" * 8))
    with pytest.raises(ClassCodeError):
        decode_machine(_code(b"HMC1\x01\x00\x00\x00\x05ab"))
    with pytest.raises(ClassCodeError, match="UTF-8|utf-8"):
        decode_machine(_code(b"states: \xff"))
    with pytest.raises(ClassCodeError):
        decode_machine(0)


@st.composite
def mutated_codes(draw) -> int:
    """A fixture machine's code with one byte replaced."""
    code = class_code(draw(st.sampled_from(FIXTURE_MACHINES)))
    raw = bytearray(code.to_bytes((code.bit_length() + 7) // 8, "big"))
    raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return _code(bytes(raw))


ANY_CODE = st.one_of(
    st.integers(max_value=0), st.binary(max_size=64).map(_code), mutated_codes()
)


@settings(max_examples=300, deadline=None)
@given(ANY_CODE)
def test_any_integer_decodes_or_raises_class_code_error(code):
    try:
        tm = decode_machine(code)
    except ClassCodeError:
        return
    assert decode_machine(class_code(tm)) == tm


def test_budgeted_decider_verdicts(halters, loopers):
    code3 = class_code(halters[3])
    assert str(budgeted_vc_decider(code3, 10)) == "Finite(3)"
    assert str(budgeted_vc_decider(code3, 2)) == "Unknown(2)"
    assert str(budgeted_vc_decider(class_code(loopers[0]), 10_000)) == "Unknown(10000)"


def test_halting_from_vc_pipeline(halters, loopers):
    decider = lambda code: budgeted_vc_decider(code, 10)
    assert halting_from_vc(decider, halters[3]) == HALTS
    assert halting_from_vc(decider, loopers[0]) == NO_ANSWER


def test_halts_verdicts_agree_with_simulation(halters, loopers):
    budget = 50
    decider = lambda code: budgeted_vc_decider(code, budget)
    for _, tm in _suite(halters, loopers):
        verdict = halting_from_vc(decider, tm)
        assert (verdict == HALTS) == run_bounded(tm, budget).halted


def test_agreement_check_suite(halters, loopers):
    report = agreement_check(_suite(halters, loopers), budget=100)
    assert report.halts == 10
    assert report.no_answer == 5
    assert report.disagreements == 0
    # Every machine halting within budget is answered at its exact step.
    for entry in report.entries:
        if entry.direct_halted:
            assert entry.reduction_verdict == HALTS
            assert entry.reduction_steps == entry.direct_steps


def test_agreement_check_empty_suite():
    report = agreement_check([], budget=10)
    assert report.entries == ()
    assert report.disagreements == 0


def test_budget_sweep_never_unsound(halters, loopers):
    suite = _suite(halters, loopers)
    for budget in (0, 1, 2, 3, 5, 8, 12, 50):
        decider = lambda code: budgeted_vc_decider(code, budget)
        for _, tm in suite:
            verdict = halting_from_vc(decider, tm)
            if verdict == HALTS:
                assert run_bounded(tm, budget).halted


def test_finite_verdicts_match_window_dimensions(halters):
    # Cross-check the decider's K against the exact window dimension.
    for k in range(1, 5):
        verdict = budgeted_vc_decider(class_code(halters[k]), 100)
        assert verdict.finite and verdict.value == k
        n = k + 2
        fc = materialize(halting_class(halters[k]), n, saturating_index_count(n))
        assert vc_dim(fc).value == k
