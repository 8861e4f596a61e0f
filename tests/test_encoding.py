"""Pairing and sequence-enumeration round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from learndim import pair, seq_bit, unpair

from oracles import bit_of


def test_pair_base_and_closed_form_values():
    assert pair(0, 0) == 0
    # Closed form (i+j)(i+j+1)/2 + j evaluated by hand.
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2


def test_unpair_values():
    assert unpair(0) == (0, 0)
    assert unpair(2) == (0, 1)


def test_pair_unpair_roundtrip_grid():
    for i in range(1000):
        for j in range(1000):
            assert unpair(pair(i, j)) == (i, j)


def test_unpair_pair_roundtrip_range():
    for n in range(100_000):
        i, j = unpair(n)
        assert pair(i, j) == n


@given(st.integers(min_value=0, max_value=10**9))
def test_unpair_is_left_inverse(n):
    assert pair(*unpair(n)) == n


def test_pair_overflow_guard():
    with pytest.raises(OverflowError):
        pair(2**33, 2**33)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        unpair(-1)
    with pytest.raises(ValueError):
        seq_bit(-1, 0)


def test_seq_bit_zero_sequence():
    assert all(seq_bit(0, n) == 0 for n in range(64))


def test_seq_bit_of_five():
    # 5 is binary 101: bits 1, 0, 1 then zeros.
    assert [seq_bit(5, n) for n in range(4)] == [1, 0, 1, 0]


def test_seq_bit_matches_guarded_bit_formula():
    # The unguarded shift formula equals the guarded binary-representation
    # definition (bit is 0 whenever 2**n > m).
    for m in range(512):
        for n in range(12):
            assert seq_bit(m, n) == bit_of(m, n)


def test_enumeration_complete_and_injective_up_to_b10():
    for b in range(11):
        width = b + 1
        seen = set()
        for m in range(2**width):
            assert m.bit_length() <= width  # support inside [0, b]
            seen.add(tuple(seq_bit(m, n) for n in range(width)))
        assert len(seen) == 2**width


@given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=80))
def test_compact_support(m, n):
    if 2**n > m:
        assert seq_bit(m, n) == 0
