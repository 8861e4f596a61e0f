"""Index encodings: the Cantor pairing bijection and the enumeration of
finitely supported binary sequences by the binary digits of their index.

Every class construction in this package is indexed through these two maps,
so they are kept exact and exhaustively round-trip tested.
"""

from __future__ import annotations

import math

# Desk-scale guard: indices stay below 2**64 by contract.
MAX_CODE = 2**64


def pair(i: int, j: int) -> int:
    """Cantor pairing code (i+j)(i+j+1)/2 + j, a bijection N x N -> N."""
    if i < 0 or j < 0:
        raise ValueError("pair requires nonnegative arguments")
    s = i + j
    code = s * (s + 1) // 2 + j
    if code >= MAX_CODE:
        raise OverflowError(f"pair({i}, {j}) exceeds the 2**64 index ceiling")
    return code


def unpair(n: int) -> tuple[int, int]:
    """Exact inverse of pair, computed via integer square root."""
    if n < 0:
        raise ValueError("unpair requires a nonnegative argument")
    s = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - s * (s + 1) // 2
    return s - j, j


def seq_bit(m: int, n: int) -> int:
    """Bit n of index m, i.e. the coefficient of 2**n (little-endian).

    Realizes the n-th element of the m-th finitely supported binary
    sequence; bits beyond the width of m are 0, so every sequence has
    compact support.
    """
    if m < 0 or n < 0:
        raise ValueError("seq_bit requires nonnegative arguments")
    return (m >> n) & 1
