"""Abstract recursively enumerable formal systems.

A system is just a total theorem enumeration over natural statement codes.
Negation is the fixed-point-free involution code XOR 1, which is exactly the
structure the class constructions consume: equality of codes and a computable
negation.  Toy systems cover the consistent, immediately inconsistent, and
delayed-inconsistency cases; user-supplied enumerations are accepted on
trust (totality and infinite range are not checkable).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from ._record import Record
from .encoding import unpair


class FormalSystem(Record):
    theorem: Callable[[int], int]  # total enumeration of provable statement codes


def negation(s: int) -> int:
    """Involutive negation pairing on statement codes (no fixed points)."""
    if s < 0:
        raise ValueError("statement codes are nonnegative")
    return s ^ 1


def active_index(fs: FormalSystem, n: int) -> bool:
    """True iff index n decodes to a contradictory theorem pair.

    With (i, j) = unpair(n), checks theorem(i) == negation(theorem(j)).
    These are the positions where the contradiction-gated class passes its
    index bits through.
    """
    i, j = unpair(n)
    return fs.theorem(i) == negation(fs.theorem(j))


def contradiction_scanner(fs: FormalSystem) -> Callable[[int], int | None]:
    """Resumable scan for the first contradictory theorem pair.

    Returns onset(n): the smallest k <= n such that theorem(k) negates some
    theorem(i) with i < k, else None.  The set of theorems seen so far is
    shared by all calls, so each theorem is enumerated at most once.
    """
    seen: set[int] = set()
    scanned = -1
    found: int | None = None

    def onset(n: int) -> int | None:
        nonlocal scanned, found
        if found is None and n > scanned:
            theorem, add = fs.theorem, seen.add
            for k in range(scanned + 1, n + 1):
                code = theorem(k)
                if code < 0:
                    negation(code)  # raises its ValueError
                if code ^ 1 in seen:
                    found = k
                    break
                add(code)
            # A raise above leaves `scanned` behind; rescanning theorems
            # already in `seen` is harmless, since no pair among them clashes.
            scanned = n
        return found if found is not None and found <= n else None

    return onset


def prefix_consistent(fs: FormalSystem, n: int) -> bool:
    """True iff no contradictory pair occurs among theorem(0..n).

    Antitone in n: once a contradiction appears it never disappears.  Codes
    are indexed from 0 throughout this package.
    """
    return contradiction_scanner(fs)(n) is None


def inconsistency_onset(fs: FormalSystem, scan_limit: int) -> int | None:
    """Smallest n <= scan_limit with an inconsistent prefix, or None."""
    return contradiction_scanner(fs)(scan_limit)


def consistent_toy() -> FormalSystem:
    """Enumerates the even codes 2i: infinitely many theorems, no contradiction."""
    return FormalSystem(theorem=lambda i: 2 * i)


def inconsistent_toy() -> FormalSystem:
    """Enumerates every code: proves each statement and its negation."""
    return FormalSystem(theorem=lambda i: i)


def inconsistent_toy_at(k: int) -> FormalSystem:
    """Consistent for the first k theorems, then enumerates every code.

    theorem(i) = 2i for i < k and i - k afterwards, so the first
    contradictory pair enters the prefix at a finite, scan-locatable index.
    """
    if k < 0:
        raise ValueError("onset length must be nonnegative")

    def theorem(i: int) -> int:
        return 2 * i if i < k else i - k

    return FormalSystem(theorem=theorem)


def system_from_spec(spec: Mapping) -> FormalSystem:
    """Build a toy system from a config mapping.

    Accepted forms: {"kind": "consistent"}, {"kind": "inconsistent"},
    {"kind": "inconsistent_at", "onset": k}, k an int or a decimal string.
    """
    kind = spec.get("kind")
    if kind == "consistent":
        return consistent_toy()
    if kind == "inconsistent":
        return inconsistent_toy()
    if kind == "inconsistent_at":
        onset = spec.get("onset")
        if isinstance(onset, bool) or not isinstance(onset, (int, str)):
            raise ValueError(f"inconsistent_at requires an integer 'onset' entry, got {onset!r}")
        return inconsistent_toy_at(int(onset))
    raise ValueError(f"unknown system kind {kind!r}")
