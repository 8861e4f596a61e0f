"""Naive reference implementations used as independent oracles.

Everything here works straight from the definitions with exhaustive or
backtracking search and no shared code with the optimized routines: VC by
checking every subset, the mistake-tree dimension by direct tree search,
teaching sets by trying every example set in size order, the Littlestone
recursion's state count by breadth-first search, SOA predictions by
comparing the mistake-tree dimensions of the two restrictions, the gated-class
evaluators by literal transcription of their two-clause definitions, machine
runs by walking the transition table, prefix consistency by comparing
every pair of theorems, and the PAC experiment by scoring every row on every
drawn example.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from learndim import FiniteClass


def all_patterns_present(fc: FiniteClass, points: tuple[int, ...]) -> bool:
    cols = [fc.domain.index(x) for x in points]
    patterns = {tuple(c[i] for i in cols) for c in fc.concepts}
    return len(patterns) == 2 ** len(points)


def naive_vc_dim(fc: FiniteClass) -> int:
    best = 0
    for size in range(len(fc.domain) + 1):
        for subset in combinations(fc.domain, size):
            if all_patterns_present(fc, subset):
                best = size
                break  # some set of this size works; try the next size
    return best


def _tree_exists(fc: FiniteClass, ids: list[int], depth: int) -> bool:
    """Backtracking search for a realizable complete tree of the given depth."""
    if depth == 0:
        return bool(ids)
    for col in range(len(fc.domain)):
        zeros = [i for i in ids if fc.concepts[i][col] == 0]
        ones = [i for i in ids if fc.concepts[i][col] == 1]
        if zeros and ones and _tree_exists(fc, zeros, depth - 1) and _tree_exists(fc, ones, depth - 1):
            return True
    return False


def naive_littlestone_dim(fc: FiniteClass) -> int:
    ids = list(range(len(fc.concepts)))
    depth = 0
    while _tree_exists(fc, ids, depth + 1):
        depth += 1
    return depth


def naive_littlestone_states(fc: FiniteClass) -> int:
    """Number of distinct concept sets the Littlestone recursion visits: the
    whole class and every proper split of a visited set of two or more."""
    seen = {frozenset(range(len(fc.concepts)))}
    todo = list(seen)
    while todo:
        ids = todo.pop()
        for col in range(len(fc.domain)):
            zeros = frozenset(i for i in ids if fc.concepts[i][col] == 0)
            for part in (zeros, ids - zeros):
                if part and part != ids and part not in seen:
                    seen.add(part)
                    todo.append(part)
    return len(seen)


def naive_soa_predict(fc: FiniteClass, x: int) -> int:
    """SOA on version space fc: the label whose restriction has the larger
    mistake-tree dimension, ties predicting 0."""
    col = fc.domain.index(x)
    zeros = [c for c in fc.concepts if c[col] == 0]
    ones = [c for c in fc.concepts if c[col] == 1]
    if not zeros:
        return 1
    if not ones:
        return 0
    dim0 = naive_littlestone_dim(FiniteClass.from_rows(fc.domain, zeros))
    dim1 = naive_littlestone_dim(FiniteClass.from_rows(fc.domain, ones))
    return 1 if dim1 > dim0 else 0


def naive_min_teaching_size(fc: FiniteClass, target: tuple[int, ...]) -> int:
    others = [c for c in fc.concepts if c != target]
    for size in range(len(fc.domain) + 1):
        for points in combinations(range(len(fc.domain)), size):
            if all(any(c[i] != target[i] for i in points) for c in others):
                return size
    raise AssertionError("the full domain always teaches within a deduplicated class")


def naive_teaching_dim(fc: FiniteClass) -> int:
    return max(naive_min_teaching_size(fc, c) for c in fc.concepts)


def bit_of(m: int, n: int) -> int:
    """The guarded bit formula: bit n of the binary representation when
    m > 0 and 2**n <= m, else 0."""
    if m > 0 and 2**n <= m:
        return int(bin(m)[2:][::-1][n])
    return 0


def goedel_eval_oracle(theorem, m: int, n: int) -> int:
    """Literal two-clause evaluator of the contradiction-gated class."""
    # Invert the Cantor code by linear search to stay independent of the
    # package's isqrt-based inverse.
    s = 0
    while (s + 1) * (s + 2) // 2 <= n:
        s += 1
    j = n - s * (s + 1) // 2
    i = s - j
    if theorem(i) == theorem(j) ^ 1:
        return bit_of(m, n)
    return 0


def halting_step_oracle(tm, budget: int) -> int | None:
    """Halting step K <= budget on the empty input, or None, by a literal
    walk through tm.transitions: one table lookup and one move per step."""
    tape: dict[int, str] = {}
    head, state, steps = 0, tm.initial, 0
    while state != tm.halting:
        if steps >= budget:
            return None
        write, move, state = tm.transitions[(state, tape.get(head, tm.blank))]
        tape[head] = write
        head += 1 if move == "R" else -1
        steps += 1
    return steps


def halting_eval_oracle(tm, m: int, n: int) -> int:
    """Literal two-clause evaluator of the halting-gated class, driven by a
    freshly simulated run each call."""
    if halting_step_oracle(tm, n) is None:
        return bit_of(m, n)
    return 0


def prefix_consistent_oracle(theorem, n: int) -> bool:
    """No pair i, j <= n with theorem(i) the negation (code XOR 1) of
    theorem(j), checked pair by pair."""
    codes = [theorem(i) for i in range(n + 1)]
    return not any(a == b ^ 1 for a in codes for b in codes)


def inconsistency_onset_oracle(theorem, limit: int) -> int | None:
    """Smallest k <= limit whose theorem negates an earlier one, or None."""
    for k in range(limit + 1):
        if any(theorem(i) == theorem(k) ^ 1 for i in range(k)):
            return k
    return None


def naive_pac_experiment(fc: FiniteClass, target, dist, epsilon: float, trials: int,
                         sizes, seed: int) -> list[float]:
    """Success frequency per sample size: the documented seeded draws (one
    per-trial seed from the master stream, then `choices` on the sorted
    support with float cumulative weights), ERM as the row minimizing
    (empirical errors, witness), and its true error summed in Fractions."""
    points = sorted(dist)
    total = sum(Fraction(dist[x]) for x in points)
    probs = {x: Fraction(dist[x]) / total for x in points}
    cum, acc = [], Fraction(0)
    for x in points:
        acc += probs[x]
        cum.append(float(acc))
    col = {x: fc.domain.index(x) for x in points}
    master = random.Random(seed)
    frequencies = []
    for m in sizes:
        successes = 0
        for _ in range(trials):
            rng = random.Random(master.randrange(2**63))
            sample = [(x, target[col[x]]) for x in rng.choices(points, cum_weights=cum, k=m)]
            _, _, best = min(
                (sum(row[col[x]] != y for x, y in sample), witness, row)
                for row, witness in zip(fc.concepts, fc.witnesses)
            )
            error = sum((probs[x] for x in points if best[col[x]] != target[col[x]]), Fraction(0))
            successes += float(error) <= epsilon
        frequencies.append(successes / trials)
    return frequencies
