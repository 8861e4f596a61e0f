"""Naive reference implementations used as independent oracles.

Everything here works straight from the definitions with exhaustive or
backtracking search and no shared code with the optimized routines: VC by
checking every subset (and, for the budget charge, counting the subsets
the largest-first search checks), the mistake-tree dimension by direct
tree search, teaching sets by trying every example set in size order
(and, for the budget charge, counting the subsets that search checks), the
Littlestone recursion's state count by breadth-first search (and, for the pruned
recursion and the threshold queries that replaced it, by replaying their
settling and pruning rules over frozensets),
optimal tree labels from unpruned frozenset values, SOA predictions by
comparing the mistake-tree dimensions of the two restrictions, the gated-class
evaluators by literal transcription of their two-clause definitions, machine
texts by checking each name with a scan of the declared names, machine
runs by walking the transition table, prefix consistency by comparing
every pair of theorems, class windows by evaluating every cell, a
class's packed forms by reading its rows cell by cell, the PAC
experiment by scoring every row on every drawn example, a mistake
tree's checks path by path from its labels: against a finite class's rows,
and constructively by collecting each path's wanted labels, and the flip
adversary by counting the labels of its consistent rows.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from learndim import (
    BudgetExceededError,
    FiniteClass,
    MachineParseError,
    TuringMachine,
    WitnessUnresolvedError,
)


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


def naive_vc_search(fc: FiniteClass, limit: int) -> tuple[int, tuple[int, ...], int]:
    """The VC dimension, the first shattered set of the plain largest-first
    search over subsets in domain order, from the pattern-count bound
    2**n <= |concepts| down, and the subsets it checked.

    Raises BudgetExceededError past `limit` checks, naming the size it was
    searching.
    """
    checked = 0
    upper = min(len(fc.domain), len(fc.concepts).bit_length() - 1)
    for size in range(upper, -1, -1):
        for subset in combinations(fc.domain, size):
            checked += 1
            if checked > limit:
                raise BudgetExceededError(f"vc_dim exceeded {limit} subset checks at size {size}")
            if all_patterns_present(fc, subset):
                return size, subset, checked
    raise AssertionError("a nonempty class shatters the empty set")


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


def _littlestone_values(fc: FiniteClass):
    """Exact Littlestone dimension of any set of concept indexes, by the
    unpruned recursion over every splitting point, memoized on frozensets."""
    memo: dict[frozenset, int] = {}

    def value(ids: frozenset) -> int:
        if ids not in memo:
            best = 0
            for col in range(len(fc.domain)):
                zeros, ones = _split(fc, ids, col)
                if zeros and ones:
                    best = max(best, 1 + min(value(zeros), value(ones)))
            memo[ids] = best
        return memo[ids]

    return value


def _split(fc: FiniteClass, ids: frozenset, col: int) -> tuple[frozenset, frozenset]:
    zeros = frozenset(i for i in ids if fc.concepts[i][col] == 0)
    return zeros, ids - zeros


def naive_littlestone_tree(fc: FiniteClass) -> dict[tuple[int, ...], int]:
    """Labels of the optimal mistake tree that puts at each node the first
    point, in domain order, whose two restrictions both keep the remaining
    depth minus one, from unpruned values."""
    value = _littlestone_values(fc)
    labels: dict[tuple[int, ...], int] = {}

    def fill(ids: frozenset, prefix: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            return
        for col, x in enumerate(fc.domain):
            zeros, ones = _split(fc, ids, col)
            if zeros and ones and min(value(zeros), value(ones)) >= remaining - 1:
                labels[prefix] = x
                fill(zeros, prefix + (0,), remaining - 1)
                fill(ones, prefix + (1,), remaining - 1)
                return
        raise AssertionError("an exact value always has a splitting point")

    full = frozenset(range(len(fc.concepts)))
    fill(full, (), value(full))
    return labels


def _shatters_lowest_splits(fc: FiniteClass, ids: frozenset, count: int) -> bool:
    """Whether the concepts `ids` show every label pattern on the `count`
    first columns, in domain order, on which they take both labels."""
    splits = [col for col in range(len(fc.domain)) if len({fc.concepts[i][col] for i in ids}) == 2]
    if len(splits) < count:
        return False
    patterns = {tuple(fc.concepts[i][col] for col in splits[:count]) for i in ids}
    return len(patterns) == 2**count


def naive_pruned_littlestone_states(fc: FiniteClass) -> int:
    """Number of distinct concept sets that the pruned exact-value
    Littlestone recursion and its tree fill visited, before threshold
    queries replaced it; kept as a bound on their charge.

    A visited set of n concepts that shows every label pattern on its
    floor(log2 n) first splitting columns is settled and visits nothing
    more.  Any other set of n >= 2 concepts scans the points in domain
    order, skips a split with an empty side or with a smaller side of fewer
    than 2**best concepts, visits both sides of every other split, and
    stops once 2**(best + 1) > n.  The fill then walks the optimal tree as
    in `naive_littlestone_tree`: a node whose set shows every pattern on
    its `remaining` first splitting columns visits nothing more; any other
    node skips splits whose smaller side has fewer than 2**(remaining - 1)
    concepts and visits both sides of each split it tests.  Split values
    come from the unpruned recursion.
    """
    value = _littlestone_values(fc)
    seen: set[frozenset] = set()

    def visit(ids: frozenset) -> None:
        if ids in seen:
            return
        seen.add(ids)
        if _shatters_lowest_splits(fc, ids, len(ids).bit_length() - 1):
            return
        best = 0
        for col in range(len(fc.domain)):
            if 2 ** (best + 1) > len(ids):
                break
            zeros, ones = _split(fc, ids, col)
            if not zeros or not ones or min(len(zeros), len(ones)) < 2**best:
                continue
            visit(zeros)
            visit(ones)
            best = max(best, 1 + min(value(zeros), value(ones)))

    def fill(ids: frozenset, remaining: int) -> None:
        if remaining == 0 or _shatters_lowest_splits(fc, ids, remaining):
            return
        for col in range(len(fc.domain)):
            zeros, ones = _split(fc, ids, col)
            if not zeros or not ones or min(len(zeros), len(ones)) < 2 ** (remaining - 1):
                continue
            visit(zeros)
            visit(ones)
            if min(value(zeros), value(ones)) >= remaining - 1:
                fill(zeros, remaining - 1)
                fill(ones, remaining - 1)
                return

    full = frozenset(range(len(fc.concepts)))
    visit(full)
    fill(full, value(full))
    return len(seen)


def naive_threshold_littlestone_states(fc: FiniteClass) -> int:
    """Number of distinct concept sets that the threshold queries "is the
    dimension of S at least t?" of the value climb and the tree fill visit.

    A query with t <= 0 is yes and visits nothing.  Any other visits S: a
    set of n concepts that shows every label pattern on its floor(log2 n)
    first splitting columns has bounds [floor(log2 n)] * 2, any other starts
    with [0, floor(log2 n)].  A query its bounds do not decide scans the
    columns in domain order, skips a split with a side of fewer than
    2**(t - 1) concepts, asks the smaller side (the ones on a tie) and, on
    a yes, the larger at t - 1, and stops at the first split where both say
    yes; its answer raises the lower bound to t or lowers the upper bound
    to t - 1.  The value climb asks the whole class t = 1, 2, ... until a
    no.  The fill then walks the optimal tree as in `naive_littlestone_tree`:
    a node whose set shows every pattern on its `remaining` first splitting
    columns asks nothing more; any other scans as a query at `remaining`
    does (the smaller side first), and descends at the first split where
    both say yes.  Every answer comes from the unpruned recursion.
    """
    value = _littlestone_values(fc)
    bounds: dict[frozenset, list[int]] = {}

    def ask(ids: frozenset, t: int) -> bool:
        if t <= 0:
            return True
        if ids not in bounds:
            cap = len(ids).bit_length() - 1
            bounds[ids] = [cap if _shatters_lowest_splits(fc, ids, cap) else 0, cap]
        lower, upper = bounds[ids]
        if lower < t <= upper:
            for col in range(len(fc.domain)):
                zeros, ones = _split(fc, ids, col)
                if min(len(zeros), len(ones)) < 2 ** (t - 1):
                    continue
                small, large = sorted((ones, zeros), key=len)
                if ask(small, t - 1) and ask(large, t - 1):
                    break
            if value(ids) >= t:
                bounds[ids][0] = t
            else:
                bounds[ids][1] = t - 1
        return value(ids) >= t

    def fill(ids: frozenset, remaining: int) -> None:
        if remaining == 0 or _shatters_lowest_splits(fc, ids, remaining):
            return
        for col in range(len(fc.domain)):
            zeros, ones = _split(fc, ids, col)
            if min(len(zeros), len(ones)) < 2 ** (remaining - 1):
                continue
            small, large = sorted((ones, zeros), key=len)
            if ask(small, remaining - 1) and ask(large, remaining - 1):
                fill(zeros, remaining - 1)
                fill(ones, remaining - 1)
                return

    full = frozenset(range(len(fc.concepts)))
    t = 1
    while ask(full, t):
        t += 1
    fill(full, t - 1)
    return len(bounds)


def naive_threshold_littlestone_words(fc: FiniteClass) -> int:
    """What the threshold queries charge: each state that
    `naive_threshold_littlestone_states` counts costs one id-mask key,
    ceil(|C| / 64) 64-bit words."""
    return naive_threshold_littlestone_states(fc) * -(-len(fc.concepts) // 64)


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


def naive_teaching_search(
    fc: FiniteClass, target: tuple[int, ...], limit: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The first minimum teaching set of the plain size-ordered search over
    the points some other concept disagrees on, and the subsets it checked.

    Raises BudgetExceededError past `limit` checks, naming the size it was
    searching.  A class of one concept checks nothing.
    """
    label = dict(zip(fc.domain, target))
    others = [dict(zip(fc.domain, c)) for c in fc.concepts if c != target]
    if not others:
        return (), 0
    candidates = sorted(x for x in fc.domain if any(c[x] != label[x] for c in others))
    checked = 0
    for size in range(len(candidates) + 1):
        for points in combinations(candidates, size):
            checked += 1
            if checked > limit:
                raise BudgetExceededError(
                    f"teaching_set exceeded {limit} subset checks at size {size}"
                )
            if all(any(c[x] != label[x] for x in points) for c in others):
                return tuple((x, label[x]) for x in points), checked
    raise AssertionError("all candidate points rule out every other concept")


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


HEADER_KEYS = ("states", "alphabet", "blank", "initial", "halting")


def naive_parse_tm(text: str) -> TuringMachine:
    """turing.parse_tm as it was when every name was checked by a linear
    scan of the sorted `states` and `alphabet` tuples: the reference for the
    faster parser's machines, messages and line numbers.

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


def stepping_halt_scanner(tm):
    """turing.halt_scanner without its never-halting proofs: onset(n), the
    halting step K <= n or None, from one paused run shared by all calls and
    taken one step at a time through tm.transitions.  The tape is a list of
    symbols that grows in the same stretches: before each stretch it doubles
    on the head's nearer side once that edge is closer than both a quarter
    of the tape and the budget left, and a doubling past turing.TAPE_LIMIT
    bytes (one per cell for up to 256 symbols, else eight) raises
    BudgetExceededError with the same message, the paused run kept; a
    stretch then runs until an edge, the budget or the halt."""
    from learndim import turing

    cell_bytes = 1 if len(tm.alphabet) <= 256 else 8
    tape = [tm.blank] * turing.TAPE_START
    run = {"head": len(tape) // 2, "state": tm.initial, "steps": 0}

    def onset(n: int) -> int | None:
        head, state, steps = run["head"], run["state"], run["steps"]
        while state != tm.halting and steps < n:
            size = len(tape)
            if min(head, size - 1 - head) < min(n - steps, size // 4):
                if 2 * size * cell_bytes > turing.TAPE_LIMIT:
                    run.update(head=head, state=state, steps=steps)
                    raise BudgetExceededError(
                        f"tape of {size} cells would grow past {turing.TAPE_LIMIT} bytes "
                        f"at step {steps}"
                    )
                if head < size - 1 - head:
                    tape[:0] = [tm.blank] * size
                    head += size
                else:
                    tape.extend([tm.blank] * size)
            stretch_end = steps + min(head, len(tape) - 1 - head, n - steps)
            while state != tm.halting and steps < stretch_end:
                write, move, state = tm.transitions[(state, tape[head])]
                tape[head] = write
                head += 1 if move == "R" else -1
                steps += 1
        run.update(head=head, state=state, steps=steps)
        return steps if state == tm.halting and steps <= n else None

    return onset


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


def goedel_prefix_eval_oracle(theorem, m: int, n: int) -> int:
    """Literal two-clause evaluator of the prefix-consistency-gated class."""
    if prefix_consistent_oracle(theorem, n):
        return bit_of(m, n)
    return 0


def step_eval_oracle(m: int, n: int) -> int:
    """The zero function at m = 0, the threshold at m - 1 for m >= 1."""
    return 1 if m > 0 and n >= m - 1 else 0


def naive_materialize(evaluate, domain_max: int, index_count: int):
    """The window by its definition: the row of every index below
    index_count on points 0..domain_max, each distinct row listed once with
    the first index realizing it.  Returns (rows, witnesses)."""
    first: dict[tuple[int, ...], int] = {}
    for m in range(index_count):
        row = tuple(evaluate(m, n) for n in range(domain_max + 1))
        if row not in first:
            first[row] = m
    return list(first), list(first.values())


def reference_codes(rows) -> tuple[int, ...]:
    """Per row, its cells packed into an int: bit j set when the row has a
    1 in column j."""
    table = bytes.maketrans(b"\x00\x01", b"01")
    return tuple(int(bytes(row[::-1]).translate(table) or b"0", 2) for row in rows)


def reference_masks(rows, width: int) -> tuple[int, ...]:
    """Per column, the id mask of the rows with a 1 there: bit i for row i."""
    reverse = rows[::-1]
    return tuple(
        int("".join(["1" if row[col] else "0" for row in reverse]) or "0", 2)
        for col in range(width)
    )


def _tree_paths(labels: dict[tuple[int, ...], int]):
    """Each root-to-leaf path of the complete tree with these node labels,
    as its (point, wanted label) pairs; path[i] is bit depth - 1 - i of a
    counter, so paths come left to right (the 0-subtree first) and the first
    check to fail is the one the engine reports."""
    depth = max(map(len, labels), default=-1) + 1
    for bits in range(2**depth):
        path = tuple(bits >> (depth - 1 - i) & 1 for i in range(depth))
        yield path, [(labels[path[:k]], path[k]) for k in range(depth)]


def naive_verify_against(labels: dict[tuple[int, ...], int], fc: FiniteClass) -> bool:
    """Every path of the tree with these node labels (edge-bit prefix ->
    point) is realized by some row of `fc`, path by path."""
    col = {x: j for j, x in enumerate(fc.domain)}
    return all(
        any(all(row[col[x]] == y for x, y in points) for row in fc.concepts)
        for _, points in _tree_paths(labels)
    )


class NaiveMajorityFlipAdversary:
    """The flip adversary on rows: asks the first point whose minority side,
    min(zeros, ones) over the consistent rows, is largest, and reveals the
    label fewer of them carry (ties 0), unless none carries it."""

    def __init__(self, fc: FiniteClass):
        self.domain = fc.domain
        self.rows = list(fc.concepts)

    def _ones(self, col: int) -> int:
        return sum(row[col] for row in self.rows)

    def question(self) -> int:
        size = len(self.rows)
        minority = [min(ones, size - ones) for ones in map(self._ones, range(len(self.domain)))]
        return self.domain[minority.index(max(minority))]

    def reveal(self, x: int, guess: int) -> int:
        col = self.domain.index(x)
        ones = self._ones(col)
        zeros = len(self.rows) - ones
        if ones == 0:
            truth = 0
        elif zeros == 0:
            truth = 1
        else:
            truth = 1 if ones < zeros else 0
        self.rows = [row for row in self.rows if row[col] == truth]
        return truth


def naive_verify_constructive(tree, ic) -> bool:
    """Every path of `tree` is realized by the smallest index carrying its
    wanted labels; WitnessUnresolvedError when a path wants a point both ways."""
    for path, points in _tree_paths(tree.labels):
        wanted: dict[int, int] = {}
        for x, y in points:
            if wanted.setdefault(x, y) != y:
                raise WitnessUnresolvedError(f"conflicting labels at point {x} along {path}")
        m = sum(2**x for x, y in wanted.items() if y)
        if any(ic.evaluate(m, x) != y for x, y in points):
            return False
    return True


def inconsistency_onset_oracle(theorem, limit: int) -> int | None:
    """Smallest k <= limit whose theorem negates an earlier one, or None."""
    for k in range(limit + 1):
        if any(theorem(i) == theorem(k) ^ 1 for i in range(k)):
            return k
    return None


def naive_erm(fc: FiniteClass, sample) -> tuple[int, ...]:
    """The row minimizing (empirical errors, witness) on a labelled sample,
    which need not be realizable."""
    col = {x: fc.domain.index(x) for x, _ in sample}
    _, _, best = min(
        (sum(row[col[x]] != y for x, y in sample), witness, row)
        for row, witness in zip(fc.concepts, fc.witnesses)
    )
    return best


def naive_pac_experiment(fc: FiniteClass, target, dist, epsilon: float, trials: int,
                         sizes, seed: int) -> list[float]:
    """Success frequency per sample size: the documented seeded draws (one
    per-trial seed from the master stream, then `choices` on the sorted
    support with float cumulative weights), ERM as `naive_erm`, and its
    true error summed in Fractions."""
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
            best = naive_erm(fc, sample)
            error = sum((probs[x] for x in points if best[col[x]] != target[col[x]]), Fraction(0))
            successes += float(error) <= epsilon
        frequencies.append(successes / trials)
    return frequencies
