"""Exact combinatorial complexity measures on finite classes.

All three measures (VC, Littlestone, teaching) are computed exactly with
verifiable certificates: a maximum shattered set, an optimal mistake tree,
or per-concept minimum teaching sets.  Infinite classes are only ever probed
through finite windows; window values are evidence (reported with a
stabilization flag), never a proof of the infinite-class value.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import reduce
from itertools import accumulate, chain, combinations, compress, islice
from math import comb
from operator import and_, or_

from ._record import Record
from .classes import (
    Concept,
    FiniteClass,
    IndexedClass,
    eval_budget,
    materialize,
    step_concept,
)
from .encoding import MAX_CODE
from .errors import BudgetExceededError, WitnessUnresolvedError

DEFAULT_SEARCH_BUDGET = 2_000_000

# The shatter checks cut fewer cells (id sets) than this, about 8 MB of id
# masks at 2**15 concepts, and count row codes (_shatters) at or past it.
CELL_BATCH = 1024

# Points scanned for active ones by tree_witness and growth_schedule.
ACTIVE_SCAN_LIMIT = 100_000

# Largest exhaustive saturating windows comfortably inside the default
# evaluation budget; used when a class has no sparse activity structure.
DEFAULT_SCHEDULE: tuple[tuple[int, int], ...] = (
    (3, 16),
    (4, 32),
    (5, 64),
    (6, 128),
    (7, 256),
)


class DimensionReport(Record):
    measure: str  # "vc" | "littlestone" | "teaching"
    value: int
    certificate: object


class TeachingSet(Record):
    """Labelled examples that single out `target` within its class."""

    __slots__ = ("target", "examples")
    target: tuple[int, ...]
    examples: tuple[tuple[int, int], ...]

    def verify(self, fc: FiniteClass) -> bool:
        """Target matches every example and every other concept misses one
        (ValueError when the target or an example point is not in `fc`)."""
        consistent = fc.all_ids
        for x, y in self.examples:
            consistent &= fc.labelled(x, y)
        return consistent == 1 << fc.index_of(self.target)


class LittlestoneTree(Record):
    """Complete binary tree with domain points at its nodes, in heap order:
    nodes[v - 1] is the point at node v, whose children are 2v (edge bit 0)
    and 2v + 1 (edge bit 1); the root is node 1, so bin(v)[3:] is v's path.
    A depth-d tree has 2**d - 1 nodes (ValueError otherwise).  Realizable
    when every root-to-leaf path is consistent with some class member:
    `verify_against` checks that for a finite class, and `tree_witness`
    checks its uniform trees, whose paths spell indexes, for an indexed one.
    """

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) + 1 & len(self.nodes):
            raise ValueError(f"a complete tree has 2**d - 1 nodes, not {len(self.nodes)}")

    @classmethod
    def uniform(cls, layer_points: Sequence[int]) -> "LittlestoneTree":
        """Tree labelling every node of layer k by layer_points[k]."""
        depth = len(layer_points)
        # Same test as 2**depth > DEFAULT_SEARCH_BUDGET, without building 2**depth.
        if depth >= DEFAULT_SEARCH_BUDGET.bit_length():
            raise BudgetExceededError(f"depth-{depth} tree has over {DEFAULT_SEARCH_BUDGET} paths")
        return cls(tuple(chain.from_iterable([x] * (1 << k) for k, x in enumerate(layer_points))))

    @property
    def depth(self) -> int:
        return len(self.nodes).bit_length()

    @property
    def labels(self) -> dict[tuple[int, ...], int]:
        """The point at each node keyed by its edge-bit path, the root's ()."""
        return {tuple(map(int, bin(v)[3:])): x for v, x in enumerate(self.nodes, 1)}

    def paths(self) -> Iterable[tuple[int, ...]]:
        for bits in range(2**self.depth):
            yield tuple((bits >> i) & 1 for i in range(self.depth))

    def verify_against(self, fc: FiniteClass) -> bool:
        """Every path is realized by some concept of the finite class: the ids
        consistent with each node's path, cut once per edge, are never empty."""
        def realized(v: int, ids: int) -> bool:
            if not ids or v > len(self.nodes):
                return ids != 0
            ones = ids & fc.labelled(self.nodes[v - 1], 1)
            return realized(2 * v, ids ^ ones) and realized(2 * v + 1, ones)

        return realized(1, fc.all_ids)


def _shattered_prefix(fc: FiniteClass, ids: int, count: int) -> list[int] | None:
    """Columns of the `count` lowest points (in domain order) that split the
    id set `ids`, if `ids` shatters them; None otherwise.

    Each point of a shattered set of `count` points has 2**(count - 1)
    patterns, so at least as many concepts, on either side: an unbalanced
    split fails before any check.  Then `ids` is cut level by level,
    stopping at the first empty cell, so n concepts take at most 2n cuts.
    Each cell is an int as wide as the class, so when the last level would
    cut CELL_BATCH cells or more, the row codes of `ids` are counted
    instead, in time linear in the class.
    """
    if not count:
        return []
    n = ids.bit_count()
    half = 1 << (count - 1)
    points: list[int] = []
    splits: list[int] = []
    for j, ones in enumerate(fc.masks):
        ones &= ids
        k = ones.bit_count()
        if 0 < k < n:
            if k < half or n - k < half:
                return None
            points.append(j)
            splits.append(ones)
            if len(points) == count:
                break
    else:
        return None
    if half >= CELL_BATCH:
        codes = fc.codes
        if ids != fc.all_ids:  # bit i of ids is the i-th digit of bin(ids) from the end
            codes = compress(codes, map("1".__eq__, bin(ids)[:1:-1]))
        return points if _shatters(codes, points) else None
    cells = [ids]
    for ones in splits:
        cells = _cut(cells, ones, 1)
        if cells is None:
            return None
    return points


def _shatters(codes: Iterable[int], columns: Sequence[int]) -> bool:
    """Whether the rows `codes` show every label pattern on `columns`: a
    count of their distinct values of code & selector, linear in the rows.
    A column listed twice is never shattered."""
    selector = reduce(or_, [1 << j for j in columns], 0)
    return len({code & selector for code in codes}) == 1 << len(columns)


def is_shattered(fc: FiniteClass, subset: Iterable[int]) -> bool:
    """True iff every label pattern on `subset` occurs among the concepts,
    counted on the row codes by `_shatters` (linear in the number of
    concepts); a subset that repeats a point is never shattered."""
    return _shatters(fc.codes, [fc.column(x) for x in subset])


def _require_nonempty(fc: FiniteClass) -> None:
    if not fc.codes:
        raise ValueError("dimension measures require a nonempty class")


def _budget_error(
    search: str, limit: int, points: int, sizes: Iterable[int]
) -> BudgetExceededError:
    """The plain search over the subsets of `points` points, checking all
    C(points, s) of each size s of `sizes` in turn, runs out at the first
    size it cannot finish within `limit` checks."""
    checked = 0
    for size in sizes:
        checked += comb(points, size)
        if checked > limit:
            break
    return BudgetExceededError(f"{search} exceeded {limit} subset checks at size {size}")


def vc_dim(fc: FiniteClass, *, budget: int | None = None) -> DimensionReport:
    """Exact VC-dimension with a maximum shattered set as certificate.

    Sizes go largest first, from the pattern-count bound 2**n <= |concepts|
    down; the returned set is the lexicographically smallest maximum one,
    in domain order.  At each size the `size` lowest points, the plain
    subset search's first candidate, are checked on the row codes (a cube
    window answers there, with no masks built); past them
    `_first_shattered` finds the size's first shattered set.

    The budget charges what the plain largest-first search over every
    subset would check: the C(d, s) subsets of each size s above the
    answer's, plus the answer's lexicographic rank among its size's, plus
    1.  Past the budget it raises BudgetExceededError naming the size at
    which the plain search would have run out; the search stops as soon as
    the subsets it has ruled out pass the budget.
    """
    _require_nonempty(fc)
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    d = len(fc.domain)
    sizes = range(min(d, len(fc.codes).bit_length() - 1), -1, -1)
    checked = 0  # the plain search's checks before this size
    for size in sizes:
        if checked >= limit:
            raise _budget_error("vc_dim", limit, d, sizes)
        if _shatters(fc.codes, range(size)):
            return DimensionReport(measure="vc", value=size, certificate=fc.domain[:size])
        positions, ruled_out = _first_shattered(fc, size, limit - checked)
        # The sets ruled out, then the answer's own check.
        checked += ruled_out + (positions is not None)
        if checked > limit:
            raise _budget_error("vc_dim", limit, d, sizes)
        if positions is not None:
            certificate = tuple(fc.domain[j] for j in positions)
            return DimensionReport(measure="vc", value=size, certificate=certificate)
    raise AssertionError("empty set is always shattered for a nonempty class")


def _first_shattered(fc: FiniteClass, size: int, spare: int) -> tuple[tuple[int, ...] | None, int]:
    """The lexicographically first `size` domain positions that `fc`
    shatters, and the number of size-`size` position sets before it; (None,
    C(d, size)) when there is none.

    A depth-first search over prefixes in lexicographic order.  A prefix
    keeps its cells, the id sets that agree on each of its points.  Adding
    a point cuts every cell in two, and a shattered completion needs
    2**r concepts on each side of every cut, r being the points still
    needed after it; a prefix that leaves fewer is dropped with all its
    completions (a constant point at once).  Every set before the first
    leaf is dropped exactly once, so their count is its rank.  Stops, with
    None, once that count passes `spare`.

    Each cell is an int as wide as the class, so a prefix with CELL_BATCH
    cells is cut no further: its completions are checked in turn on the
    row codes, each dropped one counting once.
    """
    masks = fc.masks
    d = len(masks)
    ruled_out = 0

    def search(prefix: tuple[int, ...], cells: list[int], left: int) -> tuple[int, ...] | None:
        nonlocal ruled_out
        if not left:
            return prefix
        start = prefix[-1] + 1 if prefix else 0
        if len(cells) >= CELL_BATCH:
            for rest in combinations(range(start, d), left):
                if _shatters(fc.codes, prefix + rest):
                    return prefix + rest
                ruled_out += 1
                if ruled_out > spare:
                    return None
            return None
        need = 1 << (left - 1)
        for j in range(start, d - left + 1):
            cut = _cut(cells, masks[j], need)
            if cut is None:
                ruled_out += comb(d - j - 1, left - 1)
            else:
                found = search(prefix + (j,), cut, left - 1)
                if found is not None:
                    return found
            if ruled_out > spare:
                return None
        return None

    return search((), [fc.all_ids], size), ruled_out


def _cut(cells: list[int], ones: int, need: int) -> list[int] | None:
    """Both sides of each cell cut by the id set `ones`, or None as soon as
    a side has fewer than `need` ids."""
    cut = []
    for cell in cells:
        part = cell & ones
        if part.bit_count() < need or (cell ^ part).bit_count() < need:
            return None
        cut += (part, cell ^ part)
    return cut


def littlestone_memo(
    fc: FiniteClass, limit: int
) -> tuple[Callable[[int], int], Callable[[int, int], bool], Callable[[int], LittlestoneTree]]:
    """Memoized Littlestone dimension of a set of concepts of `fc`, given as
    a bitmask of concept ids, answered by threshold queries: `dim(ids)`, the
    exact value; `at_least(ids, t)`, whether it is at least t; and
    `tree(d)`, an optimal mistake tree of depth d = dim(fc.all_ids).

    The recursion: one concept has dimension 0, otherwise the max over points
    splitting the set of 1 + min of the two label-restriction dimensions, so
    the dimension is at least t >= 1 exactly when some point splits the set
    into two sides that are both at least t - 1.  A mistake tree of depth d
    needs 2**d concepts, so a set of n concepts has dimension at most
    cap = floor(log2 n) (the halving bound).

    - The VC sandwich settles a state on its first visit: if the set
      shatters P, its cap lowest splitting points in domain order, then
      VC >= cap gives Ldim >= cap, so its value is cap with no recursion
      (VC <= Ldim <= floor(log2 n), Littlestone 1988).  A full cube is the
      case where P is every point.  `_shattered_prefix` checks P by cutting
      cells below CELL_BATCH cells and by counting row codes at or past it.
    - One dict keeps each state's lower and upper bound: [cap, cap] for a
      settled state, [0, cap] for any other.  A query they decide is
      answered at once; otherwise `split` scans for a witness point.  A yes
      raises the lower bound to t, a no lowers the upper bound to t - 1, and
      a state is exact once its bounds meet.
    - `split(ids, t)`, the one scan: the first point in domain order whose
      two sides both reach t - 1, asking the smaller side first and
      skipping a split with a side of fewer than 2**(t - 1) concepts (that
      side is below t - 1; this also skips the points that do not split
      the set); None when no point qualifies.
    - `dim` asks t = lower + 1, lower + 2, ... until the bounds meet.
    - `tree` gives a node with r levels left the point `split` finds at r,
      the parent's yes guaranteeing one.  A node whose set shatters Q, its
      r lowest splitting points, gets the uniform subtree on Q instead (Q[j]
      at every node j levels below it), which is the tree the scan builds
      anyway: Q[0] is the first point that splits the set, and both sides
      shatter Q[1:], so by induction each side picks Q[1], then Q[2], and
      so on.  A settled set's P starts with Q, so it repeats no check.

    Every answer is the unpruned recursion's, so the tree and SOA see
    exactly what it would give.  Each state's first visit charges the width
    of one id-mask key, ceil(|C| / 64) words, against `limit` before the
    state is stored (BudgetExceededError past it); a query with t <= 0
    visits nothing, and a settled state is one visit.
    """
    masks = fc.masks
    words = -(-len(fc.codes) // 64)
    memo: dict[int, list[int]] = {}
    settled: dict[int, list[int]] = {}
    charged = 0

    def split(ids: int, t: int) -> int | None:
        n = ids.bit_count()
        need = 1 << (t - 1)
        for col, ones in enumerate(masks):
            ones &= ids
            k = ones.bit_count()
            if k < need or n - k < need:
                continue
            small, large = (ones, ids ^ ones) if 2 * k <= n else (ids ^ ones, ones)
            if at_least(small, t - 1) and at_least(large, t - 1):
                return col
        return None

    def at_least(ids: int, t: int) -> bool:
        nonlocal charged
        if t <= 0:
            return True
        bound = memo.get(ids)
        if bound is None:
            charged += words
            if charged > limit:
                raise BudgetExceededError(f"littlestone_dim exceeded {limit} memo words")
            cap = ids.bit_count().bit_length() - 1
            points = _shattered_prefix(fc, ids, cap)
            if points is not None:
                settled[ids] = points
            bound = memo[ids] = [0 if points is None else cap, cap]
        lower, upper = bound
        if t <= lower:
            return True
        if t > upper:
            return False
        if split(ids, t) is None:
            bound[1] = t - 1
            return False
        bound[0] = t
        return True

    def dim(ids: int) -> int:
        while (bound := memo.get(ids)) is None or bound[0] < bound[1]:
            at_least(ids, bound[0] + 1 if bound else 1)
        return bound[0]

    def tree(depth: int) -> LittlestoneTree:
        nodes = [0] * ((1 << depth) - 1)

        def fill(ids: int, v: int) -> None:
            remaining = depth + 1 - v.bit_length()
            if remaining == 0:
                return
            points = settled.get(ids)
            if points is None:
                points = _shattered_prefix(fc, ids, remaining)
            if points is not None:
                # The nodes j levels below v are v << j onwards, 2**j of them.
                for j, col in enumerate(points[:remaining]):
                    nodes[(v << j) - 1 : ((v + 1) << j) - 1] = [fc.domain[col]] * (1 << j)
                return
            col = split(ids, remaining)
            ones = masks[col] & ids
            nodes[v - 1] = fc.domain[col]
            fill(ids ^ ones, 2 * v)
            fill(ones, 2 * v + 1)

        fill(fc.all_ids, 1)
        return LittlestoneTree(tuple(nodes))

    return dim, at_least, tree


def littlestone_dim(fc: FiniteClass, *, budget: int | None = None) -> DimensionReport:
    """Exact Littlestone dimension with an optimal mistake tree certificate,
    both from one `littlestone_memo`, whose memo words the budget bounds.
    The value is the maximal realizable tree depth (cross-checked against
    direct tree search in the test suite)."""
    _require_nonempty(fc)
    dim, _, tree = littlestone_memo(fc, DEFAULT_SEARCH_BUDGET if budget is None else budget)
    value = dim(fc.all_ids)
    return DimensionReport(measure="littlestone", value=value, certificate=tree(value))


def teaching_set(
    fc: FiniteClass, concept: Sequence[int], *, budget: int | None = None
) -> TeachingSet:
    """Minimum teaching set for `concept`, as a minimum cover of the other
    concepts by the points that rule them out (disagree with `concept`).

    The candidate points, those ruling out some concept, are the columns on
    which the class varies.  One rule decides which of them every teaching
    set contains (Goldman & Kearns 1995): a candidate is forced exactly when
    the neighbour across it, the concept differing from `concept` there
    alone, is in the class, a lookup in the set of row codes.  When every
    candidate is forced they are the answer, and no masks are built.
    Otherwise the search starts from the forced set F and tries the other
    candidates by subset size, against the concepts F leaves uncovered, so F
    alone answers when it covers them.  Ties resolve to the
    lexicographically smallest set of points: two sets of equal size compare
    by the least point of their symmetric difference, which never lies in F,
    so the first hit is also the first hit of the plain size-ordered search
    over all subsets of the candidate points.

    The budget charges what that plain search would check: for c candidate
    points and an answer of size k, the sum of C(c, s) for s < k plus the
    answer's lexicographic rank among the size-k subsets, plus 1 (2**c when
    the answer is every candidate).  A charge past the budget raises
    BudgetExceededError naming the size at which the plain search would
    have run out; the subsets actually checked never exceed the budget.
    """
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    i = fc.index_of(concept)
    return _teacher(fc, limit)(i)


def _teacher(fc: FiniteClass, limit: int) -> Callable[[int], TeachingSet]:
    """`teaching_set` by concept id, with what the forced-point rule and the
    search need computed once per class: the set of codes, per candidate
    point (in point order) its column's bit and its two labelled examples,
    shared by every answer that lists the point, and the plain search's
    checks before each size."""
    codes = set(fc.codes)
    varying = reduce(or_, fc.codes) & ~reduce(and_, fc.codes)
    columns = sorted((x, j) for j, x in enumerate(fc.domain) if varying >> j & 1)
    c = len(columns)
    flips = [1 << j for _, j in columns]
    pairs = [(j, ((x, 0), (x, 1))) for x, j in columns]
    # The plain search checks below[s] subsets before size s.
    below = list(accumulate((comb(c, s) for s in range(c)), initial=0))

    def teach(i: int) -> TeachingSet:
        target = fc.row(i)
        if len(fc.codes) == 1:
            return TeachingSet(target=target, examples=())
        code = fc.codes[i]
        neighbours = [code ^ flip for flip in flips]
        if codes.issuperset(neighbours):
            # Every candidate is forced and they are the answer: the plain
            # search's last subset.
            if 1 << c > limit:
                raise _budget_error("teaching_set", limit, c, range(c + 1))
            examples = tuple([pair[code >> j & 1] for j, pair in pairs])
            return TeachingSet(target=target, examples=examples)
        full, masks = fc.all_ids, fc.masks
        rules_out = [masks[j] ^ full if code >> j & 1 else masks[j] for j, _ in pairs]
        forced = [k for k, neighbour in enumerate(neighbours) if neighbour in codes]
        uncovered = full ^ 1 << i
        for k in forced:
            uncovered &= ~rules_out[k]
        # Points ruling out nothing F leaves are in no minimum set.
        rest = [k for k in range(c) if rules_out[k] & uncovered]
        # Each subset tried here maps, in order, onto a distinct one the plain
        # search checks at the same size, so once these counts pass the
        # budget, it has run out too.
        for r in range(len(rest) + 1):
            size = len(forced) + r
            for checked, extra in enumerate(combinations(rest, r), 1):
                if below[size] + checked > limit:
                    raise _budget_error("teaching_set", limit, c, range(c + 1))
                covered = 0
                for k in extra:
                    covered |= rules_out[k]
                if covered & uncovered == uncovered:
                    points = sorted(forced + list(extra))
                    # Its lexicographic rank is C(c, size) - 1 less the subsets after it.
                    after = (comb(c - 1 - k, size - n) for n, k in enumerate(points))
                    if below[size] + comb(c, size) - sum(after) > limit:
                        raise _budget_error("teaching_set", limit, c, range(c + 1))
                    chosen = [pairs[k] for k in points]
                    examples = tuple([pair[code >> j & 1] for j, pair in chosen])
                    return TeachingSet(target=target, examples=examples)
        raise AssertionError("the candidate points rule out every other concept")

    return teach


def teaching_dim(fc: FiniteClass, *, budget: int | None = None) -> DimensionReport:
    """Worst-case minimum teaching set size, with all per-concept sets."""
    _require_nonempty(fc)
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    sets = list(map(_teacher(fc, limit), range(len(fc.codes))))
    value = max(len(ts.examples) for ts in sets)
    return DimensionReport(measure="teaching", value=value, certificate=sets)


def escape_witness(sample: Sequence[tuple[int, int]]) -> Concept:
    """Threshold concept consistent with a zero-labelled sample yet distinct
    from the zero function: threshold at (max sampled point) + 1.

    Certifies that the zero function has no finite teaching set among the
    thresholds.
    """
    if not sample:
        raise ValueError("escape witness requires a nonempty sample")
    for x, y in sample:
        if y != 0:
            raise ValueError("escape witness is defined for zero-labelled samples only")
        if x < 0:
            raise ValueError("sample points must be natural numbers")
    return step_concept(max(x for x, _ in sample) + 1)


def tree_witness(ic: IndexedClass, depth: int, labeling: str = "layer") -> LittlestoneTree:
    """Uniform-layer mistake tree witness of the given depth, fully verified.

    labeling "layer" puts point k at every node of layer k; "active" uses
    the first `depth` points where the class's activity predicate holds.
    Raises BudgetExceededError for trees of over DEFAULT_SEARCH_BUDGET paths,
    and WitnessUnresolvedError when the labels cannot be found among the
    first ACTIVE_SCAN_LIMIT points, need an index past the 2**64 ceiling, or
    any path fails verification; never returns an unverified tree.

    The layer points P are distinct, so each path wants the points of one
    subset m of P labelled 1 and the rest 0, and m read as an index realizes
    it when ic.evaluate(m, x) == m >> x & 1 for every x in P: the check asks
    that these indexes shatter P (Littlestone 1988).  It reads the paths in
    heap order, the 0-subtree first, and each path's points root first,
    stopping at the first miss, so a tree that holds costs exactly
    depth * 2**depth evaluator calls.  The indexes are joined from the
    subsets of P's two halves, so at most 2**ceil(depth / 2) of them are
    held at once.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if labeling == "layer":
        layer_points = range(depth)
    elif labeling == "active":
        if ic.active is None:
            raise ValueError("active labeling requires a class with an activity predicate")
        actives = (n for n in range(ACTIVE_SCAN_LIMIT + 1) if ic.active(n))
        layer_points = list(islice(actives, depth))
        if len(layer_points) < depth:
            raise WitnessUnresolvedError(
                f"found only {len(layer_points)} active points below {ACTIVE_SCAN_LIMIT}, "
                f"need {depth}; witness unresolved"
            )
        if layer_points and 1 << layer_points[-1] >= MAX_CODE:
            raise WitnessUnresolvedError(f"active point {layer_points[-1]} needs an index past 2**64")
    else:
        raise ValueError(f"unknown labeling {labeling!r}")

    tree = LittlestoneTree.uniform(layer_points)
    evaluate, half = ic.evaluate, depth // 2
    lows = _subset_codes(layer_points[half:])
    for high in _subset_codes(layer_points[:half]):
        for m in map(high.__or__, lows):
            for x in layer_points:
                if evaluate(m, x) != m >> x & 1:
                    raise WitnessUnresolvedError(
                        f"depth-{depth} tree with layer points {list(layer_points)} is not realizable"
                    )
    return tree


def _subset_codes(points: Sequence[int]) -> list[int]:
    """The subsets of the distinct `points` as bitmasks, in heap order of
    their paths: the first point's bit is the most significant."""
    codes = [0]
    for x in reversed(points):
        codes += [code | 1 << x for code in codes]
    return codes


MEASURES: dict[str, Callable[..., DimensionReport]] = {
    "vc": vc_dim,
    "littlestone": littlestone_dim,
    "teaching": teaching_dim,
}


class SaturationReport(Record):
    measure: str
    windows: tuple[tuple[int, int], ...]
    values: tuple[int, ...]
    stabilized: bool
    incomplete: bool

    @property
    def final_value(self) -> int | None:
        return self.values[-1] if self.values else None


def saturation_scan(
    ic: IndexedClass, measure: str, schedule: Sequence[tuple[int, int]]
) -> SaturationReport:
    """Run a measure over a nondecreasing window schedule.

    Stabilization (equal values over the last three windows) is evidence
    about the infinite class, never a proof.  A window exceeding eval_budget()
    truncates the scan and flags the report incomplete.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    windows = [tuple(w) for w in schedule]
    for earlier, later in zip(windows, windows[1:]):
        if later[0] < earlier[0] or later[1] < earlier[1]:
            raise ValueError("schedule windows must be nondecreasing")

    values: list[int] = []
    done: list[tuple[int, int]] = []
    incomplete = False
    for domain_max, index_count in windows:
        try:
            fc = materialize(ic, domain_max, index_count)
            values.append(MEASURES[measure](fc).value)
            done.append((domain_max, index_count))
        except BudgetExceededError:
            incomplete = True
            break
    stabilized = len(values) >= 3 and len(set(values[-3:])) == 1
    return SaturationReport(
        measure=measure,
        windows=tuple(done),
        values=tuple(values),
        stabilized=stabilized,
        incomplete=incomplete,
    )


def growth_schedule(ic: IndexedClass) -> tuple[tuple[int, int], ...]:
    """Active-milestone schedule of five windows for sparse bit-masked classes.

    Each window ends at a discovered active point with its saturating index
    count, so every step of the schedule picks up exactly one new active
    point and window dimensions grow strictly.  Points are scanned up to
    ACTIVE_SCAN_LIMIT, and a window costing more than eval_budget() ends
    the scan.  Falls back to DEFAULT_SCHEDULE when no affordable active
    point exists.
    """
    if ic.active is None:
        return DEFAULT_SCHEDULE
    windows = 5
    limit = eval_budget()
    actives: list[int] = []
    for n in range(ACTIVE_SCAN_LIMIT + 1):
        if ic.active(n):
            if (n + 1) * 2 ** (n + 1) > limit:
                break
            actives.append(n)
            if len(actives) == windows:
                break
    if not actives:
        return DEFAULT_SCHEDULE
    schedule = [(n, 2 ** (n + 1)) for n in actives]
    if len(schedule) < windows and actives[0] > 0:
        schedule.insert(0, (actives[0] - 1, 2 ** actives[0]))
    return tuple(schedule)


def default_schedule(ic: IndexedClass) -> tuple[tuple[int, int], ...]:
    """Scan schedule for a class: active-milestone windows for the sparse
    contradiction-gated constructions, the generic saturating windows
    otherwise."""
    if ic.provenance in ("goedel", "goedel_prefix"):
        return growth_schedule(ic)
    return DEFAULT_SCHEDULE
