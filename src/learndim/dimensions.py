"""Exact combinatorial complexity measures on finite classes.

All three measures (VC, Littlestone, teaching) are computed exactly with
verifiable certificates: a maximum shattered set, an optimal mistake tree,
or per-concept minimum teaching sets.  Infinite classes are only ever probed
through finite windows; window values are evidence (reported with a
stabilization flag), never a proof of the infinite-class value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Callable, Iterable, Sequence

from .classes import (
    Concept,
    FiniteClass,
    IndexedClass,
    eval_budget,
    materialize,
    step_concept,
)
from .encoding import MAX_CODE, index_of_pattern
from .errors import BudgetExceededError, WitnessUnresolvedError

DEFAULT_SEARCH_BUDGET = 2_000_000

# Largest exhaustive saturating windows comfortably inside the default
# evaluation budget; used when a class has no sparse activity structure.
DEFAULT_SCHEDULE: tuple[tuple[int, int], ...] = (
    (3, 16),
    (4, 32),
    (5, 64),
    (6, 128),
    (7, 256),
)


@dataclass(frozen=True)
class DimensionReport:
    measure: str  # "vc" | "littlestone" | "teaching"
    value: int
    certificate: object
    window: tuple[int, int] | None = None
    saturated: bool | None = None

    def to_json_dict(self) -> dict:
        cert = self.certificate
        if isinstance(cert, (LittlestoneTree, TeachingSet)):
            cert = cert.to_json_dict()
        elif isinstance(cert, (list, tuple)):
            cert = [
                c.to_json_dict() if isinstance(c, TeachingSet) else c
                for c in cert
            ]
        out = {"measure": self.measure, "value": self.value, "certificate": cert}
        if self.window is not None:
            out["window"] = list(self.window)
        if self.saturated is not None:
            out["saturated"] = self.saturated
        return out


@dataclass(frozen=True)
class TeachingSet:
    """Labelled examples that single out `target` within its class."""

    target: tuple[int, ...]
    examples: tuple[tuple[int, int], ...]

    def verify(self, fc: FiniteClass) -> bool:
        """Target matches every example and every other concept misses one."""
        cols = {x: fc.column(x) for x, _ in self.examples}
        if any(self.target[cols[x]] != y for x, y in self.examples):
            return False
        for concept in fc.concepts:
            if concept == self.target:
                continue
            if all(concept[cols[x]] == y for x, y in self.examples):
                return False
        return True

    def to_json_dict(self) -> dict:
        return {"target": list(self.target), "examples": [list(e) for e in self.examples]}


@dataclass(frozen=True)
class LittlestoneTree:
    """Complete binary tree of depth `depth` with domain points at nodes.

    `labels` maps an edge-bit prefix (the path from the root) to the point
    at that node; the root is the empty prefix.  Realizable when every
    root-to-leaf path is consistent with some class member.
    """

    depth: int
    labels: dict[tuple[int, ...], int] = field(default_factory=dict)

    @classmethod
    def uniform(cls, layer_points: Sequence[int]) -> "LittlestoneTree":
        """Tree labelling every node of layer k by layer_points[k]."""
        depth = len(layer_points)
        # Same test as 2**depth > DEFAULT_SEARCH_BUDGET, without building 2**depth.
        if depth >= DEFAULT_SEARCH_BUDGET.bit_length():
            raise BudgetExceededError(f"depth-{depth} tree has over {DEFAULT_SEARCH_BUDGET} paths")
        labels: dict[tuple[int, ...], int] = {}
        for k, x in enumerate(layer_points):
            for bits in range(2**k):
                prefix = tuple((bits >> i) & 1 for i in range(k))
                labels[prefix] = x
        return cls(depth=depth, labels=labels)

    def paths(self) -> Iterable[tuple[int, ...]]:
        for bits in range(2**self.depth):
            yield tuple((bits >> i) & 1 for i in range(self.depth))

    def path_points(self, path: tuple[int, ...]) -> list[tuple[int, int]]:
        """(point, required label) pairs along a root-to-leaf path."""
        return [(self.labels[path[:k]], path[k]) for k in range(self.depth)]

    def verify_against(self, fc: FiniteClass) -> bool:
        """Every path is realized by some concept of the finite class."""
        for path in self.paths():
            constraints = [(fc.column(x), y) for x, y in self.path_points(path)]
            if not any(
                all(concept[col] == y for col, y in constraints) for concept in fc.concepts
            ):
                return False
        return True

    def path_witness_index(self, path: tuple[int, ...]) -> int:
        """Index whose sequence carries exactly the path's labels at its points."""
        wanted: dict[int, int] = {}
        for x, y in self.path_points(path):
            if wanted.setdefault(x, y) != y:
                raise WitnessUnresolvedError(
                    f"conflicting labels required at point {x} along path {path}"
                )
        width = max(wanted, default=-1) + 1
        return index_of_pattern([wanted.get(n, 0) for n in range(width)])

    def verify_constructive(self, ic: IndexedClass) -> bool:
        """Every path is realized by the index built from its own labels."""
        for path in self.paths():
            m = self.path_witness_index(path)
            if any(ic.evaluate(m, x) != y for x, y in self.path_points(path)):
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "labels": {"".join(map(str, k)): v for k, v in sorted(self.labels.items())},
        }


def is_shattered(fc: FiniteClass, subset: Iterable[int]) -> bool:
    """True iff every label pattern on `subset` occurs among the concepts.

    Counts the distinct restrictions of the packed rows `fc.codes` to the
    subset's columns: linear in the number of concepts.  A subset that
    repeats a point is never shattered.
    """
    points = tuple(subset)
    selector = 0
    for x in points:
        selector |= 1 << fc.column(x)
    want = 2 ** len(points)
    if len(fc.concepts) < want:
        return False
    return len({code & selector for code in fc.codes}) == want


def _require_nonempty(fc: FiniteClass) -> None:
    if not fc.concepts:
        raise ValueError("dimension measures require a nonempty class")


def vc_dim(fc: FiniteClass, *, budget: int | None = None) -> DimensionReport:
    """Exact VC-dimension with a maximum shattered set as certificate.

    Exhaustive largest-first subset search, pruned by the pattern-count
    bound 2**n <= |concepts|; the returned set is the lexicographically
    smallest maximum one.
    """
    _require_nonempty(fc)
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    checked = 0
    upper = min(len(fc.domain), len(fc.concepts).bit_length() - 1)
    for size in range(upper, -1, -1):
        for subset in combinations(fc.domain, size):
            checked += 1
            if checked > limit:
                raise BudgetExceededError(
                    f"vc_dim exceeded {limit} subset checks at size {size}"
                )
            if is_shattered(fc, subset):
                return DimensionReport(measure="vc", value=size, certificate=subset)
    raise AssertionError("empty set is always shattered for a nonempty class")


def littlestone_memo(masks: Sequence[int], limit: int) -> Callable[[int], int]:
    """Memoized Littlestone dimension of a set of concepts, given as a bitmask
    of concept ids over a class with these per-point `masks`.

    The recursion: one concept has dimension 0, otherwise the max over points
    splitting the set of 1 + min of the two label-restriction dimensions.
    Every memo miss counts against `limit` (BudgetExceededError past it).
    """
    memo: dict[int, int] = {}
    misses = 0

    def dim(ids: int) -> int:
        nonlocal misses
        cached = memo.get(ids)
        if cached is not None:
            return cached
        misses += 1
        if misses > limit:
            raise BudgetExceededError(f"littlestone_dim exceeded {limit} recursion states")
        best = 0
        if ids & (ids - 1):
            for ones in masks:
                ones &= ids
                if not ones or ones == ids:
                    continue
                d = 1 + min(dim(ids ^ ones), dim(ones))
                if d > best:
                    best = d
        memo[ids] = best
        return best

    return dim


def littlestone_dim(fc: FiniteClass, *, budget: int | None = None) -> DimensionReport:
    """Exact Littlestone dimension with an optimal mistake tree certificate.

    Uses the game recursion of `littlestone_memo`, memoized on concept-id
    bitmasks; the same memo then picks the first splitting point at each
    node of the tree.  Equivalent to the maximal realizable tree depth
    (cross-checked against direct tree search in the test suite).
    """
    _require_nonempty(fc)
    dim = littlestone_memo(fc.masks, DEFAULT_SEARCH_BUDGET if budget is None else budget)
    value = dim(fc.all_ids)

    labels: dict[tuple[int, ...], int] = {}

    def fill(ids: int, prefix: tuple[int, ...]) -> None:
        remaining = value - len(prefix)
        if remaining == 0:
            return
        for x, ones in zip(fc.domain, fc.masks):
            ones &= ids
            if not ones or ones == ids:
                continue
            zeros = ids ^ ones
            if min(dim(zeros), dim(ones)) >= remaining - 1:
                labels[prefix] = x
                fill(zeros, prefix + (0,))
                fill(ones, prefix + (1,))
                return
        raise AssertionError("no splitting point found while building an optimal tree")

    fill(fc.all_ids, ())
    tree = LittlestoneTree(depth=value, labels=labels)
    return DimensionReport(measure="littlestone", value=value, certificate=tree)


def teaching_set(
    fc: FiniteClass, concept: Sequence[int], *, budget: int | None = None
) -> TeachingSet:
    """Minimum teaching set for `concept`, as a minimum cover of the other
    concepts by the points that rule them out (disagree with `concept`).

    A greedy cover gives the upper bound, then exhaustive search over subset
    sizes below it makes the result exact; ties resolve to the
    lexicographically smallest set of points.
    """
    target = tuple(concept)
    others = fc.all_ids ^ (1 << fc.index_of(target))
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if not others:
        return TeachingSet(target=target, examples=())
    label = dict(zip(fc.domain, target))
    rules_out = {x: fc.labelled(x, 1 - y) for x, y in label.items()}
    candidates = sorted(x for x, ids in rules_out.items() if ids)

    uncovered = others
    greedy: list[int] = []
    while uncovered:
        x = max(candidates, key=lambda p: (rules_out[p] & uncovered).bit_count())
        # Every other concept disagrees somewhere (concepts are deduplicated),
        # so greedy always makes progress.
        greedy.append(x)
        uncovered &= ~rules_out[x]
    upper = len(greedy)

    checked = 0
    for size in range(upper + 1):
        for points in combinations(candidates, size):
            checked += 1
            if checked > limit:
                raise BudgetExceededError(
                    f"teaching_set exceeded {limit} subset checks at size {size}"
                )
            covered = 0
            for x in points:
                covered |= rules_out[x]
            if covered == others:
                return TeachingSet(target=target, examples=tuple((x, label[x]) for x in points))
    raise AssertionError("greedy cover bounds the exact search")


def teaching_dim(fc: FiniteClass, *, budget: int | None = None) -> DimensionReport:
    """Worst-case minimum teaching set size, with all per-concept sets."""
    _require_nonempty(fc)
    sets = [teaching_set(fc, concept, budget=budget) for concept in fc.concepts]
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


def tree_witness(
    ic: IndexedClass,
    depth: int,
    labeling: str = "layer",
    *,
    scan_limit: int = 100_000,
) -> LittlestoneTree:
    """Uniform-layer mistake tree witness of the given depth, fully verified.

    labeling "layer" puts point k at every node of layer k; "active" uses
    the first `depth` points where the class's activity predicate holds.
    Raises BudgetExceededError for trees of over DEFAULT_SEARCH_BUDGET paths,
    and WitnessUnresolvedError when the labels cannot be found within the
    scan limit, need an index past the 2**64 ceiling, or any path fails
    verification; never returns an unverified tree.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if labeling == "layer":
        layer_points = range(depth)
    elif labeling == "active":
        if ic.active is None:
            raise ValueError("active labeling requires a class with an activity predicate")
        actives = (n for n in range(scan_limit + 1) if ic.active(n))
        layer_points = list(islice(actives, depth))
        if len(layer_points) < depth:
            raise WitnessUnresolvedError(
                f"found only {len(layer_points)} active points below {scan_limit}, "
                f"need {depth}; witness unresolved"
            )
        if layer_points and 1 << layer_points[-1] >= MAX_CODE:
            raise WitnessUnresolvedError(f"active point {layer_points[-1]} needs an index past 2**64")
    else:
        raise ValueError(f"unknown labeling {labeling!r}")

    tree = LittlestoneTree.uniform(layer_points)
    if not tree.verify_constructive(ic):
        raise WitnessUnresolvedError(
            f"depth-{depth} tree with layer points {list(layer_points)} is not realizable"
        )
    return tree


MEASURES: dict[str, Callable[..., DimensionReport]] = {
    "vc": vc_dim,
    "littlestone": littlestone_dim,
    "teaching": teaching_dim,
}


@dataclass(frozen=True)
class SaturationReport:
    measure: str
    windows: tuple[tuple[int, int], ...]
    values: tuple[int, ...]
    stabilized: bool
    incomplete: bool

    @property
    def final_value(self) -> int | None:
        return self.values[-1] if self.values else None

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure,
            "windows": [list(w) for w in self.windows],
            "values": list(self.values),
            "stabilized": self.stabilized,
            "incomplete": self.incomplete,
        }


def saturation_scan(
    ic: IndexedClass,
    measure: str,
    schedule: Sequence[tuple[int, int]],
    *,
    eval_budget: int | None = None,
) -> SaturationReport:
    """Run a measure over a nondecreasing window schedule.

    Stabilization (equal values over the last three windows) is evidence
    about the infinite class, never a proof.  A window exceeding the budget
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
            fc = materialize(ic, domain_max, index_count, budget=eval_budget)
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


def growth_schedule(
    ic: IndexedClass,
    *,
    windows: int = 5,
    scan_limit: int = 100_000,
    budget: int | None = None,
) -> tuple[tuple[int, int], ...]:
    """Active-milestone schedule for sparse bit-masked classes.

    Each window ends at a discovered active point with its saturating index
    count, so every step of the schedule picks up exactly one new active
    point and window dimensions grow strictly.  Falls back to
    DEFAULT_SCHEDULE when no affordable active point exists.
    """
    if ic.active is None:
        return DEFAULT_SCHEDULE
    limit = eval_budget() if budget is None else budget
    actives: list[int] = []
    for n in range(scan_limit + 1):
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


def default_schedule(ic: IndexedClass | None = None) -> tuple[tuple[int, int], ...]:
    """Scan schedule for a class: active-milestone windows for the sparse
    contradiction-gated constructions, the generic saturating windows
    otherwise."""
    if ic is not None and ic.provenance in ("goedel", "goedel_prefix"):
        return growth_schedule(ic)
    return DEFAULT_SCHEDULE
