"""Learning-game harnesses.

The online protocol runs on a finite class window: per round the adversary
asks a point, the learner guesses, the adversary reveals the truth, and the
harness independently verifies that the revealed history stays realizable,
recording a witness concept each round.  Adversaries never get trusted.

The PAC side is a seeded Monte Carlo experiment around empirical risk
minimization, together with a standard realizable-case sample size bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .classes import FiniteClass, eval_budget
from .errors import BudgetExceededError, ProtocolViolationError
from .dimensions import DEFAULT_SEARCH_BUDGET, LittlestoneTree, littlestone_memo


@dataclass(frozen=True)
class GameTranscript:
    rounds: tuple[tuple[int, int, int], ...]  # (x, guess, truth)
    mistakes: int
    witnesses: tuple[tuple[int, ...], ...]  # per-round consistent concept

    def to_json_dict(self) -> dict:
        return {
            "rounds": [list(r) for r in self.rounds],
            "mistakes": self.mistakes,
            "witnesses": [list(w) for w in self.witnesses],
        }


def _first_concept(fc: FiniteClass, ids: int) -> tuple[int, ...]:
    """The concept at the lowest set bit of a nonempty id mask."""
    return fc.concepts[(ids & -ids).bit_length() - 1]


class SOALearner:
    """Standard optimal algorithm: predict the label whose restriction of the
    version space keeps the larger Littlestone dimension; ties predict 0.

    Makes at most Ldim mistakes against any realizable adversary.  The
    version space is a bitmask of concept ids, and one Littlestone memo
    serves every round of the game.  Every state it visits is a state of the
    full class's recursion, charged against DEFAULT_SEARCH_BUDGET.
    """

    def __init__(self, fc: FiniteClass):
        self.fc = fc
        self.ids = fc.all_ids
        self.dim = littlestone_memo(fc.masks, DEFAULT_SEARCH_BUDGET)

    def predict(self, x: int) -> int:
        if not self.ids:
            raise ValueError("version space is empty: adversary violated realizability")
        ones = self.ids & self.fc.labelled(x, 1)
        zeros = self.ids ^ ones
        if not zeros:
            return 1
        if not ones:
            return 0
        return 1 if self.dim(ones) > self.dim(zeros) else 0

    def observe(self, x: int, y: int) -> None:
        self.ids &= self.fc.labelled(x, y)


def soa_predict(version_space: FiniteClass, x: int) -> int:
    """SOA's prediction at x with the whole class as the version space.

    Raises on an empty version space, which can only mean the adversary
    violated realizability.
    """
    return SOALearner(version_space).predict(x)


class ConstantLearner:
    def __init__(self, label: int):
        self.label = label

    def predict(self, x: int) -> int:
        return self.label

    def observe(self, x: int, y: int) -> None:
        pass


class RandomLearner:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def predict(self, x: int) -> int:
        return self.rng.randint(0, 1)

    def observe(self, x: int, y: int) -> None:
        pass


class TreeAdversary:
    """Follows a mistake tree: asks the current node's point and answers the
    opposite of the learner's guess, descending the matching edge.

    Forces one mistake per tree level while the tree property keeps the
    history realizable.  Once the tree is exhausted it commits to the first
    class concept consistent with the history and answers truthfully,
    cycling through the domain for questions.
    """

    def __init__(self, fc: FiniteClass, tree: LittlestoneTree):
        self.fc = fc
        self.tree = tree
        self.prefix: tuple[int, ...] = ()
        self.ids = fc.all_ids
        self.committed: tuple[int, ...] | None = None
        self._cycle = 0

    def question(self) -> int:
        if len(self.prefix) < self.tree.depth:
            return self.tree.labels[self.prefix]
        x = self.fc.domain[self._cycle % len(self.fc.domain)]
        self._cycle += 1
        return x

    def reveal(self, x: int, guess: int) -> int:
        if len(self.prefix) < self.tree.depth:
            truth = 1 - guess
            self.prefix = self.prefix + (truth,)
        else:
            if self.committed is None:
                if not self.ids:
                    raise ValueError("no concept consistent with the tree history")
                self.committed = _first_concept(self.fc, self.ids)
            truth = self.committed[self.fc.column(x)]
        self.ids &= self.fc.labelled(x, truth)
        return truth


class RandomConsistentAdversary:
    """Asks random points and reveals a random label among the realizable ones."""

    def __init__(self, fc: FiniteClass, seed: int = 0):
        self.fc = fc
        self.ids = fc.all_ids
        self.rng = random.Random(seed)

    def question(self) -> int:
        return self.rng.choice(self.fc.domain)

    def reveal(self, x: int, guess: int) -> int:
        ones = self.ids & self.fc.labelled(x, 1)
        if ones and ones != self.ids:
            truth = self.rng.randint(0, 1)
        else:
            truth = 1 if ones else 0
        self.ids &= self.fc.labelled(x, truth)
        return truth


class MajorityFlipAdversary:
    """Asks the most contested point and reveals the minority label.

    Shrinks the version space as fast as labels can be flipped against the
    crowd while staying realizable; ignores the learner's guess.
    """

    def __init__(self, fc: FiniteClass):
        self.fc = fc
        self.ids = fc.all_ids

    def question(self) -> int:
        size = self.ids.bit_count()
        counts = [(self.ids & ones).bit_count() for ones in self.fc.masks]
        minorities = [min(size - count, count) for count in counts]
        return self.fc.domain[minorities.index(max(minorities))]

    def reveal(self, x: int, guess: int) -> int:
        ones = (self.ids & self.fc.labelled(x, 1)).bit_count()
        zeros = self.ids.bit_count() - ones
        # The label fewer concepts carry (ties 0), unless no concept carries it.
        truth = 1 if ones and not 0 < zeros <= ones else 0
        self.ids &= self.fc.labelled(x, truth)
        return truth


def tree_adversary(fc: FiniteClass, tree: LittlestoneTree) -> TreeAdversary:
    if not tree.verify_against(fc):
        raise ValueError("tree is not realizable in the class")
    return TreeAdversary(fc, tree)


def play_online_game(
    fc: FiniteClass, learner, adversary, max_rounds: int
) -> GameTranscript:
    """Run the online protocol for max_rounds rounds with verified realizability.

    Every revealed prefix must be consistent with some class concept; the
    witness found per round goes into the transcript.  Raises
    ProtocolViolationError naming the (1-based) round otherwise.
    """
    rounds: list[tuple[int, int, int]] = []
    witnesses: list[tuple[int, ...]] = []
    consistent = fc.all_ids
    mistakes = 0
    for t in range(1, max_rounds + 1):
        x = adversary.question()
        guess = learner.predict(x)
        truth = adversary.reveal(x, guess)
        if truth not in (0, 1):
            raise ProtocolViolationError(f"adversary revealed non-bit label {truth!r}", t)
        consistent &= fc.labelled(x, truth)
        if not consistent:
            raise ProtocolViolationError("revealed history is unrealizable", t)
        witnesses.append(_first_concept(fc, consistent))
        rounds.append((x, guess, truth))
        if guess != truth:
            mistakes += 1
        learner.observe(x, truth)
    return GameTranscript(rounds=tuple(rounds), mistakes=mistakes, witnesses=tuple(witnesses))


def erm(fc: FiniteClass, sample: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Concept minimizing empirical disagreement; ties go to the smallest
    witness index.  Agnostic: the sample need not be realizable."""
    if not sample:
        raise ValueError("erm requires a nonempty sample")
    counts: dict[tuple[int, int], int] = {}
    for x, y in sample:
        counts[(x, y)] = counts.get((x, y), 0) + 1
    cols = {x: fc.column(x) for x, _ in counts}
    best_row: tuple[int, ...] | None = None
    best_key: tuple[int, int] | None = None
    for row, witness in zip(fc.concepts, fc.witnesses):
        errors = sum(c for (x, y), c in counts.items() if row[cols[x]] != y)
        key = (errors, witness)
        if best_key is None or key < best_key:
            best_key, best_row = key, row
    assert best_row is not None
    return best_row


def sample_size_bound(vcdim: int, epsilon: float, delta: float) -> int:
    """A standard realizable-case PAC sample size:
    ceil((8/eps) * (vcdim * log2(16/eps) + log2(2/delta))).

    One admissible polynomial choice; only the polynomial dependence on
    1/eps and log(1/delta) is canonical.
    """
    if vcdim < 0:
        raise ValueError("vcdim must be nonnegative")
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return math.ceil(
        (8 / epsilon) * (vcdim * math.log2(16 / epsilon) + math.log2(2 / delta))
    )


@dataclass(frozen=True)
class PacReport:
    epsilon: float
    delta: float
    trials: int
    seed: int
    sample_sizes: tuple[int, ...]
    success_frequencies: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "trials": self.trials,
            "seed": self.seed,
            "sample_sizes": list(self.sample_sizes),
            "success_frequencies": list(self.success_frequencies),
        }


def pac_experiment(
    fc: FiniteClass,
    target: Sequence[int],
    dist: Mapping[int, int | float | Fraction],
    epsilon: float,
    delta: float,
    trials: int,
    *,
    sample_sizes: Sequence[int] | None = None,
    seed: int = 0,
) -> PacReport:
    """Monte Carlo check of ERM in the realizable regime.

    For each sample size, draws `trials` independent samples from the
    distribution labelled by `target`, fits ERM, and reports the fraction of
    trials whose true error under the distribution is at most epsilon.
    Per-trial randomness derives deterministically from the master seed.

    The target is in the class, so ERM's minimum empirical error is 0 and
    its fit is the smallest-witness concept agreeing with the target on the
    distinct drawn points: the lowest id in the AND of their agreement
    masks (concepts are listed in increasing witness order).  Each
    hypothesis's true-error verdict is computed once per experiment.
    Raises BudgetExceededError before drawing anything when trials times
    the sum of the sample sizes exceeds eval_budget().
    """
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be positive")
    target_row = tuple(target)
    fc.index_of(target_row)  # realizable regime: the target is in the class

    points = sorted(dist)
    weights = [Fraction(dist[x]) for x in points]
    if any(w < 0 for w in weights) or sum(weights) == 0:
        raise ValueError("distribution weights must be nonnegative and not all zero")
    total = sum(weights)
    probs = [w / total for w in weights]
    point_cols = {x: fc.column(x) for x in points}  # validates support

    if sample_sizes is None:
        from .dimensions import vc_dim

        sizes = (sample_size_bound(vc_dim(fc).value, epsilon, delta),)
    else:
        sizes = tuple(sample_sizes)
        if any(m < 1 for m in sizes):
            raise ValueError("sample sizes must be positive")
    limit = eval_budget()
    if trials * sum(sizes) > limit:
        raise BudgetExceededError(
            f"pac experiment needs over {limit} draws (trials x sum of sample sizes)"
        )

    master = random.Random(seed)
    cum = [float(sum(probs[: k + 1])) for k in range(len(probs))]
    agree = {x: fc.labelled(x, target_row[col]) for x, col in point_cols.items()}
    good: dict[int, bool] = {}  # hypothesis id -> true error <= epsilon

    frequencies: list[float] = []
    for m in sizes:
        successes = 0
        for _ in range(trials):
            rng = random.Random(master.randrange(2**63))
            ids = fc.all_ids
            for x in set(rng.choices(points, cum_weights=cum, k=m)):
                ids &= agree[x]
            best = (ids & -ids).bit_length() - 1
            if best not in good:
                hypothesis = fc.concepts[best]
                true_error = float(
                    sum(
                        p
                        for p, x in zip(probs, points)
                        if hypothesis[point_cols[x]] != target_row[point_cols[x]]
                    )
                )
                good[best] = true_error <= epsilon
            successes += good[best]
        frequencies.append(successes / trials)
    return PacReport(
        epsilon=epsilon,
        delta=delta,
        trials=trials,
        seed=seed,
        sample_sizes=sizes,
        success_frequencies=tuple(frequencies),
    )
