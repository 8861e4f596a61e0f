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
from bisect import bisect
from collections.abc import Mapping, Sequence
from itertools import accumulate, repeat

from ._record import Record
from .classes import FiniteClass, eval_budget
from .errors import BudgetExceededError, ProtocolViolationError
from .dimensions import DEFAULT_SEARCH_BUDGET, LittlestoneTree, littlestone_memo, vc_dim

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class GameTranscript(Record):
    rounds: tuple[tuple[int, int, int], ...]  # (x, guess, truth)
    mistakes: int
    witnesses: tuple[tuple[int, ...], ...]  # per-round consistent concept


def _lowest_id(ids: int) -> int:
    """The concept id at the lowest set bit of a nonempty id mask."""
    return (ids & -ids).bit_length() - 1


class SOALearner:
    """Standard optimal algorithm: predict the label whose restriction of the
    version space keeps the larger Littlestone dimension; ties predict 0.

    Makes at most Ldim mistakes against any realizable adversary.  The
    version space is a bitmask of concept ids, and one Littlestone memo
    serves every round of the game, its words charged against
    DEFAULT_SEARCH_BUDGET.
    Each prediction takes one exact value and one threshold query: the
    ones side wins when its dimension is at least the zeros side's plus
    one.  SOA may ask about states that the value climb over the full class
    never visited; each is still a split of a version space, so all lie
    inside the unpruned recursion's closure of the full class.
    """

    def __init__(self, fc: FiniteClass):
        self.fc = fc
        self.ids = fc.all_ids
        self.dim, self.at_least, _ = littlestone_memo(fc, DEFAULT_SEARCH_BUDGET)

    def predict(self, x: int) -> int:
        if not self.ids:
            raise ValueError("version space is empty: adversary violated realizability")
        ones = self.ids & self.fc.labelled(x, 1)
        zeros = self.ids ^ ones
        if not zeros:
            return 1
        if not ones:
            return 0
        return 1 if self.at_least(ones, self.dim(zeros) + 1) else 0

    def observe(self, x: int, y: int) -> None:
        self.ids &= self.fc.labelled(x, y)


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
        self.node = 1  # heap index into tree.nodes; past its end once exhausted
        self.ids = fc.all_ids
        self.committed: int | None = None  # concept id
        self._cycle = 0

    def question(self) -> int:
        if self.node <= len(self.tree.nodes):
            return self.tree.nodes[self.node - 1]
        x = self.fc.domain[self._cycle % len(self.fc.domain)]
        self._cycle += 1
        return x

    def reveal(self, x: int, guess: int) -> int:
        if self.node <= len(self.tree.nodes):
            truth = 1 - guess
            self.node = 2 * self.node + truth
        else:
            if self.committed is None:
                if not self.ids:
                    raise ValueError("no concept consistent with the tree history")
                self.committed = _lowest_id(self.ids)
            truth = self.fc.codes[self.committed] >> self.fc.column(x) & 1
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
    ProtocolViolationError naming the (1-based) round otherwise, and
    BudgetExceededError before the first round when max_rounds exceeds
    DEFAULT_SEARCH_BUDGET.
    """
    if max_rounds > DEFAULT_SEARCH_BUDGET:
        raise BudgetExceededError(
            f"{max_rounds} rounds exceed the game budget of {DEFAULT_SEARCH_BUDGET}"
        )
    rounds: list[tuple[int, int, int]] = []
    witnesses: list[tuple[int, ...]] = []
    consistent = fc.all_ids
    mistakes = 0
    witness_id = -1
    for t in range(1, max_rounds + 1):
        x = adversary.question()
        guess = learner.predict(x)
        truth = adversary.reveal(x, guess)
        if truth not in (0, 1):
            raise ProtocolViolationError(f"adversary revealed non-bit label {truth!r}", t)
        consistent &= fc.labelled(x, truth)
        if not consistent:
            raise ProtocolViolationError("revealed history is unrealizable", t)
        # The lowest consistent id only grows with the history, so each
        # witness row is built once and shared by its rounds.
        if _lowest_id(consistent) != witness_id:
            witness_id = _lowest_id(consistent)
            witness = fc.row(witness_id)
        witnesses.append(witness)
        rounds.append((x, guess, truth))
        if guess != truth:
            mistakes += 1
        learner.observe(x, truth)
    return GameTranscript(rounds=tuple(rounds), mistakes=mistakes, witnesses=tuple(witnesses))


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
    bound = (8 / epsilon) * (vcdim * math.log2(16 / epsilon) + math.log2(2 / delta))
    if not math.isfinite(bound):
        # No evaluation budget covers a sample past the largest float.
        raise BudgetExceededError(
            f"sample size bound for epsilon {epsilon} and delta {delta} is not finite"
        )
    return math.ceil(bound)


class PacReport(Record):
    epsilon: float
    delta: float
    trials: int
    seed: int
    sample_sizes: tuple[int, ...]
    success_frequencies: tuple[float, ...]


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

    Each point is drawn as `choices(points, cum_weights=cum)` draws it,
    one random() per point.  The version space always holds the floor,
    the AND of the agreement masks of every positive-weight point, so
    ERM's fit is final once no concept below the floor's lowest survives:
    once the version space reaches the floor, or once no concept below the
    target survives.  A trial stops at that draw, and one settled before
    its first draw (target id 0, say) draws nothing.  One trial generator
    is reseeded with each trial's seed from the master stream, which
    spends one seed per trial whether or not the trial draws, so every
    success frequency equals that of drawing all m points.
    """
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be positive")
    target_id = fc.index_of(target)  # realizable regime: the target is in the class

    from fractions import Fraction  # here, since a game never builds one

    points = sorted(dist)
    try:
        weights = [Fraction(dist[x]) for x in points]
    except (OverflowError, ValueError):  # inf gives OverflowError, nan ValueError
        raise ValueError("distribution weights must be finite numbers") from None
    if any(w < 0 for w in weights) or sum(weights) == 0:
        raise ValueError("distribution weights must be nonnegative and not all zero")
    total = sum(weights)
    probs = [w / total for w in weights]
    cols = [fc.column(x) for x in points]  # validates support

    if sample_sizes is None:
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
    rng = random.Random(0)  # reseeded by every trial that draws
    draw = rng.random
    cum = [float(c) for c in accumulate(probs)]
    scale, hi = cum[-1], len(points) - 1
    agree = [fc.labelled(x, fc.codes[target_id] >> col & 1) for x, col in zip(points, cols)]
    good: dict[int, bool] = {}  # hypothesis id -> true error <= epsilon
    floor = fc.all_ids  # the smallest version space any sample can reach
    for mask, p in zip(agree, probs):
        if p:
            floor &= mask
    # The fit is final once no id below the floor's lowest survives.
    below = (1 << _lowest_id(floor)) - 1

    frequencies: list[float] = []
    for m in sizes:
        successes = 0
        for _ in range(trials):
            trial_seed = master.randrange(2**63)
            ids = fc.all_ids
            if below:
                rng.seed(trial_seed)
                for _ in repeat(None, m):
                    ids &= agree[bisect(cum, draw() * scale, 0, hi)]
                    if not ids & below:
                        break
            best = _lowest_id(ids)
            if best not in good:
                true_error = float(sum(p for p, mask in zip(probs, agree) if not mask >> best & 1))
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
