"""Reference checks for benchmark outputs.

Nothing here trusts the code under test: values come from closed-form facts
(a halter stopping after exactly K steps gives a min(K, t, N+1)-dimensional
hypercube on the window (N, 2**t)), from the naive oracles in
``tests/oracles.py``, or from certificates re-checked with the certificate
types' own verifiers.  A failed check raises ``Mismatch``.
"""

from __future__ import annotations

import math
from itertools import combinations

import oracles

# Classes at most this large also go through the naive oracles, whose search
# is exponential in the domain size.
ORACLE_MAX_CONCEPTS = 64
ORACLE_MAX_POINTS = 10


class Mismatch(Exception):
    """An output disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def naive_onset(theorem, limit: int) -> int | None:
    """First n <= limit whose theorem prefix holds a statement and its
    negation, by comparing every pair (independent of learndim.formal)."""
    for n in range(limit + 1):
        code = theorem(n)
        if any(theorem(i) == code ^ 1 for i in range(n)):
            return n
    return None


def oracle_evaluator(spec, obj):
    """Literal evaluator m, n -> bit of a class spec, built from the oracles."""
    kind = spec[0]
    if kind == "halting":
        return lambda m, n: oracles.halting_eval_oracle(obj, m, n)
    if kind == "goedel":
        return lambda m, n: oracles.goedel_eval_oracle(obj.theorem, m, n)
    if kind == "goedel_prefix":
        onset = naive_onset(obj.theorem, 64)

        def prefix_eval(m, n):
            return oracles.bit_of(m, n) if onset is None or n < onset else 0

        return prefix_eval
    if kind == "step":
        return lambda m, n: 0 if m == 0 else int(n >= m - 1)
    raise ValueError(f"unknown class kind {kind!r}")


def window_rows(evaluate, domain_max: int, index_count: int) -> dict[tuple, int]:
    """Every distinct row of the window with its smallest index, by brute force."""
    rows: dict[tuple, int] = {}
    for m in range(index_count):
        rows.setdefault(tuple(evaluate(m, n) for n in range(domain_max + 1)), m)
    return rows


def check_window(fc, evaluate, domain_max: int, index_count: int) -> None:
    """A materialized window equals the brute-force window of the oracle."""
    expect(fc.domain == tuple(range(domain_max + 1)), "window domain")
    want = window_rows(evaluate, domain_max, index_count)
    got = dict(zip(fc.concepts, fc.witnesses))
    expect(len(got) == len(fc.concepts), "duplicate concepts in window")
    expect(got == want, f"window ({domain_max}, {index_count}) differs from the oracle")
    expect(list(fc.witnesses) == sorted(fc.witnesses), "concepts not ordered by witness")


def check_masked_window(fc, evaluate, domain_max: int, t: int) -> int:
    """A power-of-two window of a bit-masked class is the hypercube on its
    free active points (n <= N, n < t).  Returns the hypercube dimension k.

    Checks each concept against the oracle at its witness index and counts
    2**k distinct concepts, which is every pattern the window can hold, so
    the brute force over all 2**t indices is not needed.
    """
    free = [n for n in range(min(t, domain_max + 1)) if evaluate(1 << n, n) == 1]
    k = len(free)
    expect(fc.domain == tuple(range(domain_max + 1)), "window domain")
    expect(len(set(fc.concepts)) == len(fc.concepts) == 2**k, f"expected 2**{k} concepts")
    for row, witness in zip(fc.concepts, fc.witnesses):
        expect(witness < 2**t, "witness outside the index window")
        expect(
            all(row[n] == evaluate(witness, n) for n in fc.domain),
            f"concept of witness {witness} differs from the oracle",
        )
        expect(witness == sum(1 << n for n in free if row[n]), "witness not the smallest index")
    return k


def check_report(fc, report, measure: str, expected: int | None = None) -> None:
    """Value and certificate of one measure on one window."""
    expect(report.measure == measure, f"measure {report.measure} != {measure}")
    value, cert = report.value, report.certificate
    if measure == "vc":
        expect(len(cert) == value, "shattered set size != value")
        expect(oracles.all_patterns_present(fc, cert), f"certificate {cert} is not shattered")
        # Subsets of shattered sets are shattered, so one size up settles it.
        expect(
            not any(oracles.all_patterns_present(fc, s)
                    for s in combinations(fc.domain, value + 1)),
            f"a set of size {value + 1} is shattered",
        )
    elif measure == "littlestone":
        expect(cert.depth == value, "tree depth != value")
        expect(cert.verify_against(fc), "mistake tree not realizable")
    else:
        expect([ts.target for ts in cert] == list(fc.concepts), "one teaching set per concept")
        expect(all(ts.verify(fc) for ts in cert), "teaching set fails to teach")
        expect(max(len(ts.examples) for ts in cert) == value, "teaching value != max set size")
    if expected is not None:
        expect(value == expected, f"{measure} = {value}, reference {expected}")
    elif len(fc.concepts) <= ORACLE_MAX_CONCEPTS and len(fc.domain) <= ORACLE_MAX_POINTS:
        naive = {
            "vc": oracles.naive_vc_dim,
            "littlestone": oracles.naive_littlestone_dim,
            "teaching": oracles.naive_teaching_dim,
        }[measure](fc)
        expect(value == naive, f"{measure} = {value}, naive oracle {naive}")


def check_transcript(fc, transcript, rounds: int) -> None:
    """The online protocol's transcript is consistent and realizable."""
    expect(len(transcript.rounds) == rounds, "round count")
    expect(
        transcript.mistakes == sum(g != y for _, g, y in transcript.rounds), "mistake count"
    )
    history = []
    concepts = set(fc.concepts)
    for (x, _, y), witness in zip(transcript.rounds, transcript.witnesses):
        history.append((fc.domain.index(x), y))
        expect(witness in concepts, "round witness not in class")
        expect(all(witness[c] == v for c, v in history), "round witness inconsistent")


def pac_bound(vcdim: int, epsilon: float, delta: float) -> int:
    """The realizable-case sample size documented for pac_experiment."""
    return math.ceil((8 / epsilon) * (vcdim * math.log2(16 / epsilon) + math.log2(2 / delta)))


def check_pac(report, sizes, trials: int) -> None:
    expect(tuple(report.sample_sizes) == tuple(sizes), f"sample sizes {report.sample_sizes}")
    expect(report.trials == trials, "trial count")
    for f in report.success_frequencies:
        expect(abs(f * trials - round(f * trials)) < 1e-9 and 0 <= f <= 1,
               f"frequency {f} is not a share of {trials} trials")
