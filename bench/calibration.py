"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of pure-Python code swings by up to
40% over spans of seconds, for all code alike, while the ratio between two
fixed pieces of Python work stays within a few percent.  So the benchmark
times a fixed probe, built from the same kind of set, tuple and dict
traffic as learndim's engines but sharing no code with it, right before
and after every timed op, and scales the op's time to a host on which the
probe takes ``PROBE_REFERENCE_S``.  A change that speeds learndim up moves
the scaled times as much as the raw ones; a change of host speed does not.
"""

from __future__ import annotations

from time import perf_counter

PROBE_REFERENCE_S = 0.003


def _probe_work() -> int:
    ids = frozenset(range(96))
    memo: dict[frozenset, int] = {}
    for col in range(6):
        for mask in range(32):
            key = frozenset(i for i in ids if (i >> col) & 1 == mask & 1 and i % (mask + 2))
            memo[key] = memo.get(key, 0) + len(key)
    rows = [tuple((m >> n) & 1 for n in range(10)) for m in range(128)]
    patterns = {tuple(row[i] for i in (1, 3, 5)) for row in rows}
    return len(memo) + len(patterns)


def probe() -> float:
    """Seconds the fixed probe takes now."""
    start = perf_counter()
    _probe_work()
    return perf_counter() - start


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """A time measured between two probes, scaled to the reference host."""
    return seconds * 2 * PROBE_REFERENCE_S / (probe_before + probe_after)
