"""Layered benchmark for learndim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a learndim checkout (``src/``, ``tests/`` and
``machines/`` must be there).  One process, one caller, no threads: each op
starts only after the previous one returned (closed loop), and cli-batch
runs at most one child process at a time.  The run and its children stay on
one CPU.

The run sets the workload up several times (fresh ``import learndim``,
machine parsing, class construction, seeded input generation) and reports
the median as ``setup_s``.  It then runs an untimed warm-up pass over the
workload's fixed, seeded op mix and repeats timed passes until ``--seconds``
have gone by; only complete passes count.  An op's latency is its median
over those passes; ``op_p50_ms`` and ``op_tail_ms`` are taken over the ops
of the mix, and ``ops_per_s`` is ops per pass over the median pass time.
Times are scaled by a host-speed probe (see ``calibration.py``); the raw
figures are in the metadata.  Every op's output is checked outside its
timed span: each repeat against the first, the first against the
references.

With ``--trace 1`` untraced and traced passes alternate, and the result
holds the per-layer metrics of one traced pass (times are medians over
traced passes; counts must repeat exactly in each) and the tracing
overhead.  The last line of stdout is the result as one JSON object; the
lines before it are a readable summary and the run's metadata.  The full
result, and with tracing the spans, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import probe, scaled

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
REQUIRED = ("src/learndim/__init__.py", "tests/conftest.py", "tests/oracles.py", "machines/loop.tm")
WORKLOAD_NAMES = ("gated-windows", "random-games", "machine-scan", "cli-batch")
SETUP_REPEATS = 11
WARMUP_MAX_S = 3.0
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples above it
CLI_IMPORT_REPEATS = 5
CLI_COMMANDS = ("simulate", "dim", "teach", "tree", "game", "pac", "reduce", "suite")
LAYERS = ("turing", "formal", "classes", "dimensions", "games", "reduction", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _span_metrics(*names):
    return [(f"{n}.{kind}", unit) for n in names for kind, unit in (("calls", "count"), ("busy_s", "s"))]


# Names ending in .calls, .busy_s and .self_share come from the spans; other
# count metrics are work counts the ops report; the rest are derived.
PER_LAYER = (
    *_span_metrics("turing.run_bounded"),
    ("turing.run_bounded.steps", "count"),
    ("turing.steps_per_s", "1/s"),
    *_span_metrics("formal.scan"),
    ("formal.scan.theorems", "count"),
    *_span_metrics("classes.materialize_masked", "classes.materialize_generic"),
    ("classes.materialize.cells", "count"),
    ("classes.materialize.concepts", "count"),
    ("classes.materialize.keep_ratio", "ratio"),
    *_span_metrics("classes.gate_query"),
    *_span_metrics(*(f"dimensions.{f}" for f in (
        "littlestone_dim", "teaching_dim", "vc_dim", "saturation_scan", "tree_witness"))),
    ("dimensions.saturation_scan.window_ratio", "ratio"),
    ("dimensions.tree_witness.paths", "count"),
    *_span_metrics("games.play_online_game"),
    ("games.rounds", "count"),
    ("games.round_ms", "ms"),
    ("games.mistakes", "count"),
    ("games.adversary_setup.busy_s", "s"),
    *_span_metrics("games.pac_experiment"),
    ("games.erm_fits", "count"),
    ("games.erm_fit_us", "us"),
    *_span_metrics("reduction.agreement_check"),
    ("reduction.agreement_check.machines", "count"),
    *_span_metrics("reduction.budgeted_vc_decider"),
    ("cli.import.busy_s", "s"),
    *_span_metrics(*(f"cli.{c}" for c in CLI_COMMANDS)),
    *((f"{layer}.self_share", "ratio") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- set-up ------------------------------------------------------------------


def fresh_import(workload: str):
    """Import learndim from scratch, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "learndim" or n.startswith("learndim.")]:
        del sys.modules[name]
    ld = importlib.import_module("learndim")
    if workload == "cli-batch":
        importlib.import_module("learndim.cli")
    return ld


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def setup(workload: str, seed: int, fixtures, problems: list[str]):
    """Set the workload up SETUP_REPEATS times.  Returns the last op list,
    the scaled and raw set-up times and the digest of the seeded inputs."""
    from cli_batch import build_cli_batch, cli_batch_inputs
    from workloads import WORKLOADS, Env

    make_inputs, build = {**WORKLOADS, "cli-batch": (cli_batch_inputs, build_cli_batch)}[workload]
    times, raw, digests = [], [], set()
    gc.collect()
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        ld = fresh_import(workload)
        data = make_inputs(random.Random(f"{workload}/{seed}"))
        ops = build(Env(ld, fixtures, ROOT), data)
        elapsed = perf_counter() - start
        gc.collect()
        after = probe()
        times.append(scaled(elapsed, before, after))
        raw.append(elapsed)
        before = after
        digests.add(digest(data))
    if len(digests) != 1:
        problems.append("the same seed generated different inputs")
    inputs_digest = min(digests)
    if digest(make_inputs(random.Random(f"{workload}/{seed + 1}"))) == inputs_digest:
        problems.append(f"seeds {seed} and {seed + 1} generated the same inputs")
    return ops, times, raw, inputs_digest


# --- measurement -------------------------------------------------------------


class Outputs:
    """First output of each op, and how often later outputs differed from it."""

    def __init__(self, n_ops: int):
        self.first: list = [None] * n_ops
        self.attempted = [0] * n_ops
        self.changed = [0] * n_ops

    def record(self, i: int, out) -> None:
        if not self.attempted[i]:
            self.first[i] = out
        elif out != self.first[i]:
            self.changed[i] += 1
        self.attempted[i] += 1


class OpError:
    """An exception raised by an op, kept as its output."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text


@dataclass
class Pass:
    """One complete pass: per-op latencies in seconds, scaled (see
    calibration.py) and raw, the work counts the ops reported, and for a
    traced pass the range of its spans."""

    scaled: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    spans: range = range(0)


def run_pass(ops, ctx, outputs: Outputs, deadline) -> Pass | None:
    """One pass over the mix, or None when the deadline cut it short.

    Each op starts with the collector reset, so the garbage of earlier ops
    is not collected inside its timed span, and sits between two probes.
    """
    done = Pass()
    first_span = len(getattr(ctx, "spans", ()))
    ctx.counts.clear()
    gc.collect()
    before = probe()
    for i, op in enumerate(ops):
        if deadline is not None and perf_counter() >= deadline:
            return None
        gc.collect()
        start = perf_counter()
        try:
            out = ctx.op(i, op.run)
        except Exception as exc:  # an op that raises is a failed op; keep going
            out = OpError(exc)
        elapsed = perf_counter() - start
        outputs.record(i, out)
        gc.collect()
        after = probe()
        done.scaled.append(scaled(elapsed, before, after))
        done.raw.append(elapsed)
        before = after
    done.counts = dict(ctx.counts)
    done.spans = range(first_span, len(getattr(ctx, "spans", ())))
    return done


def measure(ops, seconds: float, tracer):
    """A warm-up pass, then untraced passes (alternating with traced ones
    when a tracer is given) until the time is up.  The first pass of each
    kind always completes.  Returns the outputs and the complete untraced
    and traced passes."""
    from spans import Direct

    outputs = Outputs(len(ops))
    plain, traced = [], []
    direct = Direct()
    deadline = perf_counter() + seconds
    # The warm-up pass, checked but not timed and cut after WARMUP_MAX_S,
    # grows the allocator's pools and loads what the ops load lazily.  Then
    # everything alive (inputs, first outputs) leaves the collector's view,
    # so collections inside ops scan only what the ops allocate.
    run_pass(ops, direct, outputs, perf_counter() + WARMUP_MAX_S)
    gc.freeze()
    while perf_counter() < deadline or not plain:
        done = run_pass(ops, direct, outputs, deadline if plain else None)
        if done is None:
            break
        plain.append(done)
        if tracer is not None:
            done = run_pass(ops, tracer, outputs, deadline if traced else None)
            if done is None:
                break
            traced.append(done)
    return outputs, plain, traced


def op_latency_stats(passes: list[list[float]]) -> dict:
    """Per-op median latency over passes, then median and tail over ops."""
    per_op = sorted(statistics.median(samples) for samples in zip(*passes))
    n = len(per_op)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "p50": statistics.median(per_op),
        "tail": per_op[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "samples": n,
    }


def pass_time(passes: list[list[float]]) -> float:
    return statistics.median(sum(lat) for lat in passes)


def e2e_values(n_ops: int, passes: list[list[float]]) -> dict:
    lat = op_latency_stats(passes)
    return {
        "ops_per_s": n_ops / pass_time(passes),
        "op_p50_ms": lat["p50"] * 1e3,
        "op_tail_ms": lat["tail"] * 1e3,
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# --- checks ------------------------------------------------------------------


def deep_check(ops, outputs: Outputs, problems: list[str]) -> int:
    """Check each op's first output against its references.  Returns the
    number of failed executions; adds one line per failing op to problems."""
    from references import Mismatch

    failed = 0
    for i, op in enumerate(ops):
        out = outputs.first[i]
        try:
            if isinstance(out, OpError):
                raise Mismatch(f"raised {out.text}")
            op.check(out)
        except Mismatch as exc:
            failed += outputs.attempted[i]
            problems.append(f"{op.label}: {exc}")
            continue
        if outputs.changed[i]:
            failed += outputs.changed[i]
            problems.append(f"{op.label}: output changed between passes")
    return failed


# --- per-layer metrics -------------------------------------------------------


def layer_metrics(tracer, traced: list[Pass], plain: list[Pass], cli_import_s: float,
                  problems: list[str]) -> dict:
    """Per-layer metrics of one traced pass: call and work counts, which must
    repeat exactly in every pass, and times as medians over traced passes."""
    from spans import summarize

    summaries = [summarize(tracer.spans, p.spans.start, p.spans.stop) for p in traced]
    calls, counts = summaries[0]["calls"], traced[0].counts
    if any(s["calls"] != calls for s in summaries):
        problems.append("layer call counts differ between two traced passes")

    def median(value):
        return statistics.median(value(s, p) for s, p in zip(summaries, traced))

    out = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(base, 0)
        elif kind == "busy_s":  # scaled like the pass's op latencies
            out[name] = median(lambda s, p: s["busy"].get(base, 0.0) * sum(p.scaled) / sum(p.raw))
        elif kind == "self_share":
            out[name] = median(lambda s, p: s["layer_self"].get(base, 0.0) / sum(p.raw))
        elif unit == "count":
            out[name] = counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out["turing.steps_per_s"] = ratio(out["turing.run_bounded.steps"],
                                      out["turing.run_bounded.busy_s"])
    out["classes.materialize.keep_ratio"] = ratio(
        out["classes.materialize.concepts"], counts.get("classes.materialize.rows", 0))
    out["dimensions.saturation_scan.window_ratio"] = ratio(
        counts.get("dimensions.saturation_scan.windows_done", 0),
        counts.get("dimensions.saturation_scan.windows_scheduled", 0))
    out["games.round_ms"] = 1e3 * ratio(out["games.play_online_game.busy_s"], out["games.rounds"])
    out["games.erm_fit_us"] = 1e6 * ratio(out["games.pac_experiment.busy_s"], out["games.erm_fits"])
    out["cli.import.busy_s"] = cli_import_s
    out["trace.overhead_ratio"] = (pass_time([p.scaled for p in traced])
                                   / pass_time([p.scaled for p in plain]) - 1.0)
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}


# --- metadata and output -----------------------------------------------------


def commit() -> str | None:
    """Commit of the checkout, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """Digest of src/, which identifies the code when no commit is at hand."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} missing under {ROOT}; run from a learndim checkout",
              file=sys.stderr)
        return 2
    # The materialization budget must be the documented default.
    os.environ.pop("LEARNDIM_EVAL_BUDGET", None)
    # One CPU for the run and the children it starts, so the host-speed
    # probe times the CPU the ops run on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import conftest  # reference fixtures: halter_text and the looping machines
    from cli_batch import import_time, known_defect
    from spans import Tracer

    problems: list[str] = []
    ops, setup_times, raw_setup, inputs_digest = setup(args.workload, args.seed, conftest, problems)
    tracer = Tracer() if args.trace else None
    outputs, plain, traced = measure(ops, args.seconds, tracer)
    counts = plain[0].counts
    if any(p.counts != counts for p in plain + traced):
        problems.append("work counts differ between two passes of the same seeded mix")
    rss = peak_rss_mb(args.workload)
    failed = deep_check(ops, outputs, problems)
    attempted = sum(outputs.attempted)
    lat = op_latency_stats([p.scaled for p in plain])

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit(),
        "src_sha256": source_digest(),
        "inputs_sha256": inputs_digest,
        "ops_in_mix": len(ops),
        "passes": len(plain),
        "op_tail_ms": {"percentile": lat["tail_percentile"], "samples": lat["samples"],
                       "sample": "per-op median latency over passes"},
        "setup_s_runs": setup_times,
        "raw": {"setup_s": statistics.median(raw_setup),
                **e2e_values(len(ops), [p.raw for p in plain])},
        "work_counts": counts,
        "work_counts_sha256": digest(counts),
        "fail_ratio": failed / attempted,
        "problems": problems,
    }
    if args.workload == "cli-batch":
        meta["known_defect"] = known_defect(ROOT)
    if tracer is not None:
        cli_import_s = statistics.median(import_time(ROOT) for _ in range(CLI_IMPORT_REPEATS))
        metrics = layer_metrics(tracer, traced, plain, cli_import_s, problems)
        meta["traced_passes"] = len(traced)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            **e2e_values(len(ops), [p.scaled for p in plain]),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "pass_latencies_raw_s": [p.raw for p in plain], **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "op"], "spans": tracer.spans,
             "ops": [op.label for op in ops]}) + "\n")

    for problem in problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio {meta['fail_ratio']:.6g} ratio ({failed} of {attempted} ops failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
