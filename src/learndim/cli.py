"""Batch command-line front end.

Commands: simulate, dim, teach, tree, game, pac, reduce, suite.  One command
per invocation; a master seed governs all randomness, and identical
configuration plus seed produces byte-identical JSON output.

Exit codes: 0 success, 1 input/parse errors, 2 still-running or no-answer
verdicts, 3 budget exhausted (partial results), 4 online-protocol violation.
The evaluation budget (materialization's evaluator calls, pac's total
sample draws) can be overridden with the LEARNDIM_EVAL_BUDGET environment
variable.  Usage errors print one line and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import classes, dimensions, games, reduction, turing
from .errors import (
    BudgetExceededError,
    ClassCodeError,
    MachineParseError,
    ProtocolViolationError,
    WitnessUnresolvedError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNRESOLVED = 2
EXIT_BUDGET = 3
EXIT_PROTOCOL = 4


def parse_class_arg(text: str) -> classes.IndexedClass:
    """Class spec strings: 'step', 'goedel:consistent', 'goedel:inconsistent',
    'goedel:inconsistent_at:K', 'goedel_prefix:...', 'halting:PATH', or a
    path to a JSON config file."""
    if text.endswith(".json"):
        return classes.load_class_spec(text)
    head, _, rest = text.partition(":")
    spec: dict = {"construction": head}
    if head == "halting":
        spec["machine"] = rest
    elif head in ("goedel", "goedel_prefix"):
        kind, _, onset = rest.partition(":")
        spec["system"] = {"kind": kind}
        if onset:
            spec["system"]["onset"] = onset
    return classes.class_from_spec(spec)


def _concept(fc: classes.FiniteClass, index: int, flag: str) -> tuple[int, ...]:
    """Concept row `index` of the window; the CLI takes no negative indexes."""
    if not 0 <= index < len(fc.concepts):
        raise ValueError(f"{flag} {index} is outside the window's {len(fc.concepts)} concepts")
    return fc.concepts[index]


def _emit(args, payload: dict, text_lines: list[str], csv_text: str | None = None) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        rendered = csv_text if csv_text is not None else json.dumps(payload, sort_keys=True) + "\n"
    else:
        rendered = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)


def _window(args, default: tuple[int, int] = (5, 64)) -> tuple[int, int]:
    if args.window is None:
        return default
    if len(args.window) > 2:
        raise ValueError(f"--window takes N [M], got {len(args.window)} integers")
    n = args.window[0]
    if len(args.window) > 1:
        return n, args.window[1]
    # 2**(n+1) > limit whenever n + 1 reaches limit's bit length: refuse
    # before building the index count (or printing it).
    limit = classes.eval_budget()
    if n + 1 >= limit.bit_length():
        raise BudgetExceededError(
            f"window ({n}, 2**{n + 1}) needs over {limit} evaluator calls, budget is {limit}"
        )
    return n, classes.saturating_index_count(n)


def cmd_simulate(args) -> int:
    result = turing.run_bounded(turing.load_tm(args.machine), args.budget)
    payload = {"result": str(result), "halted": result.halted, "steps": result.steps}
    _emit(args, payload, [str(result)])
    return EXIT_OK if result.halted else EXIT_UNRESOLVED


def cmd_dim(args) -> int:
    ic = parse_class_arg(args.class_spec)
    if args.window is not None and args.schedule:
        raise ValueError("--window and --schedule are mutually exclusive")
    if args.window is not None:
        n, m = _window(args)
        fc = classes.materialize(ic, n, m)
        report = dimensions.MEASURES[args.measure](fc)
        report = dimensions.DimensionReport(
            measure=report.measure, value=report.value,
            certificate=report.certificate, window=(n, m),
        )
        if args.export_class:
            path = Path(args.export_class)
            if path.suffix == ".csv":
                path.write_text(fc.to_csv_text(), encoding="utf-8")
            else:
                path.write_text(json.dumps(fc.to_json_dict(), sort_keys=True, indent=2), encoding="utf-8")
        _emit(
            args,
            report.to_json_dict(),
            [f"{args.measure} on window ({n}, {m}): {report.value}"],
            csv_text=f"measure,N,M,value\n{args.measure},{n},{m},{report.value}\n",
        )
        return EXIT_OK
    schedule = dimensions.default_schedule(ic)
    scan = dimensions.saturation_scan(ic, args.measure, schedule)
    lines = [
        f"{args.measure} over schedule {list(scan.windows)}: values {list(scan.values)}",
        f"stabilized: {scan.stabilized}"
        + (f" at {scan.final_value}" if scan.stabilized else " (window evidence only)"),
    ]
    csv_rows = ["measure,N,M,value"]
    csv_rows += [f"{args.measure},{w[0]},{w[1]},{v}" for w, v in zip(scan.windows, scan.values)]
    _emit(args, scan.to_json_dict(), lines, csv_text="\n".join(csv_rows) + "\n")
    return EXIT_BUDGET if scan.incomplete else EXIT_OK


def cmd_teach(args) -> int:
    if args.escape:
        points = [int(tok) for tok in args.escape.replace(",", " ").split()]
        concept = dimensions.escape_witness([(x, 0) for x in points])
        payload = {"threshold": concept.threshold, "kind": concept.kind}
        _emit(args, payload, [f"escape witness: threshold {concept.threshold}"])
        return EXIT_OK
    if not args.class_spec:
        raise ValueError("teach needs --class (or --escape)")
    ic = parse_class_arg(args.class_spec)
    n, m = _window(args, default=(8, 10) if ic.provenance == "step" else (5, 64))
    fc = classes.materialize(ic, n, m)
    if args.index is not None:
        ts = dimensions.teaching_set(fc, _concept(fc, args.index, "--index"))
        payload = ts.to_json_dict()
        _emit(args, payload, [f"teaching set for concept {args.index}: {list(ts.examples)}"])
        return EXIT_OK
    report = dimensions.teaching_dim(fc)
    _emit(
        args,
        report.to_json_dict(),
        [f"teaching dimension on window ({n}, {m}): {report.value}"],
    )
    return EXIT_OK


def cmd_tree(args) -> int:
    ic = parse_class_arg(args.class_spec)
    labeling = args.labeling
    if labeling is None:
        labeling = "active" if ic.provenance in ("goedel", "goedel_prefix") else "layer"
    tree = dimensions.tree_witness(ic, args.depth, labeling)
    payload = tree.to_json_dict()
    payload["verified_paths"] = 2**tree.depth
    _emit(
        args,
        payload,
        [f"depth-{tree.depth} witness verified on all {2 ** tree.depth} paths"],
    )
    return EXIT_OK


LEARNERS = {
    "soa": lambda fc, seed: games.SOALearner(fc),
    "const0": lambda fc, seed: games.ConstantLearner(0),
    "const1": lambda fc, seed: games.ConstantLearner(1),
    "random": lambda fc, seed: games.RandomLearner(seed),
}

ADVERSARIES = {
    "tree": lambda fc, seed, tree: games.tree_adversary(fc, tree),
    "random": lambda fc, seed, tree: games.RandomConsistentAdversary(fc, seed),
    "flip": lambda fc, seed, tree: games.MajorityFlipAdversary(fc),
}


def cmd_game(args) -> int:
    if args.max_rounds is not None and args.max_rounds < 0:
        raise ValueError(f"--max-rounds must be nonnegative, got {args.max_rounds}")
    ic = parse_class_arg(args.class_spec)
    n, m = _window(args)
    fc = classes.materialize(ic, n, m)
    report = dimensions.littlestone_dim(fc)
    ldim = report.value
    learner = LEARNERS[args.learner](fc, args.seed)
    adversary = ADVERSARIES[args.adversary](fc, args.seed, report.certificate)
    rounds = args.max_rounds if args.max_rounds is not None else max(ldim, 1) + len(fc.domain)
    transcript = games.play_online_game(fc, learner, adversary, rounds)
    payload = transcript.to_json_dict()
    payload["ldim"] = ldim
    _emit(args, payload, [f"mistakes: {transcript.mistakes}, Ldim: {ldim}"])
    return EXIT_OK


def cmd_pac(args) -> int:
    ic = parse_class_arg(args.class_spec)
    n, m = _window(args)
    fc = classes.materialize(ic, n, m)
    target = _concept(fc, args.target_index, "--target-index")
    dist = {x: 1 for x in fc.domain}
    report = games.pac_experiment(
        fc,
        target,
        dist,
        args.epsilon,
        args.delta,
        args.trials,
        sample_sizes=args.sizes,
        seed=args.seed,
    )
    lines = [
        f"m={size}: success frequency {freq:.4f}"
        for size, freq in zip(report.sample_sizes, report.success_frequencies)
    ]
    _emit(args, report.to_json_dict(), lines)
    return EXIT_OK


def cmd_reduce(args) -> int:
    tm = turing.load_tm(args.machine)
    verdict = reduction.budgeted_vc_decider(reduction.class_code(tm), args.budget)
    if verdict.finite:
        payload = {"verdict": reduction.HALTS, "vc_dim": verdict.value}
        _emit(args, payload, [f"Halts (VCdim = {verdict.value})"])
        return EXIT_OK
    payload = {"verdict": reduction.NO_ANSWER, "budget": verdict.value}
    _emit(args, payload, ["NoAnswer"])
    return EXIT_UNRESOLVED


def cmd_suite(args) -> int:
    suite = [(Path(p).stem, turing.load_tm(p)) for p in args.machines]
    report = reduction.agreement_check(suite, args.budget)
    lines = [
        f"{e.name}: {e.reduction_verdict}"
        + (f" (K = {e.reduction_steps})" if e.reduction_steps is not None else "")
        for e in report.entries
    ]
    lines.append(
        f"{report.halts_count} halts, {report.no_answer_count} no-answer, "
        f"{report.disagreements} disagreements"
    )
    csv_rows = ["name,verdict,steps"]
    csv_rows += [
        f"{e.name},{e.reduction_verdict},{'' if e.reduction_steps is None else e.reduction_steps}"
        for e in report.entries
    ]
    _emit(args, report.to_json_dict(), lines, csv_text="\n".join(csv_rows) + "\n")
    return EXIT_OK if report.disagreements == 0 else EXIT_INPUT


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error: ...` line and exit code 1."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="learndim",
        description="Exact learnability dimensions, machine simulation, games, and reductions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    common.add_argument("--budget", type=int, default=10_000, help="step budget for simulations")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("simulate", help="run a machine on the empty input")
    p.add_argument("machine")
    p.set_defaults(func=cmd_simulate)

    p = add_parser("dim", help="dimension of a class window or scan schedule")
    p.add_argument("--class", dest="class_spec", required=True)
    p.add_argument("--measure", choices=tuple(dimensions.MEASURES), default="vc")
    p.add_argument("--window", type=int, nargs="+", metavar="N [M]")
    p.add_argument("--schedule", choices=("default",), help="scan the default window schedule")
    p.add_argument("--export-class", help="also write the materialized window (.csv or .json)")
    p.set_defaults(func=cmd_dim)

    p = add_parser("teach", help="teaching sets, teaching dimension, escape witnesses")
    p.add_argument("--class", dest="class_spec")
    p.add_argument("--window", type=int, nargs="+", metavar="N [M]")
    p.add_argument("--index", type=int, help="concept row index for a single teaching set")
    p.add_argument("--escape", help="zero-labelled sample points, e.g. '2,7,4'")
    p.set_defaults(func=cmd_teach)

    p = add_parser("tree", help="verified uniform-layer mistake tree witness")
    p.add_argument("--class", dest="class_spec", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--labeling", choices=("layer", "active"))
    p.set_defaults(func=cmd_tree)

    p = add_parser("game", help="play the online learning game")
    p.add_argument("--class", dest="class_spec", required=True)
    p.add_argument("--window", type=int, nargs="+", metavar="N [M]")
    p.add_argument("--learner", choices=tuple(LEARNERS), default="soa")
    p.add_argument("--adversary", choices=tuple(ADVERSARIES), default="tree")
    p.add_argument("--max-rounds", type=int)
    p.set_defaults(func=cmd_game)

    p = add_parser("pac", help="seeded PAC/ERM experiment on a class window")
    p.add_argument("--class", dest="class_spec", required=True)
    p.add_argument("--window", type=int, nargs="+", metavar="N [M]")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument("--target-index", type=int, default=0)
    p.set_defaults(func=cmd_pac)

    p = add_parser("reduce", help="halting verdict through the class-code decider")
    p.add_argument("machine")
    p.set_defaults(func=cmd_reduce)

    p = add_parser("suite", help="agreement check of reduction vs direct simulation")
    p.add_argument("machines", nargs="+")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MachineParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WitnessUnresolvedError as exc:
        print(f"unresolved: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ProtocolViolationError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ClassCodeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
