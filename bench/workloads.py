"""The in-process workloads: gated-windows, random-games and machine-scan.

Each workload has two halves.  ``inputs(rng)`` draws everything seeded as
plain JSON data, so a seed fixes the inputs byte for byte.  ``build(env,
data)`` turns that data into learndim objects and a list of ``Op``s, each an
op of the closed-loop mix.  Ops reach the library only through the context
of ``spans.py``, and every op's output goes through ``check``, outside the
op's timed span, against the references of ``references.py``.

Seeded draws are chosen so that a seed changes the inputs but not the amount
of work: halter lengths, onsets and budgets vary inside ranges of equal
cost, and the dense classes are seeded relabellings of fixed base classes.
The op order is fixed, because an op's latency depends on what ran before it
(freed memory, collector state).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from references import (
    check_masked_window,
    check_pac,
    check_report,
    check_transcript,
    check_window,
    expect,
    oracle_evaluator,
    pac_bound,
)

MEASURE_FN = {"vc": "vc_dim", "littlestone": "littlestone_dim", "teaching": "teaching_dim"}


@dataclass
class Op:
    label: str
    run: Callable  # run(ctx) -> output
    check: Callable  # check(output) -> None, raises Mismatch


@dataclass
class Env:
    ld: object  # the learndim package
    fixtures: object  # tests/conftest.py: halter_text, LOOP_TEXTS
    root: object  # checkout root (pathlib.Path)


# --- shared pieces -----------------------------------------------------------


def resolve(env: Env, spec):
    """Machine or formal system behind a class spec (JSON list)."""
    ld = env.ld
    kind = spec[0]
    if kind == "halting":
        source, arg = spec[1], spec[2]
        if source == "halter":
            return ld.parse_tm(env.fixtures.halter_text(arg))
        if source == "looper":
            return ld.parse_tm(env.fixtures.LOOP_TEXTS[arg])
        return ld.load_tm(env.root / arg)
    if kind in ("goedel", "goedel_prefix"):
        return ld.system_from_spec(spec[1])
    return None


def class_factory(ld, spec, obj):
    kind = spec[0]
    if kind == "halting":
        return lambda: ld.halting_class(obj)
    if kind == "goedel":
        return lambda: ld.goedel_class(obj)
    if kind == "goedel_prefix":
        return lambda: ld.goedel_prefix_class(obj)
    return ld.step_class


def known_dimension(spec, domain_max: int, t: int) -> int | None:
    """Closed-form hypercube dimension of a masked window (N, 2**t), where one
    is documented: a halter stopping after K steps gives min(K, t, N+1), a
    machine that never halts min(t, N+1), a prefix-gated system with onset o
    min(o, t, N+1).  None where only the oracle count applies."""
    cap = min(t, domain_max + 1)
    if spec[0] == "halting":
        k = halting_step(spec)
        return cap if k is None else min(k, cap)
    if spec[0] == "goedel_prefix":
        onset = spec[2]
        return cap if onset is None else min(onset, cap)
    if spec[0] == "goedel" and spec[1]["kind"] == "consistent":
        return 0
    return None


def materialize(ctx, ld, ic, domain_max: int, index_count: int):
    masked = ic.active is not None and index_count & (index_count - 1) == 0
    name = "classes.materialize_masked" if masked else "classes.materialize_generic"
    fc = ctx.call(name, ld.materialize, ic, domain_max, index_count)
    ctx.count("classes.materialize.cells", (domain_max + 1) * index_count)
    ctx.count("classes.materialize.concepts", len(fc.concepts))
    ctx.count("classes.materialize.rows", len(fc.concepts) if masked else index_count)
    return fc


def check_any_window(spec, obj, fc, domain_max: int, index_count: int) -> int | None:
    """Check a window against the oracle; return its hypercube dimension when
    the window is a masked one."""
    evaluate = oracle_evaluator(spec, obj)
    if spec[0] != "step" and index_count & (index_count - 1) == 0:
        t = index_count.bit_length() - 1
        k = check_masked_window(fc, evaluate, domain_max, t)
        known = known_dimension(spec, domain_max, t)
        expect(known is None or known == k, f"hypercube dimension {k}, documented {known}")
        return k
    check_window(fc, evaluate, domain_max, index_count)
    return None


def scan(ctx, ld, ic, measure, schedule):
    report = ctx.call("dimensions.saturation_scan", ld.saturation_scan, ic, measure, schedule)
    ctx.count("dimensions.saturation_scan.windows_done", len(report.windows))
    ctx.count("dimensions.saturation_scan.windows_scheduled", len(schedule))
    return report


def check_scan(spec, obj, report, measure, schedule) -> None:
    expect(report.measure == measure, "scan measure")
    expect(report.windows == tuple(map(tuple, schedule)) and not report.incomplete,
           "scan did not finish its schedule")
    evaluate = oracle_evaluator(spec, obj)
    for (n, m), value in zip(report.windows, report.values):
        t = m.bit_length() - 1
        k = sum(evaluate(1 << x, x) for x in range(min(t, n + 1)))
        known = known_dimension(spec, n, t)
        expect(known is None or known == k, f"oracle dimension {k}, documented {known}")
        expect(value == k, f"scan value {value} on ({n}, {m}), reference {k}")
    tail = report.values[-3:]
    expect(report.stabilized == (len(tail) == 3 and len(set(tail)) == 1), "stabilized flag")


def window_op(env, spec, obj, windows, measure) -> Op:
    """Materialize each window and run one measure on it.  One op covers all
    of a class's windows, which lifts the small classes' ops well above
    timer and collector noise."""
    ld = env.ld
    make = class_factory(ld, spec, obj)
    fn_name = MEASURE_FN[measure]
    fn = getattr(ld, fn_name)

    def run(ctx):
        ic = ctx.call("classes.build", make)
        out = []
        for n, m in windows:
            fc = materialize(ctx, ld, ic, n, m)
            out.append((fc, ctx.call("dimensions." + fn_name, fn, fc)))
        return out

    def check(out):
        expect(len(out) == len(windows), "one result per window")
        for (n, m), (fc, report) in zip(windows, out):
            k = check_any_window(spec, obj, fc, n, m)
            check_report(fc, report, measure, expected=k)

    return Op(f"{measure} {spec_label(spec)} {windows}", run, check)


def scan_op(env, spec, obj, measure, schedule) -> Op:
    ld = env.ld
    make = class_factory(ld, spec, obj)

    def run(ctx):
        return scan(ctx, ld, ctx.call("classes.build", make), measure, schedule)

    return Op(
        f"scan {measure} {spec_label(spec)}",
        run,
        lambda report: check_scan(spec, obj, report, measure, schedule),
    )


def spec_label(spec) -> str:
    if spec[0] == "halting":
        return f"halting:{spec[1]}:{spec[2]}"
    if spec[0] in ("goedel", "goedel_prefix"):
        system = spec[1]
        return f"{spec[0]}:{system['kind']}" + (f":{system['onset']}" if "onset" in system else "")
    return spec[0]


def halter(k: int):
    return ["halting", "halter", k, k]


def halting_step(spec) -> int | None:
    """Documented halting step of a halting-class spec; None if it never halts."""
    return spec[3]


def system_onset(system: dict) -> int | None:
    """Documented first inconsistent prefix of a toy system: none for
    consistent; inconsistent_at:k enumerates 0, 2, ..., 2k-2 and then every
    code, so theorem k + 1 (code 1) is the first to negate an earlier one;
    inconsistent is inconsistent_at:0."""
    kind = system["kind"]
    if kind == "consistent":
        return None
    return system.get("onset", 0) + 1


def prefix_at(k: int):
    """goedel_prefix class over inconsistent_at:k."""
    system = {"kind": "inconsistent_at", "onset": k}
    return ["goedel_prefix", system, system_onset(system)]


FILES = (
    ["halting", "file", "machines/halt1.tm", 1],
    ["halting", "file", "machines/halt2.tm", 2],
    ["halting", "file", "machines/halt3.tm", 3],
    ["halting", "file", "machines/halt4.tm", 4],
    ["halting", "file", "machines/beaver2.tm", 6],
    ["halting", "file", "machines/loop.tm", None],
)
LOOP_FILE = FILES[-1]


# --- gated-windows -----------------------------------------------------------

WINDOWS = ((5, 64), (7, 256), (9, 1024))


def gated_windows_inputs(rng) -> dict:
    """The seed draws halter lengths and onsets that leave the cost alone:
    saturating ones (K >= 10 fills every window), onsets past the windows, and
    for each d-cube whether a halter or a prefix-gated system makes it (both
    give the same window)."""
    cubes = [halter(d) if rng.random() < 0.5 else prefix_at(d - 1) for d in (3, 5, 7, 8)]
    saturating = [halter(rng.randint(10, 40)), prefix_at(rng.randint(10, 40)), LOOP_FILE]
    small = [
        *FILES[:-1],
        *cubes[:3],
        ["goedel", {"kind": "consistent"}],
        ["goedel", {"kind": "inconsistent"}],
        # onsets >= 4 put the first contradictory pair past point 9
        ["goedel", {"kind": "inconsistent_at", "onset": rng.randint(4, 40)}],
        ["step"],
    ]
    every = [list(w) for w in WINDOWS]
    ops = []
    for spec in small:
        ops.append(["windows", spec, every, "vc"])
        ops.append(["windows", spec, every, "littlestone"])
        ops.append(["windows", spec, every[:2], "teaching"])
    # Hypercubes of dimension 8 to 10 cost 0.1-2 s per recursion on the
    # larger windows; only the ones below 0.2 s run, to keep a pass short
    # enough that a run holds a dozen passes.
    ops.append(["windows", cubes[3], every, "vc"])
    ops.append(["windows", cubes[3], every, "littlestone"])
    ops.append(["windows", cubes[3], every[:1], "teaching"])
    for spec in saturating:
        ops.append(["windows", spec, every, "vc"])
        ops.append(["windows", spec, every[:2], "littlestone"])
        ops.append(["windows", spec, every[:1], "teaching"])
    schedule = [[3, 16], [4, 32], [5, 64], [6, 128], [7, 256]]
    ops.append(["scan", cubes[1], "teaching", schedule])
    ops.append(["scan", FILES[4], "littlestone", schedule])
    ops.append(["scan", saturating[0], "vc", schedule + [[8, 512], [9, 1024]]])
    ops.append(["scan", LOOP_FILE, "littlestone", schedule[:3]])
    return {"ops": ops}


def build_gated_windows(env: Env, data: dict) -> list[Op]:
    objects: dict[str, object] = {}
    ops = []
    for kind, spec, *rest in data["ops"]:
        key = spec_label(spec)
        if key not in objects:
            objects[key] = resolve(env, spec)
        make = window_op if kind == "windows" else scan_op
        ops.append(make(env, spec, objects[key], *rest))
    return ops


# --- random-games ------------------------------------------------------------

LEARNERS = ("soa", "random", "const")
ADVERSARIES = ("tree", "random", "flip")
EPSILON, DELTA = 0.25, 0.1


DENSE_SHAPES = {  # name: (points, concepts)
    "dense12": (12, 120),
    "dense11": (11, 90),
    "dense10a": (10, 60),
    "dense10b": (10, 60),
    "dense8a": (8, 40),
    "dense8b": (8, 40),
}


def dense_rows(name: str, rng) -> list[list[int]]:
    """Rows of a dense, irregular class: a fixed random base class with its
    rows shuffled and a seeded set of columns flipped.  The rows change with
    the seed, but flipping columns and reordering concepts map shattered
    sets, mistake trees and teaching sets one to one, so the three measures
    cost the same for every seed; games and ERM differ only in tie-breaks."""
    points, concepts = DENSE_SHAPES[name]
    base = random.Random(f"dense-base/{name}").sample(range(2**points), concepts)
    flip = rng.getrandbits(points)
    rng.shuffle(base)
    return [[((code ^ flip) >> i) & 1 for i in range(points)] for code in base]


def random_games_inputs(rng) -> dict:
    classes = {name: dense_rows(name, rng) for name in DENSE_SHAPES}
    # K >= 6 fills every point of the (5, 64) window, so K leaves the cost alone.
    gated = {"halter": [halter(rng.randint(6, 40)), 5, 64], "loop": [LOOP_FILE, 4, 32]}
    ops = [["measure", "dense12", "vc"]]
    for name in ("dense10a", "dense8a"):
        for measure in ("vc", "littlestone", "teaching"):
            ops.append(["measure", name, measure])
    for name in ("dense11", "dense10b", "dense8a", "dense8b", "halter", "loop"):
        # The tree adversary needs the class's optimal mistake tree, which
        # costs more than the game itself on the larger dense classes.
        cheap_tree = name not in ("dense11", "dense10b")
        for learner in LEARNERS:
            for adversary in ADVERSARIES:
                if learner == "soa" or adversary != "tree" or cheap_tree:
                    ops.append(["game", name, learner, adversary, rng.randrange(2**31)])
    for name in ("dense11", "dense10a", "dense8a", "halter"):
        points = len(classes[name][0]) if name in classes else gated[name][1] + 1
        dist = {str(x): rng.randint(1, 4) for x in range(points)}
        target = rng.randrange(2**16)  # taken modulo the class size
        ops.append(["pac", name, target, dist, [4, 16, 64], 200, rng.randrange(2**31)])
        ops.append(["pac", name, target, dist, None, 8, rng.randrange(2**31)])
    return {"classes": classes, "gated": gated, "ops": ops}


def build_random_games(env: Env, data: dict) -> list[Op]:
    ld = env.ld
    classes = {name: ld.FiniteClass.from_rows(range(len(rows[0])), rows)
               for name, rows in data["classes"].items()}
    for name, (spec, n, m) in data["gated"].items():
        classes[name] = ld.materialize(class_factory(ld, spec, resolve(env, spec))(), n, m)
    ldims: dict[str, int] = {}

    def reference_ldim(name):
        """Littlestone dimension of a class, certificate-checked once."""
        if name not in ldims:
            report = ld.littlestone_dim(classes[name])
            check_report(classes[name], report, "littlestone")
            ldims[name] = report.value
        return ldims[name]

    ops = []
    for d in data["ops"]:
        if d[0] == "game":
            ops.append(game_op(ld, classes[d[1]], d, reference_ldim))
        else:
            ops.append({"measure": measure_op, "pac": pac_op}[d[0]](ld, classes[d[1]], d))
    return ops


def measure_op(ld, fc, d) -> Op:
    name, measure = d[1], d[2]
    span = "dimensions." + MEASURE_FN[measure]
    fn = getattr(ld, MEASURE_FN[measure])
    return Op(
        f"{measure} {name}",
        lambda ctx: ctx.call(span, fn, fc),
        lambda report: check_report(fc, report, measure),
    )


def game_op(ld, fc, d, reference_ldim) -> Op:
    name, learner_kind, adversary_kind, seed = d[1:]
    rounds = 2 * len(fc.domain)  # at least Ldim + |domain|, the CLI's default

    def make_adversary(ctx):
        if adversary_kind == "tree":
            tree = ctx.call("dimensions.littlestone_dim", ld.littlestone_dim, fc).certificate
            return ld.tree_adversary(fc, tree)
        if adversary_kind == "random":
            return ld.RandomConsistentAdversary(fc, seed)
        return ld.MajorityFlipAdversary(fc)

    def run(ctx):
        learner = {
            "soa": lambda: ld.SOALearner(fc),
            "random": lambda: ld.RandomLearner(seed),
            "const": lambda: ld.ConstantLearner(seed & 1),
        }[learner_kind]()
        adversary = ctx.call("games.adversary_setup", make_adversary, ctx)
        transcript = ctx.call("games.play_online_game", ld.play_online_game,
                              fc, learner, adversary, rounds)
        ctx.count("games.rounds", len(transcript.rounds))
        ctx.count("games.mistakes", transcript.mistakes)
        return transcript

    def check(transcript):
        ldim = reference_ldim(name)
        check_transcript(fc, transcript, rounds)
        if learner_kind == "soa":
            expect(transcript.mistakes <= ldim, f"SOA made {transcript.mistakes} > Ldim {ldim}")
        if adversary_kind == "tree":
            forced = transcript.rounds[:ldim]
            expect(all(g != y for _, g, y in forced), "tree adversary failed to force a mistake")

    return Op(f"game {name} {learner_kind}/{adversary_kind}", run, check)


def pac_op(ld, fc, d) -> Op:
    name, target_index, dist, sizes, trials, seed = d[1:]
    target = fc.concepts[target_index % len(fc.concepts)]
    weights = {int(x): w for x, w in dist.items()}

    def run(ctx):
        report = ctx.call("games.pac_experiment", ld.pac_experiment, fc, target, weights,
                          EPSILON, DELTA, trials, sample_sizes=sizes, seed=seed)
        ctx.count("games.erm_fits", trials * len(report.sample_sizes))
        return report

    def check(report):
        if sizes is None:
            vcdim = ld.vc_dim(fc)
            check_report(fc, vcdim, "vc")
            check_pac(report, [pac_bound(vcdim.value, EPSILON, DELTA)], trials)
            expect(report.success_frequencies[0] >= 1 - DELTA,
                   "ERM at the PAC sample size succeeded in fewer than 1 - delta of trials")
        else:
            check_pac(report, sizes, trials)

    return Op(f"pac {name} {'bound' if sizes is None else 'fixed'}", run, check)


# --- machine-scan ------------------------------------------------------------


def stratified_rising(rng, count: int, limit: int) -> list[int]:
    """Rising queries, one drawn from each of `count` equal strata of
    [0, limit), so the total simulated length hardly depends on the seed."""
    step = limit // count
    return [i * step + rng.randrange(step) for i in range(count)]


def machine_scan_inputs(rng) -> dict:
    loopers = [["halting", "looper", i, None] for i in range(5)]
    halters = sorted(rng.sample(range(3, 40), 4))
    ops = []
    for spec in loopers + [LOOP_FILE]:
        ops.append(["run", spec, 40_000 + rng.randrange(500)])
    for k in halters:
        ops.append(["run", halter(k), 100_000])
    ops.append(["run", FILES[4], 100_000])
    for spec in rng.sample(loopers, 2):
        ops.append(["f_machine", spec, stratified_rising(rng, 120, 2400)])
    ops.append(["f_machine", halter(rng.randint(590, 610)), stratified_rising(rng, 120, 2400)])
    onset = rng.randint(2000, 2040)
    for system in ({"kind": "consistent"}, {"kind": "inconsistent_at", "onset": onset},
                   {"kind": "inconsistent"}):
        ops.append(["f_system", system, stratified_rising(rng, 400, 8000)])
    small = rng.randint(3, 6)
    # Index counts that are not powers of two take the generic path.
    for spec, n, m in ((LOOP_FILE, 7, 200 + rng.randrange(8)),
                       (halter(small), 9, 600 + rng.randrange(8)),
                       (prefix_at(small), 9, 700 + rng.randrange(8)),
                       (["goedel", {"kind": "inconsistent"}], 8, 300 + rng.randrange(8))):
        ops.append(["generic", spec, n, m])
    goedels = [["goedel", {"kind": "inconsistent"}],
               ["goedel", {"kind": "inconsistent_at", "onset": 2}],
               ["goedel_prefix", {"kind": "consistent"}, None]]
    for spec, measure in zip(goedels, ("vc", "littlestone", "teaching")):
        ops.append(["growth", spec, measure])
    # Machines that run past the tree's depth all cost the same.
    ops.append(["tree", rng.choice(loopers), 9, "layer"])
    ops.append(["tree", halter(rng.randint(10, 40)), 8, "layer"])
    ops.append(["tree", goedels[0], 6, "active"])
    ops.append(["tree", prefix_at(rng.randint(8, 40)), 8, "active"])
    for system, limit in (({"kind": "consistent"}, 30_000),
                          ({"kind": "inconsistent_at", "onset": onset}, 30_000)):
        ops.append(["onset", system, limit, stratified_rising(rng, 40, limit)])
    suite_halters = sorted(rng.sample(range(1, 60), 5))
    ops.append(["suite", suite_halters, 20_000])
    ops.append(["decide", suite_halters, 20_000])
    return {"ops": ops}


def build_machine_scan(env: Env, data: dict) -> list[Op]:
    builders = {
        "run": run_op, "f_machine": f_machine_op, "f_system": f_system_op,
        "generic": generic_op, "growth": growth_op, "tree": tree_op,
        "onset": onset_op, "suite": suite_op, "decide": decide_op,
    }
    return [builders[d[0]](env, d) for d in data["ops"]]


def run_op(env, d) -> Op:
    ld, spec, budget = env.ld, d[1], d[2]
    tm = resolve(env, spec)
    k = halting_step(spec)

    def run(ctx):
        result = ctx.call("turing.run_bounded", ld.run_bounded, tm, budget)
        ctx.count("turing.run_bounded.steps", result.steps)
        return result

    def check(result):
        want = (True, k) if k is not None else (False, budget)
        expect((result.halted, result.steps) == want, f"{result}, reference {want}")

    return Op(f"run {spec_label(spec)} {budget}", run, check)


def f_machine_op(env, d) -> Op:
    ld, spec, queries = env.ld, d[1], d[2]
    tm = resolve(env, spec)
    k = halting_step(spec)

    def run(ctx):
        f = ctx.call("classes.f_of_machine", ld.f_of_machine, tm)
        return [ctx.call("classes.gate_query", f, n) for n in queries]

    def check(answers):
        want = [int(k is not None and n >= k) for n in queries]
        expect(answers == want, "f_of_machine differs from the halting step")

    return Op(f"f_of_machine {spec_label(spec)}", run, check)


def f_system_op(env, d) -> Op:
    ld, system, queries = env.ld, d[1], d[2]
    fs = ld.system_from_spec(system)
    onset = system_onset(system)

    def run(ctx):
        f = ctx.call("classes.f_of_system", ld.f_of_system, fs)
        return [ctx.call("classes.gate_query", f, n) for n in queries]

    def check(answers):
        want = [int(onset is not None and n >= onset) for n in queries]
        expect(answers == want, "f_of_system differs from the onset")

    return Op(f"f_of_system {system['kind']}", run, check)


def generic_op(env, d) -> Op:
    ld, spec, n, m = env.ld, d[1], d[2], d[3]
    obj = resolve(env, spec)
    make = class_factory(ld, spec, obj)

    def run(ctx):
        return materialize(ctx, ld, ctx.call("classes.build", make), n, m)

    return Op(f"materialize {spec_label(spec)} ({n},{m})", run,
              lambda fc: check_any_window(spec, obj, fc, n, m))


def growth_op(env, d) -> Op:
    ld, spec, measure = env.ld, d[1], d[2]
    obj = resolve(env, spec)
    make = class_factory(ld, spec, obj)
    evaluate = oracle_evaluator(spec, obj)

    def run(ctx):
        ic = ctx.call("classes.build", make)
        schedule = ctx.call("dimensions.growth_schedule", ld.growth_schedule, ic)
        return schedule, scan(ctx, ld, ic, measure, schedule)

    def check(out):
        schedule, report = out
        # Documented rule: windows (n, 2**(n+1)) at the first five active
        # points whose window fits the default evaluation budget.
        actives = []
        for x in range(64):
            if (x + 1) * 2 ** (x + 1) > 2**24:
                break
            if evaluate(1 << x, x):
                actives.append(x)
        want = [(x, 2 ** (x + 1)) for x in actives[:5]]
        if len(want) < 5 and actives and actives[0] > 0:
            want.insert(0, (actives[0] - 1, 2 ** actives[0]))
        expect(list(schedule) == want, f"growth schedule {schedule}, reference {want}")
        check_scan(spec, obj, report, measure, schedule)

    return Op(f"growth {measure} {spec_label(spec)}", run, check)


def tree_op(env, d) -> Op:
    ld, spec, depth, labeling = env.ld, d[1], d[2], d[3]
    obj = resolve(env, spec)
    make = class_factory(ld, spec, obj)
    evaluate = oracle_evaluator(spec, obj)

    def run(ctx):
        ic = ctx.call("classes.build", make)
        tree = ctx.call("dimensions.tree_witness", ld.tree_witness, ic, depth, labeling)
        ctx.count("dimensions.tree_witness.paths", 2**depth)
        return tree

    def check(tree):
        if labeling == "layer":
            points = list(range(depth))
        else:
            points = [x for x in range(64) if evaluate(1 << x, x)][:depth]
        expect(tree.depth == depth, "tree depth")
        for prefix, x in tree.labels.items():
            want = points[len(prefix)]
            expect(x == want, f"node {prefix} labelled {x}, layer point {want}")
        expect(len(tree.labels) == 2**depth - 1, "tree is not complete")
        for path in tree.paths():
            m = sum(y << x for x, y in zip(points, path))
            expect(all(evaluate(m, x) == y for x, y in zip(points, path)),
                   f"path {path} not realized by index {m}")

    return Op(f"tree {labeling} {spec_label(spec)} depth {depth}", run, check)


def onset_op(env, d) -> Op:
    ld, system, limit, probes = env.ld, d[1], d[2], d[3]
    fs = ld.system_from_spec(system)
    onset = system_onset(system)

    def run(ctx):
        found = ctx.call("formal.scan", ld.inconsistency_onset, fs, limit)
        ctx.count("formal.scan.theorems", limit + 1 if found is None else found + 1)
        answers = []
        for n in probes:
            ok = ctx.call("formal.scan", ld.prefix_consistent, fs, n)
            ctx.count("formal.scan.theorems", n + 1 if ok else found + 1)
            answers.append(ok)
        return found, answers

    def check(out):
        expect(out == (onset, [onset is None or n < onset for n in probes]),
               f"onset {out[0]}, reference {onset}")

    return Op(f"onset {system['kind']}", run, check)


def suite_machines(env, halter_steps):
    specs = [*FILES, *(["halting", "looper", i, None] for i in range(5)),
             *(halter(k) for k in halter_steps)]
    return [(spec_label(spec), resolve(env, spec), halting_step(spec)) for spec in specs]


def suite_op(env, d) -> Op:
    ld, budget = env.ld, d[2]
    machines = suite_machines(env, d[1])
    suite = [(name, tm) for name, tm, _ in machines]

    def run(ctx):
        report = ctx.call("reduction.agreement_check", ld.agreement_check, suite, budget)
        ctx.count("reduction.agreement_check.machines", len(suite))
        return report

    def check(report):
        expect(report.disagreements == 0, "reduction disagrees with simulation")
        for entry, (name, tm, k) in zip(report.entries, machines):
            direct = ld.run_bounded(tm, budget)
            expect(entry.name == name and entry.direct_halted == direct.halted, f"{name}: direct run")
            expect(entry.reduction_steps == k and direct.halted == (k is not None),
                   f"{name}: verdict {entry.reduction_verdict}")

    return Op("agreement_check", run, check)


def decide_op(env, d) -> Op:
    ld, budget = env.ld, d[2]
    machines = suite_machines(env, d[1])

    def run(ctx):
        out = []
        for _, tm, _ in machines:
            code = ctx.call("reduction.class_code", ld.class_code, tm)
            out.append(ctx.call("reduction.budgeted_vc_decider", ld.budgeted_vc_decider,
                                code, budget))
        return out

    def check(verdicts):
        for verdict, (name, tm, k) in zip(verdicts, machines):
            direct = ld.run_bounded(tm, budget)
            want = (direct.halted, direct.steps)
            expect((verdict.finite, verdict.value) == want, f"{name}: {verdict}, direct {direct}")
            expect(direct.halted == (k is not None) and (k is None or direct.steps == k),
                   f"{name}: direct run {direct}")

    return Op("budgeted_vc_decider", run, check)


WORKLOADS = {
    "gated-windows": (gated_windows_inputs, build_gated_windows),
    "random-games": (random_games_inputs, build_random_games),
    "machine-scan": (machine_scan_inputs, build_machine_scan),
}
