"""Command-line interface: commands, exit codes, reproducible output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from learndim import dimensions, turing
from learndim.cli import MEASURES, main

from conftest import MACHINES_DIR

HALT3 = str(MACHINES_DIR / "halt3.tm")
LOOP = str(MACHINES_DIR / "loop.tm")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_halts(capsys):
    code, out, _ = run_cli(capsys, "simulate", HALT3, "--budget", "100")
    assert code == 0
    assert "Halted(3)" in out


def test_simulate_still_running_exit_2(capsys):
    code, out, _ = run_cli(capsys, "simulate", LOOP, "--budget", "100")
    assert code == 2
    assert "StillRunning(100)" in out


def test_simulate_tape_past_the_byte_limit_exit_3(capsys, monkeypatch):
    # loop.tm walks right: under a 4096-byte limit its tape cannot double
    # past 4096 cells, so the run is refused before it allocates more.
    monkeypatch.setattr(turing, "TAPE_LIMIT", 4096)
    code, out, err = run_cli(capsys, "simulate", LOOP, "--budget", "1000000")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: tape of 4096 cells would grow past 4096 bytes at step 3952\n"


def test_simulate_malformed_file_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text(
        "states: a halt\nalphabet: _\nblank: _\ninitial: a\nhalting: halt\na ? -> _ R halt\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "simulate", str(bad))
    assert code == 1
    assert "line 6" in err


def test_dim_halting_schedule_stabilizes(capsys):
    code, out, _ = run_cli(capsys, "dim", "--class", f"halting:{HALT3}", "--measure", "vc")
    assert code == 0
    assert "stabilized: True at 3" in out


def test_dim_goedel_consistent_teaching_zero(capsys):
    code, out, _ = run_cli(capsys, "dim", "--class", "goedel:consistent", "--measure", "teaching")
    assert code == 0
    assert "stabilized: True at 0" in out


def test_dim_step_window(capsys):
    code, out, _ = run_cli(capsys, "dim", "--class", "step", "--measure", "vc", "--window", "8")
    assert code == 0
    assert "vc on window (8, 512): 1" in out


def test_dim_vc_certificate_checked_before_output(capsys, monkeypatch):
    # Thresholds shatter no two points: a report claiming so exits 3 unprinted.
    def unshattered(fc):
        return dimensions.DimensionReport(measure="vc", value=2, certificate=(1, 2))

    monkeypatch.setitem(dimensions.MEASURES, "vc", unshattered)
    code, out, err = run_cli(capsys, "dim", "--class", "step", "--measure", "vc", "--window", "8")
    assert code == 3
    assert out == ""
    assert err == "unresolved: vc certificate [1, 2] is not shattered on window (8, 512)\n"


def test_dim_littlestone_certificate_checked_before_output(capsys, monkeypatch):
    # Thresholds realize no depth-2 tree on points 2 then 1: a report
    # claiming one exits 3 unprinted.
    def unrealizable(fc):
        tree = dimensions.LittlestoneTree.uniform((2, 1))
        return dimensions.DimensionReport(measure="littlestone", value=2, certificate=tree)

    monkeypatch.setitem(dimensions.MEASURES, "littlestone", unrealizable)
    argv = ("dim", "--class", "step", "--measure", "littlestone", "--window", "8")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "unresolved: littlestone certificate of depth 2 is not realizable on window (8, 512)\n"


def test_dim_budget_exceeded_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("LEARNDIM_EVAL_BUDGET", "64")
    code, out, _ = run_cli(capsys, "dim", "--class", f"halting:{HALT3}", "--measure", "vc")
    assert code == 3


def test_dim_json_and_export(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    export = tmp_path / "window.csv"
    code, _, _ = run_cli(
        capsys,
        "dim", "--class", f"halting:{HALT3}", "--measure", "littlestone",
        "--window", "5", "64", "--format", "json",
        "--out", str(out_path), "--export-class", str(export),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["value"] == 3 and payload["window"] == [5, 64]
    assert export.read_text().startswith("witness,0,1,2,3,4,5")


def test_teach_threshold_pair(capsys):
    code, out, _ = run_cli(capsys, "teach", "--class", "step", "--index", "3")
    assert code == 0
    assert "[(1, 0), (2, 1)]" in out


def test_teach_escape(capsys):
    code, out, _ = run_cli(capsys, "teach", "--escape", "2,7,4")
    assert code == 0
    assert "threshold 8" in out


def test_tree_witness_loop(capsys):
    code, out, _ = run_cli(capsys, "tree", "--class", f"halting:{LOOP}", "--depth", "5")
    assert code == 0
    assert "all 32 paths" in out


def test_tree_witness_unresolvable_exit_3(capsys):
    code, _, err = run_cli(capsys, "tree", "--class", f"halting:{HALT3}", "--depth", "4")
    assert code == 3
    assert "unresolved" in err


def test_game_soa_vs_tree(capsys):
    code, out, _ = run_cli(
        capsys, "game", "--class", f"halting:{HALT3}", "--learner", "soa", "--adversary", "tree"
    )
    assert code == 0
    assert "mistakes: 3, Ldim: 3" in out


def test_game_soa_vs_random_bounded(capsys):
    code, out, _ = run_cli(
        capsys,
        "game", "--class", f"halting:{HALT3}", "--learner", "soa",
        "--adversary", "random", "--seed", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mistakes"] <= payload["ldim"] == 3


def test_game_unknown_learner_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["game", "--class", "step", "--learner", "psychic"])


def test_pac_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "pac", "--class", f"halting:{HALT3}", "--trials", "40",
        "--sizes", "20", "--seed", "1",
    )
    assert code == 0
    assert "m=20" in out


def test_reduce_halts(capsys):
    code, out, _ = run_cli(capsys, "reduce", HALT3, "--budget", "10")
    assert code == 0
    assert "Halts (VCdim = 3)" in out


def test_reduce_no_answer(capsys):
    code, out, _ = run_cli(capsys, "reduce", LOOP, "--budget", "10000")
    assert code == 2
    assert "NoAnswer" in out


def test_suite_summary(capsys):
    machines = [str(MACHINES_DIR / f"halt{k}.tm") for k in (1, 2, 3, 4)]
    machines.append(LOOP)
    code, out, _ = run_cli(capsys, "suite", *machines, "--budget", "100")
    assert code == 0
    assert "4 halts, 1 no-answer, 0 disagreements" in out


def test_json_output_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "pac", "--class", f"halting:{HALT3}", "--trials", "50",
        "--sizes", "10", "30", "--seed", "7", "--format", "json",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_json_output_is_streamed(capsys, tmp_path):
    # A 5000-round transcript: building the JSON document whole peaked at
    # about 7x the text run; written in chunks it peaks below the text run.
    argv = [
        "game", "--class", "step", "--window", "5", "--max-rounds", "5000",
        "--learner", "const0", "--adversary", "random",
    ]
    peaks = {}
    for fmt in ("text", "json"):
        tracemalloc.start()
        try:
            assert main(argv + ["--format", fmt, "--out", str(tmp_path / fmt)]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert json.loads((tmp_path / "json").read_text())["rounds"]
    assert peaks["json"] <= 2 * peaks["text"], peaks


def test_class_spec_json_file(capsys, tmp_path):
    spec = tmp_path / "class.json"
    spec.write_text(
        json.dumps({"construction": "goedel", "system": {"kind": "consistent"}}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "dim", "--class", str(spec), "--measure", "vc", "--window", "4"
    )
    assert code == 0
    assert "vc on window (4, 32): 0" in out


def test_class_spec_string_naming_a_json_machine_file(capsys, tmp_path):
    # A text whose part before its first ':' names a construction is a spec
    # string, whatever its suffix: only other '.json' texts are config files.
    machine = tmp_path / "halt3.json"
    machine.write_text(Path(HALT3).read_text(encoding="utf-8"), encoding="utf-8")
    code, out, err = run_cli(capsys, "dim", "--class", f"halting:{machine}", "--window", "3")
    assert (code, out, err) == (0, "vc on window (3, 16): 3\n", "")


# The defaults go by the construction a spec names, spelled as a string or
# as a JSON file: the contradiction-gated constructions (goedel,
# goedel_prefix) are scanned by growth_schedule and labelled by their
# active points, every other class scanned by DEFAULT_SCHEDULE and
# labelled by layer; teach defaults to the window (8, 10) on step alone.
GOEDEL_PREFIX_3 = {
    "construction": "goedel_prefix",
    "system": {"kind": "inconsistent_at", "onset": 3},
}
STEP = {"construction": "step"}
GROWTH_3 = (
    "vc over schedule [(0, 2), (1, 4), (2, 8), (3, 16)]: values [1, 2, 3, 4]\n"
    "stabilized: False (window evidence only)\n"
)
GENERIC = (
    "vc over schedule [(3, 16), (4, 32), (5, 64), (6, 128), (7, 256)]: "
    "values [{0}, {0}, {0}, {0}, {0}]\nstabilized: True at {0}\n"
)
DEFAULT_SCANS = [
    (
        "goedel:inconsistent",
        "vc over schedule [(0, 2), (1, 4), (2, 8), (17, 262144), (18, 524288)]: "
        "values [0, 1, 2, 3, 4]\nstabilized: False (window evidence only)\n",
    ),
    ("goedel_prefix:inconsistent_at:3", GROWTH_3),
    (GOEDEL_PREFIX_3, GROWTH_3),
    (f"halting:{HALT3}", GENERIC.format(3)),
    ("step", GENERIC.format(1)),
    (STEP, GENERIC.format(1)),
]
ACTIVE_MESSAGE = "unresolved: found only 4 active points below 100000, need 5; witness unresolved\n"
DEFAULT_LABELINGS = [
    ("goedel_prefix:inconsistent_at:3", ACTIVE_MESSAGE),
    (GOEDEL_PREFIX_3, ACTIVE_MESSAGE),
    (
        f"halting:{HALT3}",
        "unresolved: depth-5 tree with layer points [0, 1, 2, 3, 4] is not realizable\n",
    ),
]


def class_arg(spec, tmp_path) -> str:
    """A spec string as it is, a spec mapping as a JSON file."""
    if isinstance(spec, str):
        return spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("spec, out", DEFAULT_SCANS, ids=[str(s) for s, _ in DEFAULT_SCANS])
def test_dim_default_schedule_per_construction(capsys, tmp_path, spec, out):
    argv = ("dim", "--class", class_arg(spec, tmp_path), "--schedule", "default")
    assert run_cli(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("spec, err", DEFAULT_LABELINGS, ids=[str(s) for s, _ in DEFAULT_LABELINGS])
def test_tree_default_labeling_per_construction(capsys, tmp_path, spec, err):
    argv = ("tree", "--class", class_arg(spec, tmp_path), "--depth", "5")
    assert run_cli(capsys, *argv) == (3, "", err)


def test_teach_json_step_spec_default_window(capsys, tmp_path):
    argv = ("teach", "--class", class_arg(STEP, tmp_path))
    assert run_cli(capsys, *argv) == (0, "teaching dimension on window (8, 10): 2\n", "")


def test_unknown_class_spec_exit_1(capsys):
    code, _, err = run_cli(capsys, "dim", "--class", "mystery:thing")
    assert code == 1
    assert "unknown class spec" in err


def assert_one_line_error(code, err, want_code=1):
    assert code == want_code
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("teach", "--class", "step", "--index", "99"),
        ("teach", "--class", "step", "--index", "-1"),
        ("pac", "--class", f"halting:{HALT3}", "--target-index", "99"),
        ("pac", "--class", f"halting:{HALT3}", "--target-index", "-1"),
    ],
)
def test_concept_index_out_of_range_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, err)
    assert "outside the window" in err and out == ""


def test_game_negative_max_rounds_exit_1(capsys):
    code, _, err = run_cli(capsys, "game", "--class", "step", "--max-rounds", "-1")
    assert_one_line_error(code, err)
    assert "--max-rounds" in err


@pytest.mark.parametrize("value", ["-5", "0", "lots"])
def test_bad_eval_budget_env_exit_1(capsys, monkeypatch, value):
    monkeypatch.setenv("LEARNDIM_EVAL_BUDGET", value)
    code, _, err = run_cli(capsys, "dim", "--class", "step", "--window", "3")
    assert_one_line_error(code, err)
    assert "LEARNDIM_EVAL_BUDGET" in err


def test_tree_past_index_ceiling_exit_3(capsys):
    # The 7th active point of goedel:inconsistent is 97: its witness index
    # would be past 2**64.
    code, _, err = run_cli(capsys, "tree", "--class", "goedel:inconsistent", "--depth", "7")
    assert_one_line_error(code, err, want_code=3)
    assert "unresolved" in err


def test_tree_below_index_ceiling_unchanged(capsys):
    code, out, _ = run_cli(capsys, "tree", "--class", "goedel:inconsistent", "--depth", "6")
    assert code == 0
    assert out == "depth-6 witness verified on all 64 paths\n"


def test_tree_depth_over_search_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "tree", "--class", f"halting:{LOOP}", "--depth", "200")
    assert_one_line_error(code, err, want_code=3)
    assert "budget exceeded" in err


def test_goedel_prefix_onset_spec(capsys):
    # inconsistent_at:2 turns inconsistent at theorem 3: active points 0, 1, 2.
    code, out, _ = run_cli(
        capsys, "dim", "--class", "goedel_prefix:inconsistent_at:2", "--window", "6"
    )
    assert code == 0
    assert "vc on window (6, 128): 3" in out


def test_game_tree_adversary_reuses_the_littlestone_report(capsys, monkeypatch):
    calls = []
    real = dimensions.littlestone_dim

    def counting(fc, **kwargs):
        calls.append(fc)
        return real(fc, **kwargs)

    monkeypatch.setattr(dimensions, "littlestone_dim", counting)
    code, out, _ = run_cli(capsys, "game", "--class", f"halting:{HALT3}", "--adversary", "tree")
    assert code == 0
    assert len(calls) == 1
    assert out == "mistakes: 3, Ldim: 3\n"


def test_measure_choices_match_the_engine_table():
    assert MEASURES == tuple(dimensions.MEASURES)


# The learndim modules a fresh process holds after main() runs one command:
# each command imports only the layers it runs, and every layer imports the
# record base of its result types.
RUN_LAYERS = {"cli", "errors", "_record", "turing"}
WINDOW_LAYERS = RUN_LAYERS | {"formal", "encoding", "classes", "dimensions"}
LAYERS_LOADED = [
    (["simulate", HALT3], RUN_LAYERS),
    (["reduce", HALT3], RUN_LAYERS | {"reduction"}),
    (["suite", HALT3, LOOP], RUN_LAYERS | {"reduction"}),
    (["dim", "--class", f"halting:{HALT3}", "--window", "4"], WINDOW_LAYERS),
    (["teach", "--class", "step", "--index", "3"], WINDOW_LAYERS),
    (["tree", "--class", f"halting:{LOOP}", "--depth", "3"], WINDOW_LAYERS),
    (["game", "--class", f"halting:{HALT3}"], WINDOW_LAYERS | {"games"}),
    (["pac", "--class", f"halting:{HALT3}", "--trials", "5"], WINDOW_LAYERS | {"games"}),
    (["--help"], {"cli", "errors"}),
]
# Standard modules that no command imports: dataclasses brings in inspect,
# ast and dis, and typing is read only by type checkers.  Only pac reads
# fractions, and only --help the terminal width, through shutil.
UNLOADED = ("dataclasses", "inspect", "ast", "dis", "typing")
LOADED_PROBE = """
import contextlib, io, sys
from learndim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("learndim.")))
print(*sorted(m for m in sys.modules if "." not in m))
"""


@pytest.mark.parametrize("argv,layers", LAYERS_LOADED, ids=[a[0] for a, _ in LAYERS_LOADED])
def test_command_loads_only_its_layers(argv, layers):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # -S: without site, whose .pth files may import typing for every process.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_PROBE, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    learndim_line, stdlib_line = proc.stdout.splitlines()
    code, *loaded = learndim_line.split()
    assert (code, proc.stderr) == ("0", "")
    assert set(loaded) == {f"learndim.{name}" for name in layers}
    unloaded = UNLOADED + (("fractions",) if argv[0] == "game" else ())
    unloaded += ("shutil",) if argv[0] != "--help" else ()
    assert set(stdlib_line.split()).isdisjoint(unloaded)
