"""Command-line interface: commands, exit codes, reproducible output."""

from __future__ import annotations

import json

import pytest

from learndim import dimensions
from learndim.cli import main

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
