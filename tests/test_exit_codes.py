"""Exit-code matrix: every subcommand run as `python -m learndim.cli` on
malformed class specs, windows, indexes, depths, budgets and --escape
samples.  Each run must exit with a documented code (0-4) and print no
traceback; a rejected input prints exactly one line on stderr.

Runs are subprocesses, because a bad spec once closed the process's own
stderr (`"machine": 2` opened and closed file descriptor 2)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MACHINES_DIR

SRC = Path(__file__).resolve().parent.parent / "src"
HALT3 = str(MACHINES_DIR / "halt3.tm")
LOOP = str(MACHINES_DIR / "loop.tm")


def run_cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    child_env = dict(os.environ, **(env or {}))
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "learndim.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=120,
    )


def check_run(proc: subprocess.CompletedProcess, code: int) -> None:
    assert proc.returncode == code, proc.stderr
    assert 0 <= proc.returncode <= 4
    assert "Traceback" not in proc.stderr
    if proc.returncode != 0:
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


WINDOW_COMMANDS = [
    ["dim", "--class", "step"],
    ["teach", "--class", "step"],
    ["game", "--class", "step"],
    ["pac", "--class", "step"],
]

MATRIX = [
    # --window N [M]: a third integer, and out-of-range values.
    *[(cmd + ["--window", "3", "4", "5"], None, 1) for cmd in WINDOW_COMMANDS],
    (["dim", "--class", "step", "--window", "-1"], None, 1),
    (["dim", "--class", "step", "--window", "3", "0"], None, 1),
    (["dim", "--class", "step", "--window", "3", "--schedule", "default"], None, 1),
    # String class specs.
    (["dim", "--class", "nope"], None, 1),
    (["dim", "--class", "halting:"], None, 1),
    (["dim", "--class", "halting:/nonexistent/m.tm"], None, 1),
    (["dim", "--class", "goedel:weird"], None, 1),
    (["dim", "--class", "goedel:inconsistent_at:x"], None, 1),
    (["tree", "--class", "goedel_prefix:inconsistent_at", "--depth", "2"], None, 1),
    (["game", "--class", "goedel:inconsistent_at:-3"], None, 1),
    (["pac", "--class", "missing.json"], None, 1),
    # Indexes and rounds.
    (["teach", "--class", "step", "--index", "99"], None, 1),
    (["teach", "--class", "step", "--index", "-1"], None, 1),
    (["pac", "--class", "step", "--target-index", "99"], None, 1),
    (["game", "--class", "step", "--max-rounds", "-1"], None, 1),
    # Depths.
    (["tree", "--class", "step", "--depth", "-1"], None, 1),
    (["tree", "--class", "step", "--depth", "25"], None, 3),
    (["tree", "--class", "goedel:inconsistent", "--depth", "7"], None, 3),
    (["tree", "--class", "goedel:inconsistent", "--depth", "6"], None, 0),
    (["tree", "--class", "step", "--depth", "2", "--labeling", "active"], None, 1),
    # Budgets and PAC parameters.
    (["simulate", LOOP, "--budget", "-5"], None, 1),
    (["simulate", "/nonexistent/m.tm"], None, 1),
    (["reduce", LOOP, "--budget", "-1"], None, 1),
    (["suite", HALT3, "--budget", "-1"], None, 1),
    (["dim", "--class", "step", "--window", "3"], {"LEARNDIM_EVAL_BUDGET": "lots"}, 1),
    (["dim", "--class", "step", "--window", "3"], {"LEARNDIM_EVAL_BUDGET": "10"}, 3),
    (["pac", "--class", "step", "--trials", "0"], None, 1),
    (["pac", "--class", "step", "--epsilon", "2"], None, 1),
    (["pac", "--class", "step", "--sizes", "0"], None, 1),
    # Budgets checked before allocating: the saturating window's 2**(N+1)
    # and the PAC sample draws (trials x sum of sizes, 20 here).
    (["dim", "--class", "step", "--window", "20000"], None, 3),
    (["dim", "--class", "step", "--window", "100000000"], None, 3),
    (["pac", "--class", "step", "--sizes", "1000000000", "--trials", "1000000000"], None, 3),
    (["pac", "--class", "step", "--window", "1", "2", "--sizes", "4", "6", "--trials", "2"],
     {"LEARNDIM_EVAL_BUDGET": "19"}, 3),
    (["pac", "--class", "step", "--window", "1", "2", "--sizes", "4", "6", "--trials", "2"],
     {"LEARNDIM_EVAL_BUDGET": "20"}, 0),
    # Usage errors the argument parser reports itself.
    (["dim", "--class", "step", "--window", "x"], None, 1),
    (["dim", "--class", "step", "--measure", "bogus"], None, 1),
    (["dim"], None, 1),
    (["bogus"], None, 1),
    # --escape samples.
    (["teach", "--escape", "a,b"], None, 1),
    (["teach", "--escape", " , "], None, 1),
    (["teach", "--escape=-3"], None, 1),
    (["teach", "--escape", "2,7,4"], None, 0),
]


@pytest.mark.parametrize(
    "argv,env,code", MATRIX, ids=[" ".join(argv) for argv, _, _ in MATRIX]
)
def test_exit_code_matrix(argv, env, code):
    check_run(run_cli(*argv, env=env), code)


def test_budget_and_usage_messages():
    proc = run_cli("dim", "--class", "step", "--window", "20000")
    assert proc.stderr == (
        "budget exceeded: window (20000, 2**20001) needs over 16777216 evaluator calls, "
        "budget is 16777216\n"
    )
    # A cost past Python's 4300-digit str limit is printed as a power of two.
    proc = run_cli("dim", "--class", "step", "--window", "9" * 2200, "9" * 2200)
    check_run(proc, 3)
    assert "needs at least 2**14616 evaluator calls" in proc.stderr
    proc = run_cli("dim", "--class", "step", "--window", "x")
    assert proc.stderr == "error: argument --window: invalid int value: 'x'\n"


def test_window_third_integer_message():
    proc = run_cli("dim", "--class", "step", "--window", "3", "4", "5")
    assert proc.stdout == ""
    assert proc.stderr == "error: --window takes N [M], got 3 integers\n"


BAD_JSON_SPECS = [
    [1, 2],
    "step",
    {"construction": "halting", "machine": [1]},
    {"construction": "halting", "machine": 1},
    {"construction": "halting", "machine": 2},
    {"construction": "halting", "machine": ""},
    {"construction": "goedel", "system": [1]},
    {"construction": "goedel", "system": {"kind": "inconsistent_at", "onset": [1]}},
    {"construction": "goedel", "system": {"kind": "inconsistent_at", "onset": 2.5}},
    {"construction": "goedel", "system": {"kind": "inconsistent_at", "onset": float("inf")}},
    {"construction": [1]},
]


@pytest.mark.parametrize("spec", BAD_JSON_SPECS, ids=[json.dumps(s) for s in BAD_JSON_SPECS])
def test_bad_json_class_spec_exit_1(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    check_run(run_cli("dim", "--class", str(path), "--window", "3"), 1)


def test_json_class_spec_still_accepted(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"construction": "halting", "machine": HALT3}), encoding="utf-8")
    proc = run_cli("dim", "--class", str(path), "--window", "5")
    check_run(proc, 0)
    assert proc.stdout == "vc on window (5, 64): 3\n"
