"""Indexed class constructions and window materialization."""

from __future__ import annotations

import json
import random
import re

import pytest

from learndim import (
    BudgetExceededError,
    FiniteClass,
    IndexedClass,
    class_from_spec,
    consistent_toy,
    f_of_machine,
    f_of_system,
    goedel_class,
    goedel_prefix_class,
    halting_class,
    inconsistency_onset,
    inconsistent_toy,
    inconsistent_toy_at,
    materialize,
    saturating_index_count,
    step_class,
    teaching_dim,
)
from learndim import active_index
from learndim.classes import BATCH_CELLS
from learndim.cli import main

from conftest import MACHINES_DIR, halter_text
from oracles import goedel_eval_oracle, halting_eval_oracle, naive_materialize


def test_goedel_consistent_collapses_to_zero():
    ic = goedel_class(consistent_toy())
    for n, m in [(3, 16), (5, 64), (7, 256)]:
        fc = materialize(ic, n, m)
        assert fc.concepts == ((0,) * (n + 1),)
        assert fc.witnesses == (0,)


def test_goedel_inconsistent_concept_count_matches_active_count():
    fs = inconsistent_toy()
    ic = goedel_class(fs)
    for n in (3, 5, 7):
        fc = materialize(ic, n, saturating_index_count(n))
        actives = sum(1 for k in range(n + 1) if active_index(fs, k))
        assert len(fc.concepts) == 2**actives


def test_index_zero_is_zero_function():
    ic = goedel_class(inconsistent_toy())
    assert all(ic.evaluate(0, n) == 0 for n in range(200))


def test_halting_class_window_patterns(halters):
    ic = halting_class(halters[3])
    fc = materialize(ic, 5, 64)
    assert len(fc.concepts) == 8
    # Patterns on {0,1,2} zero-padded to the window.
    expected = {
        tuple((code >> i) & 1 for i in range(3)) + (0, 0, 0) for code in range(8)
    }
    assert set(fc.concepts) == expected


def test_halting_class_loop_full_hypercube(loopers):
    ic = halting_class(loopers[0])
    for n in (3, 4):
        fc = materialize(ic, n, saturating_index_count(n))
        assert len(fc.concepts) == 2 ** (n + 1)


def test_halting_class_zero_after_halt(halters):
    ic = halting_class(halters[2])
    for m in range(40):
        for n in range(2, 12):
            assert ic.evaluate(m, n) == 0


def test_step_class_members():
    ic = step_class()
    assert [ic.evaluate(1, n) for n in range(5)] == [1, 1, 1, 1, 1]
    assert [ic.evaluate(4, n) for n in range(6)] == [0, 0, 0, 1, 1, 1]
    assert all(ic.evaluate(0, n) == 0 for n in range(20))


def test_step_class_window_merges_tail():
    fc = materialize(step_class(), 3, 10)
    # Thresholds 0..3 plus the merged zero class (thresholds >= 4 and zero).
    assert len(fc.concepts) == 5
    assert fc.concepts[0] == (0, 0, 0, 0) and fc.witnesses[0] == 0


def test_goedel_prefix_consistent_is_full_hypercube():
    ic = goedel_prefix_class(consistent_toy())
    fc = materialize(ic, 4, 32)
    assert len(fc.concepts) == 32


def test_goedel_prefix_delayed_onset_patterns():
    fs = inconsistent_toy_at(2)
    onset = inconsistency_onset(fs, 100)
    ic = goedel_prefix_class(fs)
    fc = materialize(ic, 6, 128)
    assert len(fc.concepts) == 2**onset
    for concept in fc.concepts:
        assert all(b == 0 for b in concept[onset:])


def test_goedel_prefix_eval_matches_bits_while_consistent():
    ic = goedel_prefix_class(inconsistent_toy_at(3))
    for m in (1, 5, 9, 14):
        for n in range(3):
            assert ic.evaluate(m, n) == (m >> n) & 1


def test_f_of_system_zero_for_consistent():
    f = f_of_system(consistent_toy())
    assert all(f(n) == 0 for n in range(10_000))


def test_f_of_system_threshold_at_onset():
    fs = inconsistent_toy_at(4)
    onset = inconsistency_onset(fs, 1000)
    f = f_of_system(fs)
    values = [f(n) for n in range(onset + 10)]
    assert values == [0] * onset + [1] * 10
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_f_of_machine(halters, loopers):
    f = f_of_machine(halters[1])
    assert [f(n) for n in range(5)] == [0, 1, 1, 1, 1]
    g = f_of_machine(loopers[0])
    assert all(g(n) == 0 for n in range(2000))


def test_f_of_machine_complements_activity(halters):
    tm = halters[3]
    ic = halting_class(tm)
    f = f_of_machine(tm)
    for n in range(10):
        assert f(n) == (0 if ic.active(n) else 1)


def test_materialize_validates_and_guards(monkeypatch):
    ic = step_class()
    with pytest.raises(ValueError):
        materialize(ic, -1, 4)
    with pytest.raises(ValueError):
        materialize(ic, 3, 0)
    monkeypatch.setenv("LEARNDIM_EVAL_BUDGET", "16")
    with pytest.raises(BudgetExceededError):
        materialize(ic, 3, 10)
    # The closed form reads no cell but is charged every one: a cost of
    # exactly the budget answers, one more is refused.
    assert materialize(ic, 3, 4).codes == (0, 0b1111, 0b1110, 0b1100)
    assert materialize(ic, 15, 1).codes == (0,)
    with pytest.raises(BudgetExceededError) as err:
        materialize(ic, 16, 1)
    assert str(err.value) == "window (16, 1) needs 17 evaluator calls, budget is 16"


def test_monotone_refinement(halters):
    ic = halting_class(halters[3])
    sizes = []
    for n, m in [(2, 8), (3, 16), (4, 32), (5, 64), (5, 128)]:
        sizes.append(len(materialize(ic, n, m).concepts))
    assert sizes == sorted(sizes)


def test_masked_fast_path_equals_generic_scan(halters):
    classes = [
        goedel_class(inconsistent_toy()),
        goedel_class(consistent_toy()),
        goedel_prefix_class(inconsistent_toy_at(2)),
        halting_class(halters[3]),
    ]
    for ic in classes:
        for n, m in [(4, 32), (6, 128), (5, 16)]:
            fc = materialize(ic, n, m)
            rows, witnesses = naive_materialize(ic.evaluate, n, m)
            assert list(fc.concepts) == rows
            assert list(fc.witnesses) == witnesses


def test_from_rows_rejects_entries_other_than_bits():
    with pytest.raises(ValueError, match=r"row 0 \(0, 2\) has an entry other than 0 or 1"):
        FiniteClass.from_rows([0, 1], [(0, 2), (1, 0)])
    with pytest.raises(ValueError, match=r"row 1 \(-1, 0\)"):
        FiniteClass.from_rows([0, 1], [(1, 0), (-1, 0)])


# An entry other than 0 or 1 at cell (m, 1) of a window that is 0 elsewhere:
# the error the row-by-row read gives, with {m} the entry's index.
BAD_ENTRIES = [
    (2, ValueError, "row {m} (0, 2, 0, 0) has an entry other than 0 or 1"),
    (-1, ValueError, "row {m} (0, -1, 0, 0) has an entry other than 0 or 1"),
    (256, ValueError, "row {m} (0, 256, 0, 0) has an entry other than 0 or 1"),
    (0.5, ValueError, "row {m} (0, 0.5, 0, 0) has an entry other than 0 or 1"),
    (None, ValueError, "row {m} (0, None, 0, 0) has an entry other than 0 or 1"),
    (1.0, TypeError, "'float' object cannot be interpreted as an integer"),
]


@pytest.mark.parametrize("bad, error, text", BAD_ENTRIES)
@pytest.mark.parametrize("m", [5, 2 * (BATCH_CELLS // 4) + 3])
def test_generic_window_rejects_entries_other_than_bits(bad, error, text, m):
    # On 4 points, index 5 lies in the first batch, the other in the third.
    ic = IndexedClass(evaluate=lambda i, n: bad if (i, n) == (m, 1) else 0)
    with pytest.raises(error, match="^" + re.escape(text.format(m=m)) + "$"):
        materialize(ic, 3, m + 5)


def test_generic_window_rejects_entries_other_than_bits_in_wide_rows():
    # 300 points: a batch holds fewer indexes than points and is read by rows.
    m = BATCH_CELLS // 300 + 7
    row = (0, 2) + (0,) * 298
    ic = IndexedClass(evaluate=lambda i, n: row[n] if i == m else 0)
    with pytest.raises(ValueError, match=re.escape(f"row {m} {row} has an entry other than 0 or 1")):
        materialize(ic, 299, m + 5)


def test_from_rows_rejects_a_domain_that_repeats_a_point():
    # Measures that work by column and checks that read a point's first
    # column would disagree on it: teaching sets of this class failed their
    # own verify.
    with pytest.raises(ValueError, match=r"^domain repeats a point$"):
        FiniteClass.from_rows((0, 0), [(0, 1), (1, 0), (0, 0)])
    fc = FiniteClass.from_rows((0, 1), [(0, 1), (1, 0), (0, 0)])
    assert all(ts.verify(fc) for ts in teaching_dim(fc).certificate)


def test_materialize_handles_non_power_of_two_windows():
    ic = goedel_class(inconsistent_toy())
    fc = materialize(ic, 4, 11)
    rows, witnesses = naive_materialize(ic.evaluate, 4, 11)
    assert list(fc.concepts) == rows and list(fc.witnesses) == witnesses


def test_definition_fidelity_spot_checks(halters):
    rng = random.Random(7)
    fs = inconsistent_toy()
    icg = goedel_class(fs)
    ich = halting_class(halters[4])
    for _ in range(300):
        m, n = rng.randrange(1000), rng.randrange(1000)
        assert icg.evaluate(m, n) == goedel_eval_oracle(fs.theorem, m, n)
        assert ich.evaluate(m, n) == halting_eval_oracle(halters[4], m, n)


def test_full_coverage_index_window(halters):
    # With M = 2**(N+1) every achievable window pattern is realized: the
    # concept count equals 2**(number of active points in the window).
    ic = halting_class(halters[2])
    n = 4
    fc = materialize(ic, n, saturating_index_count(n))
    actives = sum(1 for k in range(n + 1) if ic.active(k))
    assert len(fc.concepts) == 2**actives


def test_finite_class_exports(tmp_path, capsys):
    # Windows are exported by the CLI, which owns every output format.
    for suffix in ("csv", "json"):
        path = tmp_path / f"x.{suffix}"
        argv = ["dim", "--class", f"halting:{MACHINES_DIR / 'halt2.tm'}", "--window", "2", "8"]
        assert main(argv + ["--export-class", str(path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "x.csv").read_text().splitlines()[0] == "witness,0,1,2"
    assert json.loads((tmp_path / "x.json").read_text())["witnesses"][0] == 0


def test_class_from_spec(tmp_path, halters):
    assert class_from_spec({"construction": "step"}).active is None
    for kind, fs in (("consistent", consistent_toy()), ("inconsistent", inconsistent_toy())):
        ic = class_from_spec({"construction": "goedel", "system": {"kind": kind}})
        assert [ic.active(n) for n in range(40)] == [active_index(fs, n) for n in range(40)]
    path = tmp_path / "m.tm"
    path.write_text(halter_text(2), encoding="utf-8")
    ic = class_from_spec({"construction": "halting", "machine": str(path)})
    # Active while the machine has not halted, which it does at step 2.
    assert [ic.active(n) for n in range(6)] == [True, True, False, False, False, False]
    with pytest.raises(ValueError):
        class_from_spec({"construction": "goedel"})
    with pytest.raises(ValueError):
        class_from_spec({"construction": "???"})
