"""The mutant table (tests/mutants.py) still matches the code and the tests:
each old text occurs exactly once under src/, in the file its entry names,
and each listed test exists."""

from __future__ import annotations

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path, old, new, nodes", MUTANTS, ids=[str(i) for i in range(len(MUTANTS))])
def test_mutant_old_text_occurs_once_in_src(path, old, new, nodes):
    assert old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    sources = (ROOT / "src").rglob("*.py")
    assert sum(source.read_text(encoding="utf-8").count(old) for source in sources) == 1


@pytest.mark.parametrize("path, old, new, nodes", MUTANTS, ids=[str(i) for i in range(len(MUTANTS))])
def test_mutant_names_existing_tests(path, old, new, nodes):
    assert nodes
    for node in nodes:
        test_file, _, name = node.partition("::")
        assert f"\ndef {name}(" in (ROOT / test_file).read_text(encoding="utf-8"), node
