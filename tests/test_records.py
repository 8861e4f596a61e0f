"""The result types are frozen records: equality, hashing and repr go by
their fields, as for frozen dataclasses, and no attribute can be written or
deleted."""

from __future__ import annotations

import inspect

import pytest

from learndim.classes import Concept, FiniteClass, IndexedClass
from learndim.dimensions import DimensionReport, LittlestoneTree, SaturationReport, TeachingSet
from learndim.formal import FormalSystem
from learndim.games import GameTranscript, PacReport
from learndim.reduction import AgreementEntry, AgreementReport, DeciderVerdict
from learndim.turing import RunResult, TuringMachine

ENTRY = ("halt3", "halts", 3, True, 3, True)
ENTRY_REPR = (
    "AgreementEntry(name='halt3', reduction_verdict='halts', reduction_steps=3, "
    "direct_halted=True, direct_steps=3, agree=True)"
)

# (class, field values in order, repr)
RECORDS = [
    (
        TuringMachine,
        (("A", "H"), ("0", "1"), "0", "A", "H", {("A", "0"): ("1", "R", "H")}),
        "TuringMachine(states=('A', 'H'), alphabet=('0', '1'), blank='0', initial='A', "
        "halting='H', transitions={('A', '0'): ('1', 'R', 'H')})",
    ),
    (RunResult, (True, 6), "RunResult(halted=True, steps=6)"),
    (FormalSystem, (abs,), "FormalSystem(theorem=<built-in function abs>)"),
    (
        IndexedClass,
        (max, "step", None),
        "IndexedClass(evaluate=<built-in function max>, provenance='step', active=None)",
    ),
    (Concept, (3,), "Concept(threshold=3)"),
    (
        FiniteClass,
        ((0, 1), (0, 1, 3), (0, 1, 2)),
        "FiniteClass(domain=(0, 1), codes=(0, 1, 3), witnesses=(0, 1, 2))",
    ),
    (DimensionReport, ("vc", 1, (0,)), "DimensionReport(measure='vc', value=1, certificate=(0,))"),
    (
        TeachingSet,
        ((0, 1), ((0, 0), (1, 1))),
        "TeachingSet(target=(0, 1), examples=((0, 0), (1, 1)))",
    ),
    (LittlestoneTree, ((5, 6, 7),), "LittlestoneTree(nodes=(5, 6, 7))"),
    (
        SaturationReport,
        ("vc", ((3, 16),), (3,), False, True),
        "SaturationReport(measure='vc', windows=((3, 16),), values=(3,), stabilized=False, "
        "incomplete=True)",
    ),
    (
        GameTranscript,
        (((0, 0, 1),), 1, ((1,),)),
        "GameTranscript(rounds=((0, 0, 1),), mistakes=1, witnesses=((1,),))",
    ),
    (
        PacReport,
        (0.25, 0.1, 200, 1, (715,), (1.0,)),
        "PacReport(epsilon=0.25, delta=0.1, trials=200, seed=1, sample_sizes=(715,), "
        "success_frequencies=(1.0,))",
    ),
    (DeciderVerdict, (True, 3), "DeciderVerdict(finite=True, value=3)"),
    (AgreementEntry, ENTRY, ENTRY_REPR),
    (
        AgreementReport,
        ((AgreementEntry(*ENTRY),), 10, 1, 0, 0),
        f"AgreementReport(entries=({ENTRY_REPR},), budget=10, halts=1, no_answer=0, "
        "disagreements=0)",
    ),
]


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_a_frozen_value(cls, values, text):
    record = cls(*values)
    assert repr(record) == text
    assert record == cls(*values) and record is not cls(*values)
    # Equal fields in another type compare unequal: the same class only.
    assert record.__eq__(values) is NotImplemented
    if cls is TuringMachine:  # a dict field: unhashable, as its dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == hash(values)
    for name in inspect.signature(cls).parameters:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_record_defaults_and_checks():
    assert IndexedClass(max, "step") == IndexedClass(max, "step", None)
    assert IndexedClass(max, "step").active is None
    assert RunResult(True, 3) != DeciderVerdict(True, 3)
    with pytest.raises(ValueError, match="2\\*\\*d - 1 nodes, not 2"):
        LittlestoneTree(nodes=(1, 2))
    with pytest.raises(TypeError):
        RunResult(True)
    assert not hasattr(TeachingSet((0,), ()), "__dict__")


def test_finite_class_caches_its_derived_views():
    fc = FiniteClass.from_rows((0, 1), [(0, 0), (1, 0), (1, 1)])
    assert fc.concepts == ((0, 0), (1, 0), (1, 1))
    assert fc.concepts is fc.concepts
    assert fc.masks == (0b110, 0b100)
    assert fc.all_ids == 0b111
    assert {"concepts", "masks", "all_ids"} <= set(vars(fc))
    # The caches are no fields: equality, hash and repr ignore them.
    fresh = FiniteClass(fc.domain, fc.codes, fc.witnesses)
    assert fc == fresh and hash(fc) == hash(fresh) and repr(fc) == repr(fresh)
