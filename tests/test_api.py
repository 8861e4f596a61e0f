"""The public API: the names `learndim` exports, the knobs of each
function and class, and the methods and properties of each class, one per
line, so that adding or removing a public name, a knob or an attribute
shows as a one-line diff here."""

from __future__ import annotations

import importlib
import inspect
from functools import cached_property
from types import FunctionType, ModuleType

import pytest

import learndim

PUBLIC_NAMES = {
    "AgreementReport",
    "BudgetExceededError",
    "ClassCodeError",
    "ConstantLearner",
    "DEFAULT_SCHEDULE",
    "DeciderVerdict",
    "DimensionReport",
    "FiniteClass",
    "FormalSystem",
    "GameTranscript",
    "HALTS",
    "IndexedClass",
    "LittlestoneTree",
    "MachineParseError",
    "MajorityFlipAdversary",
    "NO_ANSWER",
    "PacReport",
    "ProtocolViolationError",
    "RandomConsistentAdversary",
    "RandomLearner",
    "RunResult",
    "SOALearner",
    "SaturationReport",
    "TeachingSet",
    "TreeAdversary",
    "TuringMachine",
    "WitnessUnresolvedError",
    "active_index",
    "agreement_check",
    "budgeted_vc_decider",
    "class_code",
    "class_from_spec",
    "consistent_toy",
    "decode_class_code",
    "decode_machine",
    "decode_tm",
    "encode_tm",
    "escape_witness",
    "f_of_machine",
    "f_of_system",
    "goedel_class",
    "goedel_prefix_class",
    "growth_schedule",
    "halting_class",
    "halting_from_vc",
    "inconsistency_onset",
    "inconsistent_toy",
    "inconsistent_toy_at",
    "is_shattered",
    "littlestone_dim",
    "load_tm",
    "materialize",
    "negation",
    "pac_experiment",
    "pair",
    "parse_tm",
    "play_online_game",
    "prefix_consistent",
    "run_bounded",
    "sample_size_bound",
    "saturating_index_count",
    "saturation_scan",
    "seq_bit",
    "serialize_tm",
    "step_class",
    "system_from_spec",
    "teaching_dim",
    "teaching_set",
    "tree_adversary",
    "tree_witness",
    "unpair",
    "vc_dim",
}

# Per public function or class, the names of its parameters that have
# defaults, so that adding or removing a knob shows as a one-line diff too.
KNOBS = {
    "AgreementReport": (),
    "BudgetExceededError": (),
    "ClassCodeError": (),
    "ConstantLearner": (),
    "DeciderVerdict": (),
    "DimensionReport": (),
    "FiniteClass": (),
    "FormalSystem": (),
    "GameTranscript": (),
    "IndexedClass": ("active",),
    "LittlestoneTree": (),
    "MachineParseError": ("line",),
    "MajorityFlipAdversary": (),
    "PacReport": (),
    "ProtocolViolationError": (),
    "RandomConsistentAdversary": ("seed",),
    "RandomLearner": ("seed",),
    "RunResult": (),
    "SOALearner": (),
    "SaturationReport": (),
    "TeachingSet": (),
    "TreeAdversary": (),
    "TuringMachine": (),
    "WitnessUnresolvedError": (),
    "active_index": (),
    "agreement_check": (),
    "budgeted_vc_decider": (),
    "class_code": (),
    "class_from_spec": (),
    "consistent_toy": (),
    "decode_class_code": (),
    "decode_machine": (),
    "decode_tm": (),
    "encode_tm": (),
    "escape_witness": (),
    "f_of_machine": (),
    "f_of_system": (),
    "goedel_class": (),
    "goedel_prefix_class": (),
    "growth_schedule": (),
    "halting_class": (),
    "halting_from_vc": (),
    "inconsistency_onset": (),
    "inconsistent_toy": (),
    "inconsistent_toy_at": (),
    "is_shattered": (),
    "littlestone_dim": (),
    "load_tm": (),
    "materialize": (),
    "negation": (),
    "pac_experiment": ("sample_sizes", "seed"),
    "pair": (),
    "parse_tm": (),
    "play_online_game": (),
    "prefix_consistent": (),
    "run_bounded": (),
    "sample_size_bound": (),
    "saturating_index_count": (),
    "saturation_scan": (),
    "seq_bit": (),
    "serialize_tm": (),
    "step_class": (),
    "system_from_spec": (),
    "teaching_dim": (),
    "teaching_set": (),
    "tree_adversary": (),
    "tree_witness": ("labeling",),
    "unpair": (),
    "vc_dim": (),
}

# Per public class, the public methods, properties and classmethods that
# its body defines (its vars()), so that adding or removing one shows as a
# one-line diff as well.
ATTRIBUTES = {
    "AgreementReport": (),
    "BudgetExceededError": (),
    "ClassCodeError": (),
    "ConstantLearner": ("observe", "predict"),
    "DeciderVerdict": (),
    "DimensionReport": (),
    "FiniteClass": (
        "all_ids",
        "column",
        "concepts",
        "from_rows",
        "index_of",
        "labelled",
        "masks",
        "row",
    ),
    "FormalSystem": (),
    "GameTranscript": (),
    "IndexedClass": (),
    "LittlestoneTree": ("depth", "labels", "paths", "uniform", "verify_against"),
    "MachineParseError": (),
    "MajorityFlipAdversary": ("question", "reveal"),
    "PacReport": (),
    "ProtocolViolationError": (),
    "RandomConsistentAdversary": ("question", "reveal"),
    "RandomLearner": ("observe", "predict"),
    "RunResult": (),
    "SOALearner": ("observe", "predict"),
    "SaturationReport": ("final_value",),
    "TeachingSet": ("verify",),
    "TreeAdversary": ("question", "reveal"),
    "TuringMachine": (),
    "WitnessUnresolvedError": (),
}

# What vars() holds for a method, a property or a classmethod; fields, a
# field's default and a slot's descriptor are none of these.
_ATTRIBUTE_KINDS = (FunctionType, property, cached_property, classmethod, staticmethod)


def _knobs(value) -> tuple[str, ...]:
    try:
        parameters = inspect.signature(value).parameters.values()
    except ValueError:  # an exception class that keeps Exception's signature
        return ()
    return tuple(p.name for p in parameters if p.default is not p.empty)


def test_public_names_are_pinned():
    # dir(), not vars(): the names load lazily, so vars() lists only those
    # accessed so far.
    exported = {
        name
        for name in dir(learndim)
        if not name.startswith("_") and not isinstance(getattr(learndim, name), ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_exports_are_the_submodules_own_objects():
    for name, module in learndim._SOURCE.items():
        source = importlib.import_module(f"learndim.{module}")
        value = getattr(learndim, name)
        assert value is getattr(source, name), name
        # A function or class is exported from the module that defines it.
        assert getattr(value, "__module__", source.__name__) == source.__name__, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from learndim import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        learndim.no_such_name


def test_knobs_are_pinned():
    public = [getattr(learndim, name) for name in PUBLIC_NAMES]
    assert {v.__name__: _knobs(v) for v in public if callable(v)} == KNOBS


def test_class_attributes_are_pinned():
    classes = [getattr(learndim, name) for name in PUBLIC_NAMES]
    assert {
        cls.__name__: tuple(
            sorted(k for k, v in vars(cls).items() if not k.startswith("_") and isinstance(v, _ATTRIBUTE_KINDS))
        )
        for cls in classes
        if isinstance(cls, type)
    } == ATTRIBUTES
