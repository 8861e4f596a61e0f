"""learndim: exact desk-scale learnability dimensions of computable classes.

Builds the contradiction-gated and halting-gated function classes, computes
their VC, Littlestone, and teaching dimensions exactly on finite windows
with verifiable certificates, plays the online learning game, runs PAC
experiments, and demonstrates the reduction from halting to dimension
finiteness.

The public names load lazily (PEP 562): `import learndim` imports no layer,
and the first access to a name imports the submodule that defines it.
"""

import importlib

# Each public name under the submodule that defines it.
_EXPORTS = {
    "encoding": ("pair", "seq_bit", "unpair"),
    "errors": (
        "BudgetExceededError",
        "ClassCodeError",
        "MachineParseError",
        "ProtocolViolationError",
        "WitnessUnresolvedError",
    ),
    "turing": (
        "RunResult",
        "TuringMachine",
        "decode_tm",
        "encode_tm",
        "load_tm",
        "parse_tm",
        "run_bounded",
        "serialize_tm",
    ),
    "formal": (
        "FormalSystem",
        "active_index",
        "consistent_toy",
        "inconsistency_onset",
        "inconsistent_toy",
        "inconsistent_toy_at",
        "negation",
        "prefix_consistent",
        "system_from_spec",
    ),
    "classes": (
        "FiniteClass",
        "IndexedClass",
        "class_from_spec",
        "f_of_machine",
        "f_of_system",
        "goedel_class",
        "goedel_prefix_class",
        "halting_class",
        "materialize",
        "saturating_index_count",
        "step_class",
    ),
    "dimensions": (
        "DEFAULT_SCHEDULE",
        "DimensionReport",
        "LittlestoneTree",
        "SaturationReport",
        "TeachingSet",
        "escape_witness",
        "growth_schedule",
        "is_shattered",
        "littlestone_dim",
        "saturation_scan",
        "teaching_dim",
        "teaching_set",
        "tree_witness",
        "vc_dim",
    ),
    "games": (
        "ConstantLearner",
        "GameTranscript",
        "MajorityFlipAdversary",
        "PacReport",
        "RandomConsistentAdversary",
        "RandomLearner",
        "SOALearner",
        "TreeAdversary",
        "pac_experiment",
        "play_online_game",
        "sample_size_bound",
        "tree_adversary",
    ),
    "reduction": (
        "HALTS",
        "NO_ANSWER",
        "AgreementReport",
        "DeciderVerdict",
        "agreement_check",
        "budgeted_vc_decider",
        "class_code",
        "decode_class_code",
        "decode_machine",
        "halting_from_vc",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the defining submodule on first access and keep the value."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
