"""learndim: exact desk-scale learnability dimensions of computable classes.

Builds the contradiction-gated and halting-gated function classes, computes
their VC, Littlestone, and teaching dimensions exactly on finite windows
with verifiable certificates, plays the online learning game, runs PAC
experiments, and demonstrates the reduction from halting to dimension
finiteness.
"""

from .encoding import pair, seq_bit, unpair
from .errors import (
    BudgetExceededError,
    ClassCodeError,
    MachineParseError,
    ProtocolViolationError,
    WitnessUnresolvedError,
)
from .turing import (
    RunResult,
    TuringMachine,
    decode_tm,
    encode_tm,
    load_tm,
    parse_tm,
    run_bounded,
    serialize_tm,
)
from .formal import (
    FormalSystem,
    active_index,
    consistent_toy,
    inconsistency_onset,
    inconsistent_toy,
    inconsistent_toy_at,
    negation,
    prefix_consistent,
    system_from_spec,
)
from .classes import (
    Concept,
    FiniteClass,
    IndexedClass,
    class_from_spec,
    f_of_machine,
    f_of_system,
    goedel_class,
    goedel_prefix_class,
    halting_class,
    materialize,
    saturating_index_count,
    step_class,
    step_concept,
)
from .dimensions import (
    DEFAULT_SCHEDULE,
    DimensionReport,
    LittlestoneTree,
    SaturationReport,
    TeachingSet,
    default_schedule,
    escape_witness,
    growth_schedule,
    is_shattered,
    littlestone_dim,
    saturation_scan,
    teaching_dim,
    teaching_set,
    tree_witness,
    vc_dim,
)
from .games import (
    ConstantLearner,
    GameTranscript,
    MajorityFlipAdversary,
    PacReport,
    RandomConsistentAdversary,
    RandomLearner,
    SOALearner,
    TreeAdversary,
    pac_experiment,
    play_online_game,
    sample_size_bound,
    tree_adversary,
)
from .reduction import (
    HALTS,
    NO_ANSWER,
    AgreementReport,
    DeciderVerdict,
    agreement_check,
    budgeted_vc_decider,
    class_code,
    decode_class_code,
    decode_machine,
    halting_from_vc,
)

__version__ = "0.1.0"
