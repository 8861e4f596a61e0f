"""Halting-problem reduction pipeline.

The code of a machine's halting-gated class is the machine's own natural
number code (`encode_tm`), so the reduction maps an index to an index.  Any
verdict function on class codes becomes a halting verdict.  The shipped
decider is deliberately partial and sound: it reports a finite dimension
only after positively observing the halt, and never claims the infinite
case.  The point is to demonstrate the reduction's mechanics, not to
contradict its impossibility in general.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ._record import Record
from .errors import ClassCodeError
from .turing import TuringMachine, decode_tm, encode_tm, run_bounded

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .classes import IndexedClass

HALTS = "halts"
NO_ANSWER = "no-answer"


def class_code(tm: TuringMachine) -> int:
    """Natural-number code of the halting-gated class of `tm`: encode_tm(tm)."""
    return encode_tm(tm)


def decode_machine(code: int) -> TuringMachine:
    """The machine a class code names; ClassCodeError if it names none (a
    non-positive code, bytes that are not UTF-8, or text parse_tm refuses)."""
    try:
        return decode_tm(code)
    except ValueError as exc:
        raise ClassCodeError(f"not a class code: {exc}") from exc


def decode_class_code(code: int) -> IndexedClass:
    """Rebuild the evaluator; pointwise equal to halting_class(machine)."""
    from .classes import halting_class

    return halting_class(decode_machine(code))


class DeciderVerdict(Record):
    """Finite(value) only on positive observation of the halt; Unknown(budget)
    otherwise.  Never an 'infinite' claim."""

    finite: bool
    value: int  # halting step K when finite, exhausted budget otherwise

    def __str__(self) -> str:
        return f"Finite({self.value})" if self.finite else f"Unknown({self.value})"


def budgeted_vc_decider(code: int, budget: int) -> DeciderVerdict:
    """Sound partial stand-in for the impossible finiteness decider.

    Simulates the embedded machine for at most `budget` steps; halting at
    step K pins the window dimensions to K exactly.
    """
    tm = decode_machine(code)
    result = run_bounded(tm, budget)
    if result.halted:
        return DeciderVerdict(finite=True, value=result.steps)
    return DeciderVerdict(finite=False, value=budget)


def halting_from_vc(
    decider: Callable[[int], DeciderVerdict], tm: TuringMachine
) -> str:
    """Feed the machine's class code to a finiteness decider: a Finite verdict
    means the machine halts."""
    verdict = decider(class_code(tm))
    return HALTS if verdict.finite else NO_ANSWER


class AgreementEntry(Record):
    name: str
    reduction_verdict: str
    reduction_steps: int | None  # K when the verdict is halts
    direct_halted: bool
    direct_steps: int | None
    agree: bool  # the verdict is halts iff the direct run halted


class AgreementReport(Record):
    entries: tuple[AgreementEntry, ...]
    budget: int
    halts: int
    no_answer: int
    disagreements: int


def agreement_check(
    suite: Sequence[tuple[str, TuringMachine]], budget: int
) -> AgreementReport:
    """Compare the reduction pipeline against direct simulation per machine.

    At ample budget every halter must be answered at its exact step count,
    and a NoAnswer is only ever the budget running out.
    """
    entries = []
    for name, tm in suite:
        verdict = budgeted_vc_decider(class_code(tm), budget)
        direct = run_bounded(tm, budget)
        entries.append(
            AgreementEntry(
                name=name,
                reduction_verdict=HALTS if verdict.finite else NO_ANSWER,
                reduction_steps=verdict.value if verdict.finite else None,
                direct_halted=direct.halted,
                direct_steps=direct.steps if direct.halted else None,
                agree=verdict.finite == direct.halted,
            )
        )
    halts = sum(e.reduction_verdict == HALTS for e in entries)
    return AgreementReport(
        entries=tuple(entries),
        budget=budget,
        halts=halts,
        no_answer=len(entries) - halts,
        disagreements=sum(not e.agree for e in entries),
    )
