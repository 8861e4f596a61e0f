"""Shared exception types."""


class MachineParseError(ValueError):
    """Raised on invalid machine descriptions; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceededError(RuntimeError):
    """A combinatorial or evaluation budget was exhausted before completion."""


class ProtocolViolationError(RuntimeError):
    """An online-game adversary produced an unrealizable history."""

    def __init__(self, message: str, round_index: int):
        self.round_index = round_index
        super().__init__(f"round {round_index}: {message}")


class WitnessUnresolvedError(RuntimeError):
    """A requested witness could not be constructed within the scan budget.

    Raised instead of ever returning an unverified witness.
    """


class ClassCodeError(ValueError):
    """An integer is not the class code of any machine."""
