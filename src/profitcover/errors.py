"""Exception types shared across the pipeline.

Exit-code mapping for the CLI lives in cli.py: ParseError -> 2,
CapacityError -> 3, InfeasibilityBug -> 4.
"""


class DomainError(ValueError):
    """An argument violates a documented precondition (bad subset, bad sizes)."""


class ParseError(ValueError):
    """An instance file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class CapacityError(RuntimeError):
    """Instance exceeds a configured resource limit (qubit count, solver size)."""


class TrainingError(RuntimeError):
    """The classical optimizer failed to produce any accepted point."""


class InfeasibilityBug(AssertionError):
    """An internal result failed its re-check (an infeasible solution, a
    refinement that breaks its contract, a non-cover from the oracle);
    indicates a bug, not bad input."""
