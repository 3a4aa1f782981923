"""Exception types shared across the package."""

__all__ = ["InvalidInputError", "NumericalFailureError"]


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """A numerical routine failed or fell short of its requested tolerance.

    Carries the tolerance actually achieved, or None where none applies, so
    callers can decide whether the partial result is usable.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message if achieved is None else
                         f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved
