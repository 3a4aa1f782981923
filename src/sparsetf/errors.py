"""Exception types shared across the package."""

__all__ = ["InvalidInputError", "NumericalFailureError"]


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """A numerical routine could not reach its requested tolerance.

    Carries the tolerance that was actually achieved so callers can decide
    whether the partial result is usable.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved
