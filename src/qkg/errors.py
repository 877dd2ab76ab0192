"""Exception types shared across the package."""


class InvalidDirectionError(ValueError):
    """A potential direction is not a unit imaginary quaternion."""


class SingularSystemError(RuntimeError):
    """A matching or boundary linear system could not be solved reliably."""


class UndefinedFractionError(ArithmeticError):
    """Quaternionic fraction requested for a vanishing transmitted wave."""
