"""Exception types shared across the package."""


class InvalidDirectionError(ValueError):
    """A potential direction is not a unit imaginary quaternion."""


class DegenerateWavenumberError(ValueError):
    """The slow interior branch has zero wavenumber (V0 equals omega0).

    Every solver in this package expands the interior field over four
    propagating plane waves.  At k_minus = 0 one of them degenerates into a
    linear-in-x mode that is deliberately not modeled, so the input is
    rejected instead of silently producing garbage.
    """


class SingularSystemError(RuntimeError):
    """A matching or boundary linear system could not be solved reliably."""


class UndefinedFractionError(ArithmeticError):
    """Quaternionic fraction requested for a vanishing transmitted wave."""
