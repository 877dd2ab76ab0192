"""Exception types shared across the package."""


class InvalidDirectionError(ValueError):
    """A potential direction is not a unit imaginary quaternion."""


class DegenerateWavenumberError(ValueError):
    """The slow interior branch has zero wavenumber (V0 equals omega0).

    The matcher, the closed form's c3..c6 and the field expand the interior
    over four propagating plane waves; at k_minus = 0 one degenerates into a
    linear-in-x mode that is not modeled, so they reject the input.  The
    exterior routes (the sweep grid, stacks) answer there: their one slab
    formula, t = 1 / (cos qL - i (sigma k0/q + sigma q/k0)) with
    sigma = sin(qL) / 2, is entire in q.
    """


class SingularSystemError(RuntimeError):
    """A matching or boundary linear system could not be solved reliably."""


class UndefinedFractionError(ArithmeticError):
    """Quaternionic fraction requested for a vanishing transmitted wave."""
