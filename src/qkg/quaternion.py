"""Symplectic pairs and unit imaginary directions.

The package works in the symplectic split of a quaternion
q = w + x i + y j + z k,

    q = alpha + j beta,      alpha = w + x i,   beta = y - z i,

which packs it into two complex numbers.  The split is forced by j i = -k:
moving a complex number c through j conjugates it, j c = conj(c) j, and
that conjugation is what couples the two complex components of a
quaternionic wave.  The Hamilton product itself is never formed; the tests
keep it as the oracle of model.direction_coupling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidDirectionError

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class SymplecticPair:
    """Complex pair (alpha, beta) representing alpha + j beta."""

    alpha: complex
    beta: complex

    def __add__(self, other: "SymplecticPair") -> "SymplecticPair":
        return SymplecticPair(self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other: "SymplecticPair") -> "SymplecticPair":
        return SymplecticPair(self.alpha - other.alpha, self.beta - other.beta)

    def norm2(self) -> float:
        return abs(self.alpha) ** 2 + abs(self.beta) ** 2

    def norm(self) -> float:
        return magnitude(abs(self.alpha), abs(self.beta))


def magnitude(abs_alpha: float, abs_beta: float) -> float:
    """|alpha + j beta| = sqrt(|alpha|^2 + |beta|^2) from the two magnitudes.

    Where the sum of squares falls below the smallest normal float, both are
    first divided by the larger one, so a nonzero pair never comes out 0."""
    u, v = abs_alpha, abs_beta
    total, scale = u ** 2 + v ** 2, max(u, v)
    if total < sys.float_info.min and scale > 0.0:
        return scale * math.sqrt((u / scale) ** 2 + (v / scale) ** 2)
    return math.sqrt(total)


@dataclass(frozen=True)
class UnitImaginaryDirection:
    """Unit imaginary quaternion n = n1 i + n2 j + n3 k."""

    n1: float
    n2: float
    n3: float

    def __post_init__(self) -> None:
        norm2 = self.n1 ** 2 + self.n2 ** 2 + self.n3 ** 2
        if abs(norm2 - 1.0) > _UNIT_TOL:
            raise InvalidDirectionError(
                f"direction ({self.n1}, {self.n2}, {self.n3}) is not unit "
                f"length: |n|^2 = {norm2}")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "UnitImaginaryDirection":
        """Direction (cos theta, sin theta cos phi, sin theta sin phi)."""
        st = math.sin(theta)
        return cls(math.cos(theta), st * math.cos(phi), st * math.sin(phi))
