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

import numpy as np

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
        return abs(self.alpha) * abs(self.alpha) + abs(self.beta) * abs(self.beta)

    def norm(self) -> float:
        return float(magnitude(abs(self.alpha), abs(self.beta)))


def rescaled(u, v):
    """(scale, u / scale, v / scale) on broadcasting arrays of magnitudes: scale
    is 1 unless a nonzero pair's u^2 + v^2 falls below the smallest normal
    float or overflows, and there the larger of u and v, so the quotients'
    squares do neither.  Where that is inf, an infinite quotient is 1 and a
    finite one 0."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    big = np.maximum(u, v)
    with np.errstate(over="ignore"):
        square = u * u + v * v
    scale = np.where(((square < sys.float_info.min) & (big > 0.0)) | (square == math.inf),
                     big, 1.0)
    infinite = scale == math.inf
    with np.errstate(invalid="ignore"):     # inf / inf, replaced by 1
        return (scale, np.where(infinite, u == math.inf, u / scale),
                np.where(infinite, v == math.inf, v / scale))


def magnitude(abs_alpha, abs_beta):
    """|alpha + j beta| = sqrt(|alpha|^2 + |beta|^2) on broadcasting arrays of
    the two magnitudes (a float for two floats), squared after rescaled."""
    scale, u, v = rescaled(abs_alpha, abs_beta)
    return scale * np.sqrt(u * u + v * v)


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
