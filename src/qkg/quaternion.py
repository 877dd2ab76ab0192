"""Quaternion arithmetic and the symplectic (complex pair) representation.

A quaternion q = w + x i + y j + z k is stored as four reals and multiplied
with the Hamilton convention i j = k, j k = i, k i = j.  The rest of the
package works almost entirely in the symplectic split

    q = alpha + j beta,      alpha = w + x i,   beta = y - z i,

which packs a quaternion into two complex numbers.  The split is forced by
j i = -k: moving a complex number c through j conjugates it, j c = conj(c) j,
and that conjugation is what couples the two complex components of a
quaternionic wave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDirectionError

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion w + x i + y j + z k."""

    w: float
    x: float
    y: float
    z: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product (non-commutative)."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def scaled(self, s: float) -> "Quaternion":
        return Quaternion(s * self.w, s * self.x, s * self.y, s * self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


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
        return math.sqrt(self.norm2())


def split(q: Quaternion) -> SymplecticPair:
    """Symplectic components of q: alpha = w + x i, beta = y - z i."""
    return SymplecticPair(complex(q.w, q.x), complex(q.y, -q.z))


def join(pair: SymplecticPair) -> Quaternion:
    """Inverse of split: rebuild the quaternion alpha + j beta."""
    return Quaternion(pair.alpha.real, pair.alpha.imag,
                      pair.beta.real, -pair.beta.imag)


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

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.n1, self.n2, self.n3)
