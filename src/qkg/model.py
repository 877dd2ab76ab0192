"""Rectangular quaternionic barrier: parameters, dispersion, interior modes.

A massless complex Klein-Gordon wave hitting a rectangular potential is
generalized here by tilting the potential into an arbitrary imaginary
quaternion direction:

    [-(d/dt - n V(x))^2 + d^2/dx^2] phi = 0,
    V(x) = V0 for 0 <= x <= a, else 0,
    n = (cos theta) i + (sin theta cos phi) j + (sin theta sin phi) k.

For a stationary wave phi = C exp(i(kx - omega0 t)) with quaternionic
amplitude C = C_alpha + j C_beta the equation of motion reduces, inside the
barrier, to the 2x2 complex system

    [ omega0^2 + V0^2 - k^2 - 2 omega0 V0 n1      -2 omega0 V0 (n3 - i n2) ] [C_alpha]
    [ -2 omega0 V0 (n3 + i n2)   omega0^2 + V0^2 - k^2 + 2 omega0 V0 n1    ] [C_beta ] = 0

whose determinant vanishes only at k^2 = (omega0 +/- V0)^2.  Both interior
branches propagate (no evanescent solutions), with wavenumbers

    k_plus = |omega0 + V0|,    k_minus = |omega0 - V0|,

and amplitude ratios C_beta / C_alpha

    r_plus  = -(n1 + 1) / (n3 - i n2),
    r_minus = -(n1 - 1) / (n3 - i n2).

The raw ratios blow up as sin theta -> 0 (the complex limit, where the
potential direction aligns with i), so the package never stores them.  Every
formula downstream needs them only through three combinations that stay
finite for all angles, and only these are kept: mode_ratios returns them
as one tuple, which every route unpacks,

    w_plus  = r_plus  / (r_plus - r_minus) = cos^2(theta / 2)
    w_minus = r_minus / (r_plus - r_minus) = -sin^2(theta / 2)
    w_cross = r_plus r_minus / (r_plus - r_minus) = (i/2) sin(theta) e^{-i phi}

At V0 = omega0, the edge of the Klein zone V0 > omega0, k_minus = 0 and that
branch's solutions are 1 and x: every route writes a branch in the entire
basis {cos qx, sin(qx)/q}, so no V0 is degenerate.  Outside the barrier the
field is free and k0 = omega0.

Input rules live here, once.  A rule function takes check and the values it
checks, nothing else, and calls check(holds, message, *values) per rule; holds
is written in plain operators and finite, the one finiteness test, so it is a
bool on numbers (check = require) and a mask on arrays (require_each).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quaternion import UnitImaginaryDirection

def require(holds, message: str, *values) -> None:
    if not holds:
        raise ValueError(message.format(*values))


def finite(x):
    """math.isfinite or np.isfinite; False, not OverflowError, on a huge int."""
    return abs(x) <= sys.float_info.max


def require_each(rules, *arrays) -> None:
    """rules(require, *point) at each point of the broadcast arrays, every one
    of which some rule reads; the first invalid point in C order raises."""
    masks = []
    with np.errstate(over="ignore", invalid="ignore"):
        rules(lambda holds, *_: masks.append(holds), *(np.asarray(x, dtype=float) for x in arrays))
    ok = functools.reduce(operator.and_, masks)
    if not ok.all():
        point = (x.flat[ok.argmin()].item() for x in np.broadcast_arrays(*arrays))
        rules(require, *point)


def frequency_rule(check, omega0):
    check((omega0 > 0.0) & finite(omega0), "frequency must satisfy omega0 > 0, got {}", omega0)


def window_rule(check, x_min, x_max, n_points, omega0):
    """Rules of a sample grid: n_points >= 2 positions ascending from x_min to x_max, whose
    exterior phases omega0 x stay in the float range (barrier_rules bounds the interior's)."""
    check(n_points >= 2, "n_points must be >= 2, got {}", n_points)
    span = x_max - x_min
    check((span > 0.0) & finite(span), "need x_min < x_max with x_max - x_min in the "
          "float range, got [{}, {}]", x_min, x_max)
    check(finite(omega0 * x_min) & finite(omega0 * x_max), "window [{}, {}] at omega0 = {}: "
          "omega0 * max(|x_min|, |x_max|) leaves the float range", x_min, x_max, omega0)


def cut_rule(check, step):
    check(step > 0, "cut must ascend: its step must be > 0, got {}", step)


def slab_rules(check, width, v0, theta, phi):
    """Rules of Segment."""
    check((width >= 0.0) & finite(width), "width must be finite and >= 0, got {}", width)
    check((v0 >= 0.0) & finite(v0), "potential must satisfy v0 >= 0, got {}", v0)
    check((0.0 <= theta) & (theta <= math.pi), "theta must lie in [0, pi], got {}", theta)
    check((0.0 <= phi) & (phi < 2.0 * math.pi), "phi must lie in [0, 2 pi), got {}", phi)


def barrier_rules(check, width, v0, theta, phi, omega0):
    """Rules of BarrierSpec: Segment's, omega0's and the bounds past which the
    closed form overflows, or divides by a term that underflows to zero."""
    slab_rules(check, width, v0, theta, phi)
    frequency_rule(check, omega0)
    k = omega0 + v0
    check(finite(2.0 * width * k) & finite(16.0 * k * k) & (omega0 * omega0 >= sys.float_info.min),
          "a = {}, v0 = {}, omega0 = {} leave the float range: 2 a (omega0 + v0) and 16 "
          "(omega0 + v0)^2 must be finite and omega0^2 a normal float", width, v0, omega0)


def segment_rule(check, omega0, length, v0):
    """Rule of a segment at omega0: its fast phase length * (omega0 + v0) is finite."""
    check(finite(length * abs(omega0 + v0)), "segment with length = {}, v0 = {} at omega0 = "
          "{}: length * (omega0 + v0) leaves the float range", length, v0, omega0)


def gap_rule(check, gap):
    check((gap >= 0.0) & finite(gap), "gap must be >= 0, got {}", gap)


def total_rule(check, omega0, total):
    check(finite(omega0 * total), "stack of total length {} at omega0 = {}: omega0 * total "
          "length leaves the float range", total, omega0)


@dataclass(frozen=True)
class BarrierSpec:
    """Parameters of a single rectangular quaternionic barrier.

    Attributes
    ----------
    a : float
        Barrier width, >= 0.
    v0 : float
        Potential magnitude, >= 0.
    omega0 : float
        Wave frequency, > 0.  2 a (omega0 + v0) and 16 (omega0 + v0)^2 must
        be finite and omega0^2 a normal float.
    theta : float
        Polar angle of the potential direction, in [0, pi].
    phi : float
        Azimuthal angle, in [0, 2 pi).
    """

    a: float
    v0: float
    omega0: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        barrier_rules(require, self.a, self.v0, self.theta, self.phi, self.omega0)


class DispersionData(NamedTuple):
    """Exterior and interior wavenumbers of a spec."""

    k0: float
    k_plus: float
    k_minus: float


def wavenumbers(spec: BarrierSpec) -> DispersionData:
    """Wavenumbers k0 = omega0 and k_plus/minus = |omega0 +/- V0|.

    All three are reported non-negative; propagation direction is carried by
    the sign in the exponent, never by the wavenumber itself.
    """
    return DispersionData(spec.omega0, abs(spec.omega0 + spec.v0), abs(spec.omega0 - spec.v0))


def check_nondegenerate(spec: BarrierSpec) -> None:
    """Does nothing: every route answers at V0 = omega0, so no spec is degenerate.

    Kept so that code which calls or wraps it by name keeps working.
    """


def mode_ratios(theta, phi):
    """(w_plus, w_minus, w_cross) for the direction (theta, phi).

    The regular combinations are evaluated from their closed forms in the
    angles, which are finite and smooth everywhere:

        w_plus  = (1 + cos theta) / 2
        w_minus = (cos theta - 1) / 2
        w_cross = (i/2) sin(theta) e^{-i phi}

    On floats and numpy scalars, with math and cmath (Python complex); where
    theta or phi is an ndarray, the same formulas with numpy over the broadcast
    angles, w_plus and w_minus real and of theta's shape.
    """
    if isinstance(theta, np.ndarray) or isinstance(phi, np.ndarray):
        n1 = np.cos(theta)
        return (1.0 + n1) / 2.0, (n1 - 1.0) / 2.0, 0.5j * np.sin(theta) * np.exp(-1j * phi)
    n1 = math.cos(theta)
    return (complex((1.0 + n1) / 2.0), complex((n1 - 1.0) / 2.0),
            0.5j * math.sin(theta) * cmath.exp(-1j * phi))


def direction_coupling(n: UnitImaginaryDirection) -> np.ndarray:
    """2x2 involution N through which the direction couples the sectors.

    N = [[n1, n3 - i n2], [n3 + i n2, -n1]] satisfies N^2 = I.  Its +1
    eigenvectors are the k_minus modes (ratio r_minus) and its -1
    eigenvectors the k_plus modes (ratio r_plus).  The Hamilton product
    n * (alpha + j beta) * i acts on (alpha, beta) as -sz N sz,
    sz = diag(1, -1); tests/test_quaternion.py checks this against the
    full quaternion product.
    """
    off = complex(n.n3, -n.n2)
    return np.array([[n.n1, off], [off.conjugate(), -n.n1]], dtype=complex)


class Amplitudes(NamedTuple):
    """Scattering amplitudes c1..c8 of one barrier, from any route.

    route names the formula used: "regularized" (matching solve) or "exact"
    (closed form), at every angle.

    c3..c6 are the alpha parts of the interior field in the entire basis
    {cos qx, sin(qx)/q} of each branch q: c3 and c5 belong to the k_plus and
    k_minus components of psi(0), c4 and c6 to those of psi'(0) / (i k0), and
    all four are finite at every V0, k_minus = 0 included.  interior_beta holds
    the matching beta parts: w_cross times the alpha part over w_minus
    (k_plus) or w_plus (k_minus), formed without dividing, so finite at every
    theta.  The matching solve also reports condition (1-norm condition
    number of M) and solution (the solved unknowns u); the closed form leaves
    them None.  A NamedTuple, as are DispersionData and matcher.MatchingSystem
    (_replace, _fields, _asdict); == compares by value, and raises on a solution.
    """

    c1: complex
    c2: complex
    c3: complex
    c4: complex
    c5: complex
    c6: complex
    c7: complex
    c8: complex
    dispersion: DispersionData
    route: str
    interior_beta: tuple[complex, complex, complex, complex]
    condition: float | None = None
    solution: np.ndarray | None = None

    def as_array(self) -> np.ndarray:
        return np.array(self[:8], dtype=complex)
