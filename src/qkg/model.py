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
potential direction aligns with i), but every physical formula downstream
needs them only through three combinations that stay finite for all angles:

    w_plus  = r_plus  / (r_plus - r_minus) = cos^2(theta / 2)
    w_minus = r_minus / (r_plus - r_minus) = -sin^2(theta / 2)
    w_cross = r_plus r_minus / (r_plus - r_minus) = (i/2) sin(theta) e^{-i phi}

Outside the barrier the field is free and k0 = omega0.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ComplexLimitDegeneracyError, DegenerateWavenumberError
from .quaternion import SymplecticPair, UnitImaginaryDirection

# Raw mode ratios are withheld below this value of sin(theta).
EPS_THETA = 1e-9

# Relative half-width of the rejected band around V0 = omega0.
EPS_K_REL = 1e-9


def check_layer(width: float, v0: float, theta: float, phi: float) -> None:
    """Reject a constant-potential slab outside the valid parameter ranges.

    Raises ValueError unless width >= 0 and v0 >= 0 are finite, theta lies
    in [0, pi] and phi in [0, 2 pi).  NaN fails every check.
    """
    if not (width >= 0.0 and math.isfinite(width)):
        raise ValueError(f"width must be finite and >= 0, got {width}")
    if not (v0 >= 0.0 and math.isfinite(v0)):
        raise ValueError(f"potential must satisfy v0 >= 0, got {v0}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi must lie in [0, 2 pi), got {phi}")


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
        check_layer(self.a, self.v0, self.theta, self.phi)
        if not (self.omega0 > 0.0 and math.isfinite(self.omega0)):
            raise ValueError(f"frequency must satisfy omega0 > 0, got {self.omega0}")
        # Past these bounds the closed form overflows, or divides by a term
        # that underflows to zero.
        k = self.omega0 + self.v0
        if not (math.isfinite(2.0 * self.a * k) and math.isfinite(16.0 * k * k)
                and self.omega0 * self.omega0 >= sys.float_info.min):
            raise ValueError(
                f"a = {self.a}, v0 = {self.v0}, omega0 = {self.omega0} leave "
                "the float range: 2 a (omega0 + v0) and 16 (omega0 + v0)^2 "
                "must be finite and omega0^2 a normal float")

    def direction(self) -> UnitImaginaryDirection:
        return UnitImaginaryDirection.from_angles(self.theta, self.phi)


@dataclass(frozen=True)
class DispersionData:
    """Exterior and interior wavenumbers of a spec."""

    k0: float
    k_plus: float
    k_minus: float


def wavenumbers(spec: BarrierSpec) -> DispersionData:
    """Wavenumbers k0 = omega0 and k_plus/minus = |omega0 +/- V0|.

    All three are reported non-negative; propagation direction is carried by
    the sign in the exponent, never by the wavenumber itself.
    """
    return DispersionData(
        k0=spec.omega0,
        k_plus=abs(spec.omega0 + spec.v0),
        k_minus=abs(spec.omega0 - spec.v0),
    )


def check_nondegenerate(spec: BarrierSpec) -> None:
    """Reject specs whose slow interior branch stops propagating.

    Raises DegenerateWavenumberError when |omega0 - V0| < EPS_K_REL * omega0.
    """
    if abs(spec.omega0 - spec.v0) < EPS_K_REL * spec.omega0:
        raise DegenerateWavenumberError(
            f"k_minus ~ 0 for v0 = {spec.v0}, omega0 = {spec.omega0}; the "
            "four-plane-wave interior basis degenerates")


@dataclass(frozen=True)
class ModeRatios:
    """Interior amplitude ratios and their regular combinations.

    w_plus, w_minus and w_cross are defined for every direction.  The raw
    ratios r_plus and r_minus exist only away from the complex limit;
    accessing them at sin(theta) <= eps_theta raises
    ComplexLimitDegeneracyError.
    """

    w_plus: complex
    w_minus: complex
    w_cross: complex
    raw_plus: complex | None = field(default=None, repr=False)
    raw_minus: complex | None = field(default=None, repr=False)

    @property
    def r_plus(self) -> complex:
        if self.raw_plus is None:
            raise ComplexLimitDegeneracyError(
                "raw r_plus diverges at sin(theta) ~ 0; use w_plus, w_minus, "
                "w_cross instead")
        return self.raw_plus

    @property
    def r_minus(self) -> complex:
        if self.raw_minus is None:
            raise ComplexLimitDegeneracyError(
                "raw r_minus is withheld at sin(theta) ~ 0; use w_plus, "
                "w_minus, w_cross instead")
        return self.raw_minus


def mode_ratios(theta: float, phi: float, eps_theta: float = EPS_THETA) -> ModeRatios:
    """Mode ratios for the direction (theta, phi).

    The regular combinations are evaluated from their closed forms in the
    angles, which are finite and smooth everywhere:

        w_plus  = (1 + cos theta) / 2
        w_minus = (cos theta - 1) / 2
        w_cross = (i/2) sin(theta) e^{-i phi}

    Raw ratios are attached only when sin(theta) > eps_theta.
    """
    n = UnitImaginaryDirection.from_angles(theta, phi)
    st = math.sin(theta)
    w_plus = complex((1.0 + n.n1) / 2.0)
    w_minus = complex((n.n1 - 1.0) / 2.0)
    w_cross = 0.5j * st * cmath.exp(-1j * phi)
    raw_plus = raw_minus = None
    if st > eps_theta:
        denom = complex(n.n3, -n.n2)
        raw_plus = -(n.n1 + 1.0) / denom
        raw_minus = -(n.n1 - 1.0) / denom
    return ModeRatios(w_plus, w_minus, w_cross, raw_plus, raw_minus)


def direction_coupling(n: UnitImaginaryDirection) -> np.ndarray:
    """2x2 involution N through which the direction couples the sectors.

    N = [[n1, n3 - i n2], [n3 + i n2, -n1]] satisfies N^2 = I.  Its +1
    eigenvectors are the k_minus modes (ratio r_minus) and its -1
    eigenvectors the k_plus modes (ratio r_plus).
    """
    off = complex(n.n3, -n.n2)
    return np.array([[n.n1, off], [off.conjugate(), -n.n1]], dtype=complex)


def interior_matrix(k: float, spec: BarrierSpec) -> np.ndarray:
    """2x2 mode matrix of the interior equation at wavenumber k.

    (omega0^2 + V0^2 - k^2) I - 2 omega0 V0 N; singular exactly at k_plus
    and k_minus.
    """
    w0, v0 = spec.omega0, spec.v0
    base = w0 * w0 + v0 * v0 - k * k
    return base * np.eye(2, dtype=complex) - (2.0 * w0 * v0) * direction_coupling(spec.direction())


def free_matrix(k: float, spec: BarrierSpec) -> np.ndarray:
    """2x2 mode matrix outside the barrier: (omega0^2 - k^2) I."""
    return (spec.omega0 ** 2 - k * k) * np.eye(2, dtype=complex)


def dispersion_residual(k: float, spec: BarrierSpec, c: SymplecticPair,
                        inside: bool = True) -> float:
    """Euclidean norm of the mode-equation residual for amplitude pair c.

    Zero exactly when (k, c) is a valid plane-wave mode of the region.
    """
    m = interior_matrix(k, spec) if inside else free_matrix(k, spec)
    vec = np.array([c.alpha, c.beta], dtype=complex)
    return float(np.linalg.norm(m @ vec))


def interior_pairs(ratios: ModeRatios, d) -> tuple[SymplecticPair, ...]:
    """Symplectic (alpha, beta) coefficients of the four interior modes.

    d holds the pre-scaled interior unknowns d3..d6 of the regularized
    matching system (c3 = w_minus d3, c4 = w_minus d4, c5 = w_plus d5,
    c6 = w_plus d6).  The pairs come in the order (+k_plus, -k_plus,
    +k_minus, -k_minus); their beta entries use w_cross, never the raw
    ratios, so they stay finite at every theta.
    """
    wp, wm, wx = ratios.w_plus, ratios.w_minus, ratios.w_cross
    return tuple(SymplecticPair(complex(w * di), complex(wx * di))
                 for w, di in zip((wm, wm, wp, wp), d))


@dataclass(frozen=True, eq=False)
class Amplitudes:
    """Scattering amplitudes c1..c8 of one barrier, from any route.

    route names the formula used: "regularized" or "raw" (matching solve),
    "exact" or, at a pole, "complex-limit" (closed forms), "taylor"
    (small-parameter expansion).  interior holds the pairs of
    interior_pairs, None on the Taylor route.  The matching solve also
    reports residual (infinity norm of rhs - M u), condition (1-norm
    condition number of M) and solution (the solved unknowns u); the other
    routes leave them None.
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
    ratios: ModeRatios
    route: str
    interior: tuple[SymplecticPair, ...] | None
    residual: float | None = None
    condition: float | None = None
    solution: np.ndarray | None = None

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3, self.c4,
                         self.c5, self.c6, self.c7, self.c8], dtype=complex)
