"""Evaluate the scattered wave and its derivative over position.

Regions are named "left" (x < 0), "barrier" (0 <= x <= a) and "right"
(x > a).  The field is reconstructed from a solved amplitude object: the
exterior pieces from (c1, c2) and (c7, c8), the interior piece from the four
symplectic coefficient pairs attached to the amplitudes, which keeps the
evaluation finite at every angle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .model import Amplitudes, BarrierSpec
from .quaternion import SymplecticPair

LEFT = "left"
BARRIER = "barrier"
RIGHT = "right"


@dataclass(frozen=True)
class FieldSample:
    x: float
    psi: SymplecticPair
    dpsi: SymplecticPair
    region: str


def region_of(x: float, spec: BarrierSpec) -> str:
    if x < 0.0:
        return LEFT
    if x > spec.a:
        return RIGHT
    return BARRIER


def _interior_wavenumbers(amps: Amplitudes) -> tuple[float, float, float, float]:
    d = amps.dispersion
    return (d.k_plus, -d.k_plus, d.k_minus, -d.k_minus)


def _eval(x: float, spec: BarrierSpec, amps: Amplitudes, region: str,
          derivative: bool) -> SymplecticPair:
    k0 = amps.dispersion.k0
    if region == LEFT:
        fwd = cmath.exp(1j * k0 * x)
        bwd = cmath.exp(-1j * k0 * x)
        if derivative:
            return SymplecticPair(1j * k0 * fwd - 1j * k0 * amps.c1 * bwd,
                                  -1j * k0 * amps.c2 * bwd)
        return SymplecticPair(fwd + amps.c1 * bwd, amps.c2 * bwd)
    if region == RIGHT:
        fwd = cmath.exp(1j * k0 * x)
        if derivative:
            return SymplecticPair(1j * k0 * amps.c7 * fwd, 1j * k0 * amps.c8 * fwd)
        return SymplecticPair(amps.c7 * fwd, amps.c8 * fwd)
    if amps.interior is None:
        raise ValueError("amplitudes carry no interior coefficients "
                         "(Taylor-route values cannot drive a field evaluation)")
    alpha = 0j
    beta = 0j
    for pair, k in zip(amps.interior, _interior_wavenumbers(amps)):
        phase = cmath.exp(1j * k * x)
        if derivative:
            phase *= 1j * k
        alpha += pair.alpha * phase
        beta += pair.beta * phase
    return SymplecticPair(alpha, beta)


def psi(x: float, spec: BarrierSpec, amps: Amplitudes) -> SymplecticPair:
    """Field value at x for the solved amplitudes."""
    return _eval(x, spec, amps, region_of(x, spec), derivative=False)


def dpsi(x: float, spec: BarrierSpec, amps: Amplitudes) -> SymplecticPair:
    """Spatial derivative of the field at x."""
    return _eval(x, spec, amps, region_of(x, spec), derivative=True)


def continuity_residuals(spec: BarrierSpec,
                         amps: Amplitudes) -> tuple[float, float, float, float]:
    """Mismatch norms (psi at 0, psi' at 0, psi at a, psi' at a).

    Each boundary is evaluated from both adjoining region formulas at the
    exact boundary position; all four vanish for a correctly solved
    amplitude set.
    """
    out = []
    for x, lo, hi in ((0.0, LEFT, BARRIER), (spec.a, BARRIER, RIGHT)):
        for derivative in (False, True):
            below = _eval(x, spec, amps, lo, derivative)
            above = _eval(x, spec, amps, hi, derivative)
            out.append((below - above).norm())
    # order: psi(0), dpsi(0), psi(a), dpsi(a)
    return (out[0], out[1], out[2], out[3])


def sample_field(spec: BarrierSpec, amps: Amplitudes, x_min: float,
                 x_max: float, n_points: int) -> list[FieldSample]:
    """Sample psi and psi' on a uniform grid of n_points positions."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"need finite x_min < x_max, got [{x_min}, {x_max}]")
    samples = []
    for x in np.linspace(x_min, x_max, n_points):
        xf = float(x)
        region = region_of(xf, spec)
        samples.append(FieldSample(
            x=xf,
            psi=_eval(xf, spec, amps, region, derivative=False),
            dpsi=_eval(xf, spec, amps, region, derivative=True),
            region=region))
    return samples
