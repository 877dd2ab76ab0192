"""Evaluate the scattered wave and its derivative over position.

Regions are named "left" (x < 0), "barrier" (0 <= x <= a) and "right"
(x > a).  In each region the field is a sum of terms (alpha + j beta) f(x),
and psi' is the same sum over f'(x).  Outside the barrier f is a plane wave
e^{i k x}: left (1, 0) at k0 and (c1, c2) at -k0, right (c7, c8) at k0.  In
the barrier each branch q = k_plus, k_minus has the entire basis cos(qx) and
i k0 sin(qx)/q (i k0 x at q = 0), weighted by (c3, b3) and (c4, b4) on
k_plus and (c5, b5) and (c6, b6) on k_minus, (b3, b4, b5, b6) the
amplitudes' interior_beta.  _eval sums the terms over an array of positions
in one region; continuity_residuals passes it the boundary positions 0 and
a as arrays.

sample_field returns one FieldSamples record of arrays over an ascending
grid, or over one block of its positions, each formed as np.linspace forms it,
so that blocks laid end to end give the whole grid bit for bit.  Each region is
a contiguous slice of it, found by binary search, and is evaluated in one array
pass; FieldSample objects are built only when the record is iterated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Amplitudes, BarrierSpec, cut_rule, require, window_rule
from .quaternion import SymplecticPair, magnitude

LEFT = "left"
BARRIER = "barrier"
RIGHT = "right"
REGIONS = (LEFT, BARRIER, RIGHT)


@dataclass(frozen=True)
class FieldSample:
    x: float
    psi: SymplecticPair
    dpsi: SymplecticPair
    region: str


def _sample(x, region, psi_a, psi_b, dpsi_a, dpsi_b) -> FieldSample:
    return FieldSample(x, SymplecticPair(psi_a, psi_b),
                       SymplecticPair(dpsi_a, dpsi_b), REGIONS[region])


@dataclass(frozen=True, eq=False)
class FieldSamples:
    """psi and psi' on a grid, held as arrays.

    x has shape (N,); region, shape (N,), indexes REGIONS; values, shape
    (4, N) complex, holds the rows psi.alpha, psi.beta, psi'.alpha and
    psi'.beta.  len() counts the points, and iteration yields them as
    FieldSample objects, built as they are reached.
    """

    x: np.ndarray
    region: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self):
        return map(_sample, self.x.tolist(), self.region.tolist(),
                   *self.values.tolist())


def _eval(x: np.ndarray, amps: Amplitudes, region: str) -> tuple[np.ndarray, ...]:
    """Rows (psi.alpha, psi.beta, psi'.alpha, psi'.beta) at the points x of region."""
    d = amps.dispersion
    terms = []      # ((alpha, beta), f, (alpha', beta'), g): psi += pair f, psi' += pair' g
    if region == BARRIER:
        b3, b4, b5, b6 = amps.interior_beta
        ik0 = 1j * d.k0
        for q, (ea, eb), (oa, ob) in ((d.k_plus, (amps.c3, b3), (amps.c4, b4)),
                                      (d.k_minus, (amps.c5, b5), (amps.c6, b6))):
            qx = q * x
            cos, sin = np.cos(qx), np.sin(qx)
            odd = (ik0 * oa, ik0 * ob)
            terms += [((ea, eb), cos, (-q * ea, -q * eb), sin),
                      (odd, sin / q if q else x, odd, cos)]
    else:
        for k, alpha, beta in (((d.k0, 1.0, 0.0), (-d.k0, amps.c1, amps.c2))
                               if region == LEFT else ((d.k0, amps.c7, amps.c8),)):
            f = np.exp(1j * k * x)
            terms.append(((alpha, beta), f, (1j * k * alpha, 1j * k * beta), f))
    psi_a = psi_b = dpsi_a = dpsi_b = 0j
    for (alpha, beta), f, (alpha1, beta1), g in terms:
        psi_a += alpha * f
        psi_b += beta * f
        dpsi_a += alpha1 * g
        dpsi_b += beta1 * g
    return psi_a, psi_b, dpsi_a, dpsi_b


def continuity_residuals(spec: BarrierSpec,
                         amps: Amplitudes) -> tuple[float, float, float, float]:
    """Mismatch norms (psi at 0, psi' at 0, psi at a, psi' at a).

    Each boundary is evaluated from both adjoining region formulas at the
    exact boundary position; all four vanish for a correctly solved
    amplitude set.
    """
    x = np.array([0.0, spec.a])
    outer = np.hstack((_eval(x[:1], amps, LEFT), _eval(x[1:], amps, RIGHT)))
    diff = outer - _eval(x, amps, BARRIER)      # _eval's rows, columns at 0 and a
    mags = np.hypot(diff.real, diff.imag)       # rounds as abs(complex)
    return tuple(magnitude(mags[0::2], mags[1::2]).T.ravel().tolist())


def sample_field(spec: BarrierSpec, amps: Amplitudes, x_min: float,
                 x_max: float, n_points: int, cut: slice = slice(None)) -> FieldSamples:
    """Sample psi and psi' on a uniform grid of n_points positions, at the
    positions in cut, an ascending slice of the grid (all of it by default).

    Only regions the positions reach are evaluated."""
    window_rule(require, x_min, x_max, n_points, spec.omega0)
    cut_rule(require, 1 if cut.step is None else cut.step)
    # np.linspace's float operations, with its branch for a step that underflows to 0
    span, div = x_max - x_min, n_points - 1
    step = span / div
    i = np.arange(*cut.indices(n_points))
    xs = i * step if step else i / div * span
    xs += x_min
    xs[i == div] = x_max
    # the positions ascend, so each region is the slice between two cuts
    cuts = (0, int(np.searchsorted(xs, 0.0, "left")),
            int(np.searchsorted(xs, spec.a, "right")), len(xs))
    values = np.empty((4, len(xs)), dtype=complex)
    for name, lo, hi in zip(REGIONS, cuts, cuts[1:]):
        if lo < hi:
            values[:, lo:hi] = _eval(xs[lo:hi], amps, name)
    region = np.arange(len(REGIONS)).repeat([hi - lo for lo, hi in zip(cuts, cuts[1:])])
    return FieldSamples(xs, region, values)
