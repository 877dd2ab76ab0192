"""Evaluate the scattered wave and its derivative over position.

Regions are named "left" (x < 0), "barrier" (0 <= x <= a) and "right"
(x > a).  In each region the field is a sum of plane waves
(alpha + j beta) e^{i k x}, and psi' is the same sum with each wave scaled by
i k.  _waves lists them as (k, alpha, beta): left (k0, 1, 0) and
(-k0, c1, c2), right (k0, c7, c8), barrier (+k_plus, c3, b3),
(-k_plus, c4, b4), (+k_minus, c5, b5) and (-k_minus, c6, b6) with
(b3, b4, b5, b6) the amplitudes' interior_beta (finite at every angle).
_eval sums the table with np.exp over an array of positions in one region;
continuity_residuals passes it the boundary positions 0 and a as arrays.

sample_field returns one FieldSamples record of arrays over an ascending
grid.  Each region is a contiguous slice of it, found by binary search, and
is evaluated in one array pass; FieldSample objects are built only when the
record is indexed or iterated.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import Amplitudes, BarrierSpec, require, window_rule
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
class FieldSamples(Sequence):
    """psi and psi' on a grid, held as arrays.

    x has shape (N,); region, shape (N,), indexes REGIONS; values, shape
    (4, N) complex, holds the rows psi.alpha, psi.beta, psi'.alpha and
    psi'.beta.  As a sequence its items are FieldSample objects, built when
    indexed or iterated; a slice is a FieldSamples.
    """

    x: np.ndarray
    region: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FieldSamples(self.x[index], self.region[index],
                                self.values[:, index])
        index = operator.index(index)
        return _sample(self.x[index].item(), self.region[index],
                       *self.values[:, index].tolist())

    def __iter__(self):
        return map(_sample, self.x.tolist(), self.region.tolist(),
                   *self.values.tolist())


def _waves(amps: Amplitudes, region: str) -> tuple[tuple, ...]:
    """The (k, alpha, beta) plane waves that make up the field in region."""
    d = amps.dispersion
    if region == LEFT:
        return ((d.k0, 1.0, 0.0), (-d.k0, amps.c1, amps.c2))
    if region == RIGHT:
        return ((d.k0, amps.c7, amps.c8),)
    if amps.interior_beta is None:
        raise ValueError("amplitudes carry no interior coefficients "
                         "(Taylor-route values cannot drive a field evaluation)")
    b3, b4, b5, b6 = amps.interior_beta
    return ((d.k_plus, amps.c3, b3), (-d.k_plus, amps.c4, b4),
            (d.k_minus, amps.c5, b5), (-d.k_minus, amps.c6, b6))


def _eval(x: np.ndarray, amps: Amplitudes, region: str) -> tuple[np.ndarray, ...]:
    """Rows (psi.alpha, psi.beta, psi'.alpha, psi'.beta) at the points x of region."""
    psi_a = psi_b = dpsi_a = dpsi_b = 0j
    for k, alpha, beta in _waves(amps, region):
        phase = np.exp(1j * k * x)
        psi_a += alpha * phase
        psi_b += beta * phase
        dpsi_a += 1j * k * alpha * phase
        dpsi_b += 1j * k * beta * phase
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
    rows = (outer - _eval(x, amps, BARRIER)).T.tolist()
    return tuple(magnitude(abs(d[i]), abs(d[i + 1])) for d in rows for i in (0, 2))


def sample_field(spec: BarrierSpec, amps: Amplitudes, x_min: float,
                 x_max: float, n_points: int) -> FieldSamples:
    """Sample psi and psi' on a uniform grid of n_points positions.

    Only regions the grid reaches are evaluated (Taylor amplitudes have no
    barrier waves)."""
    window_rule(require, x_min, x_max, n_points)
    xs = np.linspace(x_min, x_max, n_points)
    # the grid ascends, so each region is the slice between two cuts
    cuts = (0, int(np.searchsorted(xs, 0.0, "left")),
            int(np.searchsorted(xs, spec.a, "right")), n_points)
    values = np.empty((4, n_points), dtype=complex)
    for name, lo, hi in zip(REGIONS, cuts, cuts[1:]):
        if lo < hi:
            values[:, lo:hi] = _eval(xs[lo:hi], amps, name)
    region = np.repeat(np.arange(len(REGIONS)), np.diff(cuts))
    return FieldSamples(xs, region, values)
