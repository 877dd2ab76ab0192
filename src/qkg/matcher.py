"""Build and solve the 8x8 wave-matching system of a single barrier.

A unit wave exp(i(k0 x - omega0 t)) comes in from the left.  Inside the
barrier each branch q = k_plus, k_minus has the entire basis
{cos qx, sin(qx)/q}, which is 1 and x at q = 0:

    x < 0:        psi = e^{i k0 x} + (c1 + j c2) e^{-i k0 x}
    0 <= x <= a:  psi = sum over q of P_q (psi(0) cos(qx) + psi'(0) sin(qx)/q)
    x > a:        psi = (c7 + j c8) e^{i k0 x}

P_q projects onto the branch, of (alpha, beta) direction (1, r_q).  c3, c5
are the alpha parts of the k_plus, k_minus components of psi(0), c4, c6
those of psi'(0) / (i k0).  Continuity of psi and psi' at x = 0 and x = a,
in alpha and beta parts, gives eight equations.  Written verbatim they carry
the raw ratios r_plus/minus, which diverge in the complex limit, so the
interior unknowns are pre-scaled by w_minus (k_plus) and w_plus (k_minus),
which puts w_plus/minus in the alpha rows and a common factor w_cross in the
beta rows.  That factor is divided out by rescaling c2 = w_cross e2 and
c8 = w_cross e8: the system stays nonsingular at both poles, and
c2 = c8 = 0 exactly in the complex limit.

Diagonal scales balance it in omega0, V0 and a: the psi'(0) unknowns are
psi'(0) / (i max(k0, q)), on the k_minus branch at most |q / sin(qa)|, the
transmitted ones c7 e^{i k0 a} and c8 e^{i k0 a}, and the psi' rows are
divided by i k_plus (k_plus >= k0, q).  Every entry is then at most 1, the
right-hand side is -(1, 0, k0 / k_plus, 0, ...), and each phase q a is
formed as the closed form forms it.  The verbatim system survives only as
the reference transcription in qkg.verify.

The solver forms the explicit inverse (LAPACK LU with partial pivoting),
applies it to the right-hand side and adds one step of iterative refinement
when the backward error calls for it.  The inverse also gives the 1-norm
condition number, which doubles as the singularity gate: the LU factors
satisfy U^-1 = M^-1 P^T L with every |L_ij| <= 1, so cond_1 >= 1 / (8 rho)
where rho is the smallest pivot over the largest matrix entry.  Rejecting
cond_1 >= 1 / (8 _PIVOT_FLOOR) therefore rejects every matrix whose pivot
ratio falls below _PIVOT_FLOOR.

Both gates read their norms from one np.abs of (M, M^-1) and their maxima from
Python lists: the largest column sums give cond_1, the largest row sum of |M|
||M||_inf for the backward error.  A NaN in M makes inv raise or the first
column of M^-1 NaN, so cond_1 is NaN, though max skips a NaN not first in its
list.  build_system copies a flat template of M, rhs and the scales and fills
the 37 entries that depend on the spec with one indexed assignment, each the
scalar expression of a row-by-row assembly.  No float operation differs from a
row-by-row, norm-by-norm evaluation, so every gate and answer is bit-identical
to it; qkg.verify keeps one for its backward-error criterion.
"""

from __future__ import annotations

import cmath
import logging
import math
from typing import NamedTuple

import numpy as np

from .errors import SingularSystemError
from .model import Amplitudes, BarrierSpec, DispersionData, mode_ratios, wavenumbers

log = logging.getLogger(__name__)
# The library logs warnings only; an application decides where they go.
log.addHandler(logging.NullHandler())

# Solver gates.
_PIVOT_FLOOR = 1e-14          # times the largest matrix entry
_COND_REJECT = 1.0 / (8.0 * _PIVOT_FLOOR)
_REFINE_TRIGGER = 1e-12       # backward error that triggers refinement
_RESIDUAL_ACCEPT = 1e-10      # backward error beyond which the solve fails
_COND_WARN = 1e8

REGULARIZED = "regularized"

# matrix (row-major), rhs, column_scale, beta_scale; build_system fills each _
_ = math.nan
_FIXED = np.array((1, 0, _, 0, _, 0, 0, 0,
                   0, 1, -1, 0, -1, 0, 0, 0,
                   _, 0, 0, _, 0, _, 0, 0,
                   0, _, 0, -1, 0, _, 0, 0,
                   0, 0, _, _, _, _, -1, 0,
                   0, 0, _, _, _, _, 0, -1,
                   0, 0, _, _, _, _, _, 0,
                   0, 0, _, _, _, _, 0, _,
                   1, 0, _, 0, 0, 0, 0, 0,
                   1, _, _, _, _, _, _, _, _, _, _, _), dtype=complex)
_FIXED[64:72] = -_FIXED[64:72]          # rhs = -(1, 0, _, 0, ...) in complex: -0 - 0j zeros
_FILLED = np.flatnonzero(np.isnan(_FIXED))
del _

# np.linalg.norm's ufunc reduction, without the ndarray method wrapper's few us a solve
_sum = np.add.reduce


class MatchingSystem(NamedTuple):
    """One assembled linear system M u = rhs.

    column_scale maps the solved unknowns back to the physical amplitudes,
    c_i = column_scale[i] * u_i, and beta_scale the interior unknowns u_2..u_5
    to interior_beta.  A NamedTuple (copy with _replace); == raises on its arrays.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    column_scale: np.ndarray
    beta_scale: np.ndarray
    spec: BarrierSpec
    dispersion: DispersionData


def build_system(spec: BarrierSpec) -> MatchingSystem:
    """Assemble the regularized matching system for spec; any direction, any V0."""
    disp = wavenumbers(spec)
    wp, wm, wx = mode_ratios(spec.theta, spec.phi)
    k0, kp, km, a = disp.k0, disp.k_plus, disp.k_minus, spec.a
    cp, sp, cm, sm = math.cos(kp * a), math.sin(kp * a), math.cos(km * a), math.sin(km * a)
    # the k_minus psi'(0) in units of i um, with |um sin(qa)/q| <= 1 also
    # where that branch grows linearly across a wide barrier
    slow = sm / km if km else a
    um = max(k0, km) if max(k0, km) * abs(slow) <= 1.0 else 1.0 / abs(slow)
    lm = um * slow
    x0, xm, xu = k0 / kp, km / kp, um / kp

    back = cmath.exp(-1j * a * k0)
    # beta_scale = wx (1, kp/k0, 1, um/k0), complex by complex on every Python version
    t = _FIXED.copy()
    t[_FILLED] = (-wm, -wp, -x0, -wm, -wp * xu, -x0, -xu,
                  wm * cp, 1j * wm * sp, wp * cm, 1j * wp * lm, cp, 1j * sp, cm, 1j * lm,
                  1j * wm * sp, wm * cp, 1j * wp * xm * sm, wp * xu * cm, -x0,
                  1j * sp, cp, 1j * xm * sm, xu * cm, -x0, -complex(x0),
                  wx, wm, wm * kp / k0, wp, wp * um / k0, back, wx * back,
                  wx * (1 + 0j), wx * complex(kp / k0), wx * (1 + 0j), wx * complex(um / k0))
    return MatchingSystem(t[:64].reshape(8, 8), t[64:72], t[72:80], t[80:], spec, disp)


def solve(system: MatchingSystem) -> Amplitudes:
    """Solve a matching system and map back to physical amplitudes.

    Raises SingularSystemError for a singular or near-singular matrix, or
    when the backward error stays above _RESIDUAL_ACCEPT.  BarrierSpec's
    float-range rule keeps every entry finite.
    """
    m, rhs = system.matrix, system.rhs
    try:
        inverse = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"matching matrix is singular: {exc}") from exc
    abs_mi = np.abs((m, inverse))
    sums_m, sums_mi = _sum(abs_mi, 1).tolist()
    condition = max(sums_m) * max(sums_mi)      # ||M||_1 ||M^-1||_1
    if not condition < _COND_REJECT:
        raise SingularSystemError(
            f"matching matrix is numerically singular (cond_1 {condition:.3e})")
    # backward error ||r|| / (||M|| ||u|| + ||rhs||) in the infinity norm, ||rhs|| = 1 as
    # k0 <= k_plus; past the gate every entry is finite, so max() of a list is numpy's max
    norm_m = max(_sum(abs_mi[0], 1).tolist())
    u = inverse @ rhs
    r = rhs - m @ u
    err = max(np.abs(r).tolist()) / (norm_m * max(np.abs(u).tolist()) + 1.0)
    if err > _REFINE_TRIGGER:
        u = u + inverse @ r
        r = rhs - m @ u
        err = max(np.abs(r).tolist()) / (norm_m * max(np.abs(u).tolist()) + 1.0)
    if err > _RESIDUAL_ACCEPT:
        raise SingularSystemError(
            f"matching solve did not converge: backward error {err:.3e}")
    if condition > _COND_WARN:
        log.warning("matching matrix badly conditioned: cond_1 = %.3e "
                    "(theta=%.6g)", condition, system.spec.theta)

    # Amplitudes' fields in order, interior_beta the u_2..u_5 times beta_scale
    return Amplitudes(*(system.column_scale * u).tolist(), system.dispersion, REGULARIZED,
                      tuple((system.beta_scale * u[2:6]).tolist()), condition, u)


def solve_spec(spec: BarrierSpec) -> Amplitudes:
    """Convenience wrapper: build and solve in one call."""
    return solve(build_system(spec))

