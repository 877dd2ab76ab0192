"""Build and solve the 8x8 wave-matching system of a single barrier.

A unit wave exp(i(k0 x - omega0 t)) comes in from the left.  The ansatz is

    x < 0:        psi = e^{i k0 x} + (c1 + j c2) e^{-i k0 x}
    0 <= x <= a:  psi = (1 + j r_plus)(c3 e^{i k+ x} + c4 e^{-i k+ x})
                      + (1 + j r_minus)(c5 e^{i k- x} + c6 e^{-i k- x})
    x > a:        psi = (c7 + j c8) e^{i k0 x}

Continuity of psi and psi' at x = 0 and x = a, split into alpha and beta
components, gives eight complex equations for c1..c8.  Written verbatim
they carry the raw ratios r_plus/minus, which diverge in the complex limit.
The system is therefore assembled in regularized form: interior unknowns
are pre-scaled, c3 = w_minus d3, c4 = w_minus d4, c5 = w_plus d5,
c6 = w_plus d6, which replaces the ratio products in the alpha rows by
w_plus/minus.  The beta rows then carry a common factor w_cross, which is
divided out by additionally rescaling the quaternionic exterior unknowns,
c2 = w_cross e2 and c8 = w_cross e8.  Every matrix entry is then bounded by
max(1, k) for all theta in [0, pi], the system stays nonsingular at both
poles, and c2 = c8 = 0 is recovered exactly in the complex limit.  The
verbatim system survives only as the reference transcription in qkg.verify.

The solver forms the explicit inverse (LAPACK LU with partial pivoting),
applies it to the right-hand side and adds one step of iterative refinement
when the backward error calls for it.  The inverse also gives the 1-norm
condition number, which doubles as the singularity gate: the LU factors
satisfy U^-1 = M^-1 P^T L with every |L_ij| <= 1, so cond_1 >= 1 / (8 rho)
where rho is the smallest pivot over the largest matrix entry.  Rejecting
cond_1 >= 1 / (8 _PIVOT_FLOOR) therefore rejects every matrix whose pivot
ratio falls below _PIVOT_FLOOR.

Both gates read their matrix norms from one |M|: its largest column sum is
||M||_1 for the condition number and its largest row sum ||M||_inf for the
backward error, which also needs only ||rhs||_inf = max(1, k0).  These are
the float operations np.linalg.norm performs, so every gate and every answer
is bit-identical to a norm-by-norm evaluation; qkg.verify keeps one for its
backward-error criterion.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .model import (
    Amplitudes,
    BarrierSpec,
    DispersionData,
    ModeRatios,
    check_nondegenerate,
    mode_ratios,
    wavenumbers,
)

log = logging.getLogger(__name__)

# Solver gates.
_PIVOT_FLOOR = 1e-14          # times the largest matrix entry
_COND_REJECT = 1.0 / (8.0 * _PIVOT_FLOOR)
_REFINE_TRIGGER = 1e-12       # backward error that triggers refinement
_RESIDUAL_ACCEPT = 1e-10      # backward error beyond which the solve fails
_COND_WARN = 1e8

REGULARIZED = "regularized"

# the ufunc reductions behind np.linalg.norm, called without the ndarray
# method wrappers, which cost a few microseconds per scalar solve
_sum, _max = np.add.reduce, np.maximum.reduce


@dataclass(frozen=True, eq=False)
class MatchingSystem:
    """One assembled linear system M u = rhs.

    column_scale maps the solved unknowns back to the physical amplitudes,
    c_i = column_scale[i] * u_i.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    column_scale: np.ndarray
    spec: BarrierSpec
    dispersion: DispersionData
    ratios: ModeRatios


def build_system(spec: BarrierSpec) -> MatchingSystem:
    """Assemble the regularized matching system for spec; any direction."""
    check_nondegenerate(spec)
    disp = wavenumbers(spec)
    ratios = mode_ratios(spec.theta, spec.phi)
    k0, kp, km = disp.k0, disp.k_plus, disp.k_minus
    ep = np.exp(1j * spec.a * kp)
    em = np.exp(1j * spec.a * km)
    e0 = np.exp(1j * spec.a * k0)
    wp, wm, wx = ratios.w_plus, ratios.w_minus, ratios.w_cross

    # one flat fill; the entries keep their scalar arithmetic, so every bit
    # matches a row-by-row assembly
    m = np.array((
        1, 0, -wm, -wm, -wp, -wp, 0, 0,
        0, 1, -1, -1, -1, -1, 0, 0,
        -k0, 0, -kp * wm, kp * wm, -km * wp, km * wp, 0, 0,
        0, -k0, -kp, kp, -km, km, 0, 0,
        0, 0, ep * wm, wm / ep, em * wp, wp / em, -e0, 0,
        0, 0, ep, 1 / ep, em, 1 / em, 0, -e0,
        0, 0, kp * ep * wm, -kp * wm / ep, km * em * wp, -km * wp / em, -k0 * e0, 0,
        0, 0, kp * ep, -kp / ep, km * em, -km / em, 0, -k0 * e0,
    ), dtype=complex).reshape(8, 8)
    column_scale = np.array([1, wx, wm, wm, wp, wp, 1, wx], dtype=complex)

    rhs = -np.array([1, 0, k0, 0, 0, 0, 0, 0], dtype=complex)
    return MatchingSystem(matrix=m, rhs=rhs, column_scale=column_scale,
                          spec=spec, dispersion=disp, ratios=ratios)


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
    abs_m = np.abs(m)
    condition = float(_max(_sum(abs_m, 0)) * _max(_sum(np.abs(inverse), 0)))
    if not condition < _COND_REJECT:
        raise SingularSystemError(
            f"matching matrix is numerically singular (cond_1 {condition:.3e})")
    # backward error ||r|| / (||M|| ||u|| + ||rhs||) in the infinity norm;
    # ||rhs|| = max(1, k0), as rhs = -(1, 0, k0, 0, ...)
    norm_m = float(_max(_sum(abs_m, 1)))
    norm_rhs = max(1.0, system.dispersion.k0)
    u = inverse @ rhs
    r = rhs - m @ u
    residual = float(_max(np.abs(r)))
    err = residual / (norm_m * float(_max(np.abs(u))) + norm_rhs)
    if err > _REFINE_TRIGGER:
        u = u + inverse @ r
        r = rhs - m @ u
        residual = float(_max(np.abs(r)))
        err = residual / (norm_m * float(_max(np.abs(u))) + norm_rhs)
    if err > _RESIDUAL_ACCEPT:
        raise SingularSystemError(
            f"matching solve did not converge: backward error {err:.3e}")
    if condition > _COND_WARN:
        log.warning("matching matrix badly conditioned: cond_1 = %.3e "
                    "(theta=%.6g)", condition, system.spec.theta)

    c1, c2, c3, c4, c5, c6, c7, c8 = (system.column_scale * u).tolist()
    wx = system.ratios.w_cross
    d3, d4, d5, d6 = u[2:6].tolist()
    return Amplitudes(
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c7=c7, c8=c8,
        dispersion=system.dispersion, ratios=system.ratios, route=REGULARIZED,
        interior_beta=(wx * d3, wx * d4, wx * d5, wx * d6), residual=residual,
        condition=condition, solution=u)


def solve_spec(spec: BarrierSpec) -> Amplitudes:
    """Convenience wrapper: build and solve in one call."""
    return solve(build_system(spec))

