"""Closed-form scattering amplitudes of the quaternionic barrier.

The matching system factorizes into two ordinary complex barrier problems,
one per interior branch.  For a scalar barrier of width a with interior
wavenumber q and exterior wavenumber k0, matching a unit incident wave gives

    S(q)   = (q^2 + k0^2) sin(aq) + 2 i k0 q cos(aq)
    r(q)   = (k0^2 - q^2) sin(aq) / S(q)                 (reflection)
    t(q)   = 2 i k0 q e^{-i a k0} / S(q)                 (transmission)
    D(q)   = -(q + k0)^2 + (q - k0)^2 e^{2 i a q}
    A(q)   = -2 k0 (q + k0) / D(q)                       (interior forward)
    B(q)   = -2 k0 (q - k0) e^{2 i a q} / D(q)           (interior backward)

S and D never vanish for positive wavenumbers (their real and imaginary
parts cannot be zero simultaneously), so there is no exponential damping in
the barrier: both branches propagate for any width.

The quaternionic amplitudes are angle-weighted superpositions of the two
branch problems, with all direction dependence carried by the regular
combinations w_plus, w_minus, w_cross:

    c1 = w_plus r(k-) - w_minus r(k+)      c7 = w_plus t(k-) - w_minus t(k+)
    c2 = w_cross (r(k-) - r(k+))           c8 = w_cross (t(k-) - t(k+))
    c3 = -w_minus A(k+)                    c5 = w_plus A(k-)
    c4 = -w_minus B(k+)                    c6 = w_plus B(k-)

In the complex limit theta -> 0 this collapses to the scalar k_minus
problem: c2 = c8 = 0, c1 = r(k-), c7 = t(k-), and |c1|^2 + |c7|^2 = 1.
A first-order expansion in small (theta, a, V0) gives the leading behavior

    c1 = -i a V0                 c5 = 1 + V0 / (2 omega0)
    c2 = a theta e^{-i phi} V0   c6 = -V0 / (2 omega0) - i a V0
    c3 = c4 = 0                  c7 = 1 - i a V0
                                 c8 = a theta e^{-i phi} V0

so a quaternionic barrier leaks a transmitted beta component linear in each
of the three small parameters.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import UndefinedFractionError
from .model import (
    EPS_THETA,
    Amplitudes,
    BarrierSpec,
    check_nondegenerate,
    interior_pairs,
    mode_ratios,
    require_each,
    slab_rules,
    wavenumbers,
)

EXACT = "exact"
COMPLEX_LIMIT = "complex-limit"
TAYLOR = "taylor"


def _branch(q, k0, a, sin=math.sin, cos=math.cos, exp=cmath.exp):
    """Scalar barrier amplitudes (r, t, A, B) for interior wavenumber q."""
    sq = sin(a * q)
    cq = cos(a * q)
    s = (q * q + k0 * k0) * sq + 2j * k0 * q * cq
    r = (k0 * k0 - q * q) * sq / s
    t = 2j * k0 * q * exp(-1j * a * k0) / s
    ph2 = exp(2j * a * q)
    d = -((q + k0) ** 2) + ((q - k0) ** 2) * ph2
    fwd = -2.0 * k0 * (q + k0) / d
    bwd = -2.0 * k0 * (q - k0) * ph2 / d
    return r, t, fwd, bwd


def _exterior(wp, wm, wx, rp, tp, rm, tm):
    """(c1, c2, c7, c8) from the k_plus and k_minus branch amplitudes."""
    return wp * rm - wm * rp, wx * (rm - rp), wp * tm - wm * tp, wx * (tm - tp)


def amplitudes_closed(spec: BarrierSpec) -> Amplitudes:
    """Evaluate the exact closed-form amplitudes for spec.

    Valid for every theta in [0, pi]; only the regular angle combinations
    enter, so the poles need no special casing.  The route is
    "complex-limit" at a pole and "exact" elsewhere.
    """
    check_nondegenerate(spec)
    disp = wavenumbers(spec)
    ratios = mode_ratios(spec.theta, spec.phi)
    wp, wm, wx = ratios.w_plus, ratios.w_minus, ratios.w_cross
    rp, tp, ap, bp = _branch(disp.k_plus, disp.k0, spec.a)
    rm, tm, am, bm = _branch(disp.k_minus, disp.k0, spec.a)
    c1, c2, c7, c8 = _exterior(wp, wm, wx, rp, tp, rm, tm)

    # Pre-scaled interior coefficients shared with the matching solver.
    d3, d4, d5, d6 = -ap, -bp, am, bm
    route = COMPLEX_LIMIT if math.sin(spec.theta) <= EPS_THETA else EXACT
    return Amplitudes(
        c1=c1, c2=c2, c3=wm * d3, c4=wm * d4, c5=wp * d5, c6=wp * d6,
        c7=c7, c8=c8,
        dispersion=disp, ratios=ratios, route=route,
        interior=interior_pairs(ratios, (d3, d4, d5, d6)))


def exterior_amplitudes_grid(a, v0, omega0, theta, phi):
    """amplitudes_closed's (c1, c2, c7, c8), in numpy over broadcast arrays.

    The same formulas with numpy's sin, cos and exp: the two agree to
    rounding, and c2 = c8 = 0 exactly at theta = 0.  Raises what BarrierSpec
    and check_nondegenerate raise at the first invalid point in C order."""
    require_each(slab_rules, a, v0, theta, phi, omega0, solvable=True)
    n1 = np.cos(theta)
    wp, wm = (1.0 + n1) / 2.0, (n1 - 1.0) / 2.0
    wx = 0.5j * np.sin(theta) * np.exp(-1j * phi)
    rp, tp, _, _ = _branch(np.abs(omega0 + v0), omega0, a, np.sin, np.cos, np.exp)
    rm, tm, _, _ = _branch(np.abs(omega0 - v0), omega0, a, np.sin, np.cos, np.exp)
    return np.broadcast_arrays(*_exterior(wp, wm, wx, rp, tp, rm, tm))


def amplitudes_taylor(spec: BarrierSpec) -> Amplitudes:
    """First-order amplitudes in small (theta, a, V0).

    Meaningful when a * omega0, V0 / omega0 and theta are all small; the
    exact amplitudes then agree with these to second order.  The result
    carries no interior coefficients.
    """
    disp = wavenumbers(spec)
    ratios = mode_ratios(spec.theta, spec.phi)
    a, v0, w0 = spec.a, spec.v0, spec.omega0
    cross = a * spec.theta * v0 * cmath.exp(-1j * spec.phi)
    return Amplitudes(
        c1=-1j * a * v0,
        c2=cross,
        c3=0j,
        c4=0j,
        c5=1.0 + v0 / (2.0 * w0),
        c6=-v0 / (2.0 * w0) - 1j * a * v0,
        c7=1.0 - 1j * a * v0,
        c8=cross,
        dispersion=disp, ratios=ratios, route=TAYLOR, interior=None)


def quaternionic_fraction(amps: Amplitudes) -> float:
    """Share of the transmitted intensity carried by the j component.

    |c8|^2 / (|c7|^2 + |c8|^2); raises UndefinedFractionError when nothing
    is transmitted at all.
    """
    num = abs(amps.c8) ** 2
    den = abs(amps.c7) ** 2 + num
    if den == 0.0:
        raise UndefinedFractionError("total transmission vanishes")
    return num / den


def exterior_magnitude_sum(amps: Amplitudes) -> float:
    """|c1|^2 + |c2|^2 + |c7|^2 + |c8|^2, 1 by flux conservation (verify gates it)."""
    return (abs(amps.c1) ** 2 + abs(amps.c2) ** 2
            + abs(amps.c7) ** 2 + abs(amps.c8) ** 2)
