"""Closed-form scattering amplitudes of the quaternionic barrier.

The matching system factorizes into two ordinary complex barrier problems,
one per interior branch.  On the branch with interior wavenumber q the
barrier is a symmetric lossless slab of width a in the free waves of k0,
and one formula, slab_rt, gives its r and its t (referenced to the slab's
far end):

    sigma = sin(aq) / 2
    t(q) = 1 / (cos(aq) - i (sigma k0/q + sigma q/k0))
    r(q) = i (sigma q/k0 - sigma k0/q) t(q)

r and t are entire in q: sigma k0/q = k0 a / 2 at q = 0, where
r = k0 a / (k0 a + 2i).  No denominator vanishes, so there is no
exponential damping in the barrier: both branches propagate for any width.

Each 2x2 block of the barrier is f(N) = (f- + f+)/2 I + (f- - f+)/2 N, N the
direction involution, f- on the k_minus and f+ on the k_plus branch
(coupled).  c1, c2 and c7, c8 are the incident columns of r(N) and t(N); the
transmitted wave picks up e^{-i a k0} once.  The interior amplitudes are the
branch components of psi(0) (c3, c5) and of psi'(0) / (i k0) (c4, c6), read
off the left face, where psi = 1 + r and psi' / (i k0) = 1 - r:

    c1 = w_plus r(k-) - w_minus r(k+)      c7 = e^{-i a k0} (w_plus t(k-) - w_minus t(k+))
    c2 = w_cross (r(k-) - r(k+))           c8 = e^{-i a k0} w_cross (t(k-) - t(k+))
    c3 = -w_minus (1 + r(k+))              c5 = w_plus (1 + r(k-))
    c4 = -w_minus (1 - r(k+))              c6 = w_plus (1 - r(k-))

all finite at V0 = omega0.  In the complex limit theta -> 0 this collapses
to the scalar k_minus problem: c2 = c8 = 0 and |c1|^2 + |c7|^2 = 1.
A first-order expansion in small (theta, a, V0) gives the leading behavior

    c1 = -i a V0                 c5 = 1 - i a V0
    c2 = a theta e^{-i phi} V0   c6 = 1 + i a V0
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
    mode_ratios,
    require_each,
    slab_rules,
    wavenumbers,
)
from .quaternion import rescaled

EXACT = "exact"
COMPLEX_LIMIT = "complex-limit"
TAYLOR = "taylor"


def slab_rt(q, k0, length, sin=math.sin, cos=math.cos, faces=False):
    """The module's (r, t) of a slab; q^2 is never formed, so any finite q length works.

    Scalar callers pass math's sin and cos; with numpy's, any argument may be
    an array.  sigma k0/q is k0 length / 2 where q = 0.  With faces, 1 + r and
    1 - r follow, psi and psi' / (i k0) on the near face, formed as
    t (cos qL - 2i sigma k0/q) and t (cos qL - 2i sigma q/k0) so that neither
    cancels at a hard mirror, where r -> -1.
    """
    phase = q * length
    sigma = 0.5 * sin(phase)
    up = sigma * q / k0
    if sin is math.sin:
        down = sigma * k0 / q if q else 0.5 * k0 * length
    elif q.all():
        down = sigma * k0 / q
    else:
        with np.errstate(invalid="ignore"):
            down = np.where(q == 0, 0.5 * k0 * length, sigma * k0 / q)
    cosine = cos(phase)
    t = 1.0 / (cosine - 1j * (down + up))
    r = 1j * (up - down) * t
    return (r, t, t * (cosine - 2j * down), t * (cosine - 2j * up)) if faces else (r, t)


def coupled(f_minus, f_plus, n1, cross):
    """Entries (f00, f10, f01, f11) of f(N) = (f- + f+)/2 I + (f- - f+)/2 N.

    N = [[n1, conj(cross)], [cross, -n1]], cross = n3 + i n2; the arguments
    may be numbers or broadcasting arrays.
    """
    mean, half = _mean_and_half(f_minus, f_plus)
    return mean + half * n1, half * cross, half * cross.conjugate(), mean - half * n1


def _mean_and_half(f_minus, f_plus):
    return 0.5 * (f_minus + f_plus), 0.5 * (f_minus - f_plus)


def direction_terms(theta, phi):
    """coupled's (n1, cross) = (cos theta, i sin(theta) e^{-i phi}), one complex
    stack over the broadcast (theta, phi).

    n1 is stored as a complex number, as numpy's complex product would cast
    it anyway; cross = n3 + i n2 is formed part by part, without a complex
    exponential."""
    sin_theta = np.sin(theta)
    terms = np.empty((2, *np.broadcast(theta, phi).shape), dtype=complex)
    terms[0] = np.cos(theta)
    cross = terms[1, ...]       # a view, 0-d at one direction
    cross.real = sin_theta * np.sin(phi)
    cross.imag = sin_theta * np.cos(phi)
    return terms


def amplitudes_closed(spec: BarrierSpec) -> Amplitudes:
    """Evaluate the exact closed-form amplitudes for spec.

    Valid for every theta in [0, pi]; only the regular angle combinations
    enter, so the poles need no special casing.  The route is
    "complex-limit" at a pole and "exact" elsewhere.
    """
    disp = wavenumbers(spec)
    ratios = mode_ratios(spec.theta, spec.phi)
    k0, kp, km, a = disp.k0, disp.k_plus, disp.k_minus, spec.a
    rp, tp, ep, op = slab_rt(kp, k0, a, faces=True)
    rm, tm, em, om = slab_rt(km, k0, a, faces=True)
    n1, cross = math.cos(spec.theta), 2.0 * ratios.w_cross
    c1, c2, _, _ = coupled(rm, rp, n1, cross)
    c7, c8, _, _ = coupled(tm, tp, n1, cross)
    back = cmath.exp(-1j * a * k0)
    wp, wm, wx = ratios.w_plus, ratios.w_minus, ratios.w_cross
    route = COMPLEX_LIMIT if math.sin(spec.theta) <= EPS_THETA else EXACT
    # (ep, op) and (em, om): psi(0) and psi'(0) / (i k0) of each branch, unweighted
    return Amplitudes(
        c1=c1, c2=c2, c3=-wm * ep, c4=-wm * op, c5=wp * em, c6=wp * om,
        c7=c7 * back, c8=c8 * back, dispersion=disp, ratios=ratios, route=route,
        interior_beta=(-wx * ep, -wx * op, wx * em, wx * om))


def exterior_amplitudes_grid(a, v0, omega0, theta, phi):
    """amplitudes_closed's (c1, c2, c7, c8), in numpy over broadcast arrays.

    The same formulas with numpy's sin, cos and exp: the two agree to
    rounding, and c2 = c8 = 0 exactly at theta = 0.  Raises what BarrierSpec
    raises at the first invalid point in C order.  It is exterior_combine of
    exterior_factors, which a caller may also gather at a few grid points
    at a time."""
    return np.broadcast_arrays(*exterior_combine(*exterior_factors(a, v0, omega0, theta, phi)))


def exterior_factors(a, v0, omega0, theta, phi):
    """The factors of exterior_amplitudes_grid, each at the shape of its inputs.

    Checks every point of the broadcast grid first, and raises what
    BarrierSpec raises at the first invalid one in C order.  Returns two
    complex stacks: branch, over the broadcast (a, v0, omega0), holds the
    mean and half-difference of the two branches' r, then of their t, as
    coupled forms them, then e^{-i a omega0}; direction is direction_terms."""
    require_each(slab_rules, a, v0, theta, phi, omega0)
    rp, tp = slab_rt(np.abs(omega0 + v0), omega0, a, np.sin, np.cos)
    rm, tm = slab_rt(np.abs(omega0 - v0), omega0, a, np.sin, np.cos)
    back = np.exp(-1j * a * omega0)
    branch = np.broadcast_arrays(*_mean_and_half(rm, rp), *_mean_and_half(tm, tp), back)
    return np.stack(branch), direction_terms(theta, phi)


def exterior_combine(branch, direction):
    """(c1, c2, c7, c8) from exterior_factors' stacks, or from both gathered at
    the same grid points: coupled's (f00, f10) of r and of t, the latter
    times e^{-i a omega0}."""
    r_mean, r_half, t_mean, t_half, back = branch
    n1, cross = direction
    return (r_mean + r_half * n1, r_half * cross,
            (t_mean + t_half * n1) * back, t_half * cross * back)


def amplitudes_taylor(spec: BarrierSpec) -> Amplitudes:
    """First-order amplitudes in small (theta, a, V0).

    Meaningful when a * omega0, V0 / omega0 and theta are all small; the
    exact amplitudes then agree with these to second order.  The result
    carries no interior coefficients.
    """
    disp = wavenumbers(spec)
    ratios = mode_ratios(spec.theta, spec.phi)
    a, v0 = spec.a, spec.v0
    cross = a * spec.theta * v0 * cmath.exp(-1j * spec.phi)
    return Amplitudes(
        c1=-1j * a * v0,
        c2=cross,
        c3=0j,
        c4=0j,
        c5=1.0 - 1j * a * v0,
        c6=1.0 + 1j * a * v0,
        c7=1.0 - 1j * a * v0,
        c8=cross,
        dispersion=disp, ratios=ratios, route=TAYLOR, interior_beta=None)


def quaternionic_fraction_grid(abs_c7, abs_c8):
    """|c8|^2 / (|c7|^2 + |c8|^2), the j component's share of the transmitted
    intensity, over broadcasting arrays of magnitudes squared after
    quaternion.rescaled; NaN where both are 0."""
    _, c7, c8 = rescaled(abs_c7, abs_c8)
    num = c8 * c8
    with np.errstate(invalid="ignore"):     # 0 / 0 where nothing is transmitted
        return num / (c7 * c7 + num)


def quaternionic_fraction(amps: Amplitudes) -> float:
    """quaternionic_fraction_grid at amps' |c7| and |c8|.

    Raises UndefinedFractionError when nothing is transmitted at all.
    """
    fraction = float(quaternionic_fraction_grid(abs(amps.c7), abs(amps.c8)))
    if math.isnan(fraction):
        raise UndefinedFractionError("total transmission vanishes")
    return fraction


def exterior_magnitude_sum(amps: Amplitudes) -> float:
    """|c1|^2 + |c2|^2 + |c7|^2 + |c8|^2, 1 by flux conservation (verify gates it)."""
    c1, c2, c7, c8 = map(abs, (amps.c1, amps.c2, amps.c7, amps.c8))
    return c1 * c1 + c2 * c2 + c7 * c7 + c8 * c8
