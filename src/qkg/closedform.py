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

Each 2x2 block of the barrier is f(N) = f- P + f+ Q (coupled), f- on the
k_minus and f+ on the k_plus branch, where in mode_ratios' weights
P = (I + N)/2 = [[w_plus, conj(w_cross)], [w_cross, -w_minus]] and Q = I - P.
c1, c2 and c7, c8 are the incident columns of r(N) and t(N); the transmitted
wave picks up e^{-i a k0} once.  The interior amplitudes are the
branch components of psi(0) (c3, c5) and of psi'(0) / (i k0) (c4, c6), read
off the left face, where psi = 1 + r and psi' / (i k0) = 1 - r:

    c1 = w_plus r(k-) - w_minus r(k+)      c7 = e^{-i a k0} (w_plus t(k-) - w_minus t(k+))
    c2 = w_cross (r(k-) - r(k+))           c8 = e^{-i a k0} w_cross (t(k-) - t(k+))
    c3 = -w_minus (1 + r(k+))              c5 = w_plus (1 + r(k-))
    c4 = -w_minus (1 - r(k+))              c6 = w_plus (1 - r(k-))

all finite at V0 = omega0.  In the complex limit theta -> 0 this collapses
to the scalar k_minus problem: c2 = c8 = 0 and |c1|^2 + |c7|^2 = 1.  To
first order in small (theta, a, V0), c8 = a theta e^{-i phi} V0: a
quaternionic barrier leaks a transmitted beta component linear in each of
the three small parameters (qkg verify checks this expansion).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import UndefinedFractionError
from .model import Amplitudes, BarrierSpec, mode_ratios, require_each, slab_rules, wavenumbers
from .quaternion import rescaled

EXACT = "exact"


def slab_rt(q, k0, length, faces=False):
    """The module's (r, t) of a slab; q^2 is never formed, so any finite q length works.

    A numpy q (array or scalar) takes numpy's sin and cos, and any argument may
    then be an array; any other q takes math's.  sigma k0/q is k0 length / 2 where
    q = 0.  With faces, 1 + r and 1 - r follow, psi and psi' / (i k0) on the near
    face, formed as t (cos qL - 2i sigma k0/q) and t (cos qL - 2i sigma q/k0) so
    that neither cancels at a hard mirror, where r -> -1.
    """
    numpy = isinstance(q, (np.ndarray, np.generic))
    phase = q * length
    sigma = 0.5 * (np.sin if numpy else math.sin)(phase)
    up = sigma * q / k0
    if not numpy:
        down = sigma * k0 / q if q else 0.5 * k0 * length
    elif q.all():
        down = sigma * k0 / q
    else:
        with np.errstate(invalid="ignore"):
            down = np.where(q == 0, 0.5 * k0 * length, sigma * k0 / q)
    cosine = (np.cos if numpy else math.cos)(phase)
    t = 1.0 / (cosine - 1j * (down + up))
    r = 1j * (up - down) * t
    return (r, t, t * (cosine - 2j * down), t * (cosine - 2j * up)) if faces else (r, t)


def coupled(f_minus, f_plus, w_plus, w_minus, w_cross):
    """Entries (f00, f10, f01, f11) of f(N) = f- P + f+ Q in mode_ratios' weights:
    w_plus f- - w_minus f+, w_cross (f- - f+), conj(w_cross) (f- - f+) and
    w_plus f+ - w_minus f-.  w_plus and -w_minus are non-negative and sum to 1,
    so neither branch cancels the other (at theta = 0 the block is f- I
    exactly).  The arguments may be numbers or broadcasting arrays.
    """
    split = f_minus - f_plus
    return (w_plus * f_minus - w_minus * f_plus, w_cross * split,
            w_cross.conjugate() * split, w_plus * f_plus - w_minus * f_minus)


def amplitudes_closed(spec: BarrierSpec) -> Amplitudes:
    """Evaluate the exact closed-form amplitudes for spec.

    Valid for every theta in [0, pi]; only the regular angle combinations
    enter, so the poles need no special casing and the route is "exact" at
    every angle.
    """
    disp = wavenumbers(spec)
    wp, wm, wx = mode_ratios(spec.theta, spec.phi)
    # Python floats take slab_rt's math path, also where spec holds numpy scalars
    k0, kp, km, a = disp.k0, float(disp.k_plus), float(disp.k_minus), spec.a
    rp, tp, ep, op = slab_rt(kp, k0, a, faces=True)
    rm, tm, em, om = slab_rt(km, k0, a, faces=True)
    back = cmath.exp(-1j * a * k0)
    c1, c2, _, _ = coupled(rm, rp, wp, wm, wx)
    c7, c8, _, _ = coupled(tm, tp, wp, wm, wx)
    # Amplitudes' fields in order; (ep, op), (em, om): each branch's psi(0), psi'(0) / (i k0)
    return Amplitudes(c1, c2, -wm * ep, -wm * op, wp * em, wp * om, c7 * back, c8 * back,
                      disp, EXACT, (-wx * ep, -wx * op, wx * em, wx * om))


def exterior_amplitudes_grid(a, v0, omega0, theta, phi):
    """amplitudes_closed's (c1, c2, c7, c8), in numpy over broadcast arrays.

    The same formulas with numpy's sin, cos and exp: the two agree to
    rounding, and c2 = c8 = 0 exactly at theta = 0.  Raises what BarrierSpec
    raises at the first invalid point in C order.  The slab factors take the
    shape of (a, v0, omega0) and the direction that of (theta, phi), so given
    np.ix_ axes only the amplitudes span the grid."""
    require_each(slab_rules, a, v0, theta, phi, omega0)
    rp, tp = slab_rt(np.abs(omega0 + v0), omega0, a)
    rm, tm = slab_rt(np.abs(omega0 - v0), omega0, a)
    weights = mode_ratios(theta, phi)
    c1, c2, _, _ = coupled(rm, rp, *weights)
    c7, c8, _, _ = coupled(tm, tp, *weights)
    back = np.exp(-1j * a * omega0)
    return np.broadcast_arrays(c1, c2, c7 * back, c8 * back)


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
