"""Transfer matrices for stacks of quaternionic barriers.

The interior field of any segment obeys psi'' = -K^2 psi component-wise in
the symplectic split, with the 2x2 matrix

    K^2 = (omega0^2 + V0^2) I - 2 omega0 V0 N,

N the direction involution.  Spectrally, K^2 = k_minus^2 P + k_plus^2 Q with
projectors P = (I + N)/2 and Q = (I - N)/2, so propagation over a length L
maps the state s = (psi_alpha, psi_beta, psi_alpha', psi_beta') by the 4x4
complex ndarray

    T(L) = [ C(L)   S(L) ]      C = cos(k- L) P + cos(k+ L) Q
           [ -K^2 S(L)  C(L) ]  S = sin(k- L)/k- P + sin(k+ L)/k+ Q

which involves only bounded, angle-regular entries.  A free gap (V0 = 0) has
K^2 = omega0^2 I regardless of the stored angles.  Stacks compose by left
multiplication in traversal order, and scattering amplitudes come from a
small boundary system rather than from inverting the total transfer matrix.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import cos, isfinite, sin

import numpy as np

from .errors import DegenerateWavenumberError, SingularSystemError
from .model import EPS_K_REL, BarrierSpec, check_layer, direction_coupling
from .quaternion import SymplecticPair, UnitImaginaryDirection


@dataclass(frozen=True)
class Segment:
    """One constant-potential slab of a stack."""

    length: float
    v0: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        check_layer(self.length, self.v0, self.theta, self.phi)

    @classmethod
    def from_barrier(cls, spec: BarrierSpec) -> "Segment":
        return cls(spec.a, spec.v0, spec.theta, spec.phi)


def free_gap(length: float) -> Segment:
    """A potential-free segment; angles are irrelevant and set to zero."""
    return Segment(length, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class LayerStack:
    """Segments laid end to end from x = 0, plus the common frequency."""

    segments: tuple[Segment, ...]
    omega0: float

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("stack needs at least one segment")
        if not (self.omega0 > 0.0 and np.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")

    def total_length(self) -> float:
        return sum(seg.length for seg in self.segments)


def segment_transfer(seg: Segment, omega0: float) -> np.ndarray:
    """(4, 4) transfer matrix of one segment at frequency omega0."""
    kp = abs(omega0 + seg.v0)
    km = abs(omega0 - seg.v0)
    if not isfinite(seg.length * kp):
        raise ValueError(
            f"segment with length = {seg.length}, v0 = {seg.v0} at omega0 = "
            f"{omega0}: length * (omega0 + v0) leaves the float range")
    if km < EPS_K_REL * omega0:
        raise DegenerateWavenumberError(
            f"segment with v0 = {seg.v0} at omega0 = {omega0} has k_minus ~ 0")
    n = UnitImaginaryDirection.from_angles(seg.theta, seg.phi)
    coupling = direction_coupling(n)
    eye = np.eye(2, dtype=complex)
    p_minus = 0.5 * (eye + coupling)     # k_minus branch
    p_plus = 0.5 * (eye - coupling)      # k_plus branch
    length = seg.length
    c_block = cos(km * length) * p_minus + cos(kp * length) * p_plus
    s_block = (sin(km * length) / km) * p_minus + (sin(kp * length) / kp) * p_plus
    ks_block = (km * sin(km * length)) * p_minus + (kp * sin(kp * length)) * p_plus
    return np.block([[c_block, s_block], [-ks_block, c_block]])


def compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Transfer of traversing earlier then later."""
    return later @ earlier


def stack_transfer(stack: LayerStack) -> np.ndarray:
    total = segment_transfer(stack.segments[0], stack.omega0)
    for seg in stack.segments[1:]:
        total = compose(segment_transfer(seg, stack.omega0), total)
    return total


def stack_scatter(stack: LayerStack) -> tuple[SymplecticPair, SymplecticPair]:
    """Reflection and transmission pairs of a unit incident wave.

    The incident wave e^{i k0 x} enters from the left; the transmitted wave
    is referenced to the global coordinate, (t_alpha + j t_beta) e^{i k0 x}
    beyond the stack, so a single-segment stack reproduces the one-barrier
    amplitudes directly.
    """
    t = stack_transfer(stack)
    k0 = stack.omega0
    total_length = stack.total_length()
    if not isfinite(k0 * total_length):
        raise ValueError(
            f"stack of total length {total_length} at omega0 = {k0}: "
            "omega0 * total length leaves the float range")
    e_end = cmath.exp(1j * k0 * total_length)
    incident = np.array([1, 0, 1j * k0, 0], dtype=complex)
    refl_cols = np.array([[1, 0],
                          [0, 1],
                          [-1j * k0, 0],
                          [0, -1j * k0]], dtype=complex)
    out_cols = np.array([[e_end, 0],
                         [0, e_end],
                         [1j * k0 * e_end, 0],
                         [0, 1j * k0 * e_end]], dtype=complex)
    m4 = np.hstack([t @ refl_cols, -out_cols])
    rhs = -(t @ incident)
    if not (np.isfinite(m4).all() and np.isfinite(rhs).all()):
        raise ValueError("stack boundary system must not contain infs or NaNs")
    try:
        sol = np.linalg.solve(m4, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stack boundary system unsolvable: {exc}") from exc
    return (SymplecticPair(complex(sol[0]), complex(sol[1])),
            SymplecticPair(complex(sol[2]), complex(sol[3])))


@dataclass(frozen=True)
class OrderingReport:
    """Transmissions of the two barrier orderings and their differences."""

    transmission_ab: SymplecticPair
    transmission_ba: SymplecticPair
    d_prob: float
    d_amp: float


def ordering_report(seg_a: Segment, seg_b: Segment, gap: float,
                    omega0: float) -> OrderingReport:
    """Scatter through [A, gap, B] and [B, gap, A] and compare transmissions.

    d_prob = | |t_AB|^2 - |t_BA|^2 | and d_amp is the max-norm difference of
    the transmission pairs.  Both vanish for identical barriers; d_prob also
    vanishes for any pair of complex (theta = 0) barriers, while quaternionic
    barriers with non-commuting directions generally give d_amp > 0.
    """
    if not (gap >= 0.0 and np.isfinite(gap)):
        raise ValueError(f"gap must be >= 0, got {gap}")
    spacer = free_gap(gap)
    _, t_ab = stack_scatter(LayerStack((seg_a, spacer, seg_b), omega0))
    _, t_ba = stack_scatter(LayerStack((seg_b, spacer, seg_a), omega0))
    d_prob = abs(t_ab.norm2() - t_ba.norm2())
    d_amp = max(abs(t_ab.alpha - t_ba.alpha), abs(t_ab.beta - t_ba.beta))
    return OrderingReport(t_ab, t_ba, d_prob, d_amp)
