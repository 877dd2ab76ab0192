"""Scattering of plane waves off stacks of quaternionic barriers.

The interior field of any segment obeys psi'' = -K^2 psi component-wise in
the symplectic split, with the 2x2 matrix

    K^2 = (omega0^2 + V0^2) I - 2 omega0 V0 N,

N the direction involution.  Spectrally, K^2 = k_minus^2 P + k_plus^2 Q with
projectors P = (I + N)/2 and Q = (I - N)/2, so every 2x2 block of a segment
is a function of N,

    f(N) = f- P + f+ Q,

with f- taken on the k_minus branch and f+ on the k_plus branch.  In
model.mode_ratios' weights P = [[w_plus, conj(w_cross)], [w_cross, -w_minus]]
and Q = I - P, and closedform.coupled forms the blocks from them, as for a
single barrier.  A free gap (V0 = 0) has k_minus = k_plus = omega0, so its
blocks ignore the stored angles.

Stacks are scattered with S-matrices in the free-wave basis of k0 = omega0,
each side referenced to its own end.  One array pass builds every segment's
S = [[r, t], [t, r]]: on each branch q the segment is a symmetric lossless
slab, whose r and t closedform.slab_rt gives, in one call per stack,

    t = 1 / (cos qL - i (sigma k0/q + sigma q/k0)),   r = i (sigma q/k0 - sigma k0/q) t,

with sigma = sin(qL) / 2.  Both are entire in q, so V0 = omega0 needs no
special case.  coupled fills the f(N) blocks, and no per-segment inverse is
needed.  The Redheffer star product composes the segments; it is
associative, so the stack is reduced as a balanced tree in log2(n) batched
steps, with the 2x2 products and inverses written out on (2, 2, n, m)
arrays.  Each star takes four block products: one product forms both the
left-going wave between its two S-matrices and the lower blocks of the
result.  Every S-matrix is unitary, so no entry grows with depth.

A free gap has r = 0 and t = e I, e its slab t at q = k0 (|e| = 1), so its
S-matrix is [[0, e], [e, 0]] and a star product with it on the right is three
phase products: t -> e t, t' -> t' e, r' -> e r' e, with r unchanged.  When
every pair (2i, 2i+1) of the tree's first level ends in a free segment in
every stack of the batch, as in barrier + gap stacks and the Peres ordering
batch, no S-matrix is built for those gaps and their phases are folded into
the left neighbours; every other layout runs the full tree.  A folded gap's
e is its own k_minus t from the stack's slab_rt call (|k0 - 0| = k0 is
exact), and its k_plus branch is not evaluated.

A scatter reads each segment's length and v0 straight from the stacks' own
tuples, and theta and phi only of the segments that get an S-matrix, so a
folded gap's angles are never read.  LayerStack has checked omega0, so the
length and v0 tables are checked with model.segment_rule alone, stack by
stack.  The transmission is moved to global x by each stack's total length,
the left-to-right sum of the same floats that total_length() forms, under
stack_rules' total rule.

Every stack goes through the star products first.  At a cavity between
strong mirrors they resolve the resonance only to about eps / |t|^2, which
shows as a flux defect; at omega0 near the smallest float they can divide
0 by 0.  Stacks whose star answer misses STACK_FLUX_TOL, or is NaN, are
scattered by the 4x4 transfer product instead,

    T(L) = [ C(L)   S(L) ]      C = cos(k- L) P + cos(k+ L) Q
           [ -K^2 S(L)  C(L) ]  S = sin(k- L)/k- P + sin(k+ L)/k+ Q   (L at k- = 0)

over s = (psi_alpha, psi_beta, psi_alpha', psi_beta'), composed by left
multiplication in traversal order, and one 4x4 boundary solve.  Its answer
must meet STACK_FLUX_TOL too; an overflowing product is a numerical failure.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import chain
from math import cos, sin
from operator import attrgetter, itemgetter

import numpy as np

from .closedform import coupled, slab_rt
from .errors import SingularSystemError
from .model import (direction_coupling, frequency_rule, mode_ratios, require, require_each,
                    segment_rule, slab_rules, stack_rules)
from .quaternion import SymplecticPair, UnitImaginaryDirection

# Largest flux defect | |r|^2 + |t|^2 - 1 | a stack answer may carry.
STACK_FLUX_TOL = 1e-10


@dataclass(frozen=True)
class Segment:
    """One constant-potential slab of a stack."""

    length: float
    v0: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        slab_rules(require, self.length, self.v0, self.theta, self.phi)


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
        frequency_rule(require, self.omega0)

    def total_length(self) -> float:
        return sum(seg.length for seg in self.segments)


def segment_transfer(seg: Segment, omega0: float) -> np.ndarray:
    """(4, 4) transfer matrix of one segment at frequency omega0."""
    stack_rules(require, omega0, seg.length, seg.v0)
    kp = abs(omega0 + seg.v0)
    km = abs(omega0 - seg.v0)
    n = UnitImaginaryDirection.from_angles(seg.theta, seg.phi)
    coupling = direction_coupling(n)
    eye = np.eye(2, dtype=complex)
    p_minus = 0.5 * (eye + coupling)     # k_minus branch
    p_plus = 0.5 * (eye - coupling)      # k_plus branch
    length = seg.length
    c_block = cos(km * length) * p_minus + cos(kp * length) * p_plus
    s_block = ((sin(km * length) / km if km else length) * p_minus
               + (sin(kp * length) / kp) * p_plus)
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


def transfer_smatrix(stack: LayerStack) -> np.ndarray:
    """S-matrix of stack_smatrix from the transfer product and a 4x4 solve.

    This is the fallback for stacks whose star products miss the flux
    gate, and the oracle that qkg verify holds them against on short stacks.

    Left of the stack the field is a e^{i k0 x} + b e^{-i k0 x}; right of
    it, in the local coordinate x' = x - L, c e^{i k0 x'} + d e^{-i k0 x'}.
    The transfer product maps the left state to the right one; the solve
    returns the outgoing (b, c) for each incoming unit column of (a, d).
    """
    k0 = stack.omega0
    eye = np.eye(2, dtype=complex)
    right_going = np.vstack([eye, 1j * k0 * eye])
    left_going = np.vstack([eye, -1j * k0 * eye])
    with np.errstate(over="ignore", invalid="ignore"):
        t = stack_transfer(stack)
        m4 = np.hstack([t @ left_going, -right_going])
        rhs = np.hstack([-(t @ right_going), left_going])
    if not (np.isfinite(m4).all() and np.isfinite(rhs).all()):
        raise SingularSystemError("stack transfer product overflows")
    try:
        return np.linalg.solve(m4, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stack boundary system unsolvable: {exc}") from exc


def _mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched product of (rows, 2, ...) and (2, cols, ...) block arrays."""
    out = np.multiply(a[:, :1], b[0], out=out)
    out += a[:, 1:] * b[1]
    return out


def _star(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Redheffer star product of (4, 4, ...) S-matrices, s1 traversed first.

    Between the two, u is the right-going and v the left-going wave, both
    as coefficients of the incoming (a, d):
        u = (I - r1' r2)^-1 [t1 | r1' t2'],   v = r2 u + [0 | t2'].
    """
    y = _mul(s1[2:, 2:], s2[:2])               # [r1' r2 | r1' t2']
    x = y[:, :2]
    d00 = 1.0 - x[0, 0]
    d11 = 1.0 - x[1, 1]
    det = d00 * d11 - x[0, 1] * x[1, 0]
    w = np.array([[d11, x[0, 1]], [x[1, 0], d00]])
    w /= det
    y[:, :2] = s1[2:, :2]
    u = _mul(w, y)
    # [v; t2 u + [0 | r2']] in one product, whose lower half is the
    # right-going output; t1' v + [r1 | 0], formed in y, then replaces v
    out = _mul(s2[:, :2], u, out=np.empty_like(u, shape=s1.shape))
    out[:, 2:] += s2[:, 2:]
    _mul(s1[:2, 2:], out[:2], out=y)
    y[:, :2] += s1[:2, :2]
    out[:2] = y
    return out


def _segment_smatrices(rt_minus, rt_plus, theta, phi) -> np.ndarray:
    """(4, 4, n, m) S = [[r, t], [t, r]] of every segment.

    rt_minus and rt_plus are slab_rt's (r, t) on the k_minus and on the
    k_plus branch, as (2, n, m) arrays.
    """
    # s[out side, i, in side, j] = [[r, t], [t, r]]: fill the left row,
    # then mirror it into the right one
    s = np.empty((2, 2, 2, 2) + theta.shape, dtype=complex)
    s[0, 0, :, 0], s[0, 1, :, 0], s[0, 0, :, 1], s[0, 1, :, 1] = coupled(
        rt_minus, rt_plus, *mode_ratios(theta, phi))
    s[1] = s[0, :, ::-1]
    return s.reshape((4, 4) + theta.shape)


def _flux_defect(s: np.ndarray) -> float:
    """Largest | |S e_j|^2 - 1 | over the columns of (4, 4, ...) S-matrices."""
    return float(np.abs((s.real ** 2 + s.imag ** 2).sum(axis=0) - 1.0).max())


def _star_tree(s: np.ndarray) -> np.ndarray:
    """Star product of (4, 4, n, m) S-matrices along n, as a balanced tree."""
    while s.shape[2] > 1:
        pairs = s.shape[2] // 2
        joined = _star(s[:, :, 0:2 * pairs:2], s[:, :, 1:2 * pairs:2])
        s = joined if s.shape[2] % 2 == 0 else np.concatenate(
            (joined, s[:, :, -1:]), axis=2)
    return s[:, :, 0]


def _column(name: str, stacks: tuple[LayerStack, ...], count: int,
            built: slice = slice(None)) -> np.ndarray:
    """(m, count) table of one Segment field of m stacks, read off the segments
    that built picks from each stack's own tuple."""
    segs = chain.from_iterable(map(itemgetter(built), map(attrgetter("segments"), stacks)))
    return np.fromiter(map(attrgetter(name), segs), float,
                       count=len(stacks) * count).reshape(len(stacks), count)


def _route(stacks: tuple[LayerStack, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flux-checked (4, 4, m) S-matrices of m stacks of equal depth and omega0,
    and the (m, n) table of their segment lengths.

    Raises the error of segment_rule for the first segment, stack by stack,
    that breaks it.
    """
    k0 = stacks[0].omega0
    n = len(stacks[0].segments)
    lengths, v0 = _column("length", stacks, n), _column("v0", stacks, n)
    # LayerStack checked omega0, so the segment's phase is the one rule left
    require_each(segment_rule, k0, lengths, v0)
    length, v0 = lengths.T, v0.T
    # an overflow or a 0 / 0 leaves a NaN, which fails the flux gate
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = n // 2
        # when every first-level pair ends in a free gap, only the other
        # segments get an S-matrix, and only their angles are read
        fold = pairs > 0 and not v0[1::2].any()
        built = slice(0, n, 2 if fold else 1)
        theta, phi = (_column(name, stacks, n - pairs if fold else n, built).T
                      for name in ("theta", "phi"))
        # one slab_rt call: the k_minus rows of every segment, then the
        # k_plus rows of the built ones
        rt = np.array(slab_rt(np.concatenate((np.abs(k0 - v0), np.abs(k0 + v0[built]))), k0,
                              np.concatenate((length, length[built]))))
        s = _segment_smatrices(rt[:, built], rt[:, n:], theta, phi)
        if fold:
            # a free gap's phase e is its slab t at q = |k0 - 0| = k0; fold it
            # into the left neighbour, t -> e t, t' -> t' e, r' -> e r' e,
            # which is _star(s, [[0, e], [e, 0]]) without the zero blocks
            e = rt[1, 1:n:2]
            s[2:, :, :pairs] *= e
            s[:, 2:, :pairs] *= e
        s = _star_tree(s)
        defect = _flux_defect(s)
        if not defect <= STACK_FLUX_TOL:
            # a NaN, or a cavity between strong mirrors that the star
            # products resolve only to about eps / |t|^2
            s = np.stack([transfer_smatrix(stack) for stack in stacks], axis=-1)
            defect = _flux_defect(s)
    if not defect <= STACK_FLUX_TOL:
        raise SingularSystemError(
            f"stack scattering loses flux: ||r|^2 + |t|^2 - 1| = "
            f"{defect:.3e} exceeds {STACK_FLUX_TOL:.0e}")
    return s, lengths


def _smatrices(stacks: tuple[LayerStack, ...]) -> np.ndarray:
    """Flux-checked (4, 4, m) S-matrices of m stacks of equal depth and omega0."""
    return _route(stacks)[0]


def _scatter(stacks: tuple[LayerStack, ...]) -> list[tuple[SymplecticPair, SymplecticPair]]:
    """Reflection and global-coordinate transmission pairs of each stack."""
    k0 = stacks[0].omega0
    s, lengths = _route(stacks)
    out = []
    # each total is total_length()'s left-to-right sum, over the gathered floats
    for col, total_length in zip(s[:, 0].T.tolist(), map(sum, lengths.tolist())):
        stack_rules(require, k0, total=total_length)
        back = cmath.exp(-1j * k0 * total_length)
        out.append((SymplecticPair(col[0], col[1]),
                    SymplecticPair(col[2] * back, col[3] * back)))
    return out


def stack_smatrix(stack: LayerStack) -> np.ndarray:
    """(4, 4) S-matrix of the stack in the free-wave basis of omega0.

    Rows and columns run over (left alpha, left beta, right alpha, right
    beta); column j holds the outgoing amplitudes for a unit incoming wave
    in channel j.  Each side is referenced to its own end of the stack, so
    S = [[r, t'], [t, r']] is unitary.
    """
    return _smatrices((stack,))[:, :, 0]


def stack_scatter(stack: LayerStack) -> tuple[SymplecticPair, SymplecticPair]:
    """Reflection and transmission pairs of a unit incident wave.

    The incident wave e^{i k0 x} enters from the left; the transmitted wave
    is referenced to the global coordinate, (t_alpha + j t_beta) e^{i k0 x}
    beyond the stack, so a single-segment stack reproduces the one-barrier
    amplitudes directly.
    """
    return _scatter((stack,))[0]


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
    barriers with non-commuting directions generally give d_amp > 0.  Both
    orders are scattered as one batch.
    """
    stack_rules(require, omega0, gap=gap)
    spacer = free_gap(gap)
    (_, t_ab), (_, t_ba) = _scatter((LayerStack((seg_a, spacer, seg_b), omega0),
                                     LayerStack((seg_b, spacer, seg_a), omega0)))
    d_prob = abs(t_ab.norm2() - t_ba.norm2())
    d_amp = max(abs(t_ab.alpha - t_ba.alpha), abs(t_ab.beta - t_ba.beta))
    return OrderingReport(t_ab, t_ba, d_prob, d_amp)
