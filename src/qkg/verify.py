"""End-to-end verification suite.

Ten independent checks cross-validate the solvers against each other and
against frozen expectations.  The suite has one configuration: every size,
tolerance and time budget is pinned here as a constant, and together they
are the floor that no check runs below.  The criterion decorator times each
check, applies its time budget and builds its CheckResult; the command line
prints them as a table and the acceptance tests assert them one by one.
`import qkg` does not load this.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import io
import math
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import cli
from .closedform import amplitudes_closed, exterior_amplitudes_grid, exterior_magnitude_sum
from .matcher import build_system, solve, solve_spec
from .model import BarrierSpec, mode_ratios, wavenumbers
from .multilayer import (
    LayerStack,
    Segment,
    free_gap,
    ordering_report,
    segment_transfer,
    stack_scatter,
    stack_smatrix,
    transfer_smatrix,
)
from .quaternion import UnitImaginaryDirection
from .wavefield import continuity_residuals

SEED = 20260823

# Pinned tolerances and sizes, one block per check.
ORACLE_SPECS = 1000
ORACLE_EDGE_SPECS = 100       # at V0 = omega0 or in the Klein zone, own stream
ORACLE_TOL = 1e-9
ORACLE_FLUX_TOL = 1e-12
ORACLE_SECONDS = 5.0

BACKSUB_SPECS = 300
BACKSUB_TOL = 1e-10
BACKSUB_RAW_CUT = 1e-6        # sin(theta) below which raw rows are skipped

LIMIT_GRID = 20
LIMIT_UNITARITY_TOL = 1e-12

TAYLOR_REL = 0.05
TAYLOR_SHRINK = 3.0
TAYLOR_ERR_FLOOR = 1e-18

DAMPING_STEP = 0.01
DAMPING_RATIO = 0.5
DAMPING_SECONDS = 2.0

TRANSFER_SPECS = 200
TRANSFER_TOL = 1e-8
BISECTION_TOL = 1e-11
GAP_INSERT_TOL = 1e-13

ORDER_IDENTICAL_TOL = 1e-13
ORDER_COMPLEX_DRAWS = 20
ORDER_COMPLEX_TOL = 1e-12
FIXTURE_TOL = 1e-10

FIDELITY_SPECS = 100
FIDELITY_TOL = 1e-13
FIDELITY_MIN_SIN = 0.1

STACK_DEEP_PAIRS = 1000
STACK_DEEP_COUNT = 10
STACK_HUGE_PAIRS = 10_000     # one such stack
STACK_UNITARITY_TOL = 1e-12
STACK_SHORT_MAX_PAIRS = 20
STACK_SHORT_COUNT = 100
# Stacks with every barrier at V0 = omega0.  Deeper ones lose the transfer
# oracle itself (1e-5 at 19 pairs against a 60-digit solve, where the star
# products hold 1e-14), so they stay short.
STACK_EDGE_COUNT = 20
STACK_EDGE_MAX_PAIRS = 4
STACK_ORACLE_TOL = 1e-10

# Regression fixture: orthogonal-direction barriers, recorded on first run.
# Lengths 1.0 each, V0 = 0.3, omega0 = 1, gap 2.0; A along theta = pi/2,
# phi = 0 and B along theta = pi/2, phi = pi/2.
FIXTURE_D_PROB = 0.049742403813018754
FIXTURE_D_AMP = 0.05715361187449234


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.index} {self.name:<18} {self.detail} ({self.seconds:.2f}s)"


def criterion(index: int, name: str, budget: float = math.inf):
    """Make check() -> (passed, detail) return a timed CheckResult.

    A check that takes `budget` seconds or more fails, and its detail then
    ends with the budget it overran.
    """
    def decorate(check):
        @functools.wraps(check)
        def run() -> CheckResult:
            start = time.perf_counter()
            passed, detail = check()
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                passed, detail = False, f"{detail}, over its {budget:g} s budget"
            return CheckResult(index, name, bool(passed), detail, elapsed)
        return run
    return decorate


def random_specs(rng: np.random.Generator, count: int) -> list[BarrierSpec]:
    """Scattering specs drawn from the verification distribution.

    theta uniform on [0, pi], phi on [0, 2 pi), omega0 on [0.5, 2],
    a on (0, 20] and V0 on (0, 0.9 omega0].
    """
    specs = []
    for _ in range(count):
        omega0 = rng.uniform(0.5, 2.0)
        specs.append(BarrierSpec(
            a=20.0 * (1.0 - rng.random()),
            v0=0.9 * omega0 * (1.0 - rng.random()),
            omega0=omega0,
            theta=rng.uniform(0.0, math.pi),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        ))
    return specs


def random_stack(rng: np.random.Generator, pairs: int) -> LayerStack:
    """Barrier + gap stack of the given depth at one omega0 on [0.5, 2].

    Each barrier is drawn like a random_specs spec at that omega0, and each
    is followed by a free gap of length uniform on [0, 20).
    """
    omega0 = rng.uniform(0.5, 2.0)
    columns = (20.0 * (1.0 - rng.random(pairs)),
               0.9 * omega0 * (1.0 - rng.random(pairs)),
               rng.uniform(0.0, math.pi, pairs),
               rng.uniform(0.0, 2.0 * math.pi, pairs),
               rng.uniform(0.0, 20.0, pairs))
    segments = []
    for a, v0, theta, phi, gap in zip(*(col.tolist() for col in columns)):
        segments += (Segment(a, v0, theta, phi), free_gap(gap))
    return LayerStack(tuple(segments), omega0)


@criterion(1, "oracle-equivalence", budget=ORACLE_SECONDS)
def check_oracle_equivalence():
    """Criterion 1: linear solve and closed forms agree, and both conserve flux.

    ORACLE_EDGE_SPECS more random_specs, from their own stream, are moved to
    V0 = omega0 (even draws) or into the Klein zone, V0 on [omega0, 2 omega0)."""
    worst = worst_flux = 0.0
    rng = np.random.default_rng(SEED + 7)
    specs = random_specs(np.random.default_rng(SEED), ORACLE_SPECS) + [
        replace(spec, v0=spec.omega0 * (1.0 + (i % 2) * rng.random()))
        for i, spec in enumerate(random_specs(rng, ORACLE_EDGE_SPECS))]
    for spec in specs:
        routes = (solve_spec(spec), amplitudes_closed(spec))
        solved, closed = (amps.as_array() for amps in routes)
        worst = max(worst, float(np.abs(solved - closed).max() / np.abs(closed).max()))
        worst_flux = max(worst_flux, *(abs(exterior_magnitude_sum(amps) - 1.0)
                                       for amps in routes))
    return (worst <= ORACLE_TOL and worst_flux <= ORACLE_FLUX_TOL,
            f"max rel diff {worst:.3e}, flux defect {worst_flux:.3e} "
            f"over {ORACLE_SPECS} + {ORACLE_EDGE_SPECS} (V0 >= omega0) specs")


def _system_backward_error(matrix: np.ndarray, c: np.ndarray, rhs: np.ndarray) -> float:
    num = np.linalg.norm(rhs - matrix @ c, np.inf)
    den = (np.linalg.norm(matrix, np.inf) * np.linalg.norm(c, np.inf)
           + np.linalg.norm(rhs, np.inf))
    return float(num / den)


@criterion(2, "back-substitution")
def check_back_substitution():
    """Criterion 2: solutions satisfy the matching equations and continuity."""
    rng = np.random.default_rng(SEED + 1)
    worst_eq = 0.0
    worst_cont = 0.0
    for spec in random_specs(rng, BACKSUB_SPECS):
        system = build_system(spec)
        amps = solve(system)
        worst_eq = max(worst_eq, _system_backward_error(
            system.matrix, amps.solution, system.rhs))
        if math.sin(spec.theta) > BACKSUB_RAW_CUT:
            raw_m, raw_rhs = _transcribed_matrix(spec)
            worst_eq = max(worst_eq, _system_backward_error(
                raw_m, amps.as_array(), raw_rhs))
        worst_cont = max(worst_cont, *continuity_residuals(spec, amps))
    return (worst_eq <= BACKSUB_TOL and worst_cont <= BACKSUB_TOL,
            f"residual {worst_eq:.3e}, continuity {worst_cont:.3e} over {BACKSUB_SPECS} specs")


@criterion(3, "complex-limit")
def check_complex_limit():
    """Criterion 3: theta = 0 gives c2 = c8 = 0 exactly and unit |c1|^2+|c7|^2."""
    exact_zero = True
    worst_unitarity = 0.0
    for a in np.linspace(0.25, 10.0, LIMIT_GRID):
        for v0 in np.linspace(0.05, 0.95, LIMIT_GRID):
            spec = BarrierSpec(a=float(a), v0=float(v0), omega0=1.0,
                               theta=0.0, phi=0.0)
            amps = solve_spec(spec)
            if amps.c2 != 0 or amps.c8 != 0:
                exact_zero = False
            worst_unitarity = max(worst_unitarity,
                                  abs(abs(amps.c1) ** 2 + abs(amps.c7) ** 2 - 1.0))
    return (exact_zero and worst_unitarity <= LIMIT_UNITARITY_TOL,
            f"c2=c8=0 exact: {exact_zero}, unitarity defect "
            f"{worst_unitarity:.3e} on {LIMIT_GRID}x{LIMIT_GRID} grid")


def _taylor(spec: BarrierSpec) -> np.ndarray:
    """c1..c8 to first order in small (theta, a, V0):

        c1 = -i a V0                 c5 = 1 - i a V0
        c2 = a theta e^{-i phi} V0   c6 = 1 + i a V0
        c3 = c4 = 0                  c7 = 1 - i a V0
                                     c8 = a theta e^{-i phi} V0

    Meaningful when a omega0, V0 / omega0 and theta are all small; the exact
    amplitudes then agree with these to second order.
    """
    shift = 1j * spec.a * spec.v0
    cross = spec.a * spec.theta * spec.v0 * cmath.exp(-1j * spec.phi)
    return np.array([-shift, cross, 0, 0, 1 - shift, 1 + shift, 1 - shift, cross],
                    dtype=complex)


def _taylor_errors(scale: float) -> np.ndarray:
    spec = BarrierSpec(a=1e-3 * scale, v0=1e-3 * scale, omega0=1.0,
                       theta=1e-3 * scale, phi=math.pi / 4)
    return np.abs(amplitudes_closed(spec).as_array() - _taylor(spec))


@criterion(4, "taylor-regime")
def check_taylor_regime():
    """Criterion 4: small-parameter expansion matches, errors second order."""
    spec = BarrierSpec(a=1e-3, v0=1e-3, omega0=1.0, theta=1e-3, phi=math.pi / 4)
    taylor = np.abs(_taylor(spec))
    err_full = _taylor_errors(1.0)
    err_half = _taylor_errors(0.5)
    scale = taylor.max()
    worst_rel = 0.0
    for i, (err, ref) in enumerate(zip(err_full, taylor)):
        # c3 and c4 vanish to first order and are judged against the overall
        # amplitude scale; every other component against its own first-order
        # term, so an expansion that loses one reads inf
        ref = scale if i in (2, 3) else ref
        worst_rel = max(worst_rel, err / ref if ref > 0.0 else math.inf)
    worst_shrink = math.inf
    for full, half in zip(err_full, err_half):
        if full > TAYLOR_ERR_FLOOR:
            worst_shrink = min(worst_shrink, full / half)
    return (worst_rel <= TAYLOR_REL and worst_shrink >= TAYLOR_SHRINK,
            f"worst rel err {worst_rel:.3e}, halving shrink x{worst_shrink:.1f}")


@criterion(5, "no-damping", budget=DAMPING_SECONDS)
def check_no_damping():
    """Criterion 5: |c8| does not decay with barrier width."""
    # widths i * step for i = 1 .. 100 / step; c8[i - 1] belongs to width i * step
    half = int(round(50.0 / DAMPING_STEP))
    widths = np.arange(1, 2 * half + 1) * DAMPING_STEP
    c8 = np.abs(exterior_amplitudes_grid(widths, 0.3, 1.0, math.pi / 2, 0.0)[3])
    near = float(c8[:half].max())
    far = float(c8[half - 1:].max())
    return (far >= DAMPING_RATIO * near,
            f"max|c8| {near:.4f} on (0,50], {far:.4f} on [50,100]")


@criterion(6, "transfer-oracle")
def check_transfer_oracle():
    """Criterion 6: transfer-matrix route reproduces the matching solver."""
    rng = np.random.default_rng(SEED + 2)
    worst_scatter = 0.0
    worst_bisect = 0.0
    worst_gap = 0.0
    for spec in random_specs(rng, TRANSFER_SPECS):
        amps = solve_spec(spec)
        seg = Segment(spec.a, spec.v0, spec.theta, spec.phi)
        refl, trans = stack_scatter(LayerStack((seg,), spec.omega0))
        worst_scatter = max(worst_scatter,
                            abs(refl.alpha - amps.c1), abs(refl.beta - amps.c2),
                            abs(trans.alpha - amps.c7), abs(trans.beta - amps.c8))

        cut = spec.a * rng.uniform(0.2, 0.8)
        first = segment_transfer(Segment(cut, spec.v0, spec.theta, spec.phi),
                                 spec.omega0)
        second = segment_transfer(Segment(spec.a - cut, spec.v0, spec.theta,
                                          spec.phi), spec.omega0)
        whole = segment_transfer(seg, spec.omega0)
        defect = np.abs(second @ first - whole).max()
        worst_bisect = max(worst_bisect, defect / max(1.0, np.abs(whole).max()))

        _, trans_gap = stack_scatter(
            LayerStack((seg, free_gap(0.0)), spec.omega0))
        worst_gap = max(worst_gap, abs(trans_gap.alpha - trans.alpha),
                        abs(trans_gap.beta - trans.beta))
    return (worst_scatter <= TRANSFER_TOL and worst_bisect <= BISECTION_TOL
            and worst_gap <= GAP_INSERT_TOL,
            f"scatter {worst_scatter:.3e}, bisection {worst_bisect:.3e}, "
            f"gap insertion {worst_gap:.3e} over {TRANSFER_SPECS} specs")


@criterion(7, "ordering-sanity")
def check_ordering_sanity():
    """Criterion 7: ordering differences vanish when they must; fixture holds."""
    seg = Segment(1.0, 0.45, 1.1, 0.7)
    rep_same = ordering_report(seg, seg, 1.5, 1.0)
    identical_ok = max(rep_same.d_prob, rep_same.d_amp) <= ORDER_IDENTICAL_TOL

    rng = np.random.default_rng(SEED + 3)
    worst_complex = 0.0
    for _ in range(ORDER_COMPLEX_DRAWS):
        seg_a = Segment(rng.uniform(0.2, 3.0), rng.uniform(0.05, 0.9), 0.0, 0.0)
        seg_b = Segment(rng.uniform(0.2, 3.0), rng.uniform(0.05, 0.9), 0.0, 0.0)
        d_prob = ordering_report(seg_a, seg_b, rng.uniform(0.0, 4.0), 1.0).d_prob
        worst_complex = max(worst_complex, d_prob)
    complex_ok = worst_complex <= ORDER_COMPLEX_TOL

    seg_i = Segment(1.0, 0.3, math.pi / 2, 0.0)
    seg_j = Segment(1.0, 0.3, math.pi / 2, math.pi / 2)
    rep = ordering_report(seg_i, seg_j, 2.0, 1.0)
    fixture_ok = (abs(rep.d_prob - FIXTURE_D_PROB) <= FIXTURE_TOL
                  and abs(rep.d_amp - FIXTURE_D_AMP) <= FIXTURE_TOL)
    return (identical_ok and complex_ok and fixture_ok,
            f"identical {max(rep_same.d_prob, rep_same.d_amp):.1e}, "
            f"complex d_prob {worst_complex:.1e}, fixture d_amp {rep.d_amp:.12f}")


def _transcribed_matrix(spec: BarrierSpec) -> tuple[np.ndarray, np.ndarray]:
    """Independent literal transcription of the raw matching system.

    Unknowns c1..c8, each branch q inside (1 + j r_q)(c cos(qx) + i k0 c'
    sin(qx)/q), psi' rows divided by i.  The raw ratios r+- = -(n1 +- 1) /
    (n3 - i n2) diverge at the poles: callers keep sin(theta) well above 0.
    """
    disp = wavenumbers(spec)
    n = UnitImaginaryDirection.from_angles(spec.theta, spec.phi)
    denom = complex(n.n3, -n.n2)
    rp, rm = -(n.n1 + 1.0) / denom, -(n.n1 - 1.0) / denom
    k0, kp, km = disp.k0, disp.k_plus, disp.k_minus
    a = spec.a
    cp, sp, cm, sm = np.cos(kp * a), np.sin(kp * a), np.cos(km * a), np.sin(km * a)
    lp, lm = 1j * k0 * sp / kp, 1j * k0 * (sm / km if km else a)
    e0 = np.exp(1j * a * k0)
    matrix = np.array([
        [1, 0, -1, 0, -1, 0, 0, 0],
        [0, 1, -rp, 0, -rm, 0, 0, 0],
        [-k0, 0, 0, -k0, 0, -k0, 0, 0],
        [0, -k0, 0, -k0 * rp, 0, -k0 * rm, 0, 0],
        [0, 0, cp, lp, cm, lm, -e0, 0],
        [0, 0, cp * rp, lp * rp, cm * rm, lm * rm, 0, -e0],
        [0, 0, 1j * kp * sp, k0 * cp, 1j * km * sm, k0 * cm, -e0 * k0, 0],
        [0, 0, 1j * kp * sp * rp, k0 * cp * rp, 1j * km * sm * rm, k0 * cm * rm,
         0, -e0 * k0],
    ], dtype=complex)
    rhs = -np.array([1, 0, k0, 0, 0, 0, 0, 0], dtype=complex)
    return matrix, rhs


@criterion(8, "matrix-fidelity")
def check_matrix_fidelity():
    """Criterion 8: the production system is the literal transcription, rescaled.

    M_raw diag(column_scale) = diag(1, wx, k+, k+ wx, 1, wx, k+, k+ wx) M_reg
    and rhs_raw = diag(1, wx, k+, ...) rhs_reg hold to rounding, because
    r_plus w_minus = r_minus w_plus = w_cross.
    """
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    done = 0
    while done < FIDELITY_SPECS:
        spec = random_specs(rng, 1)[0]
        if math.sin(spec.theta) <= FIDELITY_MIN_SIN:
            continue
        done += 1
        system = build_system(spec)
        ref_m, ref_rhs = _transcribed_matrix(spec)
        kp, wx = system.dispersion.k_plus, mode_ratios(spec.theta, spec.phi)[2]
        row_scale = np.tile([1.0, wx, kp, kp * wx], 2)
        ref_m = ref_m * system.column_scale
        got_m = row_scale[:, None] * system.matrix
        scale = max(1.0, float(np.abs(ref_m).max()))
        worst = max(worst,
                    float(np.abs(got_m - ref_m).max()) / scale,
                    float(np.abs(row_scale * system.rhs - ref_rhs).max()))
    return (worst <= FIDELITY_TOL,
            f"max entry deviation {worst:.3e} over {FIDELITY_SPECS} specs")


@criterion(9, "determinism")
def check_determinism():
    """Criterion 9: a sweep prints the same bytes in a fresh process and in this one.

    Both runs go through cli.main; a sweep loads no logging, so the one in
    this process adds no logging handler to it."""
    passed = True
    details = []
    for fmt in ("csv", "json"):
        argv = ["sweep", "--a", "1", "--v0", "0.3", "--omega0", "1", "--phi", "0",
                "--sweep", "theta:0:3.141592653589793:0.02", "--format", fmt]
        proc = subprocess.run([sys.executable, "-m", "qkg.cli", *argv], capture_output=True)
        if proc.returncode != 0:
            passed = False
            details.append(f"{fmt} run exited {proc.returncode}")
            continue
        with contextlib.redirect_stdout(io.StringIO()) as here:
            code = cli.main(argv)
        same = code == 0 and proc.stdout == here.getvalue().encode() and len(proc.stdout) > 0
        passed = passed and same
        details.append(f"{fmt} identical: {same}")
    return passed, ", ".join(details)


@criterion(10, "stack-unitarity")
def check_stack_unitarity():
    """Criterion 10: deep stacks keep S unitary; short ones match the transfer route.

    S^H S = I and S S^H = I are checked on STACK_DEEP_COUNT stacks of
    STACK_DEEP_PAIRS pairs and one of STACK_HUGE_PAIRS pairs.  On stacks of 1
    to STACK_SHORT_MAX_PAIRS pairs, stack_scatter is held against the
    incident column of transfer_smatrix, moved to the global coordinate; so
    are STACK_EDGE_COUNT short stacks, from their own stream, at V0 = omega0.
    """
    rng = np.random.default_rng(SEED + 5)
    depths = [STACK_DEEP_PAIRS] * STACK_DEEP_COUNT + [STACK_HUGE_PAIRS]
    eye = np.eye(4)
    worst_unitary = 0.0
    for pairs in depths:
        s = stack_smatrix(random_stack(rng, pairs))
        worst_unitary = max(worst_unitary, np.abs(s.conj().T @ s - eye).max(),
                            np.abs(s @ s.conj().T - eye).max())
    short = [random_stack(rng, int(rng.integers(1, STACK_SHORT_MAX_PAIRS + 1)))
             for _ in range(STACK_SHORT_COUNT)]
    edge_rng = np.random.default_rng(SEED + 6)
    for _ in range(STACK_EDGE_COUNT):
        stack = random_stack(edge_rng, int(edge_rng.integers(1, STACK_EDGE_MAX_PAIRS + 1)))
        short.append(LayerStack(tuple(replace(seg, v0=stack.omega0) if seg.v0 else seg
                                      for seg in stack.segments), stack.omega0))
    worst_oracle = 0.0
    for stack in short:
        refl, trans = stack_scatter(stack)
        ref = transfer_smatrix(stack)[:, 0]
        ref[2:] *= np.exp(-1j * stack.omega0 * stack.total_length())
        got = np.array([refl.alpha, refl.beta, trans.alpha, trans.beta])
        worst_oracle = max(worst_oracle, np.abs(got - ref).max())
    return (worst_unitary <= STACK_UNITARITY_TOL and worst_oracle <= STACK_ORACLE_TOL,
            f"unitarity {worst_unitary:.3e} to {max(depths)} pairs, "
            f"transfer route {worst_oracle:.3e} over {STACK_SHORT_COUNT} + "
            f"{STACK_EDGE_COUNT} (V0 = omega0) stacks")


def run_all() -> list[CheckResult]:
    """Run every criterion in order and collect the results."""
    return [check() for check in (
        check_oracle_equivalence, check_back_substitution, check_complex_limit,
        check_taylor_regime, check_no_damping, check_transfer_oracle,
        check_ordering_sanity, check_matrix_fidelity, check_determinism,
        check_stack_unitarity)]
