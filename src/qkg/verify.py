"""End-to-end verification suite.

Nine independent checks cross-validate the solvers against each other and
against frozen expectations.  Each check returns a CheckResult; the command
line prints them as a table and the acceptance tests assert them one by one.
All tolerances are pinned here as constants.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .closedform import amplitudes_closed, amplitudes_taylor
from .matcher import RAW, build_system, solve, solve_spec
from .model import BarrierSpec, mode_ratios, wavenumbers
from .multilayer import (
    LayerStack,
    Segment,
    free_gap,
    ordering_report,
    segment_transfer,
    stack_scatter,
)
from .wavefield import continuity_residuals

SEED = 20260823

# Pinned tolerances and sizes, one block per check.
ORACLE_SPECS = 1000
ORACLE_TOL = 1e-9
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
ORDER_COMPLEX_TOL = 1e-12
FIXTURE_TOL = 1e-10

FIDELITY_SPECS = 100
FIDELITY_TOL = 1e-13
FIDELITY_MIN_SIN = 0.1

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
    skipped: bool = False

    def line(self) -> str:
        tag = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"[{tag}] {self.index} {self.name:<18} {self.detail} ({self.seconds:.2f}s)"


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


def check_oracle_equivalence(quick: bool = False, perturb: float = 0.0) -> CheckResult:
    """Criterion 1: linear solve and closed forms agree on random specs."""
    count = 100 if quick else ORACLE_SPECS
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for spec in random_specs(rng, count):
        solved = solve_spec(spec).as_array()
        closed = amplitudes_closed(spec).as_array()
        if perturb:
            solved = solved.copy()
            solved[6] += perturb
        rel = float(np.abs(solved - closed).max() / np.abs(closed).max())
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    passed = worst <= ORACLE_TOL and (quick or elapsed < ORACLE_SECONDS)
    return CheckResult(1, "oracle-equivalence", passed,
                       f"max rel diff {worst:.3e} over {count} specs", elapsed)


def _system_backward_error(matrix: np.ndarray, c: np.ndarray, rhs: np.ndarray) -> float:
    num = np.linalg.norm(rhs - matrix @ c, np.inf)
    den = (np.linalg.norm(matrix, np.inf) * np.linalg.norm(c, np.inf)
           + np.linalg.norm(rhs, np.inf))
    return float(num / den)


def check_back_substitution(quick: bool = False) -> CheckResult:
    """Criterion 2: solutions satisfy the matching equations and continuity."""
    count = 60 if quick else BACKSUB_SPECS
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    worst_eq = 0.0
    worst_cont = 0.0
    for spec in random_specs(rng, count):
        system = build_system(spec)
        amps = solve(system)
        worst_eq = max(worst_eq, _system_backward_error(
            system.matrix, amps.solution, system.rhs))
        if math.sin(spec.theta) > BACKSUB_RAW_CUT:
            raw = build_system(spec, form=RAW)
            worst_eq = max(worst_eq, _system_backward_error(
                raw.matrix, amps.as_array(), raw.rhs))
        worst_cont = max(worst_cont, *continuity_residuals(spec, amps))
    elapsed = time.perf_counter() - start
    passed = worst_eq <= BACKSUB_TOL and worst_cont <= BACKSUB_TOL
    return CheckResult(2, "back-substitution", passed,
                       f"residual {worst_eq:.3e}, continuity {worst_cont:.3e} "
                       f"over {count} specs", elapsed)


def check_complex_limit(quick: bool = False) -> CheckResult:
    """Criterion 3: theta = 0 gives c2 = c8 = 0 exactly and unit |c1|^2+|c7|^2."""
    grid = 8 if quick else LIMIT_GRID
    start = time.perf_counter()
    exact_zero = True
    worst_unitarity = 0.0
    for a in np.linspace(0.25, 10.0, grid):
        for v0 in np.linspace(0.05, 0.95, grid):
            spec = BarrierSpec(a=float(a), v0=float(v0), omega0=1.0,
                               theta=0.0, phi=0.0)
            amps = solve_spec(spec)
            if amps.c2 != 0 or amps.c8 != 0:
                exact_zero = False
            worst_unitarity = max(worst_unitarity,
                                  abs(abs(amps.c1) ** 2 + abs(amps.c7) ** 2 - 1.0))
    elapsed = time.perf_counter() - start
    passed = exact_zero and worst_unitarity <= LIMIT_UNITARITY_TOL
    return CheckResult(3, "complex-limit", passed,
                       f"c2=c8=0 exact: {exact_zero}, unitarity defect "
                       f"{worst_unitarity:.3e} on {grid}x{grid} grid", elapsed)


def _taylor_errors(scale: float) -> np.ndarray:
    spec = BarrierSpec(a=1e-3 * scale, v0=1e-3 * scale, omega0=1.0,
                       theta=1e-3 * scale, phi=math.pi / 4)
    return np.abs(amplitudes_closed(spec).as_array()
                  - amplitudes_taylor(spec).as_array())


def check_taylor_regime(quick: bool = False) -> CheckResult:
    """Criterion 4: small-parameter expansion matches, errors second order."""
    start = time.perf_counter()
    spec = BarrierSpec(a=1e-3, v0=1e-3, omega0=1.0, theta=1e-3, phi=math.pi / 4)
    taylor = amplitudes_taylor(spec).as_array()
    err_full = _taylor_errors(1.0)
    err_half = _taylor_errors(0.5)
    scale = np.abs(taylor).max()
    worst_rel = 0.0
    for err, ref in zip(err_full, np.abs(taylor)):
        # components whose expansion is identically zero are judged against
        # the overall amplitude scale
        worst_rel = max(worst_rel, err / (ref if ref > 0.0 else scale))
    worst_shrink = math.inf
    for full, half in zip(err_full, err_half):
        if full > TAYLOR_ERR_FLOOR:
            worst_shrink = min(worst_shrink, full / half)
    elapsed = time.perf_counter() - start
    passed = worst_rel <= TAYLOR_REL and worst_shrink >= TAYLOR_SHRINK
    return CheckResult(4, "taylor-regime", passed,
                       f"worst rel err {worst_rel:.3e}, halving shrink "
                       f"x{worst_shrink:.1f}", elapsed)


def check_no_damping(quick: bool = False) -> CheckResult:
    """Criterion 5: |c8| does not decay with barrier width."""
    step = 0.05 if quick else DAMPING_STEP
    start = time.perf_counter()

    def max_c8(a_lo: float, a_hi: float) -> float:
        peak = 0.0
        steps_lo = int(round(a_lo / step))
        steps_hi = int(round(a_hi / step))
        for i in range(steps_lo, steps_hi + 1):
            a = i * step
            if a <= 0.0:
                continue
            spec = BarrierSpec(a=a, v0=0.3, omega0=1.0,
                               theta=math.pi / 2, phi=0.0)
            peak = max(peak, abs(amplitudes_closed(spec).c8))
        return peak

    near = max_c8(0.0, 50.0)
    far = max_c8(50.0, 100.0)
    elapsed = time.perf_counter() - start
    passed = far >= DAMPING_RATIO * near and (quick or elapsed < DAMPING_SECONDS)
    return CheckResult(5, "no-damping", passed,
                       f"max|c8| {near:.4f} on (0,50], {far:.4f} on [50,100]",
                       elapsed)


def check_transfer_oracle(quick: bool = False) -> CheckResult:
    """Criterion 6: transfer-matrix route reproduces the matching solver."""
    count = 40 if quick else TRANSFER_SPECS
    rng = np.random.default_rng(SEED + 2)
    start = time.perf_counter()
    worst_scatter = 0.0
    worst_bisect = 0.0
    worst_gap = 0.0
    for spec in random_specs(rng, count):
        amps = solve_spec(spec)
        seg = Segment.from_barrier(spec)
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
        defect = np.abs(second.matrix @ first.matrix - whole.matrix).max()
        worst_bisect = max(worst_bisect,
                           defect / max(1.0, np.abs(whole.matrix).max()))

        _, trans_gap = stack_scatter(
            LayerStack((seg, free_gap(0.0)), spec.omega0))
        worst_gap = max(worst_gap, abs(trans_gap.alpha - trans.alpha),
                        abs(trans_gap.beta - trans.beta))
    elapsed = time.perf_counter() - start
    passed = (worst_scatter <= TRANSFER_TOL and worst_bisect <= BISECTION_TOL
              and worst_gap <= GAP_INSERT_TOL)
    return CheckResult(6, "transfer-oracle", passed,
                       f"scatter {worst_scatter:.3e}, bisection {worst_bisect:.3e}, "
                       f"gap insertion {worst_gap:.3e} over {count} specs", elapsed)


def check_ordering_sanity(quick: bool = False) -> CheckResult:
    """Criterion 7: ordering differences vanish when they must; fixture holds."""
    start = time.perf_counter()
    seg = Segment(1.0, 0.45, 1.1, 0.7)
    rep_same = ordering_report(seg, seg, 1.5, 1.0)
    identical_ok = max(rep_same.d_prob, rep_same.d_amp) <= ORDER_IDENTICAL_TOL

    rng = np.random.default_rng(SEED + 3)
    worst_complex = 0.0
    for _ in range(5 if quick else 20):
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
    elapsed = time.perf_counter() - start
    passed = identical_ok and complex_ok and fixture_ok
    return CheckResult(7, "ordering-sanity", passed,
                       f"identical {max(rep_same.d_prob, rep_same.d_amp):.1e}, "
                       f"complex d_prob {worst_complex:.1e}, fixture d_amp "
                       f"{rep.d_amp:.12f}", elapsed)


def _transcribed_matrix(spec: BarrierSpec) -> tuple[np.ndarray, np.ndarray]:
    """Independent literal transcription of the raw matching system."""
    disp = wavenumbers(spec)
    ratios = mode_ratios(spec.theta, spec.phi)
    rp, rm = ratios.r_plus, ratios.r_minus
    k0, kp, km = disp.k0, disp.k_plus, disp.k_minus
    a = spec.a
    epp, epm = np.exp(1j * a * kp), np.exp(-1j * a * kp)
    emp, emm = np.exp(1j * a * km), np.exp(-1j * a * km)
    e0 = np.exp(1j * a * k0)
    matrix = np.array([
        [1, 0, -1, -1, -1, -1, 0, 0],
        [0, 1, -rp, -rp, -rm, -rm, 0, 0],
        [-k0, 0, -kp, kp, -km, km, 0, 0],
        [0, -k0, -kp * rp, kp * rp, -km * rm, km * rm, 0, 0],
        [0, 0, epp, epm, emp, emm, -e0, 0],
        [0, 0, epp * rp, epm * rp, emp * rm, emm * rm, 0, -e0],
        [0, 0, epp * kp, -epm * kp, emp * km, -emm * km, -e0 * k0, 0],
        [0, 0, epp * kp * rp, -epm * kp * rp, emp * km * rm, -emm * km * rm,
         0, -e0 * k0],
    ], dtype=complex)
    rhs = -np.array([1, 0, k0, 0, 0, 0, 0, 0], dtype=complex)
    return matrix, rhs


def check_matrix_fidelity(quick: bool = False) -> CheckResult:
    """Criterion 8: assembled raw system equals the literal transcription."""
    count = 20 if quick else FIDELITY_SPECS
    rng = np.random.default_rng(SEED + 4)
    start = time.perf_counter()
    worst = 0.0
    done = 0
    while done < count:
        spec = random_specs(rng, 1)[0]
        if math.sin(spec.theta) <= FIDELITY_MIN_SIN:
            continue
        done += 1
        system = build_system(spec, form=RAW)
        ref_m, ref_rhs = _transcribed_matrix(spec)
        scale = max(1.0, float(np.abs(ref_m).max()))
        worst = max(worst,
                    float(np.abs(system.matrix - ref_m).max()) / scale,
                    float(np.abs(system.rhs - ref_rhs).max()))
    elapsed = time.perf_counter() - start
    passed = worst <= FIDELITY_TOL
    return CheckResult(8, "matrix-fidelity", passed,
                       f"max entry deviation {worst:.3e} over {count} specs",
                       elapsed)


def check_determinism(quick: bool = False) -> CheckResult:
    """Criterion 9: sweeps are byte-identical run to run."""
    if quick:
        return CheckResult(9, "determinism", True,
                           "skipped in quick mode", 0.0, skipped=True)
    start = time.perf_counter()
    passed = True
    details = []
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            blobs = []
            for run in range(2):
                out = os.path.join(tmp, f"sweep-{run}.{fmt}")
                cmd = [sys.executable, "-m", "qkg.cli", "sweep",
                       "--a", "1", "--v0", "0.3", "--omega0", "1",
                       "--phi", "0",
                       "--sweep", "theta:0:3.141592653589793:0.02",
                       "--format", fmt, "--out", out]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    passed = False
                    details.append(f"{fmt} run exited {proc.returncode}")
                    blobs = []
                    break
                blobs.append(Path(out).read_bytes())
            if blobs:
                same = blobs[0] == blobs[1] and len(blobs[0]) > 0
                passed = passed and same
                details.append(f"{fmt} identical: {same}")
    elapsed = time.perf_counter() - start
    return CheckResult(9, "determinism", passed, ", ".join(details), elapsed)


def run_all(quick: bool = False, perturb: float = 0.0) -> list[CheckResult]:
    """Run every check in order and collect the results."""
    return [
        check_oracle_equivalence(quick, perturb),
        check_back_substitution(quick),
        check_complex_limit(quick),
        check_taylor_regime(quick),
        check_no_damping(quick),
        check_transfer_oracle(quick),
        check_ordering_sanity(quick),
        check_matrix_fidelity(quick),
        check_determinism(quick),
    ]
