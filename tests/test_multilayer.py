import cmath
import dataclasses
import math

import numpy as np
import pytest
from mpmath import mp

from qkg import cli, multilayer
from qkg.closedform import coupled, slab_rt
from qkg.errors import SingularSystemError
from qkg.matcher import solve_spec
from qkg.model import mode_ratios
from qkg.multilayer import (
    LayerStack,
    Segment,
    compose,
    free_gap,
    ordering_report,
    segment_transfer,
    stack_scatter,
    stack_smatrix,
    stack_transfer,
    transfer_smatrix,
)
from qkg.quaternion import SymplecticPair
from qkg.verify import STACK_ORACLE_TOL, random_stack

# Orthogonal-direction regression fixture: two unit-width barriers with
# V0 = 0.3 at theta = pi/2, one along phi = 0 and one along phi = pi/2,
# separated by a gap of 2 at omega0 = 1.  Values recorded from the first
# run of this configuration; the ordering check must reproduce them.
FIXTURE_T_AB = (0.88598154220073277 + 0.0061471313947955289j,
                0.27279746344137201 - 0.24559508470718563j)
FIXTURE_T_BA = (0.85572972772663647 + 0.054637986938134514j,
                0.27279746344137179 - 0.24559508470718547j)
FIXTURE_D_PROB = 0.049742403813018754
FIXTURE_D_AMP = 0.05715361187449234


def fixture_segments():
    seg_a = Segment(1.0, 0.3, math.pi / 2, 0.0)
    seg_b = Segment(1.0, 0.3, math.pi / 2, math.pi / 2)
    return seg_a, seg_b


class TestSegments:
    def test_validation(self):
        with pytest.raises(ValueError):
            Segment(-1.0, 0.3, 0.0, 0.0)
        with pytest.raises(ValueError):
            Segment(1.0, -0.3, 0.0, 0.0)

    @pytest.mark.parametrize("theta, phi", [(9.0, 0.0), (math.nan, 0.0),
                                            (1.0, 7.0)])
    def test_angles_validated(self, theta, phi):
        with pytest.raises(ValueError):
            Segment(1.0, 0.3, theta, phi)

    @pytest.mark.parametrize("field, named", [
        ("length", "width"), ("v0", "potential"), ("theta", "theta"), ("phi", "phi"),
    ])
    def test_int_past_the_float_range_named(self, field, named):
        base = {"length": 1.0, "v0": 0.3, "theta": 1.0, "phi": 0.0}
        base[field] = 10**400
        with pytest.raises(ValueError, match=rf"^{named} must .*, got 1000000000"):
            Segment(**base)

    def test_int_gap_and_frequency_past_the_float_range_named(self):
        seg_a, seg_b = fixture_segments()
        with pytest.raises(ValueError, match="^gap must be >= 0, got 1000000000"):
            ordering_report(seg_a, seg_b, 10**400, 1.0)
        with pytest.raises(ValueError, match="^frequency must satisfy omega0 > 0, got 1000"):
            LayerStack((seg_a,), 10**400)
        with pytest.raises(ValueError, match="^frequency must satisfy omega0 > 0, got 1000"):
            segment_transfer(seg_a, 10**400)

    def test_degenerate_segment_answered(self):
        # at k_minus = 0 the slow branch's sin(qL)/q block is L
        t = segment_transfer(Segment(1.0, 1.0, 0.0, 0.0), 1.0)
        assert np.isfinite(t).all()
        assert t[0, 2] == 1.0 and t[0, 0] == 1.0 and t[2, 0] == 0.0
        # the transfer product of two halves is the whole segment
        half = segment_transfer(Segment(0.5, 1.0, 0.5, 0.0), 1.0)
        whole = segment_transfer(Segment(1.0, 1.0, 0.5, 0.0), 1.0)
        assert np.abs(half @ half - whole).max() <= 1e-15

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            LayerStack((), 1.0)
        # the same rule and message as BarrierSpec's frequency
        with pytest.raises(ValueError, match=r"^frequency must satisfy omega0 > 0, got 0.0$"):
            LayerStack((free_gap(1.0),), 0.0)

    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan, math.inf])
    def test_segment_transfer_checks_the_frequency(self, omega0):
        with pytest.raises(ValueError, match="frequency must satisfy omega0 > 0"):
            segment_transfer(free_gap(1.0), omega0)

    def test_negative_gap_rejected(self):
        seg_a, seg_b = fixture_segments()
        with pytest.raises(ValueError, match=r"^gap must be >= 0, got -1.0$"):
            ordering_report(seg_a, seg_b, -1.0, 1.0)

    @pytest.mark.parametrize("seg, omega0", [
        (Segment(1e308, 0.3, 1.0, 0.0), 10.0),
        (free_gap(1e308), 10.0),
        (Segment(1.0, 1e308, 1.0, 0.0), 1e308),
    ])
    def test_phase_out_of_float_range_named(self, seg, omega0):
        with pytest.raises(ValueError, match="float range") as info:
            segment_transfer(seg, omega0)
        for value in (seg.length, seg.v0, omega0):
            assert str(value) in str(info.value)

    def test_first_bad_segment_named(self):
        # the third and fifth segments both leave the float range; the
        # error is the one segment_transfer gives for the third
        segs = (Segment(1.0, 0.3, 1.0, 0.0), free_gap(2.0),
                Segment(1e308, 0.25, 1.0, 0.0), free_gap(2.0),
                Segment(1e308, 0.35, 1.0, 0.0))
        with pytest.raises(ValueError) as expect:
            segment_transfer(segs[2], 10.0)
        with pytest.raises(ValueError) as info:
            stack_scatter(LayerStack(segs, 10.0))
        assert str(info.value) == str(expect.value)
        assert "v0 = 0.25" in str(info.value)

    def test_batch_checked_stack_by_stack(self):
        # the first stack's second segment wins over the second stack's first
        far, near = Segment(1e308, 0.25, 1.0, 0.0), Segment(1e308, 0.35, 1.0, 0.0)
        stacks = (LayerStack((free_gap(1.0), far), 10.0), LayerStack((near, free_gap(1.0)), 10.0))
        with pytest.raises(ValueError, match="v0 = 0.25"):
            multilayer._smatrices(stacks)

    def test_degenerate_segments_match_transfer_route(self):
        # V0 = omega0 exactly and just inside the old band both answer
        segs = (free_gap(1.0), Segment(1.0, 2.0, 1.0, 0.0),
                Segment(1.0, 2.0 * (1 + 1e-12), 0.5, 0.0))
        stack = LayerStack(segs, 2.0)
        assert np.abs(scatter_column(stack) - transfer_scatter(stack)).max() \
            <= STACK_ORACLE_TOL
        assert flux_defect(stack) <= 1e-15

    def test_total_phase_out_of_float_range_named(self):
        stack = LayerStack((free_gap(1e308), free_gap(1e308)), 1.0)
        with pytest.raises(ValueError, match="total length inf"):
            stack_scatter(stack)


class TestTransferMatrices:
    def test_zero_length_is_identity(self):
        t = segment_transfer(Segment(0.0, 0.55, 1.2, 0.3), 1.0)
        assert np.array_equal(t, np.eye(4, dtype=complex))

    def test_free_gap_entries(self):
        k0, length = 1.3, 0.9
        t = segment_transfer(free_gap(length), k0)
        c, s = math.cos(k0 * length), math.sin(k0 * length)
        expect = np.block([
            [c * np.eye(2), (s / k0) * np.eye(2)],
            [(-k0 * s) * np.eye(2), c * np.eye(2)],
        ])
        assert np.allclose(t, expect, atol=1e-15)

    def test_composition_order(self):
        first = Segment(0.8, 0.2, 1.0, 0.0)
        second = Segment(1.1, 0.5, 2.0, 1.0)
        stacked = stack_transfer(LayerStack((first, second), 1.0))
        t1 = segment_transfer(first, 1.0)
        t2 = segment_transfer(second, 1.0)
        assert np.allclose(stacked, (t2 @ t1), atol=1e-14)
        assert np.allclose(compose(t2, t1), stacked, atol=1e-14)

    def test_bisection(self, rng):
        for _ in range(20):
            v0 = rng.uniform(0.05, 0.9)
            length = rng.uniform(0.1, 10.0)
            cut = length * rng.uniform(0.2, 0.8)
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            whole = segment_transfer(Segment(length, v0, theta, phi), 1.0)
            left = segment_transfer(Segment(cut, v0, theta, phi), 1.0)
            right = segment_transfer(Segment(length - cut, v0, theta, phi), 1.0)
            scale = max(1.0, np.abs(whole).max())
            assert np.abs(right @ left - whole).max() < 1e-12 * scale

    def test_determinant_is_one(self, rng):
        # each block matrix is a symplectic propagator
        for _ in range(10):
            seg = Segment(rng.uniform(0.1, 5), rng.uniform(0, 0.9),
                          rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            det = np.linalg.det(segment_transfer(seg, 1.0))
            assert det == pytest.approx(1.0, abs=1e-10)


class TestStackScattering:
    def test_free_stack_is_transparent(self):
        refl, trans = stack_scatter(LayerStack((free_gap(1.7), free_gap(2.4)), 1.3))
        assert abs(refl.alpha) < 1e-14 and abs(refl.beta) < 1e-14
        assert trans.alpha == pytest.approx(1.0, abs=1e-12)
        assert abs(trans.beta) < 1e-14

    def test_single_segment_matches_matching_solver(self, spec_factory):
        for _ in range(40):
            spec = spec_factory()
            amps = solve_spec(spec)
            refl, trans = stack_scatter(
                LayerStack((Segment(spec.a, spec.v0, spec.theta, spec.phi),), spec.omega0))
            assert abs(refl.alpha - amps.c1) < 1e-10
            assert abs(refl.beta - amps.c2) < 1e-10
            assert abs(trans.alpha - amps.c7) < 1e-10
            assert abs(trans.beta - amps.c8) < 1e-10

    def test_zero_gap_insertion_is_noop(self, spec_point):
        seg = Segment(spec_point.a, spec_point.v0, spec_point.theta, spec_point.phi)
        _, bare = stack_scatter(LayerStack((seg,), 1.0))
        _, padded = stack_scatter(LayerStack((seg, free_gap(0.0)), 1.0))
        assert abs(bare.alpha - padded.alpha) < 1e-13
        assert abs(bare.beta - padded.beta) < 1e-13

    def test_theta_zero_stack_against_scalar_transfer(self):
        # with every direction at the pole the alpha sector sees wavenumber
        # |omega0 - v0| per layer and decouples; a hand-rolled 2x2 scalar
        # transfer chain is an independent oracle for the transmission
        k0 = 1.0
        segs = (Segment(1.3, 0.25, 0.0, 0.0), free_gap(0.8),
                Segment(0.6, 0.55, 0.0, 0.0))
        total = np.eye(2)
        for seg in segs:
            q = abs(k0 - seg.v0)
            c, s = math.cos(q * seg.length), math.sin(q * seg.length)
            total = np.array([[c, s / q], [-q * s, c]]) @ total
        length = sum(s.length for s in segs)
        e_end = cmath.exp(1j * k0 * length)
        m2 = np.column_stack([total @ np.array([1, -1j * k0]),
                              [-e_end, -1j * k0 * e_end]])
        rhs = -(total @ np.array([1, 1j * k0]))
        _, t_scalar = np.linalg.solve(m2, rhs)

        _, trans = stack_scatter(LayerStack(segs, k0))
        assert abs(trans.alpha - t_scalar) < 1e-12
        assert trans.beta == 0.0


class TestOrdering:
    def test_batch_equals_separate_scatters(self, rng):
        for _ in range(20):
            omega0 = rng.uniform(0.5, 2.0)
            seg_a, seg_b = (Segment(rng.uniform(0.2, 3), omega0 * rng.uniform(0.05, 0.9),
                                    rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                            for _ in range(2))
            gap = rng.uniform(0, 4)
            report = ordering_report(seg_a, seg_b, gap, omega0)
            _, t_ab = stack_scatter(LayerStack((seg_a, free_gap(gap), seg_b), omega0))
            _, t_ba = stack_scatter(LayerStack((seg_b, free_gap(gap), seg_a), omega0))
            for got, want in ((report.transmission_ab, t_ab),
                              (report.transmission_ba, t_ba)):
                assert abs(got.alpha - want.alpha) <= 1e-15
                assert abs(got.beta - want.beta) <= 1e-15

    def test_identical_segments_commute(self):
        seg = Segment(1.0, 0.45, 1.1, 0.7)
        report = ordering_report(seg, seg, 1.5, 1.0)
        assert report.d_prob < 1e-15
        assert report.d_amp < 1e-15

    def test_pole_directions_commute(self, rng):
        # both barriers complex-valued: reciprocity forces equal transmission
        for _ in range(10):
            seg_a = Segment(rng.uniform(0.2, 3), rng.uniform(0.05, 0.9), 0.0, 0.0)
            seg_b = Segment(rng.uniform(0.2, 3), rng.uniform(0.05, 0.9), 0.0, 0.0)
            report = ordering_report(seg_a, seg_b, rng.uniform(0, 4), 1.0)
            assert report.d_prob < 1e-12
            assert report.d_amp < 1e-12

    def test_orthogonal_directions_fixture(self):
        seg_a, seg_b = fixture_segments()
        report = ordering_report(seg_a, seg_b, 2.0, 1.0)
        assert abs(report.transmission_ab.alpha - FIXTURE_T_AB[0]) < 1e-10
        assert abs(report.transmission_ab.beta - FIXTURE_T_AB[1]) < 1e-10
        assert abs(report.transmission_ba.alpha - FIXTURE_T_BA[0]) < 1e-10
        assert abs(report.transmission_ba.beta - FIXTURE_T_BA[1]) < 1e-10
        assert report.d_prob == pytest.approx(FIXTURE_D_PROB, abs=1e-10)
        assert report.d_amp == pytest.approx(FIXTURE_D_AMP, abs=1e-10)

    def test_orthogonal_directions_break_reciprocity(self):
        # the observable effect: swapping non-commuting barriers changes
        # the transmitted intensity, not just its phase
        seg_a, seg_b = fixture_segments()
        report = ordering_report(seg_a, seg_b, 2.0, 1.0)
        assert report.d_prob > 0.01
        assert report.d_amp > 0.01

    def test_negative_gap_rejected(self):
        seg_a, seg_b = fixture_segments()
        with pytest.raises(ValueError):
            ordering_report(seg_a, seg_b, -0.5, 1.0)


def branch_t2(stack):
    """Smallest |t|^2 of any segment branch, from the scalar slab formula."""
    k0 = stack.omega0
    worst = 1.0
    for seg in stack.segments:
        for q in (abs(k0 - seg.v0), k0 + seg.v0):
            s, c = math.sin(q * seg.length), math.cos(q * seg.length)
            worst = min(worst, 1.0 / abs(c - 0.5j * s * (k0 / q + q / k0)) ** 2)
    return worst


def hard_v0(rng):
    return 1e9 * rng.uniform(0.5, 1.0)


def half_hard_v0(rng):
    return (1e9, 1.0)[rng.integers(2)] * rng.uniform(0.1, 0.9)


def mirror_stack(rng, pairs, v0=hard_v0):
    """Barrier + gap pairs at omega0 = 1, lengths and gaps on [0.5, 1.5]."""
    segs = []
    for _ in range(pairs):
        segs += (Segment(rng.uniform(0.5, 1.5), v0(rng),
                         rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)),
                 free_gap(rng.uniform(0.5, 1.5)))
    return LayerStack(tuple(segs), 1.0)


def mp_transfer_column(stack, dps):
    """Incident column of transfer_scatter, computed in mpmath at dps digits."""
    with mp.workdps(dps):
        k0 = mp.mpf(stack.omega0)
        total = mp.eye(4)
        for seg in stack.segments:
            length, v0 = mp.mpf(seg.length), mp.mpf(seg.v0)
            sin_theta = mp.sin(seg.theta)
            cross = mp.mpc(sin_theta * mp.sin(seg.phi), sin_theta * mp.cos(seg.phi))
            n = mp.matrix([[mp.cos(seg.theta), mp.conj(cross)], [cross, -mp.cos(seg.theta)]])
            p_minus, p_plus = (mp.eye(2) + n) / 2, (mp.eye(2) - n) / 2
            km, kp = abs(k0 - v0), k0 + v0
            c = mp.cos(km * length) * p_minus + mp.cos(kp * length) * p_plus
            s = ((mp.sin(km * length) / km if km else length) * p_minus
                 + (mp.sin(kp * length) / kp) * p_plus)
            ks = km * mp.sin(km * length) * p_minus + kp * mp.sin(kp * length) * p_plus
            t = mp.matrix(4, 4)
            for i in range(2):
                for j in range(2):
                    t[i, j] = t[i + 2, j + 2] = c[i, j]
                    t[i, j + 2], t[i + 2, j] = s[i, j], -ks[i, j]
            total = t * total
        # left a e^{i k0 x} + b e^{-i k0 x} with a = (1, 0); right c e^{i k0 x'}
        ik = 1j * k0
        m4 = mp.matrix(4, 4)
        for i in range(4):
            m4[i, 0] = total[i, 0] - ik * total[i, 2]
            m4[i, 1] = total[i, 1] - ik * total[i, 3]
        m4[0, 2], m4[1, 3], m4[2, 2], m4[3, 3] = -1, -1, -ik, -ik
        rhs = mp.matrix([-(total[i, 0] + ik * total[i, 2]) for i in range(4)])
        col = mp.lu_solve(m4, rhs)
        back = mp.exp(-ik * mp.fsum(mp.mpf(seg.length) for seg in stack.segments))
        return [col[0], col[1], col[2] * back, col[3] * back]


def mp_transfer_scatter(stack):
    """mp_transfer_column at dps = 40 + 4 pairs log10(max (omega0 + V0) / omega0).

    The transfer product cancels about log10 of that ratio per barrier.  The
    answer is accepted only if doubling dps moves it by less than 1e-25.
    """
    ratio = max((stack.omega0 + seg.v0) / stack.omega0 for seg in stack.segments)
    dps = int(40 + 4 * (len(stack.segments) // 2) * math.log10(ratio))
    ref, finer = mp_transfer_column(stack, dps), mp_transfer_column(stack, 2 * dps)
    with mp.workdps(2 * dps):
        assert max(abs(x - y) for x, y in zip(ref, finer)) < mp.mpf("1e-25")
    return np.array([complex(z) for z in finer])


def transfer_scatter(stack):
    """Incident column of transfer_smatrix, transmission moved to global x."""
    col = transfer_smatrix(stack)[:, 0]
    col[2:] *= cmath.exp(-1j * stack.omega0 * stack.total_length())
    return col


def scatter_column(stack):
    refl, trans = stack_scatter(stack)
    return np.array([refl.alpha, refl.beta, trans.alpha, trans.beta])


def flux_defect(stack):
    refl, trans = stack_scatter(stack)
    return abs(refl.norm2() + trans.norm2() - 1.0)


class TestStarProductRoute:
    @pytest.mark.parametrize("pairs, count", [(200, 5), (1000, 3), (10_000, 1)])
    def test_deep_stacks_conserve_flux(self, rng, pairs, count):
        for _ in range(count):
            assert flux_defect(random_stack(rng, pairs)) <= 1e-13

    def test_smatrix_is_unitary(self, rng):
        for _ in range(5):
            s = stack_smatrix(random_stack(rng, 300))
            assert np.abs(s.conj().T @ s - np.eye(4)).max() < 1e-12
            assert np.abs(s @ s.conj().T - np.eye(4)).max() < 1e-12

    def test_short_stacks_match_transfer_route(self, rng):
        for _ in range(200):
            stack = random_stack(rng, int(rng.integers(1, 21)))
            ref = transfer_scatter(stack)
            diff = np.abs(scatter_column(stack) - ref).max()
            assert diff <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", [11, 12])
    def test_stack_route_is_phi_covariant(self, seed):
        # turning every barrier's direction about the i axis by delta leaves
        # the alpha parts and multiplies the beta parts by e^{-i delta}
        rng = np.random.default_rng(seed)
        for _ in range(300):
            stack = random_stack(rng, int(rng.integers(1, 40)))
            delta = rng.uniform(0.0, 2.0 * math.pi)
            turned = LayerStack(tuple(
                dataclasses.replace(seg, phi=(seg.phi + delta) % (2.0 * math.pi)) if seg.v0
                else seg for seg in stack.segments), stack.omega0)
            phase = cmath.exp(-1j * delta)
            for base, rotated in zip(stack_scatter(stack), stack_scatter(turned)):
                assert abs(rotated.alpha - base.alpha) <= 1e-13
                assert abs(rotated.beta - phase * base.beta) <= 1e-13

    def test_hard_mirror_floor_on_both_sides(self, rng):
        # small omega0 under V0 ~ 0.5 makes every barrier a strong mirror;
        # log-uniform omega0 puts the weakest branch |t|^2 on both sides of
        # 2^-52, where |r| rounds to 1, and the star products answer both
        for _ in range(300):
            omega0 = 10.0 ** rng.uniform(-10.0, -6.5)
            segs = []
            for _ in range(int(rng.integers(1, 4))):
                segs += (Segment(rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.9),
                                 rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                         free_gap(rng.uniform(0.5, 1.5)))
            stack = LayerStack(tuple(segs), omega0)
            ref = transfer_scatter(stack)
            diff = np.abs(scatter_column(stack) - ref).max()
            assert diff <= 1e-10 * np.abs(ref).max()

    def test_cavity_between_strong_mirrors_takes_the_transfer_route(self):
        # every branch |t|^2 >= 2^-52, but the star products lose 1.6e-7 of flux on this
        # resonance, so the answer comes from the transfer route
        params = ((0.6109658761730266, 0.4635846166409403, 3.135230962881112,
                   5.015359981093782, 1.3265381408324592),
                  (1.3084644467873208, 0.6009776304793354, 1.0652818436320164,
                   2.6573969496444128, 1.0039764151740311),
                  (0.9493374784051268, 0.673136598567345, 0.8728181673527842,
                   1.1138439587914561, 1.014670368296219),
                  (0.5313317455565554, 0.8875403065062789, 2.5960453927776284,
                   0.5128794276609915, 0.9894614297680226))
        segs = []
        for length, v0, theta, phi, gap in params:
            segs += (Segment(length, v0, theta, phi), free_gap(gap))
        stack = LayerStack(tuple(segs), 3.0418761233297003e-08)
        assert branch_t2(stack) >= 2.0 ** -52
        s = stack_smatrix(stack)
        assert np.array_equal(s, transfer_smatrix(stack))
        assert np.abs(s.conj().T @ s - np.eye(4)).max() < 1e-12

    def test_strong_mirrors_at_large_v0_stay_on_star_products(self, rng):
        # V0 = 1e4 omega0: the transfer route loses all flux from about
        # five pairs on, the star products keep it
        segs = []
        for _ in range(20):
            segs += (Segment(rng.uniform(0.5, 1.5), 1e4 * rng.uniform(0.5, 1.0),
                             rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                     free_gap(rng.uniform(0.5, 1.5)))
        stack = LayerStack(tuple(segs), 1.0)
        assert branch_t2(stack) >= 2.0 ** -52
        assert flux_defect(stack) <= 1e-13
        ref = transfer_smatrix(stack)
        assert np.abs((abs(ref) ** 2).sum(axis=0) - 1.0).max() > 1.0

    def test_tiny_omega0_takes_the_transfer_route(self):
        # 1 - |t|^2 rounds |r| to 1 here; the answer matches a 60-digit
        # transfer solve to all printed digits
        seg_a = Segment(1.0, 0.3, 1.0, 0.0)
        seg_b = Segment(1.0, 0.3, 1.0, 1.0)
        report = ordering_report(seg_a, seg_b, 0.0, 1e-300)
        assert report.transmission_ab.alpha == 1.1806881311251503e-299j

    @pytest.mark.parametrize("seed, pairs, v0", [
        *((3, pairs, hard_v0) for pairs in (3, 5, 20)),
        *((seed, seed % 6 + 1, hard_v0) for seed in range(12)),
        *((seed, seed % 6 + 1, half_hard_v0) for seed in range(100, 112)),
    ])
    def test_hard_mirrors_match_high_precision_transfer_solve(self, seed, pairs, v0):
        # V0 ~ 1e9 omega0 gives every barrier branch |t|^2 < 2^-52; the
        # half-hard stacks mix such barriers with V0 < omega0 ones
        stack = mirror_stack(np.random.default_rng(seed), pairs, v0)
        assert np.abs(scatter_column(stack) - mp_transfer_scatter(stack)).max() \
            <= STACK_ORACLE_TOL

    def test_two_mirror_ordering_matches_high_precision_transfer_solve(self):
        seg_a, seg_b = Segment(1.0, 1e9, 1.0, 0.0), Segment(1.0, 1e9, 1.0, 1.0)
        for first, second in ((seg_a, seg_b), (seg_b, seg_a)):
            stack = LayerStack((first, free_gap(0.5), second), 1.0)
            assert np.abs(scatter_column(stack) - mp_transfer_scatter(stack)).max() \
                <= STACK_ORACLE_TOL
        report = ordering_report(seg_a, seg_b, 0.5, 1.0)
        assert report.transmission_ab.alpha == \
            -1.5487833427222845e-17 + 8.4585891565807821e-18j

    def test_theta_zero_keeps_beta_exactly_zero(self, rng):
        segs = []
        for _ in range(100):
            segs += (Segment(rng.uniform(0.5, 1.5), rng.uniform(0.05, 0.9), 0.0, 0.0),
                     free_gap(rng.uniform(0.0, 2.0)))
        stack = LayerStack(tuple(segs), 1.0)
        refl, trans = stack_scatter(stack)
        assert refl.beta == 0.0 and trans.beta == 0.0
        s = stack_smatrix(stack)
        assert not s[0::2, 1::2].any() and not s[1::2, 0::2].any()


def unfolded(stacks):
    """Star tree over every segment's S-matrix, free gaps included."""
    columns = [[(seg.length, seg.v0, seg.theta, seg.phi) for seg in stack.segments]
               for stack in stacks]
    length, v0, theta, phi = np.array(columns, dtype=float).T
    k0 = stacks[0].omega0
    rt = np.array(slab_rt(np.array((np.abs(k0 - v0), np.abs(k0 + v0))), k0, length))
    return multilayer._star_tree(multilayer._segment_smatrices(rt[:, 0], rt[:, 1], theta, phi))


def random_barrier(rng, omega0=1.0):
    return Segment(rng.uniform(0.2, 3.0), omega0 * rng.uniform(0.05, 0.9),
                   rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))


class TestGapFold:
    """A free gap's S-matrix is [[0, e], [e, 0]]; where every first-level
    pair of the star tree ends in one, its phase is folded into the left
    neighbour instead of a star product."""

    def test_fold_is_the_star_product_on_barrier_gap_stacks(self, rng):
        for _ in range(100):
            stack = random_stack(rng, int(rng.integers(1, 21)))
            diff = np.abs(multilayer._smatrices((stack,)) - unfolded((stack,))).max()
            assert diff <= 1e-14

    def test_fold_is_the_star_product_on_the_ordering_batch(self, rng):
        for _ in range(20):
            seg_a, seg_b = random_barrier(rng), random_barrier(rng)
            spacer = free_gap(rng.uniform(0.0, 4.0))
            stacks = (LayerStack((seg_a, spacer, seg_b), 1.0),
                      LayerStack((seg_b, spacer, seg_a), 1.0))
            assert np.abs(multilayer._smatrices(stacks) - unfolded(stacks)).max() <= 1e-14

    @pytest.mark.parametrize("layout", ["BGB", "BZBZ", "BZB", "GGG", "GG", "GGGG", "BG"])
    def test_fold_is_the_star_product_on_other_folding_layouts(self, rng, layout):
        # G a free gap, Z a zero-length gap, B a barrier
        make = {"B": lambda: random_barrier(rng), "Z": lambda: free_gap(0.0),
                "G": lambda: free_gap(rng.uniform(0.0, 20.0))}
        for _ in range(20):
            stack = LayerStack(tuple(make[c]() for c in layout), 1.0)
            diff = np.abs(multilayer._smatrices((stack,)) - unfolded((stack,))).max()
            assert diff <= 1e-14

    @pytest.mark.parametrize("layout", ["GBGB", "BGGB", "BBG"])
    def test_layouts_that_cannot_fold_run_the_full_tree(self, rng, layout):
        # some first-level pair ends in a barrier, so every segment gets its
        # S-matrix and the answer is the full star tree's, bit for bit
        for _ in range(20):
            stack = LayerStack(tuple(random_barrier(rng) if c == "B" else
                                     free_gap(rng.uniform(0.0, 20.0)) for c in layout), 1.0)
            assert np.array_equal(multilayer._smatrices((stack,)), unfolded((stack,)))

    def test_batch_folds_only_if_every_stack_can(self, rng):
        # the second stack's first pair ends in a barrier
        seg_a, seg_b = random_barrier(rng), random_barrier(rng)
        stacks = (LayerStack((seg_a, free_gap(1.0), seg_b, free_gap(2.0)), 1.0),
                  LayerStack((free_gap(1.0), seg_a, free_gap(2.0), seg_b), 1.0))
        assert np.array_equal(multilayer._smatrices(stacks), unfolded(stacks))

    def test_free_segment_ordering_is_a_single_barrier(self):
        # [F, G, B] and [B, G, F] are one barrier either way; the two stacks
        # fold differently, so the difference is rounding only
        barrier = Segment(1.0, 0.3, 1.0, 1.0)
        report = ordering_report(Segment(1.0, 0.0, 0.0, 0.0), barrier, 0.5, 1.0)
        eps = np.finfo(float).eps
        assert report.d_prob <= 4 * eps
        assert report.d_amp <= 4 * eps


# A literal reference for the star-product route: the five block products of
# the star and the two slab_rt calls (barriers, then the folded gaps' phases)
# that the route is an exact rearrangement of.  The route must match it bit
# for bit.

def reference_mul(a, b, out=None):
    out = np.multiply(a[:, :1], b[0], out=out)
    out += a[:, 1:] * b[1]
    return out


def reference_star(s1, s2):
    y = reference_mul(s1[2:, 2:], s2[:2])
    x = y[:, :2]
    d00 = 1.0 - x[0, 0]
    d11 = 1.0 - x[1, 1]
    det = d00 * d11 - x[0, 1] * x[1, 0]
    w = np.array([[d11, x[0, 1]], [x[1, 0], d00]])
    w /= det
    y[:, :2] = s1[2:, :2]
    u = reference_mul(w, y)
    v = reference_mul(s2[:2, :2], u, out=y)
    v[:, 2:] += s2[:2, 2:]
    out = np.empty_like(u, shape=s1.shape)
    reference_mul(s1[:2, 2:], v, out=out[:2])
    out[:2, :2] += s1[:2, :2]
    reference_mul(s2[2:, :2], u, out=out[2:])
    out[2:, 2:] += s2[2:, 2:]
    return out


def reference_segments(k0, length, v0, theta, phi):
    q = np.array((np.abs(k0 - v0), np.abs(k0 + v0)))
    rt = np.array(slab_rt(q, k0, length))
    s = np.empty((2, 2, 2, 2) + theta.shape, dtype=complex)
    s[0, 0, :, 0], s[0, 1, :, 0], s[0, 0, :, 1], s[0, 1, :, 1] = coupled(
        rt[:, 0], rt[:, 1], *mode_ratios(theta, phi))
    s[1] = s[0, :, ::-1]
    return s.reshape((4, 4) + theta.shape)


def reference_smatrices(stacks):
    """(4, 4, m) star-tree S-matrices of m stacks, by the reference blocks."""
    k0 = stacks[0].omega0
    columns = [[(seg.length, seg.v0, seg.theta, seg.phi) for seg in stack.segments]
               for stack in stacks]
    length, v0, theta, phi = np.array(columns, dtype=float).transpose(2, 1, 0)
    pairs = len(v0) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        if pairs and not v0[1::2].any():
            s = reference_segments(k0, length[::2], v0[::2], theta[::2], phi[::2])
            e = slab_rt(np.float64(k0), k0, length[1::2])[1]
            s[2:, :, :pairs] *= e
            s[:, 2:, :pairs] *= e
        else:
            s = reference_segments(k0, length, v0, theta, phi)
        while s.shape[2] > 1:
            half = s.shape[2] // 2
            joined = reference_star(s[:, :, 0:2 * half:2], s[:, :, 1:2 * half:2])
            s = joined if s.shape[2] % 2 == 0 else np.concatenate(
                (joined, s[:, :, -1:]), axis=2)
    return s[:, :, 0]


def benchmark_stack(rng, pairs, omega0=None, exact_edge=False):
    """Barrier + gap stack drawn as the stack benchmark draws it; with
    exact_edge every barrier sits at V0 = omega0."""
    omega0 = rng.uniform(0.5, 2.0) if omega0 is None else omega0
    layers = []
    for _ in range(pairs):
        v0 = omega0 if exact_edge else omega0 * rng.uniform(0.1, 0.9)
        layers += (Segment(rng.uniform(0.5, 1.5), v0, rng.uniform(0.0, math.pi),
                           rng.uniform(0.0, 2.0 * math.pi)),
                   free_gap(rng.uniform(0.5, 1.5)))
    return LayerStack(tuple(layers), omega0)


def assert_same_bits(stacks):
    route, reference = multilayer._smatrices(stacks), reference_smatrices(stacks)
    assert route.shape == reference.shape and route.dtype == reference.dtype
    assert route.tobytes() == reference.tobytes()


def reference_scatter(stacks):
    """(reflection, transmission) pairs of each stack: column 0 of the reference
    S-matrices, the transmission moved to global x by the stack's summed lengths."""
    out = []
    for col, stack in zip(reference_smatrices(stacks)[:, 0].T.tolist(), stacks):
        back = cmath.exp(-1j * stack.omega0 * sum(seg.length for seg in stack.segments))
        out.append((SymplecticPair(col[0], col[1]),
                    SymplecticPair(col[2] * back, col[3] * back)))
    return out


def pair_bits(*pairs):
    return np.array([(p.alpha, p.beta) for p in pairs], dtype=complex).tobytes()


def assert_same_scatter_bits(stack):
    assert pair_bits(*stack_scatter(stack)) == pair_bits(*reference_scatter((stack,))[0])


class TestStackBits:
    """multilayer._smatrices against the literal reference, byte for byte."""

    @pytest.mark.parametrize("pairs", [1, 2, 3, 7, 31, 200, 1000])
    def test_barrier_gap_stacks_bits(self, pairs):
        rng = np.random.default_rng(pairs)
        for _ in range(max(1, 40 // pairs)):
            assert_same_bits((benchmark_stack(rng, pairs),))

    def test_ordering_batch_bits(self, rng):
        for _ in range(40):
            omega0 = rng.uniform(0.5, 2.0)
            seg_a, seg_b = random_barrier(rng, omega0), random_barrier(rng, omega0)
            spacer = free_gap(rng.uniform(0.0, 4.0))
            assert_same_bits((LayerStack((seg_a, spacer, seg_b), omega0),
                              LayerStack((seg_b, spacer, seg_a), omega0)))

    @pytest.mark.parametrize("layout", ["BGB", "GBGB", "BBG", "GG"])
    def test_layouts_bits(self, rng, layout):
        for _ in range(20):
            assert_same_bits((LayerStack(tuple(
                random_barrier(rng) if c == "B" else free_gap(rng.uniform(0.0, 20.0))
                for c in layout), 1.0),))

    @pytest.mark.parametrize("pairs", [1, 2, 7, 31])
    def test_exact_edge_barriers_bits(self, pairs):
        # V0 = omega0: q = 0 on the k_minus branch, slab_rt's q == 0 branch
        rng = np.random.default_rng(100 + pairs)
        for _ in range(5):
            stack = benchmark_stack(rng, pairs, exact_edge=True)
            assert_same_bits((stack,))
            # a batch with q = 0 in one stack only
            assert_same_bits((stack, benchmark_stack(rng, pairs, stack.omega0)))

    @pytest.mark.parametrize("pairs", [1, 2, 3, 7, 31, 200, 1000])
    def test_stack_scatter_bits(self, pairs):
        rng = np.random.default_rng(200 + pairs)
        for _ in range(max(1, 40 // pairs)):
            assert_same_scatter_bits(benchmark_stack(rng, pairs))

    def test_ordering_report_bits(self, rng):
        for _ in range(40):
            omega0 = rng.uniform(0.5, 2.0)
            seg_a, seg_b = random_barrier(rng, omega0), random_barrier(rng, omega0)
            gap = rng.uniform(0.0, 4.0)
            report = ordering_report(seg_a, seg_b, gap, omega0)
            (_, t_ab), (_, t_ba) = reference_scatter((
                LayerStack((seg_a, free_gap(gap), seg_b), omega0),
                LayerStack((seg_b, free_gap(gap), seg_a), omega0)))
            assert pair_bits(report.transmission_ab, report.transmission_ba) \
                == pair_bits(t_ab, t_ba)
            assert report.d_prob == abs(t_ab.norm2() - t_ba.norm2())
            assert report.d_amp == max(abs(t_ab.alpha - t_ba.alpha),
                                       abs(t_ab.beta - t_ba.beta))

    def test_int_lengths_bits(self):
        # total_length() is the route's left-to-right sum of the lengths' floats
        segs = (Segment(1, 0.3, 1.0, 0.5), free_gap(2), Segment(3, 0.7, 2.0, 4.0), free_gap(5),
                Segment(7, 0.1, 0.5, 1.0))
        stack = LayerStack(segs, 1.3)
        assert stack.total_length() == 18 and isinstance(stack.total_length(), float)
        assert_same_scatter_bits(stack)


def dyadic_stack(stack, k):
    """stack with omega0 and every V0 scaled by 2^k and every length by 2^-k."""
    return LayerStack(tuple(Segment(seg.length * 2.0 ** -k, seg.v0 * 2.0 ** k, seg.theta,
                                    seg.phi) for seg in stack.segments),
                      stack.omega0 * 2.0 ** k)


def peres_stacks(rng):
    """[A, gap, B] at omega0 on [0.5, 2], each V0 up to 1.8 omega0 (the Klein
    zone included), with its mirror [B, gap, A] and its reciprocal, every phi
    taken to (pi - phi) mod 2 pi."""
    omega0 = rng.uniform(0.5, 2.0)
    seg_a, seg_b = (Segment(rng.uniform(0.0, 5.0), omega0 * rng.uniform(0.0, 1.8),
                            rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
                    for _ in range(2))
    gap = free_gap(rng.uniform(0.0, 5.0))
    flip = [dataclasses.replace(seg, phi=(math.pi - seg.phi) % (2.0 * math.pi))
            for seg in (seg_a, gap, seg_b)]
    return (LayerStack((seg_a, gap, seg_b), omega0), LayerStack((seg_b, gap, seg_a), omega0),
            LayerStack(tuple(flip), omega0))


# swaps the left and right ports of an S-matrix
PORTS = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


class TestExactSymmetries:
    """Identities between the answers at different inputs, which check the
    stack route without an oracle."""

    def test_stack_smatrix_dyadic_scale_bits(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            stack = random_stack(rng, int(rng.integers(1, 40)))
            k = int(rng.integers(-20, 20))
            assert stack_smatrix(dyadic_stack(stack, k)).tobytes() == stack_smatrix(stack).tobytes()

    def test_mirror_swaps_the_ports(self):
        # each segment is symmetric in x: S(reversed) = Pi S Pi
        rng = np.random.default_rng(2401)
        for _ in range(200):
            stack, mirror, _ = peres_stacks(rng)
            s = stack_smatrix(stack)
            assert np.abs(stack_smatrix(mirror) - PORTS @ s @ PORTS).max() <= 1e-13

    def test_reciprocity_transposes(self):
        # N^T = conj(N) is the direction at pi - phi: S^T is the reciprocal's S
        rng = np.random.default_rng(2402)
        for _ in range(200):
            stack, _, reciprocal = peres_stacks(rng)
            assert np.abs(stack_smatrix(reciprocal) - stack_smatrix(stack).T).max() <= 1e-13


class CountingSegment(Segment):
    """A Segment that counts reads of its angles, in CountingSegment.reads."""

    reads = 0

    def __getattribute__(self, name):
        if name in ("theta", "phi"):
            CountingSegment.reads += 1
        return super().__getattribute__(name)


def counting_gap(length):
    gap = CountingSegment(length, 0.0, 0.0, 0.0)
    CountingSegment.reads = 0
    return gap


class TestFoldedGapAngles:
    """A folded gap gets no S-matrix, so its angles are never read."""

    @pytest.mark.parametrize("pairs", [1, 2, 31])
    def test_stack_scatter_reads_no_gap_angle(self, rng, pairs):
        segs = []
        for _ in range(pairs):
            segs += (random_barrier(rng), counting_gap(rng.uniform(0.5, 1.5)))
        stack = LayerStack(tuple(segs), 1.0)
        CountingSegment.reads = 0
        stack_scatter(stack)
        assert CountingSegment.reads == 0

    def test_ordering_report_reads_no_gap_angle(self, monkeypatch):
        seg_a, seg_b = fixture_segments()
        expect = ordering_report(seg_a, seg_b, 2.0, 1.0)
        monkeypatch.setattr(multilayer, "free_gap", counting_gap)
        assert ordering_report(seg_a, seg_b, 2.0, 1.0) == expect
        assert CountingSegment.reads == 0

    def test_unfolded_layout_reads_every_gap_angle(self, rng):
        # GBGB: the first pair ends in a barrier, so every segment gets its
        # S-matrix, and each gap's theta and phi are read once
        stack = LayerStack((counting_gap(1.0), random_barrier(rng),
                            counting_gap(2.0), random_barrier(rng)), 1.0)
        CountingSegment.reads = 0
        stack_scatter(stack)
        assert CountingSegment.reads == 4


def leaky(func):
    """func with its transmission block scaled by 1 + 1e-9."""
    def wrapper(*args):
        s = func(*args)
        s[2:, :2] *= 1.0 + 1e-9
        return s
    return wrapper


class TestFluxGate:
    @pytest.fixture
    def leaky_routes(self, monkeypatch):
        monkeypatch.setattr(multilayer, "_star", leaky(multilayer._star))
        monkeypatch.setattr(multilayer, "transfer_smatrix",
                            leaky(multilayer.transfer_smatrix))

    @pytest.mark.parametrize("call", [
        lambda segs: stack_scatter(LayerStack(segs, 1.0)),
        lambda segs: stack_smatrix(LayerStack(segs, 1.0)),
        lambda segs: ordering_report(segs[0], segs[2], 1.0, 1.0),
    ], ids=("stack_scatter", "stack_smatrix", "ordering_report"))
    def test_lost_flux_raises(self, leaky_routes, call):
        seg_a, seg_b = fixture_segments()
        with pytest.raises(SingularSystemError, match="flux"):
            call((seg_a, free_gap(1.0), seg_b))

    def test_cli_exits_1(self, leaky_routes, capsys):
        code = cli.main(["ordering", "--seg-a", "1:0.3:1:0", "--seg-b", "1:0.3:1:1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: stack scattering loses flux")

    @pytest.mark.parametrize("pairs", [40, 100])
    def test_overflowing_transfer_product_is_a_numerical_failure(self, pairs, monkeypatch):
        # hard mirrors (V0 = 1e9 omega0): the star products answer them, and
        # a forced fallback overflows the transfer product; the segments are
        # valid, so that is exit 1, with no RuntimeWarning (pytest makes
        # those errors)
        stack = mirror_stack(np.random.default_rng(3), pairs)
        assert flux_defect(stack) <= 1e-13
        monkeypatch.setattr(multilayer, "_star", lambda s1, s2: np.full_like(s1, np.nan))
        with pytest.raises(SingularSystemError, match="transfer product overflows"):
            stack_scatter(stack)

    def test_unsolvable_boundary_system_is_a_numerical_failure(self, monkeypatch):
        # a NaN star answer sends the stack to the transfer route, whose 4x4
        # boundary solve then fails
        def singular(*_):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(multilayer, "_star", lambda s1, s2: np.full_like(s1, np.nan))
        monkeypatch.setattr(np.linalg, "solve", singular)
        seg_a, seg_b = fixture_segments()
        with pytest.raises(SingularSystemError,
                           match="stack boundary system unsolvable: Singular matrix"):
            stack_scatter(LayerStack((seg_a, free_gap(1.0), seg_b), 1.0))

    def test_leaky_star_products_fall_back_to_transfer_route(self, monkeypatch):
        monkeypatch.setattr(multilayer, "_star", leaky(multilayer._star))
        seg_a, seg_b = fixture_segments()
        stack = LayerStack((seg_a, free_gap(1.0), seg_b), 1.0)
        assert np.array_equal(stack_smatrix(stack), transfer_smatrix(stack))
