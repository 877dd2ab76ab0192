import cmath
import math

import numpy as np
import pytest

from qkg.errors import DegenerateWavenumberError
from qkg.matcher import solve_spec
from qkg.model import BarrierSpec
from qkg.multilayer import (
    LayerStack,
    Segment,
    compose,
    free_gap,
    ordering_report,
    segment_transfer,
    stack_scatter,
    stack_transfer,
)

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

    def test_from_barrier(self):
        spec = BarrierSpec(1.5, 0.4, 1.0, 0.7, 0.2)
        seg = Segment.from_barrier(spec)
        assert (seg.length, seg.v0, seg.theta, seg.phi) == (1.5, 0.4, 0.7, 0.2)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(DegenerateWavenumberError):
            segment_transfer(Segment(1.0, 1.0, 0.5, 0.0), 1.0)

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            LayerStack((), 1.0)
        with pytest.raises(ValueError):
            LayerStack((free_gap(1.0),), 0.0)

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
                LayerStack((Segment.from_barrier(spec),), spec.omega0))
            assert abs(refl.alpha - amps.c1) < 1e-10
            assert abs(refl.beta - amps.c2) < 1e-10
            assert abs(trans.alpha - amps.c7) < 1e-10
            assert abs(trans.beta - amps.c8) < 1e-10

    def test_zero_gap_insertion_is_noop(self, spec_point):
        seg = Segment.from_barrier(spec_point)
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
