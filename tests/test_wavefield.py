import cmath
import dataclasses
import math

import numpy as np
import pytest

from qkg.closedform import amplitudes_closed, amplitudes_taylor
from qkg.matcher import solve_spec
from qkg.model import BarrierSpec
from qkg.verify import random_specs
from qkg.wavefield import (
    BARRIER,
    LEFT,
    REGIONS,
    RIGHT,
    FieldSamples,
    _eval,
    _region_index,
    continuity_residuals,
    dpsi,
    psi,
    region_of,
    sample_field,
)


class TestRegions:
    def test_labels(self):
        spec = BarrierSpec(2.0, 0.3, 1.0, 0.5, 0.0)
        assert region_of(-0.001, spec) == LEFT
        assert region_of(0.0, spec) == BARRIER
        assert region_of(1.0, spec) == BARRIER
        assert region_of(2.0, spec) == BARRIER
        assert region_of(2.001, spec) == RIGHT

    def test_zero_width_barrier_region(self):
        spec = BarrierSpec(0.0, 0.3, 1.0, 0.5, 0.0)
        assert region_of(0.0, spec) == BARRIER
        assert region_of(1e-12, spec) == RIGHT


class TestFieldValues:
    def test_left_region_formula(self, spec_point):
        amps = solve_spec(spec_point)
        x = -3.1
        k0 = amps.dispersion.k0
        value = psi(x, spec_point, amps)
        fwd = cmath.exp(1j * k0 * x)
        bwd = cmath.exp(-1j * k0 * x)
        assert value.alpha == pytest.approx(fwd + amps.c1 * bwd, abs=1e-15)
        assert value.beta == pytest.approx(amps.c2 * bwd, abs=1e-15)

    def test_right_region_magnitude_constant(self, spec_point):
        amps = solve_spec(spec_point)
        expect = math.sqrt(abs(amps.c7) ** 2 + abs(amps.c8) ** 2)
        for x in (1.5, 4.0, 17.3):
            assert psi(x, spec_point, amps).norm() == pytest.approx(expect,
                                                                    abs=1e-12)

    def test_free_potential_unit_magnitude_everywhere(self):
        spec = BarrierSpec(2.0, 0.0, 1.3, 0.8, 0.2)
        amps = solve_spec(spec)
        for sample in sample_field(spec, amps, -3.0, 5.0, 33):
            assert sample.psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_taylor_amplitudes_cannot_drive_interior(self):
        spec = BarrierSpec(1e-3, 1e-3, 1.0, 1e-3, 0.0)
        taylor = amplitudes_taylor(spec)
        with pytest.raises(ValueError):
            psi(5e-4, spec, taylor)
        # exterior evaluation needs no interior coefficients
        assert psi(-1.0, spec, taylor).alpha != 0
        samples = sample_field(spec, taylor, -3.0, -1.0, 9)
        assert [s.region for s in samples] == [LEFT] * 9
        assert (samples[0].psi - psi(-3.0, spec, taylor)).norm() < 1e-14
        # windows that reach the barrier: across it, ending on x = 0, inside
        for window in ((-1.0, 2.0, 7), (-1.0, 0.0, 5), (2e-4, 8e-4, 3)):
            with pytest.raises(ValueError, match="interior"):
                sample_field(spec, taylor, *window)


class TestContinuity:
    def test_boundary_residuals_vanish(self, spec_factory):
        for _ in range(30):
            spec = spec_factory()
            amps = solve_spec(spec)
            for residual in continuity_residuals(spec, amps):
                assert residual < 1e-10 * (1.0 + amps.dispersion.k0)

    def test_closed_form_amplitudes_also_continuous(self, spec_point):
        amps = amplitudes_closed(spec_point)
        assert max(continuity_residuals(spec_point, amps)) < 1e-12


class TestDerivative:
    def test_matches_central_difference(self, spec_point):
        amps = solve_spec(spec_point)
        h = 1e-6
        # interior points of each region; steps never cross a boundary
        for x in (-1.3, 0.42, spec_point.a + 0.7):
            fd = (psi(x + h, spec_point, amps) - psi(x - h, spec_point, amps))
            fd = type(fd)(fd.alpha / (2 * h), fd.beta / (2 * h))
            exact = dpsi(x, spec_point, amps)
            assert (fd - exact).norm() < 1e-8 * (1.0 + exact.norm())


class TestSampling:
    def test_grid_shape_and_region_tags(self, spec_point):
        amps = solve_spec(spec_point)
        samples = sample_field(spec_point, amps, -1.0, 2.0, 7)
        assert len(samples) == 7
        assert samples[0].x == -1.0
        assert samples[-1].x == 2.0
        assert [s.region for s in samples] == [
            LEFT, LEFT, BARRIER, BARRIER, BARRIER, RIGHT, RIGHT]

    def test_grid_points_on_boundaries_are_barrier(self):
        spec = BarrierSpec(2.0, 0.3, 1.0, 0.5, 0.0)
        samples = sample_field(spec, amplitudes_closed(spec), -2.0, 4.0, 7)
        assert [s.x for s in samples] == [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
        assert [s.region for s in samples] == [
            LEFT, LEFT, BARRIER, BARRIER, BARRIER, RIGHT, RIGHT]

    def test_samples_match_scalar_evaluation(self):
        specs = random_specs(np.random.default_rng(4242), 200)
        # force both poles on a share of the specs
        specs = [dataclasses.replace(spec, theta=(0.0, math.pi)[i % 2])
                 if i % 10 < 2 else spec for i, spec in enumerate(specs)]
        assert {0.0, math.pi} <= {spec.theta for spec in specs}
        for spec in specs:
            amps = amplitudes_closed(spec)
            tol = 1e-14 * (1.0 + amps.dispersion.k0)
            for s in sample_field(spec, amps, -2.0, spec.a + 2.0, 61):
                assert s.region == region_of(s.x, spec)
                assert (s.psi - psi(s.x, spec, amps)).norm() <= tol
                assert (s.dpsi - dpsi(s.x, spec, amps)).norm() <= tol

    def test_complex_limit_has_no_beta_component(self):
        for spec in random_specs(np.random.default_rng(77), 20):
            spec = dataclasses.replace(spec, theta=0.0)
            amps = amplitudes_closed(spec)
            for s in sample_field(spec, amps, -2.0, spec.a + 2.0, 41):
                assert s.psi.beta == 0

    @pytest.mark.parametrize("bounds", [
        (0.0, 1.0, 1),
        (1.0, 1.0, 5),
        (2.0, 1.0, 5),
        (math.nan, 1.0, 5),
        (0.0, math.inf, 5),
        (-1e308, 1e308, 5),     # each end finite, the span overflows
    ])
    def test_grid_validation(self, spec_point, bounds):
        amps = solve_spec(spec_point)
        x_min, x_max, n = bounds
        with pytest.raises(ValueError):
            sample_field(spec_point, amps, x_min, x_max, n)


def _masked_reference(spec, amps, xs):
    """The field by boolean region masks: one np.exp pass per region present."""
    index = _region_index(xs, spec.a)
    values = np.empty((4, len(xs)), dtype=complex)
    for i in np.unique(index).tolist():
        at = index == i
        value, slope = _eval(xs[at], amps, REGIONS[i], np.exp)
        values[:, at] = value.alpha, value.beta, slope.alpha, slope.beta
    return values


class TestFieldSamples:
    def test_arrays(self, spec_point):
        field = sample_field(spec_point, solve_spec(spec_point), -1.0, 2.0, 7)
        assert isinstance(field, FieldSamples)
        assert field.x.shape == field.region.shape == (7,)
        assert field.x.dtype == np.float64
        assert field.region.dtype.kind == "i"
        assert field.values.shape == (4, 7)
        assert field.values.dtype == np.complex128
        assert field.region.tolist() == _region_index(field.x, spec_point.a).tolist()

    def test_values_bit_identical_to_masked_evaluation(self):
        specs = random_specs(np.random.default_rng(31), 60)
        specs += [dataclasses.replace(specs[0], theta=0.0),
                  dataclasses.replace(specs[1], theta=math.pi),
                  dataclasses.replace(specs[2], a=0.0)]
        for spec in specs:
            amps = amplitudes_closed(spec)
            for window in ((-2.0, spec.a + 2.0, 401), (0.0, spec.a, 9),
                           (-1.0, 0.0, 5), (spec.a, spec.a + 1.0, 4)):
                if window[0] == window[1]:      # the zero-width barrier
                    continue
                field = sample_field(spec, amps, *window)
                expect = _masked_reference(spec, amps, field.x)
                assert field.values.tobytes() == expect.tobytes()

    def test_sequence_items_match_scalar_evaluation(self, spec_point):
        amps = solve_spec(spec_point)
        field = sample_field(spec_point, amps, -1.0, 2.0, 7)
        tol = 1e-14 * (1.0 + amps.dispersion.k0)
        items = list(field)
        assert len(field) == len(items) == 7
        assert field[-1] == items[-1] == field[6]
        assert field[-1].x == 2.0 and field[-1].region == RIGHT
        for i, s in enumerate(items):
            assert s == field[i]
            assert s.x == field.x[i]
            assert s.region == region_of(s.x, spec_point)
            assert (s.psi - psi(s.x, spec_point, amps)).norm() <= tol
            assert (s.dpsi - dpsi(s.x, spec_point, amps)).norm() <= tol
        with pytest.raises(IndexError):
            field[7]
        with pytest.raises(TypeError):
            field[1.0]

    def test_slice_is_a_record(self, spec_point):
        field = sample_field(spec_point, solve_spec(spec_point), -1.0, 2.0, 7)
        part = field[2:6:2]
        assert isinstance(part, FieldSamples)
        assert part.values.shape == (4, 2)
        assert list(part) == [field[2], field[4]]
        assert list(field[::-1]) == list(reversed(field)) == list(field)[::-1]

    @pytest.mark.parametrize("window, region", [
        ((-3.0, -1.0, 9), LEFT),
        ((0.0, 1.0, 9), BARRIER),
        ((1.5, 4.0, 9), RIGHT),
    ])
    def test_one_region_windows(self, spec_point, window, region):
        amps = amplitudes_closed(spec_point)
        field = sample_field(spec_point, amps, *window)
        assert [s.region for s in field] == [region] * 9
        tol = 1e-14 * (1.0 + amps.dispersion.k0)
        for s in field:
            assert (s.psi - psi(s.x, spec_point, amps)).norm() <= tol
