import cmath
import dataclasses
import math
import sys

import numpy as np
import pytest

from qkg.closedform import amplitudes_closed
from qkg.matcher import solve_spec
from qkg.model import BarrierSpec
from qkg.quaternion import SymplecticPair, magnitude
from qkg.verify import random_specs
from qkg.wavefield import (
    BARRIER,
    LEFT,
    REGIONS,
    RIGHT,
    FieldSamples,
    _eval,
    continuity_residuals,
    sample_field,
)


def region_index(x, a):
    """Index into REGIONS of x (a float or an array) for barrier width a."""
    return 1 - (x < 0.0) + (x > a)


def basis_sum(x, spec, amps):
    """(psi, psi') at x, summed term by term from the matcher's ansatz.

        x < 0:       e^{i k0 x} + (c1 + j c2) e^{-i k0 x}
        0 <= x <= a: (c3 + j b3) cos(k+ x) + (c4 + j b4) i k0 sin(k+ x) / k+
                     + (c5 + j b5) cos(k- x) + (c6 + j b6) i k0 sin(k- x) / k-
        x > a:       (c7 + j c8) e^{i k0 x}

    with (b3, b4, b5, b6) = amps.interior_beta, and i k0 x for the sine term
    at k- = 0.
    """
    d = amps.dispersion
    region = REGIONS[region_index(x, spec.a)]
    if region == BARRIER:
        b3, b4, b5, b6 = amps.interior_beta
        terms = []
        for q, even, odd in ((d.k_plus, (amps.c3, b3), (amps.c4, b4)),
                             (d.k_minus, (amps.c5, b5), (amps.c6, b6))):
            cos, sin = math.cos(q * x), math.sin(q * x)
            terms += [(*even, cos, -q * sin),
                      (*odd, 1j * d.k0 * (sin / q if q else x), 1j * d.k0 * cos)]
    else:
        waves = (((d.k0, 1.0, 0.0), (-d.k0, amps.c1, amps.c2)) if region == LEFT
                 else ((d.k0, amps.c7, amps.c8),))
        terms = [(alpha, beta, cmath.exp(1j * k * x), 1j * k * cmath.exp(1j * k * x))
                 for k, alpha, beta in waves]
    value_a = value_b = slope_a = slope_b = 0j
    for alpha, beta, f, df in terms:
        value_a += alpha * f
        value_b += beta * f
        slope_a += alpha * df
        slope_b += beta * df
    return SymplecticPair(value_a, value_b), SymplecticPair(slope_a, slope_b)


def norm(alpha, beta) -> float:
    """|alpha + j beta|, formed as the field command's abs_psi column is."""
    return float(magnitude(abs(alpha), abs(beta)))


def sample_at(spec, amps, x):
    """sample_field's sample at x, the last point of a window ending there."""
    return list(sample_field(spec, amps, x - 1.0, x, 2))[-1]


def assert_matches_basis_sum(spec, amps, samples, tol):
    for s in samples:
        value, slope = basis_sum(s.x, spec, amps)
        assert s.region == REGIONS[region_index(s.x, spec.a)]
        assert norm(s.psi.alpha - value.alpha, s.psi.beta - value.beta) <= tol
        assert norm(s.dpsi.alpha - slope.alpha, s.dpsi.beta - slope.beta) <= tol


class TestRegions:
    def test_labels(self):
        spec = BarrierSpec(2.0, 0.3, 1.0, 0.5, 0.0)
        amps = amplitudes_closed(spec)
        for x, region in ((-0.001, LEFT), (0.0, BARRIER), (1.0, BARRIER),
                          (2.0, BARRIER), (2.001, RIGHT)):
            assert sample_at(spec, amps, x).region == region
            # the first point of a window starting at x is tagged alike
            assert REGIONS[sample_field(spec, amps, x, x + 1.0, 2).region[0]] == region

    def test_zero_width_barrier_region(self):
        spec = BarrierSpec(0.0, 0.3, 1.0, 0.5, 0.0)
        amps = amplitudes_closed(spec)
        assert sample_at(spec, amps, 0.0).region == BARRIER
        assert sample_at(spec, amps, 1e-12).region == RIGHT


class TestFieldValues:
    def test_left_region_formula(self, spec_point):
        amps = solve_spec(spec_point)
        x = -3.1
        k0 = amps.dispersion.k0
        value = sample_at(spec_point, amps, x).psi
        fwd = cmath.exp(1j * k0 * x)
        bwd = cmath.exp(-1j * k0 * x)
        assert value.alpha == pytest.approx(fwd + amps.c1 * bwd, abs=1e-15)
        assert value.beta == pytest.approx(amps.c2 * bwd, abs=1e-15)

    def test_right_region_magnitude_constant(self, spec_point):
        amps = solve_spec(spec_point)
        expect = math.sqrt(abs(amps.c7) ** 2 + abs(amps.c8) ** 2)
        for x in (1.5, 4.0, 17.3):
            psi = sample_at(spec_point, amps, x).psi
            assert norm(psi.alpha, psi.beta) == pytest.approx(expect, abs=1e-12)

    def test_free_potential_unit_magnitude_everywhere(self):
        spec = BarrierSpec(2.0, 0.0, 1.3, 0.8, 0.2)
        amps = solve_spec(spec)
        psi_a, psi_b = sample_field(spec, amps, -3.0, 5.0, 33).values[:2]
        assert magnitude(np.abs(psi_a), np.abs(psi_b)) == pytest.approx(np.ones(33), abs=1e-12)


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


def current_defect(spec, amps) -> float:
    """max over 401 samples of |j(x) - omega0 (|c7|^2 + |c8|^2)| / omega0.

    j = Im(conj(psi_a) psi_a' + conj(psi_b) psi_b') is the Klein-Gordon
    current; it is the same at every x, inside the barrier too, and equals
    the transmitted flux.
    """
    psi_a, psi_b, dpsi_a, dpsi_b = sample_field(spec, amps, -2.0, spec.a + 2.0, 401).values
    j = (psi_a.conj() * dpsi_a + psi_b.conj() * dpsi_b).imag
    carried = spec.omega0 * (abs(amps.c7) ** 2 + abs(amps.c8) ** 2)
    return float(np.abs(j - carried).max()) / spec.omega0


class TestCurrent:
    CURRENT_TOL = 1e-12

    @staticmethod
    def specs():
        specs = random_specs(np.random.default_rng(7), 300)
        # the Klein zone (V0 > omega0), its edge V0 = omega0 and both poles
        return specs + [dataclasses.replace(spec, v0=ratio * spec.omega0)
                        for spec, ratio in zip(specs, (1.5, 3.0, 10.0))] + [
            dataclasses.replace(specs[3], theta=0.0),
            dataclasses.replace(specs[4], theta=math.pi)] + [
            dataclasses.replace(spec, v0=spec.omega0, theta=theta)
            for spec, theta in zip(specs[5:35], [0.0, math.pi, *(s.theta for s in specs[7:35])])]

    @pytest.mark.parametrize("route", [solve_spec, amplitudes_closed])
    def test_current_is_transmitted_flux(self, route):
        for spec in self.specs():
            assert current_defect(spec, route(spec)) <= self.CURRENT_TOL

    def test_moved_interior_beta_trips(self, spec_point):
        amps = amplitudes_closed(spec_point)
        assert current_defect(spec_point, amps) <= self.CURRENT_TOL
        for i in range(4):
            beta = list(amps.interior_beta)
            beta[i] += 1e-9
            moved = amps._replace(interior_beta=tuple(beta))
            assert current_defect(spec_point, moved) > self.CURRENT_TOL


class TestDerivative:
    def test_matches_central_difference(self, spec_point):
        amps = solve_spec(spec_point)
        h = 1e-6
        # interior points of each region; steps never cross a boundary
        for x in (-1.3, 0.42, spec_point.a + 0.7):
            values = sample_field(spec_point, amps, x - h, x + h, 3).values
            fd = (values[:2, 2] - values[:2, 0]) / (2 * h)
            exact = values[2:, 1]
            assert np.linalg.norm(fd - exact) < 1e-8 * (1.0 + np.linalg.norm(exact))


class TestSampling:
    def test_grid_shape_and_region_tags(self, spec_point):
        amps = solve_spec(spec_point)
        samples = sample_field(spec_point, amps, -1.0, 2.0, 7)
        assert len(samples) == 7
        assert samples.x[0] == -1.0
        assert samples.x[-1] == 2.0
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
            field = sample_field(spec, amps, -2.0, spec.a + 2.0, 61)
            assert_matches_basis_sum(spec, amps, field, tol)

    def test_complex_limit_has_no_beta_component(self):
        for spec in random_specs(np.random.default_rng(77), 20):
            spec = dataclasses.replace(spec, theta=0.0)
            amps = amplitudes_closed(spec)
            for s in sample_field(spec, amps, -2.0, spec.a + 2.0, 41):
                assert s.psi.beta == 0

    def test_grid_is_linspace_bit_for_bit(self, spec_point):
        amps = amplitudes_closed(spec_point)
        windows = [(-2.0, 3.0, 401), (-1.0, 2.0, 2), (-1e-3, 1.0, 3), (1e9, 1e12, 17),
                   (0.0, 1e-320, 1000),                     # a subnormal step
                   (0.0, 5e-324, 3), (-5e-324, 5e-324, 5)]  # steps that underflow to 0
        rng = np.random.default_rng(19)
        for _ in range(300):
            x_min = rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-320, 100)
            x_max = x_min + 10.0 ** rng.uniform(-323.5, 100.0)
            if x_max > x_min:
                windows.append((x_min, x_max, int(rng.integers(2, 100))))
        for window in windows:
            field = sample_field(spec_point, amps, *window)
            assert field.x.tobytes() == np.linspace(*window).tobytes()

    def test_blocks_join_to_the_whole_linspace_grid(self):
        # blocks of positions laid end to end give one whole call's x, region
        # and values bit for bit: barrier edges inside blocks and on their
        # edges, the last point alone in its block or ending one, and the
        # branch for a step that underflows to 0
        spec = BarrierSpec(1.0, 0.3, 1.0, 1.1, 0.7)
        cases = [((-2.0, 3.0, 401), 64), ((-2.0, 3.0, 401), 400), ((-2.0, 3.0, 384), 128),
                 ((-2.0, 3.0, 6), 2), ((-2.0, 3.0, 6), 3), ((-2.0, 3.0, 6), 1),
                 ((0.0, 5e-324, 3), 1), ((-5e-324, 5e-324, 5), 2)]
        rng = np.random.default_rng(23)
        for other in random_specs(rng, 20):
            n = int(rng.integers(2, 3000))
            cases.append(((-2.0, other.a + 2.0, n), int(rng.integers(1, n + 1)), other))
        for window, size, *rest in cases:
            at = rest[0] if rest else spec
            amps = amplitudes_closed(at)
            whole = sample_field(at, amps, *window)
            blocks = [sample_field(at, amps, *window, slice(start, start + size))
                      for start in range(0, window[2], size)]
            for name in ("x", "region", "values"):
                joined = np.concatenate([getattr(block, name) for block in blocks], axis=-1)
                assert joined.tobytes() == getattr(whole, name).tobytes(), (window, size, name)

    @pytest.mark.parametrize("cut", [slice(None, None, -1), slice(8, 2, -2),
                                     slice(None, None, 0)])
    def test_cut_must_ascend(self, cut):
        # the regions are found by binary search on ascending positions: a
        # reversed cut came back all "barrier", off the reversed grid by 1.10
        spec = BarrierSpec(1.0, 0.5, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError, match="cut must ascend"):
            sample_field(spec, amplitudes_closed(spec), -2.0, 3.0, 11, cut)

    def test_strided_cut_is_a_slice_of_the_whole_grid(self):
        spec = BarrierSpec(1.0, 0.5, 1.0, 1.0, 0.3)
        amps = amplitudes_closed(spec)
        whole = sample_field(spec, amps, -2.0, 3.0, 11)
        part = sample_field(spec, amps, -2.0, 3.0, 11, slice(1, None, 3))
        for name in ("x", "region", "values"):
            assert getattr(part, name).tobytes() == getattr(whole, name)[..., 1::3].tobytes()

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

    def test_window_phase_must_stay_in_float_range(self):
        # omega0 * max(|x_min|, |x_max|) must be finite, as a plane wave's phase
        spec = BarrierSpec(a=0.3, v0=0.3, omega0=1e13, theta=1.0, phi=0.5)
        amps = amplitudes_closed(spec)
        edge = sys.float_info.max / spec.omega0      # omega0 * edge is the largest float
        past = math.nextafter(edge, math.inf)
        for x_min, x_max in ((1e9, sys.float_info.max), (1e9, past), (-past, -1e9)):
            with pytest.raises(ValueError, match="omega0 \\* max"):
                sample_field(spec, amps, x_min, x_max, 2)
        for x_min, x_max in ((1e9, edge), (-edge, -1e9)):
            assert np.isfinite(sample_field(spec, amps, x_min, x_max, 2).values).all()


def _masked_reference(spec, amps, xs):
    """The field by boolean region masks: one np.exp pass per region present."""
    index = region_index(xs, spec.a)
    values = np.empty((4, len(xs)), dtype=complex)
    for i in np.unique(index).tolist():
        at = index == i
        values[:, at] = _eval(xs[at], amps, REGIONS[i])
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
        assert field.region.tolist() == region_index(field.x, spec_point.a).tolist()

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
        assert items[-1].x == 2.0 and items[-1].region == RIGHT
        for i, s in enumerate(items):
            assert s.x == field.x[i] and s.region == REGIONS[field.region[i]]
            assert (s.psi.alpha, s.psi.beta, s.dpsi.alpha, s.dpsi.beta) == tuple(
                field.values[:, i].tolist())
        assert_matches_basis_sum(spec_point, amps, items, tol)
        with pytest.raises(TypeError):
            field[0]

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
        assert_matches_basis_sum(spec_point, amps, field, tol)
