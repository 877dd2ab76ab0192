import cmath
import math
import types

import numpy as np
import pytest

from qkg.closedform import (
    COMPLEX_LIMIT,
    EXACT,
    TAYLOR,
    amplitudes_closed,
    amplitudes_taylor,
    exterior_amplitudes_grid,
    exterior_magnitude_sum,
    quaternionic_fraction,
)
from qkg.errors import DegenerateWavenumberError, UndefinedFractionError
from qkg.matcher import solve_spec
from qkg.model import BarrierSpec, wavenumbers
from qkg.verify import random_specs


def scalar_barrier(q: float, k0: float, a: float) -> tuple[complex, complex]:
    """Textbook reflection/transmission of one propagating scalar barrier.

    Independent route: written with the cos - i sin denominator instead of
    the cleared fraction used in the library.
    """
    denom = math.cos(q * a) - 0.5j * (q / k0 + k0 / q) * math.sin(q * a)
    t = cmath.exp(-1j * k0 * a) / denom
    r = 0.5j * (q / k0 - k0 / q) * math.sin(q * a) / denom
    return r, t


class TestAgainstScalarOracle:
    def test_pole_reduces_to_slow_scalar_barrier(self):
        # theta = 0 leaves only the k_minus branch in c1/c7
        spec = BarrierSpec(a=2.3, v0=0.6, omega0=1.1, theta=0.0, phi=0.0)
        amps = amplitudes_closed(spec)
        d = wavenumbers(spec)
        r, t = scalar_barrier(d.k_minus, d.k0, spec.a)
        assert amps.c1 == pytest.approx(r, abs=1e-12)
        assert amps.c7 == pytest.approx(t, abs=1e-12)
        assert amps.route == COMPLEX_LIMIT

    def test_antipole_reduces_to_fast_scalar_barrier(self):
        spec = BarrierSpec(a=2.3, v0=0.6, omega0=1.1, theta=math.pi, phi=0.0)
        amps = amplitudes_closed(spec)
        d = wavenumbers(spec)
        r, t = scalar_barrier(d.k_plus, d.k0, spec.a)
        assert amps.c1 == pytest.approx(r, abs=1e-12)
        assert amps.c7 == pytest.approx(t, abs=1e-12)

    def test_general_angle_mixes_both_branches(self, spec_point):
        amps = amplitudes_closed(spec_point)
        d = wavenumbers(spec_point)
        rp, tp = scalar_barrier(d.k_plus, d.k0, spec_point.a)
        rm, tm = scalar_barrier(d.k_minus, d.k0, spec_point.a)
        wp = math.cos(spec_point.theta / 2) ** 2
        wm = -math.sin(spec_point.theta / 2) ** 2
        assert amps.c1 == pytest.approx(wp * rm - wm * rp, abs=1e-12)
        assert amps.c7 == pytest.approx(wp * tm - wm * tp, abs=1e-12)


class TestFreeAndDegenerate:
    def test_free_potential(self):
        spec = BarrierSpec(a=3.0, v0=0.0, omega0=1.4, theta=1.1, phi=0.3)
        amps = amplitudes_closed(spec)
        for c in (amps.c1, amps.c2, amps.c4, amps.c6, amps.c8):
            assert abs(c) < 1e-13
        assert amps.c7 == pytest.approx(1.0, abs=1e-13)
        assert amps.c3 + amps.c5 == pytest.approx(1.0, abs=1e-13)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateWavenumberError):
            amplitudes_closed(BarrierSpec(1.0, 2.0, 2.0, 0.5, 0.0))


class TestTaylorRegime:
    SPEC = BarrierSpec(a=1e-3, v0=1e-3, omega0=1.0, theta=1e-3, phi=math.pi / 4)

    def test_first_order_values(self):
        t = amplitudes_taylor(self.SPEC)
        a, v0, w0, th, ph = 1e-3, 1e-3, 1.0, 1e-3, math.pi / 4
        assert t.c1 == -1j * a * v0
        assert t.c2 == a * th * v0 * cmath.exp(-1j * ph)
        assert t.c3 == 0 and t.c4 == 0
        assert t.c5 == 1.0 + v0 / (2 * w0)
        assert t.c6 == -v0 / (2 * w0) - 1j * a * v0
        assert t.c7 == 1.0 - 1j * a * v0
        assert t.c8 == t.c2
        assert t.route == TAYLOR
        assert t.interior is None

    def test_exact_matches_expansion(self):
        exact = amplitudes_closed(self.SPEC).as_array()
        approx = amplitudes_taylor(self.SPEC).as_array()
        scale = np.abs(approx).max()
        for e, t in zip(exact, approx):
            ref = abs(t) if abs(t) > 0 else scale
            assert abs(e - t) / ref < 0.05

    def test_transmitted_beta_component(self):
        # the j-component of the transmitted wave survives at first order
        expect = 1e-9 * cmath.exp(-1j * math.pi / 4)
        c8 = amplitudes_closed(self.SPEC).c8
        assert abs(c8 - expect) / abs(expect) < 1e-4

    def test_errors_shrink_second_order(self):
        def errors(scale):
            spec = BarrierSpec(a=1e-3 * scale, v0=1e-3 * scale, omega0=1.0,
                               theta=1e-3 * scale, phi=math.pi / 4)
            return np.abs(amplitudes_closed(spec).as_array()
                          - amplitudes_taylor(spec).as_array())

        full, half = errors(1.0), errors(0.5)
        for f, h in zip(full, half):
            if f > 1e-18:
                assert f / h >= 3.0


class TestTransmittedTail:
    def test_no_exponential_damping_at_large_width(self):
        # a scalar barrier above threshold transmits without decay; the
        # quaternionic beta component inherits that
        peak = 0.0
        for a in np.linspace(60.0, 100.0, 400):
            spec = BarrierSpec(float(a), 0.3, 1.0, math.pi / 2, 0.0)
            peak = max(peak, abs(amplitudes_closed(spec).c8))
        assert peak > 0.5


class TestDerivedQuantities:
    def test_fraction_regression_value(self, spec_point):
        frac = quaternionic_fraction(amplitudes_closed(spec_point))
        assert frac == pytest.approx(0.081172320206002568, abs=1e-12)

    def test_fraction_bounds(self, spec_factory):
        for _ in range(50):
            frac = quaternionic_fraction(amplitudes_closed(spec_factory()))
            assert 0.0 <= frac <= 1.0

    def test_fraction_zero_when_no_conversion(self):
        amps = amplitudes_closed(BarrierSpec(1.5, 0.4, 1.0, 0.0, 0.0))
        assert quaternionic_fraction(amps) == 0.0

    def test_fraction_undefined_without_transmission(self):
        fake = types.SimpleNamespace(c7=0j, c8=0j)
        with pytest.raises(UndefinedFractionError):
            quaternionic_fraction(fake)

    def test_exterior_magnitudes_sum_to_one(self, spec_factory):
        for _ in range(50):
            total = exterior_magnitude_sum(amplitudes_closed(spec_factory()))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestInteriorCoefficients:
    def test_interior_matches_matching_solver(self, spec_factory):
        for _ in range(20):
            spec = spec_factory()
            closed = amplitudes_closed(spec)
            solved = solve_spec(spec)
            for pc, ps in zip(closed.interior, solved.interior):
                assert abs(pc.alpha - ps.alpha) < 1e-11
                assert abs(pc.beta - ps.beta) < 1e-11

    def test_regime_tag(self, spec_point):
        assert amplitudes_closed(spec_point).route == EXACT


class TestGrid:
    @staticmethod
    def columns(specs):
        return [np.array([getattr(s, name) for s in specs])
                for name in ("a", "v0", "omega0", "theta", "phi")]

    def test_matches_scalar_route(self):
        specs = random_specs(np.random.default_rng(4321), 1200)
        # force both poles on a third of the specs each
        specs = [BarrierSpec(s.a, s.v0, s.omega0, (0.0, math.pi, s.theta)[i % 3],
                             s.phi) for i, s in enumerate(specs)]
        grid = np.array(exterior_amplitudes_grid(*self.columns(specs)))
        for i, spec in enumerate(specs):
            amps = amplitudes_closed(spec)
            want = np.array([amps.c1, amps.c2, amps.c7, amps.c8])
            assert np.abs(grid[:, i] - want).max() <= 1e-14 * np.abs(want).max()

    def test_complex_limit_zeros_exact(self):
        specs = [BarrierSpec(s.a, s.v0, s.omega0, 0.0, s.phi)
                 for s in random_specs(np.random.default_rng(8765), 200)]
        _, c2, _, c8 = exterior_amplitudes_grid(*self.columns(specs))
        assert (c2 == 0).all() and (c8 == 0).all()

    def test_broadcasts_to_common_shape(self):
        # only phi varies, yet c1 and c7 (independent of phi) come out full
        phi = np.linspace(0.0, 6.0, 7)
        amps = exterior_amplitudes_grid(1.0, 0.3, 1.0, 1.2, phi)
        assert [c.shape for c in amps] == [(7,)] * 4
        assert (amps[0] == amps[0][0]).all()
