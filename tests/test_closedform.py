import cmath
import dataclasses
import math
import types
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkg.closedform import (
    EXACT,
    amplitudes_closed,
    coupled,
    exterior_amplitudes_grid,
    exterior_magnitude_sum,
    quaternionic_fraction,
    quaternionic_fraction_grid,
    slab_rt,
)
from qkg.errors import UndefinedFractionError
from qkg.matcher import solve_spec
from qkg.model import Amplitudes, BarrierSpec, mode_ratios, wavenumbers
from qkg.verify import _taylor, random_specs


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
        assert amps.route == EXACT

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
        for c in (amps.c1, amps.c2, amps.c8):
            assert abs(c) < 1e-13
        assert amps.c7 == pytest.approx(1.0, abs=1e-13)
        # nothing reflects, so psi(0) = psi'(0) / (i k0) on each branch
        assert amps.c3 == amps.c4 and amps.c5 == amps.c6
        assert amps.c3 + amps.c5 == pytest.approx(1.0, abs=1e-13)

    def test_degenerate_answered(self):
        # at V0 = omega0 the slow branch is 1 and x inside: psi(0) = 1 + r
        # and psi'(0) / (i k0) = 1 - r with r = k0 a / (k0 a + 2i)
        spec = BarrierSpec(1.0, 2.0, 2.0, 0.5, 0.0)
        amps = amplitudes_closed(spec)
        r = 2.0 / (2.0 + 2j)
        wp = math.cos(spec.theta / 2) ** 2
        assert abs(amps.c5 - wp * (1 + r)) <= 1e-15
        assert abs(amps.c6 - wp * (1 - r)) <= 1e-15
        assert abs(exterior_magnitude_sum(amps) - 1.0) <= 1e-15
        assert np.abs(amps.as_array() - solve_spec(spec).as_array()).max() <= 1e-15

    @pytest.mark.parametrize("a, omega0", [(1.0, 1.0), (2.5, 0.7), (1e-3, 40.0)])
    def test_degenerate_exterior_answered(self, a, omega0):
        # at theta = 0 only the slow branch, q = 0, is seen from outside
        c1, c2, c7, c8 = (complex(c) for c in
                          exterior_amplitudes_grid(a, omega0, omega0, 0.0, 0.0))
        ka = omega0 * a
        assert abs(c1 - ka / (ka + 2j)) <= 1e-15
        assert c2 == 0 and c8 == 0
        assert abs(abs(c1) ** 2 + abs(c7) ** 2 - 1.0) <= 1e-15

    def test_degenerate_edge_is_continuous(self):
        # the exterior is entire in k_minus; stepping V0 off omega0 moves it
        # at first order, through the fast branch
        theta = np.linspace(0.0, math.pi, 9)
        at = np.array(exterior_amplitudes_grid(1.0, 1.0, 1.0, theta, 0.7))
        for v0 in (1.0 - 1e-8, 1.0 + 1e-8):
            near = np.array(exterior_amplitudes_grid(1.0, v0, 1.0, theta, 0.7))
            assert np.abs(near - at).max() <= 1e-7


class TestTaylorRegime:
    SPEC = BarrierSpec(a=1e-3, v0=1e-3, omega0=1.0, theta=1e-3, phi=math.pi / 4)

    def test_first_order_values(self):
        c1, c2, c3, c4, c5, c6, c7, c8 = _taylor(self.SPEC).tolist()
        a, v0, th, ph = 1e-3, 1e-3, 1e-3, math.pi / 4
        assert c1 == -1j * a * v0
        assert c2 == a * th * v0 * cmath.exp(-1j * ph)
        assert c3 == 0 and c4 == 0
        assert c5 == 1.0 - 1j * a * v0
        assert c6 == 1.0 + 1j * a * v0
        assert c7 == 1.0 - 1j * a * v0
        assert c8 == c2

    def test_exact_matches_expansion(self):
        exact = amplitudes_closed(self.SPEC).as_array()
        approx = _taylor(self.SPEC)
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
            return np.abs(amplitudes_closed(spec).as_array() - _taylor(spec))

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

    def test_fraction_rescales_underflowing_squares(self):
        fake = types.SimpleNamespace(c7=3e-300 + 0j, c8=4e-300j)
        assert quaternionic_fraction(fake) == pytest.approx(0.64, rel=1e-15)

    def test_fraction_rescales_overflowing_squares(self):
        # no overflow RuntimeWarning: both magnitudes are divided by 1e200
        assert quaternionic_fraction_grid(1e200, 1e200) == 0.5
        fake = types.SimpleNamespace(c7=3e200 + 0j, c8=4e200j)
        assert quaternionic_fraction(fake) == pytest.approx(0.64, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_fraction_of_infinite_magnitudes(self):
        # no overflow RuntimeWarning: an infinite magnitude outweighs any
        # finite one, two infinite ones share equally, and (0, 0) stays NaN
        got = quaternionic_fraction_grid([1e300, math.inf, 0.6, math.inf, 0.0],
                                         [math.inf, 1e300, math.inf, math.inf, 0.0])
        assert got[:4].tolist() == [1.0, 0.0, 1.0, 0.5]
        assert math.isnan(got[4])

    def test_fraction_exact_where_the_squares_are_subnormal(self):
        # |c7|^2 + |c8|^2 = 9.16e-312 is subnormal, not 0.  BarrierSpec inputs
        # that small round k_plus and k_minus to the same float, so c8 comes
        # out 0: this regime is reached only through amplitudes handed to the
        # library, as here
        exact = Fraction(4e-157) ** 2 / (Fraction(3e-156) ** 2 + Fraction(4e-157) ** 2)
        fake = types.SimpleNamespace(c7=3e-156 + 0j, c8=4e-157j)
        for got in (quaternionic_fraction(fake),
                    float(quaternionic_fraction_grid(3e-156, 4e-157))):
            assert abs(Fraction(got) - exact) <= math.ulp(float(exact))

    def test_fraction_grid_broadcasts(self):
        # no RuntimeWarning where nothing is transmitted: the share is NaN;
        # underflowing squares in the same call are rescaled
        got = quaternionic_fraction_grid(np.array([[0.6], [0.0], [3e-300]]),
                                         np.array([0.8, 0.0, 4e-300]))
        assert got.shape == (3, 3)
        assert got[0, :2].tolist() == [pytest.approx(0.64, rel=1e-15), 0.0]
        assert got[1, 0] == 1.0 and math.isnan(got[1, 1])
        assert got[2, 2] == pytest.approx(0.64, rel=1e-15) and got[2, 1] == 0.0

    def test_exterior_magnitudes_sum_to_one(self, spec_factory):
        for _ in range(50):
            total = exterior_magnitude_sum(amplitudes_closed(spec_factory()))
            assert total == pytest.approx(1.0, abs=1e-12)


def _reference_closed(spec):
    """amplitudes_closed through the records: wavenumbers, mode_ratios and a
    keyword Amplitudes."""
    disp = wavenumbers(spec)
    wp, wm, wx = mode_ratios(spec.theta, spec.phi)
    k0, kp, km, a = disp.k0, disp.k_plus, disp.k_minus, spec.a
    rp, tp, ep, op = slab_rt(kp, k0, a, faces=True)
    rm, tm, em, om = slab_rt(km, k0, a, faces=True)
    c1, c2, _, _ = coupled(rm, rp, wp, wm, wx)
    c7, c8, _, _ = coupled(tm, tp, wp, wm, wx)
    back = cmath.exp(-1j * a * k0)
    return Amplitudes(
        c1=c1, c2=c2, c3=-wm * ep, c4=-wm * op, c5=wp * em, c6=wp * om,
        c7=c7 * back, c8=c8 * back, dispersion=disp, route=EXACT,
        interior_beta=(-wx * ep, -wx * op, wx * em, wx * om))


def _mp_exterior(spec):
    """(c1, c2, c7, c8) from the module docstring's formulas at 60 digits, the
    float inputs and the phases q a and a k0, rounded as floats round them,
    taken as exact: what is left is the error of everything past the phases."""
    with mp.workdps(60):
        a, k0, theta, phi = map(mp.mpf, (spec.a, spec.omega0, spec.theta, spec.phi))

        def slab(q):
            phase, q = mp.mpf(q * spec.a), mp.mpf(q)
            sigma = mp.sin(phase) / 2
            down, up = (sigma * k0 / q if q else k0 * a / 2), sigma * q / k0
            t = 1 / (mp.cos(phase) - 1j * (down + up))
            return 1j * (up - down) * t, t

        d = wavenumbers(spec)
        (rp, tp), (rm, tm) = slab(d.k_plus), slab(d.k_minus)
        wp, wm = mp.cos(theta / 2) ** 2, -mp.sin(theta / 2) ** 2
        wx, back = 0.5j * mp.sin(theta) * mp.expj(-phi), mp.expj(-mp.mpf(spec.a * spec.omega0))
        return [complex(c) for c in (wp * rm - wm * rp, wx * (rm - rp),
                                     back * (wp * tm - wm * tp), back * wx * (tm - tp))]


class TestBranchWeights:
    # V0 = omega0 = 1e17 at the pole: the slow branch's t = 1 / (1 - 5e16 i)
    # sits beside the fast branch's, of modulus about 1, and neither may
    # cancel the other (every phase here is an exact float)
    POLE = BarrierSpec(a=1.0, v0=1e17, omega0=1e17, theta=0.0, phi=0.0)

    def test_slow_branch_survives_beside_the_fast_one(self):
        want = _mp_exterior(self.POLE)
        amps = amplitudes_closed(self.POLE)
        grid = [complex(c[0])
                for c in exterior_amplitudes_grid(1.0, 1e17, 1e17, np.zeros(1), 0.0)]
        for got in ([amps.c1, amps.c2, amps.c7, amps.c8], grid):
            assert abs(got[2] - want[2]) <= 1e-15 * abs(want[2])
            assert abs(got[0] - want[0]) <= 1e-15 * abs(want[0])
            assert got[1] == got[3] == 0.0
        assert quaternionic_fraction(amps) == 0.0

    def test_weighted_blocks_at_the_poles(self):
        # theta = 0 leaves f- and theta = pi f+, each exactly
        f_minus, f_plus = 0.3 - 0.7j, -2e-17 + 1e-17j
        assert coupled(f_minus, f_plus, *mode_ratios(0.0, 0.4)) == (f_minus, 0j, 0j, f_plus)
        f00, _, _, f11 = coupled(f_minus, f_plus, *mode_ratios(math.pi, 0.4))
        assert (f00, f11) == (f_plus, f_minus)

    def test_both_closed_routes_within_4_eps_past_the_phases(self):
        # the verification distribution, then V0 = omega0, the Klein zone and
        # a hard mirror; 2.5 eps of the largest |c| was the worst of 3200
        specs = random_specs(np.random.default_rng(77), 300)
        specs += [BarrierSpec(s.a, s.omega0 * (1.0, 2.5, 1e9)[i % 3], s.omega0, s.theta, s.phi)
                  for i, s in enumerate(specs[:60])]
        grid = np.array(exterior_amplitudes_grid(*TestGrid.columns(specs)))
        for i, spec in enumerate(specs):
            want = np.array(_mp_exterior(spec))
            amps = amplitudes_closed(spec)
            for got in (np.array([amps.c1, amps.c2, amps.c7, amps.c8]), grid[:, i]):
                assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


class TestBitIdentity:
    def test_matches_record_reference(self, bit_identity_specs):
        for spec in bit_identity_specs:
            got, want = amplitudes_closed(spec), _reference_closed(spec)
            assert got.as_array().tobytes() == want.as_array().tobytes()
            assert (np.array(got.interior_beta).tobytes()
                    == np.array(want.interior_beta).tobytes())
            d, e = got.dispersion, want.dispersion
            assert (np.array([d.k0, d.k_plus, d.k_minus]).tobytes()
                    == np.array([e.k0, e.k_plus, e.k_minus]).tobytes())
            assert (got.route, got.condition, got.solution) == (EXACT, None, None)

    def test_numpy_scalar_fields_answer_as_floats(self, bit_identity_specs):
        # slab_rt picks its backend from the type of q; a spec of numpy scalars
        # still takes the math path, and so the bits of the same spec in floats
        for spec in bit_identity_specs:
            got = amplitudes_closed(BarrierSpec(*map(np.float64, dataclasses.astuple(spec))))
            want = amplitudes_closed(spec)
            assert got.as_array().tobytes() == want.as_array().tobytes()
            assert (np.array(got.interior_beta).tobytes()
                    == np.array(want.interior_beta).tobytes())


class TestInteriorCoefficients:
    def test_interior_matches_matching_solver(self, spec_factory):
        for _ in range(20):
            spec = spec_factory()
            closed = amplitudes_closed(spec)
            solved = solve_spec(spec)
            assert np.abs(closed.as_array()[2:6] - solved.as_array()[2:6]).max() < 1e-11
            assert np.abs(np.subtract(closed.interior_beta, solved.interior_beta)).max() < 1e-11

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

    @pytest.mark.parametrize("point", [
        (-1, 0.3, 1, 1, 0),         # negative width
        (1, 0.3, 1, 5, 0),          # theta beyond pi
        (1, 0.3, -1, 1, 0),         # negative frequency
        (1e308, 0.3, 10, 1, 0),     # 2 a (omega0 + V0) overflows
    ], ids=str)
    def test_invalid_point_raises_the_scalar_error(self, point):
        with pytest.raises(ValueError) as scalar:
            amplitudes_closed(BarrierSpec(*point))
        with pytest.raises(ValueError) as grid:
            exterior_amplitudes_grid(*point)
        assert type(grid.value) is type(scalar.value)
        assert str(grid.value) == str(scalar.value)

    def test_first_invalid_point_in_c_order_raises(self):
        a = np.array([[1.0, 2.0, -1.0], [1.0, -2.0, 1.0]])
        v0 = np.array([[0.3, 0.3, 0.3], [-1.0, 0.3, 0.3]])
        theta = np.array([0.5, 9.0, 0.5])
        # (0, 1) has a bad theta, (0, 2) a bad width, (1, 0) a negative
        # potential and (1, 1) both a bad width and a bad theta
        with pytest.raises(ValueError, match="theta must lie in"):
            exterior_amplitudes_grid(a, v0, 1.0, theta, 0.0)
        theta[1] = 0.5
        with pytest.raises(ValueError, match="width must be finite and >= 0, got -1.0"):
            exterior_amplitudes_grid(a, v0, 1.0, theta, 0.0)
        a[0, 2] = 1.0
        with pytest.raises(ValueError, match="v0 >= 0, got -1.0"):
            exterior_amplitudes_grid(a, v0, 1.0, theta, 0.0)
        # V0 = omega0 is no longer an invalid point here
        v0[1, 0] = 1.0
        a[1, 1] = 2.0
        assert np.isfinite(exterior_amplitudes_grid(a, v0, 1.0, theta, 0.0)).all()

    @pytest.mark.parametrize("axes, base", [
        # V0 = omega0 on one row only: slab_rt takes its q == 0 branch on
        # the v0 axis alone; theta runs from pole to pole
        ({"v0": np.append(np.linspace(0.02, 1.9, 36), 1.0),
          "theta": np.linspace(0.0, math.pi, 61)},
         {"a": 2.0, "omega0": 1.0, "phi": 1.0}),
        # omega0 = V0 = 0.3 in one column: the q == 0 branch across
        ({"a": [0.0, 0.5, 1.3, 40.0, 1e-9],
          "omega0": [0.2, 0.3, 1.0, 7.5, 1e3, 1e-3, 2.0]},
         {"v0": 0.3, "theta": 1.1, "phi": 0.4}),
        ({"theta": np.linspace(0.0, math.pi, 23),
          "phi": np.linspace(0.0, 6.2, 41)},
         {"a": 1.0, "v0": 0.7, "omega0": 1.3}),
        ({"v0": np.linspace(0.0, 3.0, 101)},
         {"a": 1.5, "omega0": 1.0, "theta": 0.8, "phi": 5.0}),
    ], ids=["v0-theta", "a-omega0", "theta-phi", "v0"])
    def test_open_grid_axes_match_meshed_columns(self, axes, base):
        # qkg sweep passes each axis along its own dimension (np.ix_); the
        # raveled answers keep every bit of the call on meshed columns
        meshed = (m.ravel() for m in np.meshgrid(*axes.values(), indexing="ij"))
        want = exterior_amplitudes_grid(**base, **dict(zip(axes, meshed)))
        got = exterior_amplitudes_grid(**base, **dict(zip(axes, np.ix_(*axes.values()))))
        for g, w in zip(got, want):
            assert g.shape == tuple(map(len, axes.values()))
            assert g.ravel().tobytes() == w.tobytes()

    def test_broadcasts_to_common_shape(self):
        # only phi varies, yet c1 and c7 (independent of phi) come out full
        phi = np.linspace(0.0, 6.0, 7)
        amps = exterior_amplitudes_grid(1.0, 0.3, 1.0, 1.2, phi)
        assert [c.shape for c in amps] == [(7,)] * 4
        assert (amps[0] == amps[0][0]).all()


# q log-uniform from 1e-300 up, plus exact zeros; L and k0 over twelve decades
_q = st.one_of(st.just(0.0), st.floats(-300.0, 4.0).map(lambda e: 10.0 ** e))
_wide = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


class TestSlabKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_q, _wide, _wide), min_size=1, max_size=8))
    def test_lossless_and_finite_on_scalars_and_arrays(self, points):
        q, length, k0 = (np.array(col) for col in zip(*points))
        r, t = slab_rt(q, k0, length)
        assert np.isfinite(r).all() and np.isfinite(t).all()
        flux = r.real ** 2 + r.imag ** 2 + t.real ** 2 + t.imag ** 2
        assert np.abs(flux - 1.0).max() <= 1e-14
        assert np.abs((r * t.conj()).real).max() <= 1e-15
        for i, (qi, li, ki) in enumerate(points):
            if qi > 0.0:
                want = slab_rt(qi, ki, li)
                assert abs(want[0] - r[i]) <= 1e-15 and abs(want[1] - t[i]) <= 1e-15

    def test_zero_wavenumber_limit(self):
        # r = k0 L / (k0 L + 2i) at q = 0, approached as q^2
        k0, length = 1.3, 0.9
        r0, t0 = slab_rt(np.zeros(1), k0, length)
        assert abs(r0[0] - k0 * length / (k0 * length + 2j)) <= 1e-16
        r, t = slab_rt(1e-6, k0, length)
        assert 0.0 < max(abs(r - r0[0]), abs(t - t0[0])) <= 1e-11

    @pytest.mark.parametrize("q, k0, length", [
        (0.0, 1.3, 0.9), (0.7, 1.0, 2.0), (1e150, 1e-150, 1.0), (1e-150, 1e150, 1.0)])
    def test_faces_keep_their_digits(self, q, k0, length):
        # 1 + r and 1 - r against 400 digits; at a hard mirror r -> -1, and
        # 1 + r formed from r would keep none of them
        mp.mp.dps = 400
        try:
            qm, km, lm = mp.mpf(q), mp.mpf(k0), mp.mpf(length)
            sigma = mp.sin(qm * lm) / 2
            down = sigma * km / qm if q else km * lm / 2
            up = sigma * qm / km
            r = 1j * (up - down) / (mp.cos(qm * lm) - 1j * (up + down))
            want = (complex(1 + r), complex(1 - r))
        finally:
            mp.mp.dps = 15
        _, _, even, odd = slab_rt(q, k0, length, faces=True)
        for got, ref in zip((even, odd), want):
            assert abs(got - ref) <= 4e-16 * abs(ref)

    def test_type_of_q_picks_the_backend(self):
        # a numpy q, array or scalar, takes numpy's sin and cos; any other math's
        for q in (0.7, 0.0, 1):
            assert {type(x) for x in slab_rt(q, 1.3, 0.9, faces=True)} == {complex}
        for q, length in ((np.float64(0.7), 0.9), (np.float64(1.3), np.array([0.9, 0.2])),
                          (np.array([0.7, 0.2]), 0.9)):
            sigma, cosine = 0.5 * np.sin(q * length), np.cos(q * length)
            want = 1.0 / (cosine - 1j * (sigma * 1.3 / q + sigma * q / 1.3))
            t = slab_rt(q, 1.3, length)[1]
            assert isinstance(t, (np.ndarray, np.generic)) and t.tobytes() == want.tobytes()

    def test_zero_wavenumber_does_not_warn(self):
        with np.errstate(all="raise"):
            slab_rt(np.array([0.0, 1.0]), 1.0, np.array([2.0, 0.0]))
