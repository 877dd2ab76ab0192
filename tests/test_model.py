import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkg.closedform import amplitudes_closed
from qkg.matcher import solve_spec
from qkg.model import (
    BarrierSpec,
    check_nondegenerate,
    direction_coupling,
    mode_ratios,
    require,
    require_each,
    segment_rule,
    slab_rules,
    stack_rules,
    wavenumbers,
)
from qkg.quaternion import SymplecticPair, UnitImaginaryDirection

from mode_equations import dispersion_residual, free_matrix, interior_matrix

angles = st.tuples(st.floats(0.1, math.pi - 0.1),
                   st.floats(0.0, 2.0 * math.pi, exclude_max=True))


def raw_ratios(theta, phi):
    """r_plus, r_minus = -(n1 +- 1) / (n3 - i n2); they diverge at the poles."""
    n = UnitImaginaryDirection.from_angles(theta, phi)
    denom = complex(n.n3, -n.n2)
    return -(n.n1 + 1.0) / denom, -(n.n1 - 1.0) / denom


class TestBarrierSpec:
    def test_accepts_reasonable_values(self):
        spec = BarrierSpec(1.0, 0.3, 1.0, 0.5, 0.5)
        assert spec == BarrierSpec(a=1.0, v0=0.3, omega0=1.0, theta=0.5, phi=0.5)

    @pytest.mark.parametrize("kwargs", [
        {"a": -0.1}, {"a": math.inf},
        {"v0": -0.2}, {"v0": math.nan},
        {"omega0": 0.0}, {"omega0": -1.0},
        {"theta": -0.1}, {"theta": 3.2},
        {"phi": -0.1}, {"phi": 7.0}, {"phi": 2.0 * math.pi},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        base = {"a": 1.0, "v0": 0.3, "omega0": 1.0, "theta": 0.5, "phi": 0.5}
        base.update(kwargs)
        with pytest.raises(ValueError):
            BarrierSpec(**base)


class TestInputRules:
    """The rules run on floats and, elementwise, on arrays."""

    @staticmethod
    def first_scalar_error(rules, points):
        for point in points:
            try:
                rules(require, *point)
            except ValueError as exc:
                return type(exc), str(exc)
        return None

    @staticmethod
    def array_error(rules, columns):
        try:
            require_each(rules, *columns)
        except ValueError as exc:
            return type(exc), str(exc)
        return None

    def test_barrier_grids_agree_with_the_scalar_loop(self, rng):
        # points near every boundary: V0 near omega0, huge widths and
        # frequencies, angles around their limits, NaN and infinity
        pool = {"a": [1.0, 0.0, -1e-300, 1e306, 1e308, math.inf],
                "v0": [0.3, 1.0, 1.0 + 1e-10, 0.0, -0.1, math.nan],
                "theta": [0.0, math.pi, 0.5, -1e-12, math.pi + 1e-12],
                "phi": [0.0, 6.28, 2.0 * math.pi, -0.1],
                "omega0": [1.0, 1e-155, 1e-150, 1e153, 1e154, 0.0, math.nan]}
        for _ in range(300):
            # mostly the first, valid value, so that faults come one by one
            columns = [np.where(rng.random(6) < 0.8, values[0], rng.choice(values, size=6))
                       for values in pool.values()]
            points = list(zip(*(col.tolist() for col in columns)))
            want = self.first_scalar_error(slab_rules, points)
            assert self.array_error(slab_rules, columns) == want
            # the same draws on an open grid, as qkg sweep passes its axes:
            # one column down (n, 1), one across (1, m), the rest at their
            # valid value, against the scalar loop over the meshed points in C order
            down, across = rng.choice(len(columns), size=2, replace=False)
            grid = [values[0] for values in pool.values()]
            grid[down], grid[across] = columns[down][:2, None], columns[across][None, 2:]
            meshed = np.broadcast_arrays(*grid)
            points = list(zip(*(m.ravel().tolist() for m in meshed)))
            want = self.first_scalar_error(slab_rules, points)
            assert self.array_error(slab_rules, grid) == want

    def test_segment_tables_agree_with_the_scalar_loop(self, rng):
        pool_length = [1.0, 0.0, 1e300, 1e308]
        pool_v0 = [0.3, 2.0, 2.0 * (1.0 + 1e-12), 1e308, 0.0]
        for omega0 in (2.0, 10.0, 1e-300):
            for _ in range(100):
                length = rng.choice(pool_length, size=(3, 4))
                v0 = rng.choice(pool_v0, size=(3, 4))
                points = [(omega0, x, y) for x, y in zip(length.ravel().tolist(),
                                                          v0.ravel().tolist())]
                want = self.first_scalar_error(stack_rules, points)
                assert self.array_error(stack_rules, (omega0, length, v0)) == want
                # the one rule multilayer checks its segment tables with
                assert self.array_error(segment_rule, (omega0, length, v0)) == want

    def test_defaults_of_stack_rules_pass(self):
        stack_rules(require, 1e-300)
        stack_rules(require, 1e300)


class TestDispersion:
    def test_example_point(self):
        d = wavenumbers(BarrierSpec(1.0, 0.3, 1.0, 0.0, 0.0))
        assert (d.k0, d.k_plus, d.k_minus) == (1.0, 1.3, 0.7)

    def test_strong_potential_still_propagates(self):
        # V0 > omega0 reflects the slow branch around zero, never damps it
        d = wavenumbers(BarrierSpec(1.0, 1.5, 1.0, 0.0, 0.0))
        assert d.k_minus == 0.5
        assert d.k_plus == 2.5

    def test_degenerate_band_answered(self):
        # V0 = omega0 and the old band's edge: check_nondegenerate is a no-op
        # kept for callers that name it, and both routes answer and agree
        for v0 in (1.0, 1.0 - 1e-6):
            spec = BarrierSpec(1.0, v0, 1.0, 0.0, 0.0)
            assert check_nondegenerate(spec) is None
            solved, closed = solve_spec(spec).as_array(), amplitudes_closed(spec).as_array()
            assert np.isfinite(closed).all()
            assert np.abs(solved - closed).max() <= 1e-14


class TestModeRatios:
    def test_equator_values(self):
        w_plus, w_minus, w_cross = mode_ratios(math.pi / 2, 0.0)
        rp, rm = raw_ratios(math.pi / 2, 0.0)
        assert rp == pytest.approx(-1j)
        assert rm == pytest.approx(1j)
        assert w_plus == pytest.approx(0.5)
        assert w_minus == pytest.approx(-0.5)
        assert w_cross == pytest.approx(0.5j)

    @given(angles)
    def test_regular_combinations_match_raw(self, ang):
        theta, phi = ang
        w_plus, w_minus, w_cross = mode_ratios(theta, phi)
        rp, rm = raw_ratios(theta, phi)
        dr = rp - rm
        assert w_plus == pytest.approx(rp / dr, abs=1e-12)
        assert w_minus == pytest.approx(rm / dr, abs=1e-12)
        assert w_cross == pytest.approx(rp * rm / dr, abs=1e-12)

    @given(angles)
    def test_half_angle_forms(self, ang):
        theta, phi = ang
        w_plus, w_minus, w_cross = mode_ratios(theta, phi)
        assert w_plus == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)
        assert w_minus == pytest.approx(-math.sin(theta / 2) ** 2, abs=1e-12)
        assert w_cross == pytest.approx(
            0.5j * math.sin(theta) * cmath.exp(-1j * phi), abs=1e-12)

    @given(angles)
    def test_ratio_product_identity(self, ang):
        rp, rm = raw_ratios(*ang)
        assert rp * rm.conjugate() == pytest.approx(-1.0, abs=1e-12)

    def test_cross_combination_at_poles(self):
        assert mode_ratios(0.0, 1.0)[2] == 0.0
        # sin(pi) is not exactly zero in floats
        assert abs(mode_ratios(math.pi, 1.0)[2]) < 1e-15

    def test_partition_of_unity(self):
        w_plus, w_minus, _ = mode_ratios(1.234, 2.345)
        assert w_plus - w_minus == pytest.approx(1.0, abs=1e-15)

    def test_floats_and_numpy_scalars_keep_the_math_bits(self, bit_identity_specs):
        # the scalar routes' bits: math and cmath, as Python complex numbers
        for spec in bit_identity_specs:
            n1 = math.cos(spec.theta)
            want = np.array([complex((1.0 + n1) / 2.0), complex((n1 - 1.0) / 2.0),
                             0.5j * math.sin(spec.theta) * cmath.exp(-1j * spec.phi)])
            for theta, phi in ((spec.theta, spec.phi),
                               (np.float64(spec.theta), np.float64(spec.phi))):
                got = mode_ratios(theta, phi)
                assert {type(w) for w in got} == {complex}
                assert np.array(got).tobytes() == want.tobytes()

    def test_arrays_take_numpy_with_the_same_bits(self, bit_identity_specs):
        theta = np.array([spec.theta for spec in bit_identity_specs])
        phi = np.array([spec.phi for spec in bit_identity_specs])
        want = np.array([mode_ratios(*angles) for angles in zip(theta.tolist(), phi.tolist())]).T
        for args in ((theta, phi), (theta[:, None], phi[None, :5])):
            w_plus, w_minus, w_cross = mode_ratios(*args)
            assert w_plus.dtype == w_minus.dtype == float and w_cross.dtype == complex
            # the weights keep theta's shape; w_cross spans both angles
            assert w_plus.shape == w_minus.shape == args[0].shape
            assert w_cross.shape == np.broadcast(*args).shape
        # the scalar path's bits, signed zeros included; the weights are real
        # and -w_minus is non-negative
        w_plus, w_minus, w_cross = mode_ratios(theta, phi)
        assert np.array([w_plus, w_minus, w_cross]).tobytes() == want.tobytes()
        assert (w_plus >= 0.0).all() and (w_minus <= 0.0).all()
        # one array angle is enough, and a float phi broadcasts
        assert (mode_ratios(theta, 0.25)[2].tobytes()
                == np.array([mode_ratios(t, 0.25)[2] for t in theta.tolist()]).tobytes())


class TestInteriorModes:
    def test_coupling_is_hermitian_involution(self):
        n = UnitImaginaryDirection.from_angles(1.1, 2.2)
        m = direction_coupling(n)
        assert np.allclose(m @ m, np.eye(2), atol=1e-14)
        assert np.allclose(m, m.conj().T, atol=1e-14)

    def test_interior_matrix_singular_at_branch_wavenumbers(self):
        spec = BarrierSpec(1.0, 0.45, 1.2, 0.8, 2.0)
        d = wavenumbers(spec)
        scale = (spec.omega0 ** 2 + spec.v0 ** 2) ** 2
        for k in (d.k_plus, d.k_minus):
            assert abs(np.linalg.det(interior_matrix(k, spec))) < 1e-12 * scale
        assert abs(np.linalg.det(interior_matrix(0.9 * d.k_minus, spec))) > 1e-3 * scale

    def test_interior_matrix_determinant_factorizes(self):
        spec = BarrierSpec(1.0, 0.45, 1.2, 0.8, 2.0)
        d = wavenumbers(spec)
        for k in (0.3, 1.0, 2.7):
            det = np.linalg.det(interior_matrix(k, spec))
            expect = (d.k_plus ** 2 - k ** 2) * (d.k_minus ** 2 - k ** 2)
            assert det == pytest.approx(expect, rel=1e-10)

    def test_mode_pairs_satisfy_interior_equation(self):
        spec = BarrierSpec(1.0, 0.45, 1.2, 0.8, 2.0)
        d = wavenumbers(spec)
        rp, rm = raw_ratios(spec.theta, spec.phi)
        plus = SymplecticPair(1.0, rp)
        minus = SymplecticPair(1.0, rm)
        assert dispersion_residual(d.k_plus, spec, plus) < 1e-12
        assert dispersion_residual(d.k_minus, spec, minus) < 1e-12
        # crossing branch and wavenumber must fail
        assert dispersion_residual(d.k_minus, spec, plus) > 1e-2

    def test_free_mode(self):
        spec = BarrierSpec(1.0, 0.45, 1.2, 0.8, 2.0)
        c = SymplecticPair(0.7 + 0.1j, -0.2j)
        assert dispersion_residual(spec.omega0, spec, c, inside=False) == 0.0
        assert np.allclose(free_matrix(spec.omega0, spec), 0.0)
