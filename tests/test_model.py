import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkg.errors import DegenerateWavenumberError
from qkg.model import (
    EPS_K_REL,
    EPS_THETA,
    BarrierSpec,
    check_nondegenerate,
    direction_coupling,
    dispersion_residual,
    free_matrix,
    interior_matrix,
    mode_ratios,
    wavenumbers,
)
from qkg.quaternion import SymplecticPair, UnitImaginaryDirection

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
        assert spec.direction().n1 == pytest.approx(math.cos(0.5))

    @pytest.mark.parametrize("kwargs", [
        {"a": -0.1}, {"a": math.inf},
        {"v0": -0.2}, {"v0": math.nan},
        {"omega0": 0.0}, {"omega0": -1.0},
        {"theta": -0.1}, {"theta": 3.2},
        {"phi": -0.1}, {"phi": 7.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        base = {"a": 1.0, "v0": 0.3, "omega0": 1.0, "theta": 0.5, "phi": 0.5}
        base.update(kwargs)
        with pytest.raises(ValueError):
            BarrierSpec(**base)


class TestDispersion:
    def test_example_point(self):
        d = wavenumbers(BarrierSpec(1.0, 0.3, 1.0, 0.0, 0.0))
        assert (d.k0, d.k_plus, d.k_minus) == (1.0, 1.3, 0.7)

    def test_strong_potential_still_propagates(self):
        # V0 > omega0 reflects the slow branch around zero, never damps it
        d = wavenumbers(BarrierSpec(1.0, 1.5, 1.0, 0.0, 0.0))
        assert d.k_minus == 0.5
        assert d.k_plus == 2.5

    def test_degenerate_band_rejected(self):
        with pytest.raises(DegenerateWavenumberError):
            check_nondegenerate(BarrierSpec(1.0, 1.0, 1.0, 0.0, 0.0))
        # just outside the band is fine
        check_nondegenerate(BarrierSpec(1.0, 1.0 - 1e-6, 1.0, 0.0, 0.0))

    def test_band_width_constants(self):
        assert EPS_K_REL == 1e-9
        assert EPS_THETA == 1e-9


class TestModeRatios:
    def test_equator_values(self):
        r = mode_ratios(math.pi / 2, 0.0)
        rp, rm = raw_ratios(math.pi / 2, 0.0)
        assert rp == pytest.approx(-1j)
        assert rm == pytest.approx(1j)
        assert r.w_plus == pytest.approx(0.5)
        assert r.w_minus == pytest.approx(-0.5)
        assert r.w_cross == pytest.approx(0.5j)

    @given(angles)
    def test_regular_combinations_match_raw(self, ang):
        theta, phi = ang
        r = mode_ratios(theta, phi)
        rp, rm = raw_ratios(theta, phi)
        dr = rp - rm
        assert r.w_plus == pytest.approx(rp / dr, abs=1e-12)
        assert r.w_minus == pytest.approx(rm / dr, abs=1e-12)
        assert r.w_cross == pytest.approx(rp * rm / dr, abs=1e-12)

    @given(angles)
    def test_half_angle_forms(self, ang):
        theta, phi = ang
        r = mode_ratios(theta, phi)
        assert r.w_plus == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)
        assert r.w_minus == pytest.approx(-math.sin(theta / 2) ** 2, abs=1e-12)
        assert r.w_cross == pytest.approx(
            0.5j * math.sin(theta) * cmath.exp(-1j * phi), abs=1e-12)

    @given(angles)
    def test_ratio_product_identity(self, ang):
        rp, rm = raw_ratios(*ang)
        assert rp * rm.conjugate() == pytest.approx(-1.0, abs=1e-12)

    def test_cross_combination_at_poles(self):
        assert mode_ratios(0.0, 1.0).w_cross == 0.0
        # sin(pi) is not exactly zero in floats
        assert abs(mode_ratios(math.pi, 1.0).w_cross) < 1e-15

    def test_partition_of_unity(self):
        r = mode_ratios(1.234, 2.345)
        assert r.w_plus - r.w_minus == pytest.approx(1.0, abs=1e-15)


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
