import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkg.closedform import amplitudes_closed, exterior_magnitude_sum
from qkg.errors import SingularSystemError
from qkg import matcher
from qkg.matcher import (
    REGULARIZED,
    build_system,
    solve,
    solve_spec,
)
from qkg.model import BarrierSpec, mode_ratios, wavenumbers
from qkg.quaternion import SymplecticPair
from qkg.verify import ORACLE_FLUX_TOL, ORACLE_TOL, _transcribed_matrix

from mode_equations import dispersion_residual


class TestBuildSystem:
    def test_raw_first_row_and_rhs(self, spec_point):
        raw_m, raw_rhs = _transcribed_matrix(spec_point)
        assert np.array_equal(raw_m[0],
                              np.array([1, 0, -1, 0, -1, 0, 0, 0], complex))
        wp, wm, _ = mode_ratios(spec_point.theta, spec_point.phi)
        system = build_system(spec_point)
        assert np.array_equal(system.matrix[0],
                              np.array([1, 0, -wm, 0, -wp, 0, 0, 0], complex))
        d = wavenumbers(spec_point)
        assert np.array_equal(raw_rhs, -np.array([1, 0, d.k0, 0, 0, 0, 0, 0], complex))
        # the psi' rows are divided by k_plus
        assert np.array_equal(system.rhs,
                              -np.array([1, 0, d.k0 / d.k_plus, 0, 0, 0, 0, 0], complex))

    def test_degenerate_spec_answered(self):
        # V0 = omega0: the slow branch's sin(qa)/q column is a
        spec = BarrierSpec(1.0, 1.0, 1.0, 0.5, 0.0)
        system = build_system(spec)
        assert system.matrix[5, 5] == 1j * spec.a
        amps = solve(system)
        assert amps.condition < 100.0
        assert np.abs(amps.as_array() - amplitudes_closed(spec).as_array()).max() <= 1e-15

    def test_regularized_rows_are_raw_rows_recombined(self, spec_factory):
        # row pairs of the two forms span the same constraints: the
        # regularized beta rows are the raw beta rows divided by w_cross
        # after the column regrouping, so both must accept the same c vector
        spec = spec_factory(theta_min=0.3, theta_max=math.pi - 0.3)
        amps = solve_spec(spec)
        raw_m, raw_rhs = _transcribed_matrix(spec)
        residual = np.abs(raw_m @ amps.as_array() - raw_rhs).max()
        assert residual < 1e-12


class TestSolveKnownCases:
    def test_example_point_against_closed_form(self, spec_point):
        got = solve_spec(spec_point).as_array()
        want = amplitudes_closed(spec_point).as_array()
        assert np.abs(got - want).max() < 1e-10

    def test_free_potential_passthrough(self):
        # V0 = 0: nothing reflects, nothing converts, but psi(0) and
        # psi'(0) / (i k0) = psi(0) still split the unit wave between the two
        # (now degenerate) branches
        spec = BarrierSpec(a=2.0, v0=0.0, omega0=1.0, theta=1.1, phi=0.4)
        amps = solve_spec(spec)
        for c in (amps.c1, amps.c2, amps.c8):
            assert abs(c) < 1e-13
        assert amps.c7 == pytest.approx(1.0, abs=1e-13)
        for c in (amps.c3, amps.c4):
            assert c == pytest.approx(math.sin(spec.theta / 2) ** 2, abs=1e-13)
        for c in (amps.c5, amps.c6):
            assert c == pytest.approx(math.cos(spec.theta / 2) ** 2, abs=1e-13)

    def test_complex_limit_exact_zeros(self):
        spec = BarrierSpec(a=2.3, v0=0.6, omega0=1.0, theta=0.0, phi=0.0)
        amps = solve_spec(spec)
        assert amps.c2 == 0.0
        assert amps.c8 == 0.0
        assert amps.interior_beta == (0.0, 0.0, 0.0, 0.0)
        assert abs(amps.c1) ** 2 + abs(amps.c7) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_width_barrier_is_transparent(self):
        amps = solve_spec(BarrierSpec(0.0, 0.7, 1.0, 1.0, 2.0))
        assert amps.c1 == pytest.approx(0.0, abs=1e-14)
        assert amps.c2 == pytest.approx(0.0, abs=1e-14)
        assert amps.c7 == pytest.approx(1.0, abs=1e-14)
        assert amps.c8 == pytest.approx(0.0, abs=1e-14)


class TestSolveProperties:
    def test_raw_equals_regularized_away_from_poles(self, spec_factory):
        for _ in range(50):
            spec = spec_factory(theta_min=0.2, theta_max=math.pi - 0.2)
            a = solve_spec(spec).as_array()
            b = np.linalg.solve(*_transcribed_matrix(spec))
            assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(a).max())

    def test_continuous_through_the_pole(self):
        base = dict(a=1.7, v0=0.5, omega0=1.0, phi=0.9)
        at_pole = solve_spec(BarrierSpec(theta=0.0, **base)).as_array()
        near = solve_spec(BarrierSpec(theta=1e-4, **base)).as_array()
        assert np.abs(near - at_pole).max() < 1e-3

    def test_interior_pairs_satisfy_mode_equations(self, spec_factory):
        for _ in range(30):
            spec = spec_factory()
            amps = solve_spec(spec)
            d = amps.dispersion
            for alpha, beta, k in zip((amps.c3, amps.c4, amps.c5, amps.c6), amps.interior_beta,
                                      (d.k_plus, d.k_plus, d.k_minus, d.k_minus)):
                pair = SymplecticPair(alpha, beta)
                tol = 1e-9 * (1.0 + math.sqrt(pair.norm2())) * (spec.omega0 ** 2 + spec.v0 ** 2)
                assert dispersion_residual(k, spec, pair) < tol

    def test_unitarity_of_exterior_amplitudes(self, spec_factory):
        for _ in range(100):
            amps = solve_spec(spec_factory())
            total = sum(abs(c) ** 2 for c in
                        (amps.c1, amps.c2, amps.c7, amps.c8))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_diagnostics_populated(self, spec_point):
        system = build_system(spec_point)
        amps = solve(system)
        assert amps.route == REGULARIZED
        assert np.abs(system.rhs - system.matrix @ amps.solution).max() < 1e-12
        assert amps.condition >= 1.0
        assert amps.solution.shape == (8,)


class TestSolveFailureModes:
    def test_singular_matrix_reported(self, spec_point):
        system = build_system(spec_point)
        system.matrix[:, 0] = system.matrix[:, 1]        # force rank loss
        with pytest.raises(SingularSystemError):
            solve(system)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_matrix_reported(self, spec_point, entry):
        # build_system never makes one, as BarrierSpec keeps a * k finite;
        # a hand-made one fails the condition gate, with no RuntimeWarning
        system = build_system(spec_point)
        system.matrix[3, 4] = entry
        with pytest.raises(SingularSystemError, match="cond_1 nan"):
            solve(system)

    @pytest.mark.parametrize("entry", [math.nan, complex(math.nan, 0.0), math.inf])
    def test_each_non_finite_entry_fails_a_gate(self, spec_point, entry):
        # the gates take Python's max, which skips a NaN not first in its list;
        # LAPACK's inverse still carries one from any entry into cond_1
        for i, j in np.ndindex(8, 8):
            system = build_system(spec_point)
            system.matrix[i, j] = entry
            with pytest.raises(SingularSystemError, match="singular"):
                solve(system)

    def test_inaccurate_inverse_fails_the_backward_error_gate(self, monkeypatch, spec_point):
        # an inverse 1e-3 too large passes the condition gate; one refinement
        # step leaves the backward error at 1.8e-7, above _RESIDUAL_ACCEPT
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inv(m) * (1.0 + 1e-3))
        with pytest.raises(SingularSystemError,
                           match="did not converge: backward error 1.798e-07"):
            solve_spec(spec_point)

    def test_near_singular_matrix_reported(self, spec_point):
        # nonzero smallest pivot, about 6e-15 of the largest entry: below
        # the pivot floor, so the condition gate must reject it too
        system = build_system(spec_point)
        system.matrix[:, 0] = system.matrix[:, 1] + 1e-15 * np.arange(1, 9)
        with pytest.raises(SingularSystemError):
            solve(system)


def _reference_system(spec):
    """(matrix, rhs, column_scale, beta_scale), the matrix assembled row by row
    into a zeroed array.

    Unknowns (c1, c2 / wx, c3 / wm, psi'_+(0) / (i k+ wm), c5 / wp,
    psi'_-(0) / (i um wp), c7 e^{i k0 a}, c8 e^{i k0 a} / wx), with
    um = min(max(k0, k-), |k- / sin(k- a)|); the psi' rows divided by i k+.
    """
    disp, (wp, wm, wx) = wavenumbers(spec), mode_ratios(spec.theta, spec.phi)
    k0, kp, km, a = disp.k0, disp.k_plus, disp.k_minus, spec.a
    cp, sp = math.cos(kp * a), math.sin(kp * a)
    cm, sm = math.cos(km * a), math.sin(km * a)
    slow = sm / km if km else a
    um = max(k0, km) if max(k0, km) * abs(slow) <= 1.0 else 1.0 / abs(slow)
    lm = um * slow
    x0, xm, xu = k0 / kp, km / kp, um / kp
    m = np.zeros((8, 8), dtype=complex)
    m[0] = [1, 0, -wm, 0, -wp, 0, 0, 0]
    m[1] = [0, 1, -1, 0, -1, 0, 0, 0]
    m[2] = [-x0, 0, 0, -wm, 0, -wp * xu, 0, 0]
    m[3] = [0, -x0, 0, -1, 0, -xu, 0, 0]
    m[4] = [0, 0, wm * cp, 1j * wm * sp, wp * cm, 1j * wp * lm, -1, 0]
    m[5] = [0, 0, cp, 1j * sp, cm, 1j * lm, 0, -1]
    m[6] = [0, 0, 1j * wm * sp, wm * cp, 1j * wp * xm * sm, wp * xu * cm, -x0, 0]
    m[7] = [0, 0, 1j * sp, cp, 1j * xm * sm, xu * cm, 0, -x0]
    back = cmath.exp(-1j * a * k0)
    rhs = -np.array([1, 0, x0, 0, 0, 0, 0, 0], dtype=complex)
    column_scale = np.array([1, wx, wm, wm * kp / k0, wp, wp * um / k0, back, wx * back])
    beta_scale = wx * np.array([1, kp / k0, 1, um / k0])
    return m, rhs, column_scale, beta_scale


def _reference_solve(system, refine_trigger):
    """The solver's gate arithmetic written norm by norm with np.linalg.norm.

    Returns (condition, residual, u) as the matcher must report them.
    """
    m, rhs = system.matrix, system.rhs
    inverse = np.linalg.inv(m)
    condition = float(np.linalg.norm(m, 1) * np.linalg.norm(inverse, 1))

    def backward_error(u):
        r = rhs - m @ u
        denom = (np.linalg.norm(m, np.inf) * np.linalg.norm(u, np.inf)
                 + np.linalg.norm(rhs, np.inf))
        return r, float(np.linalg.norm(r, np.inf) / denom)

    u = inverse @ rhs
    r, err = backward_error(u)
    if err > refine_trigger:
        u = u + inverse @ r
        r, err = backward_error(u)
    return condition, float(np.linalg.norm(r, np.inf)), u


def _amplitude_bytes(amps):
    """Every number amps reports, as bytes, and its route."""
    d = amps.dispersion
    return (amps.as_array().tobytes(), np.array(amps.interior_beta).tobytes(),
            np.array([d.k0, d.k_plus, d.k_minus]).tobytes(),
            np.float64(amps.condition).tobytes(), amps.solution.tobytes(), amps.route)


class TestBitIdentity:
    """The template fill and the lean gates reproduce the row-by-row,
    norm-by-norm arithmetic bit for bit, and solve_spec is build then solve."""

    # 4e-17 is near the median backward error of these specs, so about half
    # of them refine: a slip in the error's arithmetic flips some decisions
    @pytest.mark.parametrize("trigger", [matcher._REFINE_TRIGGER, 4e-17, 0.0],
                             ids=["as-shipped", "half-refine", "always-refine"])
    def test_matches_norm_by_norm_reference(self, monkeypatch, trigger, bit_identity_specs):
        monkeypatch.setattr(matcher, "_REFINE_TRIGGER", trigger)
        for spec in bit_identity_specs:
            system = build_system(spec)
            parts = (system.matrix, system.rhs, system.column_scale, system.beta_scale)
            for got, want in zip(parts, _reference_system(spec)):
                assert got.tobytes() == want.tobytes()
            amps = solve(system)
            condition, residual, u = _reference_solve(system, trigger)
            assert amps.condition == condition
            assert float(np.abs(system.rhs - system.matrix @ amps.solution).max()) == residual
            assert amps.solution.tobytes() == u.tobytes()
            assert amps.as_array().tobytes() == (system.column_scale * u).tobytes()
            want = system.beta_scale * u[2:6]
            assert np.array(amps.interior_beta).tobytes() == want.tobytes()
            assert _amplitude_bytes(solve_spec(spec)) == _amplitude_bytes(amps)

    def test_solve_spec_builds_and_solves_once(self, monkeypatch, spec_point):
        calls = []
        for name in ("build_system", "solve"):
            def counted(arg, _name=name, _original=getattr(matcher, name)):
                calls.append(_name)
                return _original(arg)
            monkeypatch.setattr(matcher, name, counted)
        solve_spec(spec_point)
        assert calls == ["build_system", "solve"]


def _route_defects(spec):
    """(route difference over max|c|, worst flux defect) of matcher and closed form."""
    routes = (solve_spec(spec), amplitudes_closed(spec))
    solved, closed = (amps.as_array() for amps in routes)
    return (float(np.abs(solved - closed).max() / np.abs(closed).max()),
            max(abs(exterior_magnitude_sum(amps) - 1.0) for amps in routes))


@st.composite
def _any_potential(draw):
    """Barriers near and at V0 = omega0, in the Klein zone, at the poles and
    out to BarrierSpec's float-range edge in a."""
    omega0 = 10.0 ** draw(st.floats(-8.0, 8.0))
    # |omega0 - V0| / omega0 log-uniform from 1e-300, or exactly 0
    delta = draw(st.one_of(st.just(0.0), st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e)))
    side = draw(st.sampled_from((-1.0, 1.0)))
    klein = st.floats(1.0, 2.0).map(lambda ratio: ratio * omega0)
    v0 = draw(st.one_of(st.just(omega0 * (1.0 + side * delta)), klein))
    # a omega0 from 1e-9 up; 10^305 / omega0 passes the edge and is clamped to it
    edge = sys.float_info.max / (4.0 * max(1.0, omega0 + v0))
    a = min(10.0 ** draw(st.floats(-9.0, 305.0)) / omega0, edge)
    theta = draw(st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi)))
    phi = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    return BarrierSpec(a, v0, omega0, theta, phi)


def _seed7_log_grid():
    """936 barriers, one rng-seed-7 log-uniform draw in each cell of a grid of
    13 x 12 x 6 cells over V0/omega0 in 10^[-3.5, 9.5], a omega0 in
    10^[-8.5, 3.5] and omega0 in 10^[-8, 8], at uniform random angles."""
    rng = np.random.default_rng(7)
    width = np.array([1.0, 1.0, 16.0 / 6.0])
    cells = np.stack(np.meshgrid(np.arange(13.0) - 3.5, np.arange(12.0) - 8.5,
                                 np.arange(6.0) * width[2] - 8.0, indexing="ij"), -1)
    cells = cells.reshape(-1, 3)
    ratio, a_k0, omega0 = (10.0 ** (cells + width * rng.random(cells.shape))).T
    theta = rng.uniform(0.0, math.pi, len(cells))
    phi = rng.uniform(0.0, 2.0 * math.pi, len(cells))
    return [BarrierSpec(ak / w, r * w, w, t, p)
            for r, ak, w, t, p in zip(ratio, a_k0, omega0, theta, phi)]


class TestEveryPotential:
    """The interior basis {cos qx, sin(qx)/q} answers every valid barrier."""

    @settings(max_examples=500, deadline=None)
    @given(_any_potential())
    def test_routes_agree_and_conserve_flux(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            route, flux = _route_defects(spec)
        assert route <= ORACLE_TOL
        assert flux <= ORACLE_FLUX_TOL

    def test_seed7_log_grid(self):
        # before the entire basis, 59 of these raised SingularSystemError
        specs = _seed7_log_grid()
        assert len(specs) == 936
        worst_route = worst_flux = worst_condition = 0.0
        for spec in specs:
            route, flux = _route_defects(spec)
            worst_route, worst_flux = max(worst_route, route), max(worst_flux, flux)
            worst_condition = max(worst_condition, solve_spec(spec).condition)
        assert worst_route <= ORACLE_TOL
        assert worst_flux <= ORACLE_FLUX_TOL
        assert worst_condition < 1e6        # 1.15e5 when recorded
