"""Gate tests: one per verification criterion, plus the runtime budget.

The whole suite is executed once per test session through qkg.verify.run_all,
at the pinned sizes that `qkg verify` runs, and each test asserts one
criterion, printing its pass/fail line so `pytest -s` shows the same table the
command line does.  The trip tests, which only need a check to fail, run it at
smaller sizes by monkeypatching the module's size constants.
"""

import logging
import math
import subprocess

import numpy as np
import pytest

from qkg import cli, verify
from qkg.closedform import amplitudes_closed
from qkg.model import BarrierSpec
from qkg.quaternion import SymplecticPair
from qkg.verify import run_all


@pytest.fixture(scope="module")
def results():
    return {res.index: res for res in run_all()}


@pytest.fixture
def small(monkeypatch):
    """Smaller sizes for the trip tests: 100 + 10 oracle specs, an 8x8 limit
    grid, 20 fidelity specs, 20 short stacks and two deep stacks of 1000
    pairs."""
    for name, value in (("ORACLE_SPECS", 100), ("ORACLE_EDGE_SPECS", 10),
                        ("LIMIT_GRID", 8), ("FIDELITY_SPECS", 20),
                        ("STACK_SHORT_COUNT", 20), ("STACK_DEEP_COUNT", 1),
                        ("STACK_HUGE_PAIRS", 1000)):
        monkeypatch.setattr(verify, name, value)


def gate(results, index):
    res = results[index]
    print(res.line())
    assert res.passed, f"criterion {index} ({res.name}): {res.detail}"
    return res


def test_criterion_1_closed_form_matches_linear_solve(results):
    res = gate(results, 1)
    assert res.seconds < 5.0


def _scaled_c7(route, factor):
    def moved(spec):
        amps = route(spec)
        return amps._replace(c7=amps.c7 * factor)
    return moved


def test_criterion_1_trips_on_a_moved_amplitude(monkeypatch, small):
    monkeypatch.setattr(verify, "solve_spec", _scaled_c7(verify.solve_spec, 1.0 + 1e-3))
    res = verify.check_oracle_equivalence()
    assert not res.passed
    assert float(res.detail.split()[3].rstrip(",")) > verify.ORACLE_TOL


def test_criterion_1_trips_on_lost_flux(monkeypatch, small):
    # both routes move together, so they still agree; only flux is lost
    for name in ("solve_spec", "amplitudes_closed"):
        monkeypatch.setattr(verify, name, _scaled_c7(getattr(verify, name), 1.0 + 1e-9))
    res = verify.check_oracle_equivalence()
    assert not res.passed
    assert float(res.detail.split()[3].rstrip(",")) <= verify.ORACLE_TOL
    assert float(res.detail.split()[6]) > verify.ORACLE_FLUX_TOL


def test_criterion_2_solutions_satisfy_matching_and_continuity(results):
    gate(results, 2)


def test_criterion_3_complex_limit_kills_quaternionic_parts(results):
    gate(results, 3)


def test_criterion_3_trips_on_a_nonzero_pole_c8(monkeypatch, small):
    solve_spec = verify.solve_spec

    def moved(spec):
        amps = solve_spec(spec)
        return amps._replace(c8=1e-30) if spec.theta == 0.0 else amps

    monkeypatch.setattr(verify, "solve_spec", moved)
    res = verify.check_complex_limit()
    assert not res.passed
    assert "exact: False" in res.detail


def test_criterion_4_small_parameter_expansion_first_order(results):
    gate(results, 4)


def test_criterion_4_trips_on_a_lost_first_order_term(monkeypatch):
    # the expansion without its transmitted beta term c8 = a theta e^{-i phi} V0
    taylor = verify._taylor

    def moved(spec):
        terms = taylor(spec)
        terms[7] = 0.0
        return terms

    monkeypatch.setattr(verify, "_taylor", moved)
    res = verify.check_taylor_regime()
    assert not res.passed
    assert res.detail.startswith("worst rel err inf")


def test_criterion_5_transmitted_wave_never_damps(results):
    res = gate(results, 5)
    assert res.seconds < 2.0


def test_criterion_5_matches_the_scalar_loop(monkeypatch):
    # reference: amplitudes_closed at every width i * step, one at a time
    step = 0.05
    monkeypatch.setattr(verify, "DAMPING_STEP", step)
    c8 = {i: abs(amplitudes_closed(BarrierSpec(i * step, 0.3, 1.0, math.pi / 2,
                                                0.0)).c8)
          for i in range(1, 2001)}
    near = max(c8[i] for i in range(1, 1001))
    far = max(c8[i] for i in range(1000, 2001))
    expect = f"max|c8| {near:.4f} on (0,50], {far:.4f} on [50,100]"
    assert verify.check_no_damping().detail == expect


def test_criterion_6_transfer_matrix_reproduces_matching(results):
    gate(results, 6)


def test_criterion_7_ordering_asymmetry_sanity(results):
    gate(results, 7)


def test_criterion_8_raw_system_matches_transcription(results):
    gate(results, 8)


@pytest.mark.parametrize("field, index", [
    ("matrix", (2, 0)), ("matrix", (5, 2)), ("rhs", 0), ("rhs", 1),
], ids=("alpha row", "beta row", "alpha rhs", "beta rhs"))
def test_criterion_8_trips_on_a_moved_production_entry(monkeypatch, small, field, index):
    build = verify.build_system

    def moved(spec):
        system = build(spec)
        getattr(system, field)[index] += 1e-11 * np.abs(system.matrix).max()
        return system

    monkeypatch.setattr(verify, "build_system", moved)
    assert not verify.check_matrix_fidelity().passed


def test_criterion_9_parallel_sweep_deterministic(results):
    gate(results, 9)


def test_criterion_9_trips_on_a_moved_in_process_sweep(monkeypatch):
    grid = cli.exterior_amplitudes_grid

    def moved(**spec):
        c1, c2, c7, c8 = grid(**spec)
        return c1, c2, c7 * (1.0 + 1e-15), c8

    monkeypatch.setattr(cli, "exterior_amplitudes_grid", moved)
    res = verify.check_determinism()
    assert not res.passed
    assert res.detail.startswith("csv identical: False")


def test_criterion_9_fails_when_the_subprocess_sweep_exits_nonzero(monkeypatch):
    def failed(argv, **_):
        return subprocess.CompletedProcess(argv, 1, b"", b"error\n")

    monkeypatch.setattr(verify.subprocess, "run", failed)
    res = verify.check_determinism()
    assert not res.passed
    assert res.detail == "csv run exited 1, json run exited 1"


def test_criterion_9_adds_no_root_log_handler(monkeypatch):
    # logging.basicConfig, as cli.main calls it, adds one only to a bare root
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    res = verify.check_determinism()
    added = list(root.handlers)
    monkeypatch.undo()      # before pytest removes its own capture handler
    assert res.passed
    assert added == []


def test_criterion_10_deep_stacks_unitary_short_stacks_match_transfer(results):
    gate(results, 10)


def _moved_smatrix(smatrix):
    def moved(stack):
        s = smatrix(stack)
        s[1, 2] += 1e-11
        return s
    return moved


def _moved_scatter(scatter):
    def moved(stack):
        refl, trans = scatter(stack)
        return refl, SymplecticPair(trans.alpha, trans.beta + 1e-9)
    return moved


@pytest.mark.parametrize("name, move", [
    ("stack_smatrix", _moved_smatrix), ("stack_scatter", _moved_scatter),
], ids=("unitarity", "transfer route"))
def test_criterion_10_trips_on_a_moved_answer(monkeypatch, small, name, move):
    monkeypatch.setattr(verify, name, move(getattr(verify, name)))
    assert not verify.check_stack_unitarity().passed


def test_run_all_runs_the_ten_criteria_in_order(results):
    assert [(index, res.name) for index, res in results.items()] == list(enumerate((
        "oracle-equivalence", "back-substitution", "complex-limit", "taylor-regime",
        "no-damping", "transfer-oracle", "ordering-sanity", "matrix-fidelity",
        "determinism", "stack-unitarity"), start=1))


def test_time_budget_fails_a_check_and_says_so():
    def check():
        return True, "done"

    over = verify.criterion(0, "over-budget", budget=0.0)(check)()
    assert not over.passed
    assert over.detail == "done, over its 0 s budget"
    within = verify.criterion(0, "within-budget", budget=60.0)(check)()
    assert within.passed
    assert within.detail == "done"


def test_floor_sizes_are_pinned(results):
    # literals, not the constants: a smaller floor fails here
    for index, size in ((1, "over 1000 + 100"), (2, "over 300 specs"), (3, "20x20 grid"),
                        (6, "over 200 specs"), (8, "over 100 specs"),
                        (10, "to 10000 pairs"), (10, "over 100 + 20")):
        assert size in results[index].detail


def test_full_suite_runtime_budget(results):
    total = sum(res.seconds for res in results.values())
    print(f"verification total {total:.2f}s")
    assert total < 60.0
