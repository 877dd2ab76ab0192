"""Gate tests: one per verification criterion, plus the runtime budget.

The whole suite is executed once per test session through qkg.verify.run_all
(full mode, never quick) and each test asserts one criterion, printing its
pass/fail line so `pytest -s` shows the same table the command line does.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest

from qkg import cli, verify
from qkg.closedform import amplitudes_closed
from qkg.model import BarrierSpec
from qkg.quaternion import SymplecticPair
from qkg.verify import run_all


@pytest.fixture(scope="module")
def results():
    return {res.index: res for res in run_all(quick=False)}


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
        return dataclasses.replace(amps, c7=amps.c7 * factor)
    return moved


def test_criterion_1_trips_on_a_moved_amplitude(monkeypatch):
    monkeypatch.setattr(verify, "solve_spec", _scaled_c7(verify.solve_spec, 1.0 + 1e-3))
    res = verify.check_oracle_equivalence(quick=True)
    assert not res.passed
    assert float(res.detail.split()[3].rstrip(",")) > verify.ORACLE_TOL


def test_criterion_1_trips_on_lost_flux(monkeypatch):
    # both routes move together, so they still agree; only flux is lost
    for name in ("solve_spec", "amplitudes_closed"):
        monkeypatch.setattr(verify, name, _scaled_c7(getattr(verify, name), 1.0 + 1e-9))
    res = verify.check_oracle_equivalence(quick=True)
    assert not res.passed
    assert float(res.detail.split()[3].rstrip(",")) <= verify.ORACLE_TOL
    assert float(res.detail.split()[6]) > verify.ORACLE_FLUX_TOL


def test_criterion_2_solutions_satisfy_matching_and_continuity(results):
    gate(results, 2)


def test_criterion_3_complex_limit_kills_quaternionic_parts(results):
    gate(results, 3)


def test_criterion_4_small_parameter_expansion_first_order(results):
    gate(results, 4)


def test_criterion_5_transmitted_wave_never_damps(results):
    res = gate(results, 5)
    assert res.seconds < 2.0


def test_criterion_5_matches_the_scalar_loop():
    # reference: amplitudes_closed at every width i * step, one at a time
    step = 0.05
    c8 = {i: abs(amplitudes_closed(BarrierSpec(i * step, 0.3, 1.0, math.pi / 2,
                                                0.0)).c8)
          for i in range(1, 2001)}
    near = max(c8[i] for i in range(1, 1001))
    far = max(c8[i] for i in range(1000, 2001))
    expect = f"max|c8| {near:.4f} on (0,50], {far:.4f} on [50,100]"
    assert verify.check_no_damping(quick=True).detail == expect


def test_criterion_6_transfer_matrix_reproduces_matching(results):
    gate(results, 6)


def test_criterion_7_ordering_asymmetry_sanity(results):
    gate(results, 7)


def test_criterion_8_raw_system_matches_transcription(results):
    gate(results, 8)


@pytest.mark.parametrize("field, index", [
    ("matrix", (2, 0)), ("matrix", (5, 2)), ("rhs", 0), ("rhs", 1),
], ids=("alpha row", "beta row", "alpha rhs", "beta rhs"))
def test_criterion_8_trips_on_a_moved_production_entry(monkeypatch, field, index):
    build = verify.build_system

    def moved(spec):
        system = build(spec)
        getattr(system, field)[index] += 1e-11 * np.abs(system.matrix).max()
        return system

    monkeypatch.setattr(verify, "build_system", moved)
    assert not verify.check_matrix_fidelity(quick=True).passed


def test_criterion_9_parallel_sweep_deterministic(results):
    res = gate(results, 9)
    assert not res.skipped


def test_criterion_9_trips_on_a_moved_in_process_sweep(monkeypatch):
    combine = cli.exterior_combine

    def moved(branch, direction):
        c1, c2, c7, c8 = combine(branch, direction)
        return c1, c2, c7 * (1.0 + 1e-15), c8

    monkeypatch.setattr(cli, "exterior_combine", moved)
    res = verify.check_determinism()
    assert not res.passed
    assert res.detail.startswith("csv identical: False")


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
def test_criterion_10_trips_on_a_moved_answer(monkeypatch, name, move):
    monkeypatch.setattr(verify, name, move(getattr(verify, name)))
    assert not verify.check_stack_unitarity(quick=True).passed


def test_run_all_runs_the_ten_criteria_in_order(results):
    assert [(index, res.name) for index, res in results.items()] == list(enumerate((
        "oracle-equivalence", "back-substitution", "complex-limit", "taylor-regime",
        "no-damping", "transfer-oracle", "ordering-sanity", "matrix-fidelity",
        "determinism", "stack-unitarity"), start=1))


def test_time_budget_applies_in_full_mode_only():
    @verify.criterion(0, "over-budget", budget=0.0)
    def check(quick):
        return True, "done"

    assert not check(quick=False).passed
    assert check(quick=True).passed


def test_full_suite_runtime_budget(results):
    total = sum(res.seconds for res in results.values())
    print(f"verification total {total:.2f}s")
    assert total < 60.0
