"""The package's export list names only what exists, each name once, and
resolves it from its defining module on first use: importing the package
loads no layer, and importing the command line leaves the verification
suite unloaded.  The exports are the 21 names the paper needs; names removed
from the package stay gone, or resolve only from their defining module, and
both amplitude routes answer with their full interior at the poles and at
V0 = omega0.

The three records of a scalar solve, DispersionData, Amplitudes and
MatchingSystem, are NamedTuples: their field names and order are the contract,
and they are read-only.  The other records stay dataclasses:

- BarrierSpec, Segment, LayerStack and UnitImaginaryDirection validate their
  fields in __post_init__, which a NamedTuple's _replace and _make would skip;
- `qkg ordering --format json` writes asdict(report) of an OrderingReport,
  and must keep writing each SymplecticPair in it as an {"alpha", "beta"}
  object, where asdict would write a NamedTuple as a list;
- the benchmark iterates FieldSamples through its own __iter__, where a
  NamedTuple would iterate its fields."""

import dataclasses
import importlib
import inspect
import math
import re
import subprocess
import sys

import pytest

import qkg


def test_all_names_resolve_once():
    assert len(qkg.__all__) == len(set(qkg.__all__))
    missing = [name for name in qkg.__all__ if not hasattr(qkg, name)]
    assert missing == []


def test_each_name_is_its_defining_modules_object():
    for module, names in qkg._EXPORTS.items():
        layer = importlib.import_module(f"qkg.{module}")
        for name in names:
            assert getattr(qkg, name) is getattr(layer, name), name


def test_unknown_name_is_missing():
    assert not hasattr(qkg, "no_such_name")


def test_dir_lists_the_exports():
    listed = dir(qkg)
    assert "__all__" in listed
    assert set(qkg.__all__) <= set(listed)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qkg import *", namespace)
    assert set(qkg.__all__) <= set(namespace)


def test_package_import_loads_no_layer():
    code = ("import sys, qkg; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('qkg.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_the_verification_suite_unloaded():
    code = ("import sys, qkg.cli; "
            "print('qkg.verify' in sys.modules, 'subprocess' in sys.modules); "
            "from qkg.verify import run_all")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


# Prints the layers (and json) that have run after `import qkg.cli`, then the
# exit code of cli.main(ARGV) and the same list again.  Each of matcher,
# multilayer and wavefield must sit in sys.modules and on qkg from the import
# on, as an import binds it; its body has run once its __dict__, read through
# object.__getattribute__ so that the check loads nothing, holds a name the
# module defines.
_LAYERS_RUN = """\
import contextlib, io, sys
import qkg, qkg.cli

DEFINES = {"matcher": "solve_spec", "multilayer": "ordering_report",
           "wavefield": "sample_field"}

def ran():
    names = []
    for layer, name in DEFINES.items():
        module = sys.modules[f"qkg.{layer}"]
        assert vars(qkg)[layer] is module, layer
        if name in object.__getattribute__(module, "__dict__"):
            names.append(layer)
    return names + ["json"] * ("json" in sys.modules)

print(ran())
with contextlib.redirect_stdout(io.StringIO()):
    code = qkg.cli.main(sys.argv[1:])
print(code, ran())
"""


@pytest.mark.parametrize("argv, loaded", [
    (["sweep", "--sweep", "theta:0:1:0.5"], []),
    (["sweep", "--sweep", "theta:0:1:0.5", "--format", "json"], ["json"]),
    (["solve"], ["matcher"]),
    (["field", "--points", "5"], ["wavefield"]),
    (["ordering", "--seg-a", "1:0.5:1:0", "--seg-b", "1:0.5:2:1"], ["multilayer"]),
], ids=("sweep", "sweep-json", "solve", "field", "ordering"))
def test_each_command_runs_only_its_layers(argv, loaded):
    proc = subprocess.run([sys.executable, "-c", _LAYERS_RUN, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[]\n0 {loaded}\n"


PUBLIC = {
    "BarrierSpec", "Amplitudes", "amplitudes_closed", "solve_spec",
    "exterior_amplitudes_grid", "quaternionic_fraction", "quaternionic_fraction_grid",
    "exterior_magnitude_sum",
    "sample_field", "FieldSamples", "REGIONS",
    "Segment", "free_gap", "LayerStack", "stack_scatter", "ordering_report", "OrderingReport",
    "SymplecticPair", "magnitude", "SingularSystemError", "UndefinedFractionError",
}

# name -> the module that still defines it, for each name that left qkg.__all__
MODULE_ONLY = {
    "closedform": ("EXACT",),
    "errors": ("InvalidDirectionError",),
    "matcher": ("REGULARIZED", "MatchingSystem", "build_system", "solve"),
    "model": ("DispersionData", "mode_ratios", "wavenumbers", "direction_coupling"),
    "multilayer": ("compose", "segment_transfer", "stack_transfer", "transfer_smatrix",
                   "stack_smatrix"),
    "quaternion": ("UnitImaginaryDirection",),
    "wavefield": ("BARRIER", "LEFT", "RIGHT", "FieldSample", "continuity_residuals"),
}


def test_exports_are_the_papers_api():
    assert set(qkg.__all__) == PUBLIC
    assert len(qkg.__all__) == 21


@pytest.mark.parametrize("module, name", [(module, name) for module, names in
                                          MODULE_ONLY.items() for name in names])
def test_module_only_names_leave_the_package(module, name):
    assert name not in qkg.__all__
    with pytest.raises(AttributeError):
        getattr(qkg, name)
    assert hasattr(importlib.import_module(f"qkg.{module}"), name)


@pytest.mark.parametrize("name", ["amplitudes_taylor", "TAYLOR", "COMPLEX_LIMIT"])
def test_removed_names_are_gone(name):
    assert name not in qkg.__all__
    with pytest.raises(AttributeError):
        getattr(qkg, name)


def test_amplitudes_keep_no_mode_ratios():
    assert "ratios" not in qkg.Amplitudes._fields


def test_one_source_for_the_mode_terms_and_the_slab_backend():
    from qkg import cli, closedform, matcher, model, multilayer, wavefield

    assert not any(hasattr(model, name) for name in ("ModeRatios", "_mode_terms"))
    assert not hasattr(closedform, "direction_terms")
    assert "ratios" not in matcher.MatchingSystem._fields
    assert list(inspect.signature(closedform.slab_rt).parameters) == [
        "q", "k0", "length", "faces"]
    assert list(inspect.signature(closedform.coupled).parameters) == [
        "f_minus", "f_plus", "w_plus", "w_minus", "w_cross"]
    # every amplitude route takes the direction from mode_ratios alone: no
    # other route module takes a sine, cosine or exponential of an angle
    # (quaternion builds the unit vector n for the transfer oracle, and verify
    # keeps checks of its own)
    angle_term = re.compile(r"\b(?:sin|cos|exp)\([^()]*\b(?:theta|phi)\b")
    assert angle_term.search(inspect.getsource(model.mode_ratios))
    for module in (closedform, matcher, multilayer, wavefield, cli):
        assert not angle_term.search(inspect.getsource(module)), module.__name__


def test_members_only_tests_read_are_gone():
    pair = qkg.SymplecticPair(1 + 2j, 3 - 1j)
    assert not any(hasattr(pair, name) for name in ("__add__", "__sub__", "norm"))
    assert not hasattr(qkg.FieldSamples, "__getitem__")
    assert "residual" not in qkg.Amplitudes._fields


@pytest.mark.parametrize("route", [qkg.solve_spec, qkg.amplitudes_closed])
@pytest.mark.parametrize("v0, theta", [(0.3, 0.0), (0.3, math.pi), (1.0, 1.0)],
                         ids=("theta=0", "theta=pi", "V0=omega0"))
def test_both_routes_answer_at_the_poles_and_the_edge(route, v0, theta):
    amps = route(qkg.BarrierSpec(a=1.0, v0=v0, omega0=1.0, theta=theta, phi=0.5))
    assert amps.route in {"exact", "regularized"}
    assert isinstance(amps.interior_beta, tuple) and len(amps.interior_beta) == 4


RECORD_FIELDS = {
    "DispersionData": ("k0", "k_plus", "k_minus"),
    "Amplitudes": ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "dispersion", "route",
                   "interior_beta", "condition", "solution"),
    "MatchingSystem": ("matrix", "rhs", "column_scale", "beta_scale", "spec", "dispersion"),
}


def _records():
    from qkg import matcher, model

    spec = qkg.BarrierSpec(a=1.0, v0=0.3, omega0=1.0, theta=1.0, phi=0.5)
    return {"DispersionData": [model.wavenumbers(spec)],
            "Amplitudes": [matcher.solve_spec(spec), qkg.amplitudes_closed(spec)],
            "MatchingSystem": [matcher.build_system(spec)]}


@pytest.mark.parametrize("name", list(RECORD_FIELDS))
def test_scalar_solve_records_are_read_only_named_tuples(name):
    for record in _records()[name]:
        cls = type(record)
        assert cls.__name__ == name and issubclass(cls, tuple)
        assert cls._fields == RECORD_FIELDS[name]
        first = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, first, None)
        assert type(record._replace(**{first: getattr(record, first)})) is cls
    if name == "Amplitudes":
        assert cls._field_defaults == {"condition": None, "solution": None}


def test_validated_and_nested_records_stay_dataclasses():
    from qkg import model, multilayer, quaternion, wavefield

    for cls in (model.BarrierSpec, multilayer.Segment, multilayer.LayerStack,
                quaternion.UnitImaginaryDirection, quaternion.SymplecticPair,
                multilayer.OrderingReport, wavefield.FieldSamples):
        assert dataclasses.is_dataclass(cls) and not issubclass(cls, tuple), cls.__name__
