"""The benchmark reads qkg by name; each name it uses must still work.

perfbench/tracing.py wraps the functions listed in its TRACED table, and
``perfbench/run.py --trace 1`` fails with an AttributeError if one of them
is renamed or deleted.  perfbench/library.py builds qkg inputs, calls qkg's
API and reads its results (``FieldSample.psi.norm2()``, the stack's
``SymplecticPair.norm2()``).  Both modules are loaded by path and left
unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    yield load("perfbench_tracing", PERFBENCH / "tracing.py")
    del sys.modules["perfbench_tracing"]


@pytest.fixture(scope="module")
def library():
    yield load("perfbench_library", PERFBENCH / "library.py")
    del sys.modules["perfbench_library"]


def test_traced_names_resolve(tracing):
    assert tracing.TRACED
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"qkg.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qkg.{layer}.{name}"


def test_direction_constructor_exists(tracing):
    from qkg.quaternion import UnitImaginaryDirection

    assert isinstance(vars(UnitImaginaryDirection)["from_angles"], classmethod)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", ["solve", "stack", "field"])
def test_library_ops_pass_their_checks(library, kind, seed):
    handler = library.KINDS[kind]
    items = handler.inputs(np.random.default_rng(seed), 20)
    assert len(items) == 20
    failed = []
    for item in items:
        try:
            ok = handler.check(item, handler.op(handler.prepare(item)), {})
        except Exception:       # the benchmark counts a raising op as failed
            if not handler.known_defect(item):
                raise
            ok = False
        if not ok and not handler.known_defect(item):
            failed.append(item)
    assert failed == []
