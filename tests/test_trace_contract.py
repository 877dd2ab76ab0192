"""The benchmark's tracer names qkg functions; each name must still exist.

perfbench/tracing.py wraps the functions listed in its TRACED table, and
``perfbench/run.py --trace 1`` fails with an AttributeError if one of them
is renamed or deleted.  The module is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracing):
    assert tracing.TRACED
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"qkg.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qkg.{layer}.{name}"


def test_direction_constructor_exists(tracing):
    from qkg.quaternion import UnitImaginaryDirection

    assert isinstance(vars(UnitImaginaryDirection)["from_angles"], classmethod)
