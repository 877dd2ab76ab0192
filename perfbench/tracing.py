"""Timing wrappers around the public functions of qkg's layers.

The wrappers are installed from outside the package: every module attribute
of ``qkg.*`` that is one of the functions named in ``TRACED`` is replaced by
a wrapper, so calls through re-exports (``qkg.solve_spec``, the names the CLI
imports) are timed too.  Nothing under ``src/`` is edited.

A span is one call of a wrapped function.  Spans are not stored one by one;
each function keeps three running sums: calls, inclusive nanoseconds and self
nanoseconds (inclusive minus the time covered by wrapped calls it made).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer (the module name under src/qkg) -> public functions timed in it.
TRACED = {
    "cli": ("main",),
    "model": ("wavenumbers", "check_nondegenerate", "mode_ratios",
              "direction_coupling"),
    "matcher": ("build_system", "solve", "solve_spec"),
    "closedform": ("amplitudes_closed", "quaternionic_fraction"),
    "multilayer": ("segment_transfer", "compose", "stack_transfer",
                   "stack_scatter", "ordering_report", "free_gap"),
    "wavefield": ("sample_field",),
}
# Direction set-up lives in qkg.quaternion but is counted with the model layer.
DIRECTION = "model.direction_from_angles"


class Tracer:
    """Per-function call counts and inclusive/self times of one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self._open: list[int] = []      # child nanoseconds of each open span

    def wrap(self, name: str, fn):
        totals = self.stats.setdefault(name, [0, 0, 0])
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return timed

    def reset(self) -> None:
        """Zero every sum in place (the wrappers hold the lists)."""
        for totals in self.stats.values():
            totals[:] = [0, 0, 0]
        self._open.clear()

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as handle:
            json.dump({"stats": self.stats, **extra}, handle)


def install(tracer: Tracer):
    """Replace every binding of a traced function in the loaded qkg modules.

    Returns a function that puts the original bindings back.
    """
    import qkg.cli  # noqa: F401  (loads every layer)
    from qkg.quaternion import UnitImaginaryDirection

    wrappers, replaced = {}, []
    for layer, names in TRACED.items():
        module = sys.modules[f"qkg.{layer}"]
        for name in names:
            original = getattr(module, name)
            wrappers[id(original)] = tracer.wrap(f"{layer}.{name}", original)
    for module_name, module in list(sys.modules.items()):
        if module_name != "qkg" and not module_name.startswith("qkg."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((module, attr, value))
                setattr(module, attr, wrapper)
    from_angles = vars(UnitImaginaryDirection)["from_angles"]
    replaced.append((UnitImaginaryDirection, "from_angles", from_angles))
    UnitImaginaryDirection.from_angles = classmethod(
        tracer.wrap(DIRECTION, from_angles.__func__))

    def uninstall() -> None:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    return uninstall


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
