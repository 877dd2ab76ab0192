"""Scattering of massless waves off rectangular quaternionic potentials.

The package solves the one-dimensional matching problem for a step
potential whose imaginary part points along an arbitrary unit direction,
provides the equivalent closed-form amplitudes, samples the wavefunction,
and scatters stacked barriers through 4x4 S-matrices composed by star
products, with 4x4 transfer matrices (plain complex ndarrays) as the
fallback for stacks whose star products miss the flux gate and as the
check.

Each public name is declared once, in _EXPORTS under the module that
defines it, and resolved on first use (PEP 562): ``import qkg`` alone
loads neither numpy nor any layer.
"""

import importlib
import logging

_EXPORTS = {
    "closedform": ("EXACT", "amplitudes_closed", "exterior_amplitudes_grid",
                   "exterior_magnitude_sum", "quaternionic_fraction",
                   "quaternionic_fraction_grid"),
    "errors": ("InvalidDirectionError", "SingularSystemError", "UndefinedFractionError"),
    "matcher": ("REGULARIZED", "MatchingSystem", "build_system", "solve", "solve_spec"),
    "model": ("Amplitudes", "BarrierSpec", "DispersionData", "ModeRatios",
              "direction_coupling", "mode_ratios", "wavenumbers"),
    "multilayer": ("LayerStack", "OrderingReport", "Segment", "compose", "free_gap",
                   "ordering_report", "segment_transfer", "stack_scatter", "stack_smatrix",
                   "stack_transfer", "transfer_smatrix"),
    "quaternion": ("SymplecticPair", "UnitImaginaryDirection", "magnitude"),
    "wavefield": ("BARRIER", "LEFT", "REGIONS", "RIGHT", "FieldSample", "FieldSamples",
                  "continuity_residuals", "sample_field"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE)
__version__ = "0.1.0"

# The library logs warnings only; an application decides where they go.
logging.getLogger("qkg").addHandler(logging.NullHandler())


def __getattr__(name: str):
    # not bound here, so qkg.X is always the defining module's X
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
