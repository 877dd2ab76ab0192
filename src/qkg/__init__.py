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
loads neither numpy nor any layer.  Names that only the verification suite
and the tests read are imported from their modules.
"""

import importlib

_EXPORTS = {
    "closedform": ("amplitudes_closed", "exterior_amplitudes_grid", "exterior_magnitude_sum",
                   "quaternionic_fraction", "quaternionic_fraction_grid"),
    "errors": ("SingularSystemError", "UndefinedFractionError"),
    "matcher": ("solve_spec",),
    "model": ("Amplitudes", "BarrierSpec"),
    "multilayer": ("LayerStack", "OrderingReport", "Segment", "free_gap", "ordering_report",
                   "stack_scatter"),
    "quaternion": ("SymplecticPair", "magnitude"),
    "wavefield": ("REGIONS", "FieldSamples", "sample_field"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not bound here, so qkg.X is always the defining module's X
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
