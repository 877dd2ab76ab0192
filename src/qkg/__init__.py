"""Scattering of massless waves off rectangular quaternionic potentials.

The package solves the one-dimensional matching problem for a step
potential whose imaginary part points along an arbitrary unit direction,
provides the equivalent closed-form amplitudes, samples the wavefunction,
and scatters stacked barriers through 4x4 S-matrices composed by star
products, with 4x4 transfer matrices (plain complex ndarrays) as the
fallback for stacks whose star products miss the flux gate and as the
check.
"""

import logging

from .closedform import (
    COMPLEX_LIMIT,
    EXACT,
    TAYLOR,
    amplitudes_closed,
    amplitudes_taylor,
    exterior_amplitudes_grid,
    exterior_magnitude_sum,
    quaternionic_fraction,
    quaternionic_fraction_grid,
)
from .errors import (
    InvalidDirectionError,
    SingularSystemError,
    UndefinedFractionError,
)
from .matcher import (
    REGULARIZED,
    MatchingSystem,
    build_system,
    solve,
    solve_spec,
)
from .model import (
    Amplitudes,
    BarrierSpec,
    DispersionData,
    ModeRatios,
    direction_coupling,
    mode_ratios,
    wavenumbers,
)
from .multilayer import (
    LayerStack,
    OrderingReport,
    Segment,
    compose,
    free_gap,
    ordering_report,
    segment_transfer,
    stack_scatter,
    stack_smatrix,
    stack_transfer,
    transfer_smatrix,
)
from .quaternion import SymplecticPair, UnitImaginaryDirection, magnitude
from .wavefield import (
    BARRIER,
    LEFT,
    REGIONS,
    RIGHT,
    FieldSample,
    FieldSamples,
    continuity_residuals,
    sample_field,
)

# The library logs warnings only; an application decides where they go.
logging.getLogger("qkg").addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "Amplitudes",
    "BARRIER",
    "BarrierSpec",
    "COMPLEX_LIMIT",
    "DispersionData",
    "EXACT",
    "FieldSample",
    "FieldSamples",
    "InvalidDirectionError",
    "LayerStack",
    "LEFT",
    "MatchingSystem",
    "ModeRatios",
    "OrderingReport",
    "REGIONS",
    "REGULARIZED",
    "RIGHT",
    "Segment",
    "SingularSystemError",
    "SymplecticPair",
    "TAYLOR",
    "UndefinedFractionError",
    "UnitImaginaryDirection",
    "amplitudes_closed",
    "amplitudes_taylor",
    "build_system",
    "compose",
    "continuity_residuals",
    "direction_coupling",
    "exterior_amplitudes_grid",
    "exterior_magnitude_sum",
    "free_gap",
    "magnitude",
    "mode_ratios",
    "ordering_report",
    "quaternionic_fraction",
    "quaternionic_fraction_grid",
    "sample_field",
    "segment_transfer",
    "solve",
    "solve_spec",
    "stack_scatter",
    "stack_smatrix",
    "stack_transfer",
    "transfer_smatrix",
    "wavenumbers",
]
