"""Scattering of massless waves off rectangular quaternionic potentials.

The package solves the one-dimensional matching problem for a step
potential whose imaginary part points along an arbitrary unit direction,
provides the equivalent closed-form amplitudes, samples the wavefunction,
and composes stacked barriers through 4x4 transfer matrices.
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
)
from .errors import (
    ComplexLimitDegeneracyError,
    DegenerateWavenumberError,
    InvalidDirectionError,
    SingularSystemError,
    UndefinedFractionError,
)
from .matcher import (
    RAW,
    REGULARIZED,
    MatchingSystem,
    build_system,
    reflection,
    solve,
    solve_spec,
    transmission,
)
from .model import (
    Amplitudes,
    BarrierSpec,
    DispersionData,
    ModeRatios,
    check_nondegenerate,
    direction_coupling,
    dispersion_residual,
    free_matrix,
    interior_matrix,
    mode_ratios,
    wavenumbers,
)
from .multilayer import (
    LayerStack,
    OrderingReport,
    Segment,
    TransferMatrix4,
    compose,
    free_gap,
    ordering_report,
    segment_transfer,
    stack_scatter,
    stack_transfer,
)
from .quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    SymplecticPair,
    UnitImaginaryDirection,
    join,
    left_n_right_i,
    split,
)
from .verify import CheckResult, run_all
from .wavefield import (
    BARRIER,
    LEFT,
    RIGHT,
    FieldSample,
    continuity_residuals,
    dpsi,
    psi,
    region_of,
    sample_field,
)

# The library logs warnings only; an application decides where they go.
logging.getLogger("qkg").addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "Amplitudes",
    "BARRIER",
    "BarrierSpec",
    "CheckResult",
    "COMPLEX_LIMIT",
    "ComplexLimitDegeneracyError",
    "DegenerateWavenumberError",
    "DispersionData",
    "EXACT",
    "FieldSample",
    "I",
    "InvalidDirectionError",
    "J",
    "K",
    "LayerStack",
    "LEFT",
    "MatchingSystem",
    "ModeRatios",
    "ONE",
    "OrderingReport",
    "Quaternion",
    "RAW",
    "REGULARIZED",
    "RIGHT",
    "Segment",
    "SingularSystemError",
    "SymplecticPair",
    "TAYLOR",
    "TransferMatrix4",
    "UndefinedFractionError",
    "UnitImaginaryDirection",
    "amplitudes_closed",
    "amplitudes_taylor",
    "build_system",
    "check_nondegenerate",
    "compose",
    "continuity_residuals",
    "direction_coupling",
    "dispersion_residual",
    "dpsi",
    "exterior_amplitudes_grid",
    "exterior_magnitude_sum",
    "free_gap",
    "free_matrix",
    "interior_matrix",
    "join",
    "left_n_right_i",
    "mode_ratios",
    "ordering_report",
    "psi",
    "quaternionic_fraction",
    "reflection",
    "region_of",
    "run_all",
    "sample_field",
    "segment_transfer",
    "solve",
    "solve_spec",
    "split",
    "stack_scatter",
    "stack_transfer",
    "transmission",
    "wavenumbers",
]
