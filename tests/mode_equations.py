"""Plane-wave mode equations of the barrier and of free space, as checks.

The solvers never form these 2x2 matrices: they work with the closed-form
wavenumbers and mode ratios of qkg.model.  The tests use them to confirm
that those wavenumbers and ratios, and the interior amplitudes the matcher
returns, solve the equation of motion.
"""

import numpy as np

from qkg.model import BarrierSpec, direction_coupling
from qkg.quaternion import SymplecticPair, UnitImaginaryDirection


def interior_matrix(k: float, spec: BarrierSpec) -> np.ndarray:
    """2x2 mode matrix of the interior equation at wavenumber k.

    (omega0^2 + V0^2 - k^2) I - 2 omega0 V0 N; singular exactly at k_plus
    and k_minus.
    """
    w0, v0 = spec.omega0, spec.v0
    base = w0 * w0 + v0 * v0 - k * k
    n = UnitImaginaryDirection.from_angles(spec.theta, spec.phi)
    return base * np.eye(2, dtype=complex) - (2.0 * w0 * v0) * direction_coupling(n)


def free_matrix(k: float, spec: BarrierSpec) -> np.ndarray:
    """2x2 mode matrix outside the barrier: (omega0^2 - k^2) I."""
    return (spec.omega0 ** 2 - k * k) * np.eye(2, dtype=complex)


def dispersion_residual(k: float, spec: BarrierSpec, c: SymplecticPair,
                        inside: bool = True) -> float:
    """Euclidean norm of the mode-equation residual for amplitude pair c.

    Zero exactly when (k, c) is a valid plane-wave mode of the region.
    """
    m = interior_matrix(k, spec) if inside else free_matrix(k, spec)
    vec = np.array([c.alpha, c.beta], dtype=complex)
    return float(np.linalg.norm(m @ vec))
