import math

import numpy as np
import pytest

from qkg.model import BarrierSpec
from qkg.verify import random_specs


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def spec_factory(rng):
    """Random specs from the same distribution the verification suite uses."""
    def make(theta_min=0.0, theta_max=math.pi):
        omega0 = rng.uniform(0.5, 2.0)
        return BarrierSpec(
            a=20.0 * (1.0 - rng.random()),
            v0=0.9 * omega0 * (1.0 - rng.random()),
            omega0=omega0,
            theta=rng.uniform(theta_min, theta_max),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        )
    return make


@pytest.fixture
def spec_point():
    """The worked single-barrier example used throughout the tests."""
    return BarrierSpec(a=1.0, v0=0.3, omega0=1.0, theta=math.pi / 2, phi=0.0)


@pytest.fixture(scope="session")
def bit_identity_specs():
    """500 specs of the verification distribution, then the edges: both poles,
    V0 = 0, a = 0, the omega0 = 1e8 scale, V0 = omega0 and, deep in the Klein
    zone, V0 = 1.25e9 omega0."""
    base = dict(a=1.7, v0=0.5, omega0=1.0, phi=0.9)
    return [*random_specs(np.random.default_rng(2024), 500),
            BarrierSpec(theta=0.0, **base),
            BarrierSpec(theta=math.pi, **base),
            BarrierSpec(a=2.0, v0=0.0, omega0=1.0, theta=1.1, phi=0.4),
            BarrierSpec(a=0.0, v0=0.7, omega0=1.0, theta=1.0, phi=2.0),
            BarrierSpec(a=1e-8, v0=0.5e8, omega0=1e8, theta=1.0, phi=0.3),
            BarrierSpec(a=1.3, v0=0.8, omega0=0.8, theta=1.0, phi=0.3),
            BarrierSpec(a=1.3, v0=1e9, omega0=0.8, theta=2.0, phi=0.3)]
