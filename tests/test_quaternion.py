"""Symplectic pairs, unit directions, and the Hamilton algebra as an oracle.

qkg works only on (alpha, beta) pairs and never multiplies quaternions.  The
Hamilton product, the split q = alpha + j beta and its inverse live here, as
the oracle that model.direction_coupling is checked against.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkg.errors import InvalidDirectionError
from qkg.model import direction_coupling
from qkg.quaternion import SymplecticPair, UnitImaginaryDirection, magnitude


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion w + x i + y j + z k."""

    w: float
    x: float
    y: float
    z: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product (non-commutative), with i j = k, j k = i, k i = j."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def scaled(self, s: float) -> "Quaternion":
        return Quaternion(s * self.w, s * self.x, s * self.y, s * self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2

    def norm(self) -> float:
        return math.sqrt(self.norm2())


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def split(q: Quaternion) -> SymplecticPair:
    """Symplectic components of q: alpha = w + x i, beta = y - z i."""
    return SymplecticPair(complex(q.w, q.x), complex(q.y, -q.z))


def join(pair: SymplecticPair) -> Quaternion:
    """Inverse of split: rebuild the quaternion alpha + j beta."""
    return Quaternion(pair.alpha.real, pair.alpha.imag,
                      pair.beta.real, -pair.beta.imag)


def as_quaternion(n: UnitImaginaryDirection) -> Quaternion:
    return Quaternion(0.0, n.n1, n.n2, n.n3)


finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def close(p: Quaternion, q: Quaternion, tol: float = 1e-12) -> bool:
    return (p - q).norm() <= tol


class TestHamiltonProduct:
    def test_basis_table(self):
        # i j = k and cyclic, with anticommutation
        assert I * J == K
        assert J * K == I
        assert K * I == J
        assert J * I == -K
        assert K * J == -I
        assert I * K == -J
        for unit in (I, J, K):
            assert unit * unit == -ONE
            assert ONE * unit == unit
            assert unit * ONE == unit

    @given(quaternions, quaternions)
    def test_norm_is_multiplicative(self, p, q):
        assert math.isclose((p * q).norm(), p.norm() * q.norm(),
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(quaternions, quaternions, quaternions)
    def test_associative(self, p, q, r):
        scale = max(1.0, p.norm() * q.norm() * r.norm())
        assert close((p * q) * r, p * (q * r), 1e-9 * scale)

    @given(quaternions, quaternions, quaternions)
    def test_left_distributive(self, p, q, r):
        scale = max(1.0, p.norm() * (q.norm() + r.norm()))
        assert close(p * (q + r), p * q + p * r, 1e-9 * scale)

    @given(quaternions, quaternions)
    def test_conjugate_reverses_order(self, p, q):
        scale = max(1.0, p.norm() * q.norm())
        assert close((p * q).conjugate(), q.conjugate() * p.conjugate(),
                     1e-9 * scale)

    @given(quaternions)
    def test_conjugate_norm(self, q):
        assert math.isclose((q * q.conjugate()).w, q.norm2(),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert close(q * q.conjugate(), ONE.scaled(q.norm2()),
                     1e-9 * max(1.0, q.norm2()))


class TestSymplecticSplit:
    def test_split_convention(self):
        q = Quaternion(1.0, 2.0, 3.0, 4.0)
        pair = split(q)
        assert pair.alpha == 1.0 + 2.0j
        assert pair.beta == 3.0 - 4.0j

    @given(quaternions)
    def test_join_inverts_split(self, q):
        assert join(split(q)) == q

    @given(quaternions)
    def test_split_is_alpha_plus_j_beta(self, q):
        pair = split(q)
        alpha = Quaternion(pair.alpha.real, pair.alpha.imag, 0.0, 0.0)
        beta = Quaternion(pair.beta.real, pair.beta.imag, 0.0, 0.0)
        assert close(alpha + J * beta, q, 1e-12 * max(1.0, q.norm()))

    @given(finite, finite)
    def test_j_conjugates_complex_factors(self, x, y):
        # j c = conj(c) j for complex c = x + i y
        c = Quaternion(x, y, 0.0, 0.0)
        assert close(J * c, c.conjugate() * J, 1e-12 * max(1.0, c.norm()))

    def test_norm2_sums_the_squared_magnitudes(self):
        p = SymplecticPair(1 + 2j, 3 - 1j)
        assert p.norm2() == pytest.approx(abs(1 + 2j) ** 2 + abs(3 - 1j) ** 2)
        assert p.norm2() == pytest.approx(join(p).norm2())

    def test_norm_of_underflowing_squares(self):
        # both squares underflow to 0; magnitude rescales by the larger one
        assert magnitude(3e-300, 4e-300) == pytest.approx(5e-300, rel=1e-15)
        assert magnitude(0.0, 0.0) == 0.0
        assert magnitude(3.0, 4.0) == 5.0

    def test_norm_of_overflowing_squares(self):
        # the squares overflow to inf; magnitude rescales by the larger one
        assert magnitude(1e200, 1e200) == 1.4142135623730951e200
        assert magnitude(1e200, 0.0) == 1e200
        assert magnitude(3e200, 4e200) == pytest.approx(5e200, rel=1e-15)
        assert magnitude(math.inf, 1.0) == magnitude(1e300, math.inf) == math.inf
        # a magnitude beyond the float range still overflows, with its warning
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert magnitude(1.7e308, 1.7e308) == math.inf

    def test_magnitude_is_an_array_kernel(self):
        # normal, underflowing, overflowing, zero and one-sided pairs mixed in
        # one call give the scalar call's bits, which follow the rescale rule
        def rule(u, v):
            total, scale = u * u + v * v, max(u, v)
            if ((total < sys.float_info.min and scale > 0.0)
                    or (total == math.inf and scale < math.inf)):
                u, v = u / scale, v / scale
                return scale * math.sqrt(u * u + v * v)
            return math.sqrt(total)

        values = [0.0, 3e-300, 4e-300, 5e-324, 1e-160, 2.2e-154, 0.6, 0.8, 1.0, 1.7e153,
                  1e155, 1e200, 1e308, math.inf]
        us, vs = np.array(values)[:, None], np.array(values)[None, :]
        got = magnitude(us, vs)
        assert got.shape == (len(values), len(values))
        for i, u in enumerate(values):
            for j, v in enumerate(values):
                assert got[i, j] == magnitude(u, v) == rule(u, v), (u, v)
        assert got[1, 2] == pytest.approx(5e-300, rel=1e-15)
        assert got[0, 0] == 0.0 and got[0, 1] == 3e-300 and got[3, 0] == 5e-324


class TestUnitImaginaryDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(InvalidDirectionError):
            UnitImaginaryDirection(1.0, 1.0, 0.0)
        with pytest.raises(InvalidDirectionError):
            UnitImaginaryDirection(0.0, 0.0, 0.0)

    @given(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    def test_from_angles_is_unit(self, theta, phi):
        n = UnitImaginaryDirection.from_angles(theta, phi)
        assert math.isclose(n.n1 ** 2 + n.n2 ** 2 + n.n3 ** 2, 1.0,
                            abs_tol=1e-12)

    def test_poles(self):
        north = UnitImaginaryDirection.from_angles(0.0, 0.3)
        assert (north.n1, north.n2, north.n3) == (1.0, 0.0, 0.0)


def left_n_right_i(n: UnitImaginaryDirection, c: SymplecticPair) -> SymplecticPair:
    """Symplectic components of n * (alpha + j beta) * i.

    Expanding with j c = conj(c) j gives

        alpha' = -n1 alpha + (n3 - i n2) beta
        beta'  = (n3 + i n2) alpha + n1 beta

    The +n1 beta sign is fixed by the Hamilton product (check i j i = j); the
    brute-force product route is the oracle for this function.  As a 2x2
    matrix on (alpha, beta) this is -sz N sz, with sz = diag(1, -1) and N
    the coupling matrix model.direction_coupling(n) that the solvers use.
    """
    a, b = c.alpha, c.beta
    off = complex(n.n3, -n.n2)
    return SymplecticPair(-n.n1 * a + off * b,
                          off.conjugate() * a + n.n1 * b)


def brute_left_n_right_i(n: UnitImaginaryDirection, c: SymplecticPair) -> SymplecticPair:
    """Oracle: carry out n * (alpha + j beta) * i with the full product."""
    q = join(c)
    return split(as_quaternion(n) * q * I)


class TestLeftNRightI:
    def test_sign_fixing_case(self):
        # i * j * i = j, so the beta component keeps its sign
        n = UnitImaginaryDirection(1.0, 0.0, 0.0)
        out = left_n_right_i(n, SymplecticPair(0.0, 1.0))
        assert out.alpha == 0.0
        assert out.beta == 1.0

    def test_alpha_sector_at_pole(self):
        # i * 1 * i = -1
        n = UnitImaginaryDirection(1.0, 0.0, 0.0)
        out = left_n_right_i(n, SymplecticPair(1.0, 0.0))
        assert out.alpha == -1.0
        assert out.beta == 0.0

    def test_matches_product_oracle_bulk(self, rng):
        for _ in range(10_000):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            n = UnitImaginaryDirection.from_angles(theta, phi)
            c = SymplecticPair(complex(rng.normal(), rng.normal()),
                               complex(rng.normal(), rng.normal()))
            got = left_n_right_i(n, c)
            want = brute_left_n_right_i(n, c)
            assert close(join(got), join(want), 1e-13 * max(1.0, join(c).norm()))

    @settings(max_examples=200)
    @given(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True),
           finite, finite, finite, finite)
    def test_matches_product_oracle_property(self, theta, phi, ar, ai, br, bi):
        n = UnitImaginaryDirection.from_angles(theta, phi)
        c = SymplecticPair(complex(ar, ai), complex(br, bi))
        got = left_n_right_i(n, c)
        want = brute_left_n_right_i(n, c)
        assert close(join(got), join(want), 1e-12 * max(1.0, join(c).norm()))

    def test_matrix_is_sign_conjugated_coupling(self, rng):
        # the oracle's convention differs from the solvers' coupling N by
        # conjugation with sz = diag(1, -1) and an overall sign
        sz = np.diag([1.0, -1.0])
        for _ in range(200):
            n = UnitImaginaryDirection.from_angles(rng.uniform(0.0, math.pi),
                                                   rng.uniform(0.0, 2.0 * math.pi))
            cols = [left_n_right_i(n, SymplecticPair(1.0, 0.0)),
                    left_n_right_i(n, SymplecticPair(0.0, 1.0))]
            m = np.array([[c.alpha for c in cols], [c.beta for c in cols]])
            coupling = direction_coupling(n)
            assert np.abs(m + sz @ coupling @ sz).max() <= 1e-15
            assert np.abs(m - coupling).max() == pytest.approx(2.0 * abs(n.n1))
