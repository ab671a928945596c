import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blflow import BellmanSpec, Exponents, VectorSystem, numerical_rank
from blflow.errors import CertificateRejection, DomainError, StructuralError
from blflow.model import GaussCert
from blflow.verifier import euler_defect_at


def central_grad(B, y, h=1e-5):
    y = np.asarray(y, dtype=float)
    g = np.zeros_like(y)
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = h
        g[j] = (B.evaluate(y + e) - B.evaluate(y - e)) / (2 * h)
    return g


def central_hess(B, y, h=1e-5):
    y = np.asarray(y, dtype=float)
    H = np.zeros((y.size, y.size))
    for j in range(y.size):
        e = np.zeros_like(y)
        e[j] = h
        H[:, j] = (B.gradient(y + e) - B.gradient(y - e)) / (2 * h)
    return H


SPECS = [
    BellmanSpec.young([0.5, 0.5]),
    BellmanSpec.young([2 / 3, 2 / 3, 2 / 3]),
    BellmanSpec.product(3.0, 3),
    BellmanSpec.lifted("sqrt_uv"),
    BellmanSpec.lifted("sqrt_uv", alpha=[0.5]),
    BellmanSpec.lifted("geomean", alpha=[1 / 3, 1 / 3, 1 / 3], theta=0.25),
    BellmanSpec.lifted("sqrt_uv", alpha=[1.0], section_vars=(0, 1)),
]


class TestEuler:
    def test_young_symmetric_point(self):
        B = BellmanSpec.young([0.5, 0.5])
        ok, defect = euler_defect_at(B, [1.0, 1.0])
        assert ok and defect == 0.0

    def test_product_rule(self):
        B = BellmanSpec.product(1.0, 2)
        # <grad, y> = 3*2 + 2*3 = 12 = 2 * B(2,3)
        assert B.gradient([2.0, 3.0]) @ np.array([2.0, 3.0]) == pytest.approx(12.0)
        ok, defect = euler_defect_at(B, [2.0, 3.0])
        assert ok and defect <= 1e-12

    def test_lifted_section(self):
        B = BellmanSpec.lifted("sqrt_uv", alpha=[0.5])
        ok, defect = euler_defect_at(B, [4.0, 1.0, 1.0])
        assert ok and defect <= 1e-12
        assert B.degree == pytest.approx(1.5)

    def test_domain_error(self):
        B = BellmanSpec.young([0.5, 0.5])
        with pytest.raises(DomainError):
            euler_defect_at(B, [1.0, 0.0])

    @pytest.mark.parametrize("B", SPECS, ids=lambda b: f"{b.variant}-{b.n}")
    def test_random_interior_points(self, B):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = np.exp(rng.uniform(-2, 2, size=B.n))
            ok, defect = euler_defect_at(B, y)
            assert ok
            assert defect <= 1e-8  # relative to 1 + |B(y)|


class TestOracleConsistency:
    @pytest.mark.parametrize("B", SPECS, ids=lambda b: f"{b.variant}-{b.n}")
    def test_gradient_matches_finite_differences(self, B):
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = rng.uniform(0.5, 2.0, size=B.n)
            g = B.gradient(y)
            fd = central_grad(B, y)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("B", SPECS, ids=lambda b: f"{b.variant}-{b.n}")
    def test_hessian_matches_finite_differences(self, B):
        rng = np.random.default_rng(13)
        for _ in range(10):
            y = rng.uniform(0.5, 2.0, size=B.n)
            H = B.hessian(y)
            assert np.max(np.abs(H - H.T)) <= 1e-10
            assert np.allclose(H, central_hess(B, y), rtol=1e-6, atol=1e-8)

    def test_young_hessian_closed_form(self):
        # Hess B = B * {1/(p_i p_j y_i y_j)} - B * {delta_ij / (p_j y_j^2)}
        alpha = np.array([2 / 3, 2 / 3, 2 / 3])
        B = BellmanSpec.young(alpha)
        rng = np.random.default_rng(17)
        for _ in range(20):
            y = rng.uniform(0.5, 2.0, size=3)
            b = B.evaluate(y)
            expected = b * (np.outer(alpha / y, alpha / y) - np.diag(alpha / y**2))
            assert np.max(np.abs(B.hessian(y) - expected)) <= 1e-10

    def test_hessian_rejects_boundary(self):
        B = BellmanSpec.young([0.5, 0.5])
        with pytest.raises(DomainError):
            B.hessian([1.0, 0.0])


class TestMatrixPredicates:
    def test_numerical_rank(self):
        assert numerical_rank(np.eye(3)) == 3
        v = np.array([1.0, 1.0, 0.0])
        assert numerical_rank(np.outer(v, v)) == 1
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestLiftSection:
    def test_bare_section(self):
        B = BellmanSpec.lifted("sqrt_uv")
        assert B.degree == pytest.approx(1.0)
        assert B.evaluate([4.0, 9.0]) == pytest.approx(6.0)

    def test_prefactor(self):
        B = BellmanSpec.lifted("sqrt_uv", alpha=[0.5])
        # B(y) = y1^{1/2} sqrt(y2 y3)
        assert B.evaluate([4.0, 9.0, 1.0]) == pytest.approx(2.0 * 3.0)
        assert np.allclose(B.gradient([1.0, 1.0, 1.0]), [0.5, 0.5, 0.5])

    def test_five_variables(self):
        B = BellmanSpec.lifted("sqrt_uv", alpha=[1 / 3, 1 / 3, 1 / 3])
        assert B.n == 5
        assert B.degree == pytest.approx(2.0)
        ok, _ = euler_defect_at(B, [1.3, 0.7, 2.0, 0.9, 1.1])
        assert ok

    def test_unknown_section(self):
        with pytest.raises(StructuralError):
            BellmanSpec.lifted("min_uv")


class TestDomainTypes:
    def test_vector_system_invariants(self):
        with pytest.raises(StructuralError):
            VectorSystem(np.array([[1.0, 0.0], [0.0, 0.0]]).T[:, :1] * 0)
        with pytest.raises(StructuralError):
            VectorSystem(np.array([[1.0, 2.0], [0.5, 1.0]]))  # rank 1
        with pytest.raises(StructuralError):
            VectorSystem(np.array([[1.0, 0.0], [1.0, 0.0]]))  # zero column

    @pytest.mark.parametrize("scale", [1e-10, 1e10, 1e100])
    def test_rank_does_not_see_column_scaling(self, scale):
        # rank(A) = k is decided on unit columns, whatever a column's length
        VectorSystem(np.array([[1.0, 0.0, 0.6], [0.0, scale, 0.8]]))
        with pytest.raises(StructuralError):
            VectorSystem(np.array([[1.0, 2.0 * scale], [0.5, scale]]))  # rank 1

    def test_exponents_range(self):
        with pytest.raises(StructuralError):
            Exponents([0.5, 1.5])
        with pytest.raises(StructuralError):
            Exponents([0.5, 0.0])

    def test_cert_rejects_nonpositive_sigma(self):
        # A = I: G = C, whose diagonal sigma = (1, -1)
        with pytest.raises(CertificateRejection):
            GaussCert(C=np.diag([1.0, -1.0]), G=np.diag([1.0, -1.0]))

    def test_cert_rejects_asymmetry(self):
        with pytest.raises(StructuralError):
            GaussCert(C=np.array([[1.0, 1e-6], [0.0, 1.0]]), G=[[1.0]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=6),
       st.integers(0, 2**31 - 1))
def test_young_euler_property(alpha, seed):
    B = BellmanSpec.young(alpha)
    y = np.exp(np.random.default_rng(seed).uniform(-2, 2, size=len(alpha)))
    ok, _ = euler_defect_at(B, y)
    assert ok
