import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blflow import (BellmanSpec, Exponents, VectorSystem, check_kn_structure,
                    check_L3, check_L5, check_pde_identity, check_rank_bound,
                    enumerate_bases, hadamard_form, make_cert, solve_certificate,
                    verifier, verify)
from blflow.verifier import RANK_TOL, pde_defect, sample_interior


def solved_datum(rng, k, n):
    """Random unit columns, interior exponents, their certificate solve and Young B."""
    A = rng.normal(size=(k, n))
    sysm = VectorSystem(A / np.linalg.norm(A, axis=0))
    V = enumerate_bases(sysm).vectors
    e = Exponents(rng.dirichlet(np.ones(len(V))) @ V)
    cert, result = solve_certificate(sysm, e)
    return sysm, e, cert, BellmanSpec.young(e.inv_p), result.converged


def interior_datum(rng, k, n):
    *datum, converged = solved_datum(rng, k, n)
    assert converged
    return datum


def l5_closed_form(sysm, B):
    """coeff * pi^{k/2} det(A diag(w) A^T)^{-1/2}."""
    F = (sysm.A * B.weights) @ sysm.A.T
    return B.coeff * math.pi ** (sysm.k / 2) / math.sqrt(np.linalg.det(F))


class TestHadamardForm:
    def test_section_triple_gram_and_form(self, section_triple):
        sysm, B, cert = section_triple
        G = sysm.A.T @ cert.C @ sysm.A
        assert np.allclose(G, [[1, 1, 0], [1, 1, 0], [0, 0, 1]], atol=1e-12)
        y = np.array([1.0, 1.0, 1.0])
        # Hess of sqrt(y1 y2) y3 at ones: section block [[-1/4, 1/4], ...],
        # mixed entries 1/2, zero (3,3) entry
        H = hadamard_form(sysm, cert, B, y)
        expected = np.array([[-0.25, 0.25, 0.0],
                             [0.25, -0.25, 0.0],
                             [0.0, 0.0, 0.0]])
        assert np.allclose(H, expected, atol=1e-12)

    def test_young_diagonal_scaling(self, young3, young3_cert):
        sysm, _, B = young3
        y = np.array([2.0, 1.0, 3.0])
        H = hadamard_form(sysm, young3_cert, B, y)
        G = sysm.A.T @ young3_cert.C @ sysm.A
        assert np.allclose(H, G * B.hessian(y), atol=1e-14)


class TestL3:
    def test_young_passes(self, young3, young3_cert):
        sysm, _, B = young3
        rep = check_L3(sysm, young3_cert, B)
        assert rep.ok
        assert rep.worst_eig <= 1e-9
        assert rep.samples == 1000

    def test_section_triple_passes(self, section_triple):
        sysm, B, cert = section_triple
        rep = check_L3(sysm, cert, B)
        assert rep.ok and rep.worst_eig <= 1e-9

    def test_product_negative_control(self, product2):
        # off-diagonal Gram entries make the product Hessian form indefinite
        sysm, B, _ = product2
        bad = make_cert(sysm, np.array([[1.0, 1.0], [1.0, 1.0]]) + 1e-9 * np.eye(2))
        rep = check_L3(sysm, bad, B)
        assert not rep.ok
        assert rep.worst_eig > 1e-3

    def test_product_identity_passes(self, product2):
        sysm, B, cert = product2
        rep = check_L3(sysm, cert, B)
        assert rep.ok
        # the Hadamard form vanishes identically for diagonal Gram + product B
        assert abs(rep.worst_eig) <= 1e-12


class TestPDE:
    def test_young_identity(self, young3, young3_cert):
        sysm, _, B = young3
        ok, worst = check_pde_identity(sysm, young3_cert, B)
        assert ok and worst <= 1e-10

    def test_section_triple_identity(self, section_triple):
        sysm, B, cert = section_triple
        ok, worst = check_pde_identity(sysm, cert, B)
        assert ok and worst <= 1e-10

    def test_defect_is_scaling_invariant(self, young3, young3_cert):
        sysm, _, B = young3
        rng = np.random.default_rng(43)
        for _ in range(10):
            y = np.exp(rng.uniform(-1, 1, size=3))
            d1 = pde_defect(sysm, young3_cert, B, y)
            d2 = pde_defect(sysm, young3_cert, B, 3.0 * y)
            assert d2 == pytest.approx(d1, abs=1e-12)

    def test_broken_certificate_fails(self, young3):
        sysm, e, B = young3
        bad = make_cert(sysm, np.array([[2.0, 0.0], [0.0, 2.0]]), e=e)
        ok, worst = check_pde_identity(sysm, bad, B)
        assert not ok and worst > 1e-3


class TestRank:
    def test_young_rank_bound(self, young3, young3_cert):
        sysm, _, B = young3
        ok, worst, ranks = check_rank_bound(sysm, young3_cert, B)
        assert ok and worst == 1
        assert np.all(ranks <= 1)

    def test_section_triple_rank(self, section_triple):
        sysm, B, cert = section_triple
        ok, worst, ranks = check_rank_bound(sysm, cert, B)
        assert ok and worst == 1
        assert np.mean(ranks == 1) >= 0.95

    def test_full_rank_violation(self, young3):
        sysm, e, B = young3
        bad = make_cert(sysm, np.array([[2.0, 0.0], [0.0, 2.0]]), e=e)
        ok, worst, _ = check_rank_bound(sysm, bad, B)
        assert not ok and worst > 1


class TestKNStructure:
    def test_product_has_zero_diagonal(self):
        B = BellmanSpec.product(2.5, 3)
        ok, worst = check_kn_structure(B)
        assert ok and worst <= 1e-12

    def test_young_fails(self):
        B = BellmanSpec.young([0.5, 0.5])
        ok, worst = check_kn_structure(B)
        assert not ok and worst > 1e-3


class TestL5:
    def test_holder_integral_is_sqrt_pi(self, holder):
        # B(exp(-x^2), exp(-x^2)) = exp(-x^2); integral sqrt(pi)
        sysm, _, B, _ = holder
        rep = check_L5(sysm, B)
        assert rep.converged
        assert rep.value == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_product_integral_is_pi(self, product2):
        # exp(-x1^2) * exp(-x2^2) over the plane
        sysm, B, _ = product2
        rep = check_L5(sysm, B)
        assert rep.converged
        assert rep.value == pytest.approx(math.pi, rel=1e-8)

    def test_young_converges(self, young3):
        sysm, _, B = young3
        rep = check_L5(sysm, B)
        assert rep.converged
        assert rep.value == pytest.approx(2.72069904637063, rel=1e-6)
        assert rep.value == pytest.approx(l5_closed_form(sysm, B), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_closed_form(self, k):
        rng = np.random.default_rng(50 + k)
        sysm, _, _, B = interior_datum(rng, k, k + 2)
        rep = check_L5(sysm, B)
        assert rep.converged
        assert rep.value == pytest.approx(l5_closed_form(sysm, B), rel=1e-9)

    def test_closed_form_with_prefactor(self):
        rng = np.random.default_rng(54)
        sysm = VectorSystem(rng.normal(size=(3, 3)))
        B = BellmanSpec.product(2.5, 3)
        assert check_L5(sysm, B).value == pytest.approx(l5_closed_form(sysm, B), rel=1e-9)


class TestAggregate:
    def test_young_full_report(self, young3, young3_cert):
        sysm, _, B = young3
        rep = verify(sysm, young3_cert, B)
        assert rep.ok
        assert rep.l3_ok and rep.pde_ok and rep.rank_ok and rep.l5.converged
        assert rep.euler_defect <= 1e-10
        assert rep.seed == 0 and rep.samples == 1000

    def test_section_triple_full_report(self, section_triple):
        sysm, B, cert = section_triple
        rep = verify(sysm, cert, B)
        assert rep.ok
        assert rep.pde_defect <= 1e-10

    def test_report_is_deterministic(self, young3, young3_cert):
        sysm, _, B = young3
        r1 = verify(sysm, young3_cert, B, count=100, seed=5)
        r2 = verify(sysm, young3_cert, B, count=100, seed=5)
        assert r1.l3_max_eig == r2.l3_max_eig
        assert r1.pde_defect == r2.pde_defect


class TestConcavityDiagBoundLink:
    def test_l3_iff_diag_bound_on_perturbations(self, young3, young3_cert):
        """For Young B, negativity of the Hadamard form is equivalent to the
        scaled Gram bound A^T C A <= diag(1/s_j^2) with s_j^2 = 1/(p_j sigma_j):
        the two sides are congruent via diag(alpha_j / y_j).  Verdicts must
        agree on randomly perturbed C outside a small indeterminate margin."""
        sysm, e, B = young3
        rng = np.random.default_rng(47)
        samples = sample_interior(3, count=50, seed=1)
        agree = 0
        total = 0
        for _ in range(100):
            D = rng.normal(scale=0.05, size=(2, 2))
            C = young3_cert.C + 0.5 * (D + D.T)
            try:
                cert = make_cert(sysm, C, e=e)
            except Exception:
                continue
            l3 = check_L3(sysm, cert, B, samples, tol=1e-9)
            gram = sysm.A.T @ cert.C @ sysm.A - np.diag(1.0 / cert.s_sq)
            margin = float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1])
            if abs(margin) < 1e-6:
                continue  # indeterminate band around the boundary
            total += 1
            if l3.ok == (margin <= 0.0):
                agree += 1
        assert total >= 50
        assert agree == total


def dense_reference(sysm, cert, B, samples):
    """Per-sample top eigenvalue, PDE defect, rank and Euler defect, one sample
    at a time, with the relative scales written out."""
    G = sysm.A.T @ cert.C @ sysm.A
    eig, pde, ranks, euler = [], [], [], []
    for y in samples:
        b = B.coeff * np.prod(y**B.weights)
        r = B.weights / y
        K = b * np.outer(r, r)
        np.fill_diagonal(K, b * B.weights * (B.weights - 1.0) / y**2)
        H = G * K
        scale = np.linalg.norm(G, 2) * np.linalg.norm(K)
        eig.append(np.linalg.eigvalsh(H)[-1] / scale)
        D = y / cert.sigma
        R = sysm.A @ np.diag(D) @ H
        pde.append(np.linalg.norm(R) / (np.linalg.norm(sysm.A, 2) * np.max(D) * scale))
        s = np.linalg.svd(H, compute_uv=False)
        ranks.append(int(np.sum(s > RANK_TOL * s[0])))
        euler.append(abs(b * B.weights / y @ y - B.degree * b) / (1.0 + b))
    return np.array(eig), np.array(pde), np.array(ranks), np.array(euler)


class TestBatchedAgainstPerSample:
    """The batched checks and verify against a dense per-sample reference.

    Every compared value is already divided by its sample's scale, so the
    1e-12 relative tolerance has a floor of 1e-15 in those units."""

    @staticmethod
    def agrees(sysm, cert, B):
        samples = sample_interior(B.n, count=300, seed=3)
        eig, pde, ranks, euler = dense_reference(sysm, cert, B, samples)
        close = dict(rel=1e-12, abs=1e-15)
        assert check_L3(sysm, cert, B, samples).worst_eig == pytest.approx(eig.max(), **close)
        assert check_pde_identity(sysm, cert, B, samples)[1] == pytest.approx(pde.max(), **close)
        assert np.array_equal(check_rank_bound(sysm, cert, B, samples)[2], ranks)
        rep = verify(sysm, cert, B, count=300, seed=3)
        assert rep.l3_max_eig == pytest.approx(eig.max(), **close)
        assert rep.pde_defect == pytest.approx(pde.max(), **close)
        assert rep.rank_worst == ranks.max()
        assert rep.euler_defect == pytest.approx(euler[:100].max(), **close)
        assert rep.ok

    @pytest.mark.parametrize("name", ["young3", "section_triple", "product2"])
    def test_named(self, name, request):
        if name == "young3":
            sysm, _, B = request.getfixturevalue("young3")
            cert = request.getfixturevalue("young3_cert")
        else:
            sysm, B, cert = request.getfixturevalue(name)
        self.agrees(sysm, cert, B)

    @pytest.mark.parametrize("i", range(20))
    def test_random(self, i):
        rng = np.random.default_rng([61, i])
        k = int(rng.integers(1, 4))
        sysm, _, cert, B = interior_datum(rng, k, int(rng.integers(k + 1, 9)))
        self.agrees(sysm, cert, B)


class TestLargeGrid:
    def test_memory_is_bounded_and_slabs_change_nothing(self, monkeypatch):
        sysm, _, cert, B = interior_datum(np.random.default_rng(70), 2, 8)
        tracemalloc.start()
        try:
            slabbed = verify(sysm, cert, B, count=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        monkeypatch.setattr(verifier, "_SLAB", 1 << 40)
        assert verify(sysm, cert, B, count=20_000) == slabbed


def scaled_cert(sysm, e, C):
    return make_cert(sysm, 0.5 * (C + C.T), e=e)


@st.composite
def verify_data(draw):
    """A random interior datum with its solved certificate, or (k = 2) that
    certificate with one eigenvalue doubled, which no longer certifies."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([1, 2]))
    sysm, e, cert, B, converged = solved_datum(rng, k, k + int(rng.integers(1, 4)))
    assume(converged)
    C = cert.C
    broken = k == 2 and draw(st.booleans())
    if broken:
        w, U = np.linalg.eigh(C)
        i = int(rng.integers(k))
        C = C + w[i] * np.outer(U[:, i], U[:, i])
    return sysm, e, C, B, not broken, rng


def verdict(sysm, e, C, B):
    return verify(sysm, scaled_cert(sysm, e, C), B, count=200).ok


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
FACTOR = st.floats(-8.0, 8.0).map(lambda d: 10.0**d)


class TestVerdictInvariance:
    @PROPERTY
    @given(verify_data(), FACTOR)
    def test_scaling_C(self, datum, lam):
        sysm, e, C, B, good, _ = datum
        assert verdict(sysm, e, C, B) == verdict(sysm, e, lam * C, B) == good

    @PROPERTY
    @given(verify_data(), FACTOR)
    def test_scaling_B(self, datum, mu):
        sysm, e, C, B, good, _ = datum
        scaled = BellmanSpec(B.variant, mu * B.coeff, B.weights)
        assert verdict(sysm, e, C, B) == verdict(sysm, e, C, scaled) == good

    @PROPERTY
    @given(verify_data())
    def test_column_permutation(self, datum):
        sysm, e, C, B, good, rng = datum
        perm = rng.permutation(sysm.n)
        moved = (VectorSystem(sysm.A[:, perm]), Exponents(e.inv_p[perm]), C,
                 BellmanSpec.young(B.weights[perm]))
        assert verdict(sysm, e, C, B) == verdict(*moved) == good

    @PROPERTY
    @given(verify_data())
    def test_rotation(self, datum):
        sysm, e, C, B, good, rng = datum
        U, _ = np.linalg.qr(rng.normal(size=(sysm.k, sysm.k)))
        rotated = VectorSystem(U @ sysm.A)
        assert verdict(sysm, e, C, B) == verdict(rotated, e, U @ C @ U.T, B) == good


class TestScaledCertificates:
    def test_young_scaled_up_passes_L3(self, young3, young3_cert):
        sysm, e, B = young3
        assert check_L3(sysm, scaled_cert(sysm, e, 1e4 * young3_cert.C), B).ok

    def test_young_scaled_up_passes_PDE(self, young3, young3_cert):
        sysm, e, B = young3
        ok, worst = check_pde_identity(sysm, scaled_cert(sysm, e, 1e8 * young3_cert.C), B)
        assert ok and worst <= 1e-12

    def test_wrong_certificate_scaled_down_fails_PDE(self, young3):
        sysm, e, B = young3
        ok, worst = check_pde_identity(sysm, scaled_cert(sysm, e, 1e-9 * np.diag([1.0, 3.0])), B)
        assert not ok and worst > 1e-3
