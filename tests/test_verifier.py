import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blflow import (BellmanSpec, Exponents, VectorSystem, check_L3, check_L5,
                    enumerate_bases, make_cert, verify)
from blflow.cli import _bellman_of, _certificate_of
from blflow.errors import CertificateRejection
from blflow.io import parse_problem
from blflow.model import HOMOG_TOL, gram_spectrum
from blflow.quadrature import decay_quad
from blflow.verifier import L3_TOL, PDE_TOL, RANK_TOL
from oracles import (check_kn_structure, cholesky_spectrum, core_form, dense_verdicts,
                     hadamard_form, solve_datum)


def interior_datum(rng, k, n):
    """Random unit columns, interior exponents, their certificate solve and Young B."""
    A = rng.normal(size=(k, n))
    sysm = VectorSystem(A / np.linalg.norm(A, axis=0))
    bases = enumerate_bases(sysm)
    e = Exponents(rng.dirichlet(np.ones(bases.count)) @ bases.vectors)
    result = solve_datum(sysm, e)
    assert result.converged
    return sysm, e, result.factor.cert(), BellmanSpec.young(e.inv_p)


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
        ok, top = check_L3(sysm, young3_cert, B)
        assert ok
        assert top <= 1e-9

    def test_section_triple_passes(self, section_triple):
        sysm, B, cert = section_triple
        ok, top = check_L3(sysm, cert, B)
        assert ok and top <= 1e-9

    def test_product_negative_control(self, product2):
        # off-diagonal Gram entries make the product Hessian form indefinite
        sysm, B, _ = product2
        bad = make_cert(sysm, np.array([[1.0, 1.0], [1.0, 1.0]]) + 1e-9 * np.eye(2))
        ok, top = check_L3(sysm, bad, B)
        assert not ok
        assert top > 1e-3

    def test_product_identity_passes(self, product2):
        sysm, B, cert = product2
        ok, top = check_L3(sysm, cert, B)
        assert ok
        # the Hadamard form vanishes identically for diagonal Gram + product B
        assert abs(top) <= 1e-12


def check_pde_identity(sysm, cert, B):
    """verify's PDE verdict and defect."""
    rep = verify(sysm, cert, B)
    return rep.pde_ok, rep.pde_defect


def check_rank_bound(sysm, cert, B):
    """verify's rank verdict and rank K."""
    rep = verify(sysm, cert, B)
    return rep.rank_ok, rep.rank


class TestPDE:
    def test_young_identity(self, young3, young3_cert):
        sysm, _, B = young3
        ok, worst = check_pde_identity(sysm, young3_cert, B)
        assert ok and worst <= 1e-10

    def test_section_triple_identity(self, section_triple):
        sysm, B, cert = section_triple
        ok, worst = check_pde_identity(sysm, cert, B)
        assert ok and worst <= 1e-10

    def test_defect_is_scaling_invariant(self, young3):
        sysm, _, B = young3
        bad = np.array([[2.0, 0.0], [0.0, 2.0]])
        d1 = check_pde_identity(sysm, make_cert(sysm, bad), B)[1]
        for lam in (1e-6, 1e-2, 3.0, 1e5):
            d2 = check_pde_identity(sysm, make_cert(sysm, lam * bad), B)[1]
            assert d2 == pytest.approx(d1, rel=1e-12)

    def test_broken_certificate_fails(self, young3):
        sysm, _, B = young3
        bad = make_cert(sysm, np.array([[2.0, 0.0], [0.0, 2.0]]))
        ok, worst = check_pde_identity(sysm, bad, B)
        assert not ok and worst > 1e-3


class TestRank:
    def test_young_rank_bound(self, young3, young3_cert):
        sysm, _, B = young3
        assert check_rank_bound(sysm, young3_cert, B) == (True, 1)

    def test_section_triple_rank(self, section_triple):
        sysm, B, cert = section_triple
        assert check_rank_bound(sysm, cert, B) == (True, 1)

    def test_full_rank_violation(self, young3):
        sysm, _, B = young3
        bad = make_cert(sysm, np.array([[2.0, 0.0], [0.0, 2.0]]))
        ok, rank = check_rank_bound(sysm, bad, B)
        assert not ok and rank > 1


class TestKNStructure:
    def test_product_has_zero_diagonal(self):
        B = BellmanSpec.product(2.5, 3)
        ok, worst = check_kn_structure(B)
        assert ok and worst == 0.0

    def test_young_fails(self):
        B = BellmanSpec.young([0.5, 0.5])
        ok, worst = check_kn_structure(B)
        assert not ok and worst == pytest.approx(0.25)


def l5_by_quadrature(sysm, B):
    """L5's integral by the nested trapezoid rule, independently of its closed form."""
    F = (sysm.A * B.weights) @ sysm.A.T
    return decay_quad(lambda X: B.evaluate(np.exp(-(X @ sysm.A) ** 2)), F, rel_tol=1e-11).value


class TestL5:
    def test_holder_integral_is_sqrt_pi(self, holder):
        # B(exp(-x^2), exp(-x^2)) = exp(-x^2); integral sqrt(pi)
        sysm, _, B, _ = holder
        rep = check_L5(sysm, B)
        assert rep.converged
        assert rep.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_product_integral_is_pi(self, product2):
        # exp(-x1^2) * exp(-x2^2) over the plane
        sysm, B, _ = product2
        rep = check_L5(sysm, B)
        assert rep.converged
        assert rep.value == pytest.approx(math.pi, rel=1e-12)

    def test_young_converges(self, young3):
        sysm, _, B = young3
        rep = check_L5(sysm, B)
        assert rep.converged
        assert rep.value == pytest.approx(2.72069904637063, rel=1e-6)
        assert rep.value == pytest.approx(l5_by_quadrature(sysm, B), rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_closed_form(self, k):
        rng = np.random.default_rng(50 + k)
        sysm, _, _, B = interior_datum(rng, k, k + 2)
        rep = check_L5(sysm, B)
        assert rep.converged
        assert rep.value == pytest.approx(l5_by_quadrature(sysm, B), rel=1e-9)

    def test_closed_form_with_prefactor(self):
        rng = np.random.default_rng(54)
        sysm = VectorSystem(rng.normal(size=(3, 3)))
        B = BellmanSpec.product(2.5, 3)
        assert check_L5(sysm, B).value == pytest.approx(l5_by_quadrature(sysm, B), rel=1e-9)


class TestAggregate:
    def test_young_full_report(self, young3, young3_cert):
        sysm, _, B = young3
        rep = verify(sysm, young3_cert, B)
        assert rep.ok
        assert rep.l3_ok and rep.pde_ok and rep.rank_ok and rep.l5.converged
        assert rep.rank == 1
        assert set(rep.tolerances) == {"l3_tol", "pde_tol", "rank_tol"}

    def test_section_triple_full_report(self, section_triple):
        sysm, B, cert = section_triple
        rep = verify(sysm, cert, B)
        assert rep.ok
        assert rep.pde_defect <= 1e-10

    def test_report_is_deterministic(self, young3, young3_cert):
        sysm, _, B = young3
        assert verify(sysm, young3_cert, B) == verify(sysm, young3_cert, B)


class TestConcavityDiagBoundLink:
    def test_l3_iff_diag_bound_on_perturbations(self, young3, young3_cert):
        """For Young B, negativity of the Hadamard form is equivalent to the
        scaled Gram bound A^T C A <= diag(1/s_j^2) with s_j^2 = 1/(p_j sigma_j):
        the two sides are congruent via diag(alpha_j / y_j).  Verdicts must
        agree on randomly perturbed C outside a small indeterminate margin."""
        sysm, e, B = young3
        rng = np.random.default_rng(47)
        agree = 0
        total = 0
        for _ in range(100):
            D = rng.normal(scale=0.05, size=(2, 2))
            C = young3_cert.C + 0.5 * (D + D.T)
            try:
                cert = make_cert(sysm, C)
            except Exception:
                continue
            l3_ok = check_L3(sysm, cert, B)[0]
            gram = sysm.A.T @ cert.C @ sysm.A - np.diag(e.p * cert.sigma)
            margin = float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1])
            if abs(margin) < 1e-6:
                continue  # indeterminate band around the boundary
            total += 1
            if l3_ok == (margin <= 0.0):
                agree += 1
        assert total >= 50
        assert agree == total


def sample_interior(n, count, seed, lo=1e-2, hi=1e2):
    """Log-uniform interior points on [lo, hi]^n."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=(count, n)))


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


def broken_cert(sysm, e, cert, rng, factor=2.0):
    """The certificate with one eigenvalue of C times factor, which no longer certifies."""
    w, U = np.linalg.eigh(cert.C)
    i = int(rng.integers(sysm.k))
    return scaled_cert(sysm, e, cert.C + (factor - 1.0) * w[i] * np.outer(U[:, i], U[:, i]))


class TestBatchedAgainstPerSample:
    """The exact y-free checks against a dense per-sample reference.

    The reference evaluates H(y) at 300 log-uniform points of [1e-2, 1e2]^n;
    its verdicts (every sample within tolerance) must be the exact ones, and
    H(y) must be B(y) Y^{-1} K Y^{-1} with the checks' K."""

    @staticmethod
    def agrees(sysm, cert, B):
        samples = sample_interior(B.n, count=300, seed=3)
        eig, pde, ranks, euler = dense_reference(sysm, cert, B, samples)
        rep = verify(sysm, cert, B)
        assert rep.l3_ok == bool(np.all(eig <= L3_TOL))
        assert rep.pde_ok == bool(np.all(pde <= PDE_TOL))
        assert rep.rank == ranks.max()
        assert np.all(euler <= HOMOG_TOL)
        K, _ = core_form(sysm, cert, B)
        for y in samples[:50]:
            H = hadamard_form(sysm, cert, B, y)
            assert np.linalg.norm(H - B.evaluate(y) * K / np.outer(y, y)) <= 1e-12 * np.linalg.norm(H)
        return rep

    @pytest.mark.parametrize("name", ["young3", "section_triple", "product2"])
    def test_named(self, name, request):
        if name == "young3":
            sysm, _, B = request.getfixturevalue("young3")
            cert = request.getfixturevalue("young3_cert")
            bad = make_cert(sysm, np.array([[2.0, 0.0], [0.0, 2.0]]))
        else:
            sysm, B, cert = request.getfixturevalue(name)
            bad = make_cert(sysm, np.ones((2, 2)) + 1e-3 * np.eye(2))
        assert self.agrees(sysm, cert, B).ok
        assert not self.agrees(sysm, bad, B).ok

    @pytest.mark.parametrize("i", range(20))
    def test_random(self, i):
        rng = np.random.default_rng([61, i])
        k = int(rng.integers(1, 4))
        sysm, e, cert, B = interior_datum(rng, k, int(rng.integers(k + 1, 9)))
        assert self.agrees(sysm, cert, B).ok
        if k > 1:
            assert not self.agrees(sysm, broken_cert(sysm, e, cert, rng), B).ok


def scaled_cert(sysm, e, C):
    return make_cert(sysm, 0.5 * (C + C.T))


@st.composite
def verify_data(draw):
    """A random interior datum with its solved certificate, or (k = 2) that
    certificate with one eigenvalue doubled, which no longer certifies."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([1, 2]))
    sysm, e, cert, B = interior_datum(rng, k, k + int(rng.integers(1, 4)))
    broken = k == 2 and draw(st.booleans())
    C = broken_cert(sysm, e, cert, rng).C if broken else cert.C
    return sysm, e, C, B, not broken, rng


def verdict(sysm, e, C, B):
    return verify(sysm, scaled_cert(sysm, e, C), B).ok


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
        assert check_L3(sysm, scaled_cert(sysm, e, 1e4 * young3_cert.C), B)[0]

    def test_young_scaled_up_passes_PDE(self, young3, young3_cert):
        sysm, e, B = young3
        ok, worst = check_pde_identity(sysm, scaled_cert(sysm, e, 1e8 * young3_cert.C), B)
        assert ok and worst <= 1e-12

    def test_wrong_certificate_scaled_down_fails_PDE(self, young3):
        sysm, e, B = young3
        ok, worst = check_pde_identity(sysm, scaled_cert(sysm, e, 1e-9 * np.diag([1.0, 3.0])), B)
        assert not ok and worst > 1e-3


class TestDenseOracle:
    """The k x k verdicts against the n x n core K they stand for.

    With E = diag(1/sqrt(w_j sigma_j)), E K E = A_w^T C A_w - I has the
    eigenvalues lambda_i(T) - 1 and n - k times -1; the verdicts must match
    K's relative top eigenvalue, PDE defect and numerical rank."""

    def test_random(self):
        rng = np.random.default_rng(71)
        checked = controls = 0
        while checked < 200:
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k + 1, 9))
            sysm, e, cert, B = interior_datum(rng, k, n)
            certs = [cert]
            if k > 1:
                certs += [broken_cert(sysm, e, cert, rng, f) for f in (2.0, 0.5)]
            for c in certs:
                lam = gram_spectrum(c.G, B.weights / c.sigma, k)
                K, _ = core_form(sysm, c, B)
                E = 1.0 / np.sqrt(B.weights * c.sigma)
                expect = np.sort(np.append(lam - 1.0, -np.ones(n - k)))
                assert np.allclose(np.linalg.eigvalsh(E[:, None] * K * E), expect, atol=1e-9)
                top, pde, rank = dense_verdicts(sysm, c, B, RANK_TOL)
                rep = verify(sysm, c, B)
                assert rep.l3_ok == (top <= L3_TOL)
                assert rep.pde_ok == (pde <= PDE_TOL)
                assert rep.rank == rank
                assert rep.ok == (c is cert)
            checked += 1
            controls += len(certs) - 1
        assert controls >= 200


EPS = float(np.finfo(float).eps)


def explicit_C(rng, k, kind):
    """A random symmetric C of the given kind, times 10^[-8, 8]."""
    Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
    if kind == "positive_definite":
        ev = rng.uniform(0.1, 10.0, size=k)
    elif kind == "indefinite":
        ev = rng.uniform(0.1, 10.0, size=k) * np.where(np.arange(k) == 0, -1.0, 1.0)
    elif kind == "singular":
        ev = rng.uniform(0.1, 10.0, size=k) * (np.arange(k) > 0)
    else:  # "spread": eigenvalues over 12 decades
        ev = 10.0 ** rng.uniform(-6.0, 6.0, size=k)
    C = (Q * ev) @ Q.T
    return 0.5 * (C + C.T) * 10.0 ** rng.uniform(-8.0, 8.0)


class TestGramSpectrumOracle:
    """gram_spectrum's reading of G = A^T C A against T = L^T C L, L L^T = A diag(d) A^T."""

    KINDS = ("positive_definite", "indefinite", "singular", "spread", "solved")

    @pytest.mark.parametrize("kind", KINDS)
    def test_random(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        checked = 0
        while checked < 200:
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 1, 9))
            sysm, e, cert, B = interior_datum(rng, k, n)
            if kind != "solved":
                B = BellmanSpec.young(rng.uniform(0.05, 0.95, size=n))
                try:
                    cert = make_cert(sysm, explicit_C(rng, k, kind))
                except CertificateRejection:
                    continue
            # columns scaled by 10^[-4, 4], which T does not see
            c = 10.0 ** rng.uniform(-4.0, 4.0, size=n)
            scaled = VectorSystem(sysm.A * c)
            cert = make_cert(scaled, cert.C)
            d = B.weights / cert.sigma
            ref = cholesky_spectrum(scaled.A, cert.C, d)
            lam = gram_spectrum(cert.G, d, k)
            # both readings start from sigma_j, which cancels up to
            # kappa = max_j ||C|| |a_j|^2 / sigma_j, so either is off by up to
            # about n^2 eps kappa: the Cholesky one by 1.1e-9 on a singular C
            # here with kappa = 4.2e7
            kappa = np.linalg.norm(cert.C, 2) * np.max(np.sum(scaled.A**2, axis=0) / cert.sigma)
            tol = 1e-9 * max(1.0, float(np.max(np.abs(ref)))) + n * n * EPS * kappa
            assert np.allclose(lam, ref, rtol=0.0, atol=tol)
            rep = verify(scaled, cert, B)
            dev = np.abs(ref - 1.0)
            assert (rep.l3_ok, rep.pde_ok, rep.rank) == (
                ref[-1] - 1.0 <= L3_TOL, dev.max() <= PDE_TOL,
                n - int(np.count_nonzero(dev <= RANK_TOL)))
            assert rep.ok == (kind == "solved")
            checked += 1


PROBLEMS = sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.json"))


def t_verdicts(rep):
    """The verdicts read off T, the rank, and L5, whose rank test in
    gaussian_integral is taken on unit columns."""
    return rep.l3_ok, rep.pde_ok, rep.rank_ok, rep.rank, rep.l5.converged


def rescaled(sysm, e, C, B, c, lam, mu):
    """The datum with a_j -> c_j a_j, C -> lam C and B -> mu B; C certifies
    the rescaled columns exactly when it certified the old ones."""
    moved = VectorSystem(sysm.A * c)
    return (moved, make_cert(moved, lam * C),
            BellmanSpec(B.variant, mu * B.coeff, B.weights))


def datum_of(text):
    """System, exponents, certificate (the file's or the solved one) and B, as verify reads them."""
    problem = parse_problem(text)
    return problem.system, problem.exponents, _certificate_of(problem), _bellman_of(problem)


class TestColumnScaling:
    """a_j -> c_j a_j with c_j in 10^[-8, 8] is an exact symmetry of the verdicts."""

    @PROPERTY
    @given(verify_data(), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    def test_random(self, datum, log_lam, log_mu):
        sysm, e, C, B, good, rng = datum
        c = 10.0 ** rng.uniform(-8.0, 8.0, size=sysm.n)
        base = verify(sysm, scaled_cert(sysm, e, C), B)
        rep = verify(*rescaled(sysm, e, C, B, c, 10.0**log_lam, 10.0**log_mu))
        assert t_verdicts(rep) == t_verdicts(base)
        assert base.ok == good and rep.ok == good

    @pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
    def test_problem_files(self, path):
        """The file's own certificate (solved afresh on the rescaled columns when
        the file has none) passes at every scale, and C stretched by 2 or 1/2
        along one direction fails at every scale."""
        rng = np.random.default_rng(73)
        doc = json.loads(path.read_text())
        sysm, e, cert, B = datum_of(json.dumps(doc))
        assert verify(sysm, cert, B).ok
        for _ in range(10):
            c = 10.0 ** rng.uniform(-8.0, 8.0, size=sysm.n)
            lam, mu = 10.0 ** rng.uniform(-8.0, 8.0, size=2)
            moved = dict(doc, A=(np.asarray(doc["A"]) * c).tolist())
            if "C" in moved:
                moved["C"] = (lam * np.asarray(doc["C"])).tolist()
            m_sys, _, m_cert, m_B = datum_of(json.dumps(moved))
            m_B = BellmanSpec(m_B.variant, mu * m_B.coeff, m_B.weights)
            rep = verify(m_sys, m_cert, m_B)
            assert rep.l3_ok and rep.pde_ok and rep.rank_ok and rep.rank == sysm.n - sysm.k
            if sysm.k == 1:
                continue  # a 1 x 1 C has no second eigenvalue to move against
            # C stretched along a random direction u: on the decomposable section
            # triple, stretching C along one of its eigenvectors is a symmetry
            u = rng.normal(size=sysm.k)
            S = np.eye(sysm.k) - np.outer(u, u) / (u @ u)
            for f in (2.0, 0.5):
                S_f = S + math.sqrt(f) * (np.eye(sysm.k) - S)
                rep = verify(*rescaled(sysm, e, S_f @ cert.C @ S_f, B, c, lam, mu))
                assert not (rep.l3_ok and rep.pde_ok and rep.rank_ok)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e4, 1e8, 1e10])
    def test_doubled_eigenvalue_fails_at_every_scale(self, scale):
        """A = [[1, 0, .6], [0, c, .8]], 1/p = (.8, .5, .7), Young B: the solved C
        passes at every c, L5 included, and with either of its eigenvalues
        doubled or halved verify fails at every c (the n x n checks, scaled by
        ||A^T C A||_2, passed this at c = 1e8)."""
        e = Exponents([0.8, 0.5, 0.7])
        sysm = VectorSystem(np.array([[1.0, 0.0, 0.6], [0.0, scale, 0.8]]))
        result = solve_datum(sysm, e)
        cert = result.factor.cert()
        B = BellmanSpec.young(e.inv_p)
        assert verify(sysm, cert, B).ok
        w, U = np.linalg.eigh(cert.C)
        for i in range(2):
            for f in (2.0, 0.5):
                bad = scaled_cert(sysm, e, cert.C + (f - 1.0) * w[i] * np.outer(U[:, i], U[:, i]))
                rep = verify(sysm, bad, B)
                assert not rep.ok and not rep.pde_ok and not rep.rank_ok
                assert rep.pde_defect > 1e-2
