import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import minimize

from blflow import (Exponents, VectorSystem, gaussian, gaussian_objective, is_finite,
                    quadrature_objective)
from blflow.errors import EvaluationError, IterationError
from oracles import solve_datum

# Boundary data (1/p_4 = 1), where the supremum is reached only in a limit.
# At BOUNDARY_LOG_B three b_j are near 1e-13 and one near 1, so Q(b) is
# ill-conditioned: a Cholesky of the formed Q(b) gives D = 1.16148 where the
# exact value is 1.1616130834.
BOUNDARY_A = np.array([[-0.7236627510493412, -0.7027862623237676, 0.980139775291338,
                        0.5169632510497264],
                       [0.6901537674632368, 0.7114010609276517, 0.19830789417429995,
                        0.856007591709383]])
BOUNDARY_INV_P = [0.5248647596796053, 0.029607066846247882, 0.44552817347414675, 1.0]
BOUNDARY_LOG_B = np.array([-29.598907292239275, -29.58474937195965, -29.03526937595481,
                           -1.8696155734689383e-13])


def cauchy_binet_objective(A, inv_p, b):
    """prod_j b_j^{1/(2 p_j)} det(Q(b))^{-1/2} with det(Q(b)) expanded by
    Cauchy-Binet, sum over k-subsets S of det(A_S)^2 prod_{j in S} b_j / p_j:
    a sum of positive terms, each exact to round-off however ill-conditioned
    Q(b) is."""
    k, n = A.shape
    det = sum(np.linalg.det(A[:, S]) ** 2 * np.prod(b[list(S)] * inv_p[list(S)])
              for S in combinations(range(n), k))
    return float(np.prod(b ** (0.5 * inv_p))) / math.sqrt(det)


def random_instance(rng):
    """Random full-rank (A, p) with sum(1/p) = k, and k <= 2."""
    k = int(rng.integers(1, 3))
    n = int(rng.integers(k + 1, 5))
    while True:
        A = rng.normal(size=(k, n))
        if np.min(np.linalg.svd(A, compute_uv=False)) > 0.3:
            break
    w = rng.uniform(0.2, 1.0, size=n)
    inv_p = np.clip(w * (k / w.sum()), 1e-3, 1.0)
    inv_p *= k / inv_p.sum()
    if np.any(inv_p >= 1.0):
        return random_instance(rng)
    return VectorSystem(A), Exponents(inv_p)


class TestObjective:
    def test_holder_examples(self, holder):
        sysm, e, _, _ = holder
        v = gaussian_objective(sysm, e, [0.0, 0.0])
        assert v == pytest.approx(1.0, abs=1e-15)
        v = gaussian_objective(sysm, e, [math.log(4.0)] * 2)
        assert v == pytest.approx(1.0, abs=1e-12)
        v = gaussian_objective(sysm, e, [0.0, math.log(4.0)])
        # 4^{1/4} / sqrt(5/2)
        assert v == pytest.approx(4.0**0.25 / math.sqrt(2.5), rel=1e-12)

    def test_degenerate_b_raises(self):
        sysm = VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))
        e = Exponents([2 / 3, 2 / 3, 2 / 3])
        with pytest.raises(EvaluationError):
            # all the weight on two parallel directions: Q loses rank
            gaussian_objective(sysm, e, [0.0, -800.0, -800.0])

    def test_gauge_invariance_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            sysm, e = random_instance(rng)
            z = rng.normal(size=sysm.n)
            c = rng.uniform(-2, 2)
            v1 = gaussian_objective(sysm, e, z)
            v2 = gaussian_objective(sysm, e, z + c)
            assert abs(v2 - v1) <= 1e-12 * abs(v1)

    def test_closed_form_vs_quadrature(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            sysm, e = random_instance(rng)
            z = rng.normal(scale=0.5, size=sysm.n)
            closed = gaussian_objective(sysm, e, z)
            quad = quadrature_objective(sysm, e, z)
            assert abs(closed - quad) <= 1e-6 * abs(quad)

    def test_ill_conditioned_matches_cauchy_binet(self):
        sysm, e = VectorSystem(BOUNDARY_A), Exponents(BOUNDARY_INV_P)
        # the SVD closed form at a b spanning 7e12, where Q(b) is ill-conditioned
        b = np.exp(BOUNDARY_LOG_B)
        assert np.max(b) / np.min(b) > 7e12
        assert gaussian_objective(sysm, e, BOUNDARY_LOG_B) == pytest.approx(
            cauchy_binet_objective(BOUNDARY_A, e.inv_p, b), rel=1e-9)
        # 1/p_4 = 1: D factorises through the quotient by a_4, a k = 1 datum
        # with columns c_j = det[a_j, a_4] / |a_4|
        a4 = BOUNDARY_A[:, 3]
        c = np.array([np.linalg.det(np.column_stack([BOUNDARY_A[:, j], a4]))
                      for j in range(3)]) / np.linalg.norm(a4)
        exact = float(np.prod(np.abs(c) ** -e.inv_p[:3])) / np.linalg.norm(a4)
        assert exact == pytest.approx(1.1616130834043372, rel=1e-15)
        res = solve_datum(sysm, e)
        assert abs(res.D - exact) <= 1e-10 * exact
        assert res.D <= exact * (1.0 + 1e-15)
        assert res.D == pytest.approx(
            cauchy_binet_objective(BOUNDARY_A, e.inv_p, e.p * res.s_sq), rel=1e-13)


class TestSelfTest:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        gaussian._closed_form_selftest.cache_clear()
        yield
        gaussian._closed_form_selftest.cache_clear()

    def test_catches_a_corrupted_shared_closed_form(self, monkeypatch):
        exact = gaussian.gaussian_integral

        def scaled(*args):
            return 1.01 * exact(*args)

        monkeypatch.setattr(gaussian, "gaussian_integral", scaled)
        with pytest.raises(EvaluationError, match="self-test"):
            gaussian._closed_form_selftest()

    def test_checks_the_shared_closed_form_itself(self, monkeypatch):
        # wrong only where some centre is nonzero, which gaussian_objective never
        # passes: the objective still agrees with quadrature, the self-test must not
        exact = gaussian.gaussian_integral

        def rolled_centres(A, w, amp, center, variance, coeff=1.0):
            return exact(A, w, amp, np.roll(center, 1), variance, coeff)

        monkeypatch.setattr(gaussian, "gaussian_integral", rolled_centres)
        sysm, e = VectorSystem(np.array([[1.0, 1.0]])), Exponents([0.5, 0.5])
        z = [0.0, math.log(4.0)]
        assert gaussian_objective(sysm, e, z) == pytest.approx(
            quadrature_objective(sysm, e, z), rel=1e-9)
        with pytest.raises(EvaluationError, match="self-test"):
            gaussian._closed_form_selftest()


class TestMaximize:
    def test_holder_constant_is_one(self, holder):
        sysm, e, _, _ = holder
        res = solve_datum(sysm, e)
        b = e.p * res.s_sq
        assert res.D == pytest.approx(1.0, abs=1e-9)
        assert b[0] == pytest.approx(b[1], rel=1e-6)
        assert res.converged

    def test_identity_system_is_flat(self):
        sysm = VectorSystem(np.eye(2))
        e = Exponents([1.0, 1.0])
        res = solve_datum(sysm, e)
        assert res.D == pytest.approx(1.0, abs=1e-12)

    def test_young_matches_grid_polish_oracle(self, young3):
        sysm, e, _ = young3
        # independent oracle: coarse gauge-fixed grid over b in [1e-2, 1e2]^3
        # followed by a derivative-free polish
        def neg(z2):
            z = np.array([z2[0], z2[1], -z2[0] - z2[1]])
            try:
                return -gaussian_objective(sysm, e, z)
            except EvaluationError:
                return np.inf

        grid = np.linspace(math.log(1e-2), math.log(1e2), 25)
        best = min(((neg([a, b]), a, b) for a in grid for b in grid))
        polish = minimize(neg, [best[1], best[2]], method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
        oracle = -polish.fun
        res = solve_datum(sysm, e)
        assert res.D == pytest.approx(oracle, rel=1e-6)

    def test_supremum_dominates_random_points(self, young3):
        sysm, e, _ = young3
        res = solve_datum(sysm, e)
        rng = np.random.default_rng(37)
        for _ in range(100):
            z = rng.normal(size=3)
            z -= z.mean()
            v = gaussian_objective(sysm, e, z)
            assert res.D >= v - 1e-12

    def test_orthogonal_invariance(self, young3):
        sysm, e, _ = young3
        base = solve_datum(sysm, e).D
        rng = np.random.default_rng(41)
        for _ in range(5):
            U, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            rotated = solve_datum(VectorSystem(U @ sysm.A), e).D
            assert rotated == pytest.approx(base, rel=1e-9)

    def test_divergence_outside_polytope(self):
        sysm = VectorSystem(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
        e = Exponents([0.6, 0.6, 0.8])
        assert is_finite(sysm, e).verdict == "outside"
        with pytest.raises(IterationError, match="no solution"):
            solve_datum(sysm, e)
