import math

import numpy as np
import pytest
from scipy.optimize import minimize

from blflow import (Exponents, VectorSystem, gaussian_objective, is_finite,
                    maximize_D, quadrature_objective)
from blflow.errors import EvaluationError


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
        v, _ = gaussian_objective(sysm, e, [0.0, 0.0])
        assert v == pytest.approx(1.0, abs=1e-15)
        v, _ = gaussian_objective(sysm, e, [math.log(4.0)] * 2)
        assert v == pytest.approx(1.0, abs=1e-12)
        v, _ = gaussian_objective(sysm, e, [0.0, math.log(4.0)])
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
            v1, _ = gaussian_objective(sysm, e, z)
            v2, _ = gaussian_objective(sysm, e, z + c)
            assert abs(v2 - v1) <= 1e-12 * abs(v1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        h = 1e-6
        for _ in range(25):
            sysm, e = random_instance(rng)
            z = rng.normal(scale=0.5, size=sysm.n)
            _, g = gaussian_objective(sysm, e, z)
            for j in range(sysm.n):
                dz = np.zeros(sysm.n)
                dz[j] = h
                vp, _ = gaussian_objective(sysm, e, z + dz)
                vm, _ = gaussian_objective(sysm, e, z - dz)
                fd = (vp - vm) / (2 * h)
                assert abs(g[j] - fd) <= 1e-6 * (1.0 + abs(fd))

    def test_closed_form_vs_quadrature(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            sysm, e = random_instance(rng)
            z = rng.normal(scale=0.5, size=sysm.n)
            closed, _ = gaussian_objective(sysm, e, z)
            quad = quadrature_objective(sysm, e, z)
            assert abs(closed - quad) <= 1e-6 * abs(quad)


class TestMaximize:
    def test_holder_constant_is_one(self, holder):
        sysm, e, _, _ = holder
        res = maximize_D(sysm, e)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.b[0] == pytest.approx(res.b[1], rel=1e-6)
        assert res.converged

    def test_identity_system_is_flat(self):
        sysm = VectorSystem(np.eye(2))
        e = Exponents([1.0, 1.0])
        res = maximize_D(sysm, e)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_young_matches_grid_polish_oracle(self, young3):
        sysm, e, _ = young3
        # independent oracle: coarse gauge-fixed grid over b in [1e-2, 1e2]^3
        # followed by a derivative-free polish
        def neg(z2):
            z = np.array([z2[0], z2[1], -z2[0] - z2[1]])
            try:
                return -gaussian_objective(sysm, e, z)[0]
            except EvaluationError:
                return np.inf

        grid = np.linspace(math.log(1e-2), math.log(1e2), 25)
        best = min(((neg([a, b]), a, b) for a in grid for b in grid))
        polish = minimize(neg, [best[1], best[2]], method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
        oracle = -polish.fun
        res = maximize_D(sysm, e)
        assert res.value == pytest.approx(oracle, rel=1e-6)

    def test_supremum_dominates_random_points(self, young3):
        sysm, e, _ = young3
        res = maximize_D(sysm, e)
        rng = np.random.default_rng(37)
        for _ in range(100):
            z = rng.normal(size=3)
            z -= z.mean()
            v, _ = gaussian_objective(sysm, e, z)
            assert res.value >= v - 1e-12

    def test_orthogonal_invariance(self, young3):
        sysm, e, _ = young3
        base = maximize_D(sysm, e).value
        rng = np.random.default_rng(41)
        for _ in range(5):
            U, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            rotated = maximize_D(VectorSystem(U @ sysm.A), e).value
            assert rotated == pytest.approx(base, rel=1e-9)

    def test_divergence_outside_polytope(self):
        sysm = VectorSystem(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
        e = Exponents([0.6, 0.6, 0.8])
        assert is_finite(sysm, e).verdict == "outside"
        res = maximize_D(sysm, e)
        assert not res.converged
