import math
import tracemalloc

import numpy as np
import pytest

from blflow.errors import QuadratureAnomaly, UnsupportedScaleError
from blflow.quadrature import _N0, _grid_sum, _trapezoid_sums, decay_quad


class TestDecayQuad:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gaussian(self, k):
        res = decay_quad(lambda x: np.exp(-np.sum(x**2, axis=1)), np.eye(k))
        assert res.value == pytest.approx(math.pi ** (k / 2), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shifted_correlated_gaussian(self, k):
        rng = np.random.default_rng(k)
        G = rng.normal(size=(k, k))
        F = G @ G.T + 0.5 * np.eye(k)
        c = 0.3 * rng.normal(size=k)

        def f(x):
            d = x - c
            return np.exp(-np.einsum("ij,jl,il->i", d, F, d))

        res = decay_quad(f, 0.5 * F, rel_tol=1e-12)
        want = math.pi ** (k / 2) / math.sqrt(np.linalg.det(F))
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_anisotropic_within_128_intervals(self):
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        F = R @ np.diag([1e4, 1.0]) @ R.T

        def f(x):
            return np.exp(-np.einsum("ij,jl,il->i", x, F, x))

        res = decay_quad(f, F, rel_tol=1e-12)
        assert res.nodes_per_axis <= 129
        assert res.value == pytest.approx(math.pi / math.sqrt(np.linalg.det(F)), rel=1e-12)
        # the cube reaches sqrt(40 / lam_min) along the softest direction
        assert res.halfwidth == pytest.approx(math.sqrt(40.0))

    def test_levels_count_doublings(self):
        res = decay_quad(lambda x: np.exp(-x[:, 0] ** 2), np.eye(1))
        assert res.levels >= 1
        assert res.nodes_per_axis == 16 * 2**res.levels + 1

    def test_rough_integrand_raises_at_budget(self):
        # a step inside the decay envelope converges only like h
        def f(x):
            return np.exp(-x[:, 0] ** 2) * (x[:, 0] > 1 / 3)

        with pytest.raises(QuadratureAnomaly):
            decay_quad(f, np.eye(1), rel_tol=1e-12)

    def test_rejects_indefinite_form(self):
        with pytest.raises(ValueError):
            decay_quad(lambda x: np.ones(len(x)), np.diag([1.0, -1.0]))

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedScaleError):
            decay_quad(lambda x: np.ones(len(x)), np.eye(4))


class TestNestedTrapezoid:
    @pytest.mark.parametrize("k, levels", [(1, 6), (2, 4), (3, 3)])
    def test_each_level_matches_a_full_grid_sum(self, k, levels):
        def f(z):
            return np.exp(-np.sum((z - 0.3) ** 2, axis=1)) * np.cos(z[:, 0])

        Z = 2.5
        sums = _trapezoid_sums(f, k, Z)
        for level in range(levels):
            m, nested = next(sums)
            assert m == _N0 * 2**level
            axis = np.linspace(-Z, Z, m + 1)
            w = np.full(m + 1, 2.0 * Z / m)
            w[[0, -1]] *= 0.5
            assert nested == pytest.approx(_grid_sum(f, [axis] * k, [w] * k), rel=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_node_is_evaluated_twice(self, k):
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.exp(-np.sum(x**2, axis=1))

        res = decay_quad(f, np.eye(k), rel_tol=1e-12)
        points = np.concatenate(seen)
        assert len(points) == res.nodes_per_axis**k
        assert len(np.unique(points, axis=0)) == len(points)


class TestGridSum:
    def test_matches_dense_sum(self):
        axis = np.linspace(-1.0, 2.0, 7)
        weights = np.arange(1.0, 8.0)

        def f(x):
            return np.cos(x[:, 0]) + x[:, 1] * x[:, 2] ** 2

        X = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")], -1)
        W = np.einsum("i,j,l->ijl", weights, weights, weights).ravel()
        assert _grid_sum(f, [axis] * 3, [weights] * 3) == pytest.approx(float(W @ f(X)), rel=1e-13)

    def test_k3_grid_memory_is_bounded(self):
        # a dense 129^3 node array alone would take 51 MB
        axis = np.linspace(-1.0, 1.0, 129)
        tracemalloc.start()
        try:
            _grid_sum(lambda x: np.exp(-np.sum(x**2, axis=1)), [axis] * 3, [np.ones(129)] * 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
