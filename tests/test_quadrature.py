import math
import tracemalloc

import numpy as np
import pytest

from blflow.errors import QuadratureAnomaly, UnsupportedScaleError
from blflow import quadrature
from blflow.quadrature import _N0, _grid_sum, _new_nodes_sum, decay_quad


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
        assert _N0 * 2**res.levels + 1 <= 129
        assert res.value == pytest.approx(math.pi / math.sqrt(np.linalg.det(F)), rel=1e-12)
        # the cube reaches sqrt(40 / lam_min) along the softest direction
        assert res.halfwidth == pytest.approx(math.sqrt(40.0))

    def test_levels_count_doublings(self):
        points = []

        def f(x):
            points.append(len(x))
            return np.exp(-x[:, 0] ** 2)

        res = decay_quad(f, np.eye(1))
        assert res.levels >= 1
        assert sum(points) == 16 * 2**res.levels + 1

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


def form_stack(k, scales):
    """G and the forms s * G: exp(-x^T G x) is bounded by each of them, and
    the smaller s, the narrower the integrand on the whitened cube."""
    rng = np.random.default_rng(10 + k)
    M = rng.normal(size=(k, k))
    G = M @ M.T + 0.5 * np.eye(k)
    return G, np.array([s * G for s in scales])


class TestStackOfForms:
    SCALES = (1.0, 0.3, 0.12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_form_matches_its_own_pass(self, k):
        G, F = form_stack(k, self.SCALES)
        shifts = np.linspace(-0.2, 0.3, len(F))

        def f_one(i):
            def f(x):
                d = x - shifts[i]
                return np.exp(-np.einsum("ij,jl,il->i", d, G, d))
            return f

        def f_stack(X, idx):
            d = X - shifts[idx, None, None]
            return np.exp(-np.einsum("tij,jl,til->ti", d, G, d))

        results = decay_quad(f_stack, F, rel_tol=1e-12)
        assert len({r.levels for r in results}) > 1
        for i, res in enumerate(results):
            alone = decay_quad(f_one(i), F[i], rel_tol=1e-12)
            assert res.levels == alone.levels
            assert res.halfwidth == alone.halfwidth
            assert res.value == pytest.approx(alone.value, rel=1e-13)
            assert res.value == pytest.approx(math.pi ** (k / 2) / math.sqrt(np.linalg.det(G)),
                                              rel=1e-11)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_converged_form_leaves_the_pass(self, k):
        G, F = form_stack(k, self.SCALES)
        points = np.zeros(len(F), dtype=int)

        def f(X, idx):
            np.add.at(points, idx, X.shape[1])
            return np.exp(-np.einsum("tij,jl,til->ti", X, G, X))

        results = decay_quad(f, F, rel_tol=1e-12)
        assert list(points) == [(_N0 * 2**r.levels + 1) ** k for r in results]

    def test_slab_counts_the_points_of_every_active_form(self, monkeypatch):
        G, F = form_stack(1, self.SCALES)
        sizes = []

        def f(X, idx):
            sizes.append(X.shape[0] * X.shape[1])
            return np.exp(-G[0, 0] * X[..., 0] ** 2)

        want = decay_quad(f, F, rel_tol=1e-12)
        monkeypatch.setattr(quadrature, "_SLAB", 64)
        sizes.clear()
        got = decay_quad(f, F, rel_tol=1e-12)
        assert [r.levels for r in got] == [r.levels for r in want]
        assert [r.value for r in got] == pytest.approx([r.value for r in want], rel=1e-13)
        assert max(sizes) <= 64

    def test_one_unconverged_form_raises(self):
        # the step converges only like h; the smooth form converges early
        def f(X, idx):
            x = X[..., 0]
            return np.exp(-x**2) * np.where(idx[:, None] == 1, x > 1 / 3, 1.0)

        with pytest.raises(QuadratureAnomaly, match="1 decay form"):
            decay_quad(f, np.array([np.eye(1), np.eye(1)]), rel_tol=1e-12)

    @pytest.mark.parametrize("budget", [8, 40])
    def test_budget_below_the_first_grids_raises(self, monkeypatch, budget):
        monkeypatch.setattr(quadrature, "MAX_NODES", budget)
        with pytest.raises(QuadratureAnomaly):
            decay_quad(lambda x: np.exp(-x[:, 0] ** 2), np.eye(1), rel_tol=1e-12)


class TestNestedTrapezoid:
    @pytest.mark.parametrize("k, levels", [(1, 6), (2, 4), (3, 3)])
    def test_each_level_matches_a_full_grid_sum(self, k, levels):
        def f(z):
            return np.exp(-np.sum((z - 0.3) ** 2, axis=1)) * np.cos(z[:, 0])

        Z = 2.5
        nested = None
        for level in range(levels):
            m = _N0 * 2**level
            axis = np.linspace(-Z, Z, m + 1)
            w = np.full(m + 1, 2.0 * Z / m)
            w[[0, -1]] *= 0.5
            full = _grid_sum(f, [axis] * k, [w] * k)
            # S_m = S_{m/2} / 2**k plus the sum over the new nodes only
            nested = full if nested is None else nested / 2**k + _new_nodes_sum(f, k, Z, m)
            assert nested == pytest.approx(full, rel=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_node_is_evaluated_twice(self, k):
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.exp(-np.sum(x**2, axis=1))

        res = decay_quad(f, np.eye(k), rel_tol=1e-12)
        points = np.concatenate(seen)
        assert len(points) == (_N0 * 2**res.levels + 1) ** k
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
