import json
from pathlib import Path

import numpy as np
import pytest

from blflow import (BellmanSpec, Exponents, VectorSystem, certificate, certificate_defect,
                    enumerate_bases, gaussian_objective, is_finite, make_cert,
                    projection_check, solve_s_system, verify)
from blflow.certificate import EIG_TOL, _factor, _null_projector
from blflow.cli import main
from blflow.errors import IterationError
from blflow.io import parse_problem
from oracles import cauchy_binet_terms, separator_projector, solve_datum


def polytope_point(rng, slack):
    """Random unit-column system and exponents at `slack` from a vertex of the polytope.

    slack = 1 gives a random interior point; a small slack puts the point
    near the boundary, where the weights spread over orders of magnitude.
    """
    k = int(rng.integers(1, 5))
    n = int(rng.integers(k + 1, 11))
    A = rng.normal(size=(k, n))
    sysm = VectorSystem(A / np.linalg.norm(A, axis=0))
    V = enumerate_bases(sysm).vectors
    inner = rng.dirichlet(np.ones(len(V))) @ V
    inv_p = (1.0 - slack) * V[rng.integers(len(V))] + slack * inner
    return sysm, Exponents(inv_p)


def counted_factors(monkeypatch):
    """The calls of certificate._factor, which the solve looks up in its module."""
    calls = []
    original = certificate._factor

    def factoring(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(certificate, "_factor", factoring)
    return calls


def consistency_residual(e, s_sq, cert):
    """max_j |1/p_j - s_j^2 sigma_j| p_j: how well s^2 meets s_j^2 = 1/(p_j sigma_j)."""
    return float(np.max(np.abs(e.inv_p - s_sq * cert.sigma) / e.inv_p))


class TestSSystem:
    def test_young_golden_weights(self, young3):
        sysm, e, _ = young3
        res = solve_datum(sysm, e)
        assert res.converged
        assert res.residual <= 1e-10
        # tr M(s) = s^2 sum_j |a_j|^2 = 4 s^2 = 1
        assert np.allclose(res.s_sq, [1 / 4, 1 / 4, 1 / 4], atol=1e-10)

    def test_identity_system(self):
        sysm = VectorSystem(np.eye(2))
        e = Exponents([1.0, 1.0])
        res = solve_datum(sysm, e)
        assert res.converged
        assert np.allclose(res.s_sq, [0.5, 0.5], atol=1e-10)

    def test_scalar_system(self, holder):
        sysm, e, _, _ = holder
        res = solve_datum(sysm, e)
        assert res.converged
        # k=1: s_j^2 proportional to 1/p_j
        assert np.allclose(res.s_sq, [0.5, 0.5], atol=1e-10)

    @pytest.mark.parametrize("slack", [1.0, 1e-3, 1e-6])
    def test_random_polytope_points(self, slack):
        rng = np.random.default_rng(43)
        for _ in range(30):
            sysm, e = polytope_point(rng, slack)
            assert is_finite(sysm, e).verdict == "inside"
            res = solve_datum(sysm, e)
            assert res.converged and res.residual <= 1e-10
            assert projection_check(sysm, res.factor.cert(), res.s_sq).ok
            closed = gaussian_objective(sysm, e, np.log(e.p * res.s_sq))
            assert res.D == pytest.approx(closed, rel=1e-12)

    def test_far_steps_need_armijo(self):
        # accepting any step that lowered the residual let this interior datum
        # wander for 100 iterations and stop at residual 0.34
        sysm = VectorSystem(np.array([[0.80395, 0.77417, 0.53890, 0.73327],
                                      [0.59469, -0.63298, 0.84237, 0.67994]]))
        e = Exponents([0.16589, 0.34105, 0.72269, 0.77037])
        assert is_finite(sysm, e).verdict == "inside"
        res = solve_datum(sysm, e)
        assert res.converged and res.residual <= 1e-10
        assert res.iterations <= 10

    def test_near_parallel_columns_converge(self):
        # columns 2 and 4 agree to about 3e-5: a Cholesky of M(s) left a
        # residual floor near 3e-9 here, and the solve stalled at the cap
        sysm = VectorSystem(np.array([
            [-0.9589445956610344, 0.7442804396149855, -0.7670032035340819, 0.744254019577437],
            [-0.2835934809767233, -0.6678672227370677, -0.641643269869213, -0.6678966644196]]))
        e = Exponents([0.4628884557817873, 0.4303930545233402, 0.4690916393391361,
                       0.6376268503557364])
        assert is_finite(sysm, e).verdict == "inside"
        res = solve_datum(sysm, e)
        assert res.converged and res.residual <= 1e-10
        assert res.iterations <= 10

    def test_stress_set_converges_everywhere(self):
        # 3000 random interior data, k = 2, n = 3..5: unit columns and a
        # Dirichlet-weighted average of the basis indicators
        rng = np.random.default_rng(1)
        failures = []
        for i in range(3000):
            n = int(rng.integers(3, 6))
            A = rng.normal(size=(2, n))
            sysm = VectorSystem(A / np.linalg.norm(A, axis=0))
            bases = enumerate_bases(sysm)
            e = Exponents(rng.dirichlet(np.ones(bases.count)) @ bases.vectors)
            res = solve_datum(sysm, e)
            if not (res.converged and res.residual <= 1e-10):
                failures.append((i, res.residual, res.notes))
        assert failures == []

    def test_warm_start_converges_fast(self):
        # the start s_j^2 = x_j / |a_j|^2 solves the system when the unit
        # columns u_j are in isotropic position, sum_j x_j u_j u_j^T = I:
        # here three directions 120 degrees apart, at column norms 1, 2, 1/2
        angles = np.pi / 2 + 2 * np.pi / 3 * np.arange(3)
        sysm = VectorSystem(np.array([np.cos(angles), np.sin(angles)]) * [1.0, 2.0, 0.5])
        res = solve_datum(sysm, Exponents([2 / 3, 2 / 3, 2 / 3]))
        assert res.converged and res.iterations == 1
        # tr M(s) = 1 * 1 + 0.25 * 4 + 4 * 0.25 = 3 before normalizing
        assert np.allclose(res.s_sq, np.array([1.0, 0.25, 4.0]) / 3.0, rtol=1e-12)

    def test_k1_start_is_exact(self):
        # for k = 1, tau_j = s_j^2 a_j^2 / sum_i s_i^2 a_i^2 = x_j at the start
        sysm = VectorSystem(np.array([[2.0, -0.5, 3.0, 0.1]]))
        e = Exponents([0.2, 0.3, 0.4, 0.1])
        res = solve_datum(sysm, e)
        assert res.converged and res.iterations == 1
        # tr M(s) = sum_j x_j = 1 at s_j^2 = x_j / a_j^2
        assert np.allclose(res.s_sq, e.inv_p / sysm.A[0] ** 2, rtol=1e-14)

    def test_column_scaling_is_equivariant(self):
        # a_j -> c_j a_j sends s_j^2 to s_j^2 / c_j^2 at the same tr M(s) = 1,
        # leaves C = M(s)^{-1} the same, and runs the same steps
        rng = np.random.default_rng(7)
        for slack in (1.0, 1e-3):
            for _ in range(10):
                sysm, e = polytope_point(rng, slack)
                c = np.exp(rng.uniform(-2.0, 2.0, size=sysm.n))
                scaled = VectorSystem(sysm.A * c)
                res = solve_datum(sysm, e)
                res_c = solve_datum(scaled, e)
                assert res.converged and res_c.converged
                assert res_c.iterations == res.iterations
                assert np.allclose(res_c.s_sq, res.s_sq / c**2, rtol=1e-8)
                C = res.factor.cert().C
                C_c = res_c.factor.cert().C
                assert np.allclose(C_c, C, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("scale", [1e-20, 1e-14, 1e8, 1e20])
    def test_divergence_test_does_not_see_column_scaling(self, scale):
        # z0 holds -2 log c; the iterates' distance from z0 does not
        A = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
        e = Exponents([0.8, 0.5, 0.7])
        c = np.array([1.0, scale, 1.0])
        res = solve_datum(VectorSystem(A), e)
        res_c = solve_datum(VectorSystem(A * c), e)
        assert res_c.converged and res_c.iterations == res.iterations
        assert res_c.D * scale ** e.inv_p[1] == pytest.approx(res.D, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e3, 1e20])
    def test_outside_data_still_stop(self, scale, monkeypatch):
        # columns 0 and 1 are parallel and their exponents sum to 1.3 > r = 1:
        # the verdict stops the solve before it factors anything
        A = np.array([[1.0, 2.0, 0.0, 0.6], [0.0, 0.0, scale, 0.8]])
        sysm, e = VectorSystem(A), Exponents([0.7, 0.6, 0.4, 0.3])
        verdict = is_finite(sysm, e)
        assert verdict.verdict == "outside"
        factors = counted_factors(monkeypatch)
        with pytest.raises(IterationError, match=r"miss the polytope by 0\.3 at columns "
                                                 r"S = \[0, 1\]: the s-system has no solution"):
            solve_s_system(sysm, e, verdict)
        assert factors == []

    def test_decomposable_datum_matches_lstsq_oracle(self):
        # block-diagonal A: two components (columns 0-2 in R^2, 3-4 in R^1),
        # so K's null space is spanned by both components' indicators
        A = np.zeros((3, 5))
        A[:2, :3] = [[1.0, 0.3, -0.8], [0.2, 1.5, 0.9]]
        A[2, 3:] = [0.7, -2.0]
        sysm = VectorSystem(A)
        e = Exponents([0.5, 0.7, 0.8, 0.35, 0.65])
        bases = enumerate_bases(sysm)
        assert is_finite(sysm, e).verdict == "inside"
        res = solve_datum(sysm, e)
        assert res.converged and res.residual <= 1e-10
        # plain Newton from the same start, each step a least-squares solve
        z = np.log(e.inv_p / np.linalg.norm(A, axis=0) ** 2)
        z -= z.mean()
        for _ in range(50):
            _, r, K = cauchy_binet_terms(A, bases, e.inv_p, z)
            if np.max(np.abs(r)) <= 1e-15:
                break
            z = z + np.linalg.lstsq(K, r, rcond=None)[0]
        oracle = np.exp(z) / (np.exp(z) @ np.sum(A**2, axis=0))
        assert np.allclose(res.s_sq, oracle, rtol=1e-12, atol=0)

    def test_null_projector(self, young3):
        # connected data: 11^T / n; the block-diagonal datum: one block per component
        assert np.allclose(_null_projector(is_finite(*young3[:2]).components),
                           np.full((3, 3), 1 / 3))
        A = np.zeros((3, 5))
        A[:2, :3] = [[1.0, 0.3, -0.8], [0.2, 1.5, 0.9]]
        A[2, 3:] = [0.7, -2.0]
        verdict = is_finite(VectorSystem(A), Exponents([0.5, 0.7, 0.8, 0.35, 0.65]))
        P = _null_projector(verdict.components)
        assert np.allclose(P[:3, :3], 1 / 3) and np.allclose(P[3:, 3:], 1 / 2)
        assert not P[:3, 3:].any() and not P[3:, :3].any()

    def test_off_degree_fails_fast(self, young3, monkeypatch):
        # sum(1/p) = 1.5 != k = 2: the verdict is outside and no s^2 solves the
        # system, so the solve factors nothing
        sysm, _, _ = young3
        e = Exponents([0.5, 0.5, 0.5])
        verdict = is_finite(sysm, e)
        factors = counted_factors(monkeypatch)
        with pytest.raises(IterationError, match=r"miss the polytope by 0\.5 at columns "
                                                 r"S = \[0, 1, 2\]: the s-system has no solution"):
            solve_s_system(sysm, e, verdict)
        assert factors == []


ROOT = Path(__file__).resolve().parent.parent


def projector_matches_oracle(sysm) -> bool:
    """_null_projector on the verdict's component labels equals, bit for bit,
    the projector read off the rank table's separators.  The components do
    not depend on the exponents, so any in (0, 1] with the right length do."""
    verdict = is_finite(sysm, Exponents(np.full(sysm.n, sysm.k / sysm.n)))
    return np.array_equal(_null_projector(verdict.components),
                          separator_projector(enumerate_bases(sysm), sysm.k))


class TestComponents:
    def test_on_the_fixed_data(self, holder, young3, product2, section_triple):
        import test_cli  # here, not at the top: test_cli imports this module
        data = [np.asarray(doc["A"], dtype=float) for doc in vars(test_cli).values()
                if isinstance(doc, dict) and "A" in doc]
        data += [np.asarray(json.loads(path.read_text())["A"], dtype=float)
                 for path in sorted((ROOT / "problems").glob("*.json"))]
        data += [f[0].A for f in (holder, young3, product2, section_triple)]
        assert len(data) >= 15
        for A in data:
            assert projector_matches_oracle(VectorSystem(A)), A

    def test_on_the_random_data(self):
        rng = np.random.default_rng(5)
        for i in range(60):
            sysm = polytope_point(rng, 1.0)[0] if i % 2 else stress_datum(rng, i % 4 == 0)
            assert projector_matches_oracle(sysm), i

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("workload", ["certify_sweep", "verify_battery", "flow_scan"])
    def test_on_the_benchmark_files(self, monkeypatch, workload, seed):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import bench_data

        for case in bench_data.generate(workload, seed):
            assert projector_matches_oracle(parse_problem(case.text).system), case.name

    def test_on_rotated_block_diagonal_data(self):
        # a block with more columns than rows is one component (its columns are
        # in general position); a square block's columns are coloops, one each
        rng = np.random.default_rng(27)
        for _ in range(100):
            blocks = [(int(k), int(k + rng.integers(0, 3)))
                      for k in rng.integers(1, 4, size=rng.integers(1, 4))]
            k, n = np.sum(blocks, axis=0)
            if n > 12:  # beyond the rank table
                continue
            A, groups, row, col = np.zeros((k, n)), [], 0, 0
            for kb, nb in blocks:
                A[row:row + kb, col:col + nb] = rng.normal(size=(kb, nb))
                first = len(groups)
                groups += [first] * nb if nb > kb else list(range(first, first + nb))
                row, col = row + kb, col + nb
            U = np.linalg.qr(rng.normal(size=(k, k)))[0]
            perm = rng.permutation(n)
            sysm = VectorSystem(U @ A[:, perm])
            group = np.array(groups)[perm]
            least = np.array([int(np.flatnonzero(group == g)[0]) for g in group])
            verdict = is_finite(sysm, Exponents(np.full(n, k / n)))
            assert (verdict.components == least).all(), blocks
            assert projector_matches_oracle(sysm), blocks


class TestBuildC:
    def test_identity_gives_two_identity(self):
        # A = I, p = (1, 1): s^2 = (1/2, 1/2), M = I/2, C = 2I
        sysm = VectorSystem(np.eye(2))
        e = Exponents([1.0, 1.0])
        res = solve_datum(sysm, e)
        cert = res.factor.cert()
        assert np.allclose(cert.C, 2.0 * np.eye(2), atol=1e-10)
        assert np.allclose(cert.sigma, [2.0, 2.0], atol=1e-10)
        assert consistency_residual(e, res.s_sq, cert) <= 1e-10

    def test_young_defect_zero(self, young3, young3_cert):
        sysm, e, _ = young3
        assert certificate_defect(sysm, e, young3_cert) <= 1e-10
        # s^2 = 1/4 gives M(s) = A A^T / 4 and sigma_j = <4 (A A^T)^{-1} a_j, a_j> = 8/3
        assert np.allclose(young3_cert.sigma, [8 / 3, 8 / 3, 8 / 3], atol=1e-8)

    def test_perturbed_C_has_large_defect(self, young3, young3_cert):
        sysm, e, _ = young3
        C_bad = young3_cert.C + np.array([[0.05, 0.0], [0.0, -0.03]])
        cert = make_cert(sysm, C_bad)
        assert certificate_defect(sysm, e, cert) > 1e-3

    def test_gauge_covariance(self, young3, young3_solve, young3_cert):
        # scaling s^2 by 1/lam scales M by 1/lam, hence C by lam; the
        # defining residual is scale-free
        sysm, e, _ = young3
        lam = 3.0
        cert = _factor(sysm.A, young3_solve.s_sq / lam).cert()
        assert np.allclose(cert.C, lam * young3_cert.C, rtol=1e-12)
        assert consistency_residual(e, young3_solve.s_sq / lam, cert) <= 1e-9


class TestProjection:
    def test_holder_projection(self, holder):
        # k=1, s^2 = (1/2, 1/2), C = (1): P = [[1/2, 1/2], [1/2, 1/2]]
        sysm, e, _, _ = holder
        res = solve_datum(sysm, e)
        cert = res.factor.cert()
        S = np.sqrt(res.s_sq)
        P = (sysm.A * S).T @ cert.C @ (sysm.A * S)
        assert np.allclose(P, np.full((2, 2), 0.5), atol=1e-10)
        rep = projection_check(sysm, cert, res.s_sq)
        assert rep.ok and rep.rank == 1 and rep.eigenvalues[-1] <= 1.0 + EIG_TOL
        assert rep.trace == pytest.approx(1.0, abs=1e-10)

    def test_young_projection(self, young3, young3_solve, young3_cert):
        sysm, _, _ = young3
        rep = projection_check(sysm, young3_cert, young3_solve.s_sq)
        assert rep.ok
        assert rep.rank == 2
        assert rep.trace == pytest.approx(2.0, abs=1e-9)
        assert rep.idempotency_defect <= 1e-10
        assert sorted(np.round(rep.eigenvalues, 8)) == [0.0, 1.0, 1.0]

    def test_trace_equals_k_random(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            k = int(rng.integers(1, 3))
            n = k + int(rng.integers(1, 3))
            while True:
                A = rng.normal(size=(k, n))
                if np.min(np.linalg.svd(A, compute_uv=False)) > 0.3:
                    break
            sysm = VectorSystem(A)
            w = rng.uniform(0.3, 1.0, size=n)
            inv_p = w * (k / w.sum())
            if np.any(inv_p >= 1.0):
                continue
            e = Exponents(inv_p)
            res = solve_datum(sysm, e)
            if not res.converged:
                continue
            rep = projection_check(sysm, res.factor.cert(), res.s_sq)
            assert rep.trace == pytest.approx(k, abs=1e-8)
            assert rep.eigenvalues[-1] <= 1.0 + EIG_TOL

    def test_diag_bound_fails_for_wrong_weights(self, young3, young3_solve, young3_cert):
        # shrinking one s_j^2 without re-solving breaks A^T C A <= diag(1/s^2)
        sysm, _, _ = young3
        rep = projection_check(sysm, young3_cert,
                               young3_solve.s_sq * np.array([4.0, 1.0, 1.0]))
        assert rep.eigenvalues[-1] > 1.0 + EIG_TOL


def stress_datum(rng, near_parallel):
    """Unit columns, k = 2..4, n = k + 2..8; with near_parallel, a_2 is
    1e-8 to 1e-3 from a_1, so that cond M(s) reaches 1e15 at the solution."""
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k + 2, 9))
    A = rng.normal(size=(k, n))
    A /= np.linalg.norm(A, axis=0)
    if near_parallel:
        u = rng.normal(size=k)
        u -= (u @ A[:, 0]) * A[:, 0]
        A[:, 1] = A[:, 0] + 10.0 ** rng.uniform(-8.0, -3.0) * u / np.linalg.norm(u)
        A[:, 1] /= np.linalg.norm(A[:, 1])
    return VectorSystem(A)


def exact_ratio_defect(mpmath, A, x, s_sq) -> float:
    """max_j |x_j / tau_j - 1| at the given s^2, tau_j = s_j^2 <M(s)^{-1} a_j, a_j>, to 60 digits."""
    with mpmath.workdps(60):
        AS = mpmath.matrix(A.tolist()) * mpmath.diag([mpmath.sqrt(mpmath.mpf(v)) for v in s_sq])
        C = (AS * AS.T) ** -1
        return float(max(abs(mpmath.mpf(x[j]) / (AS[:, j].T * C * AS[:, j])[0] - 1)
                         for j in range(A.shape[1])))


def exact_functional(mpmath, A, x, b) -> float:
    """The Gaussian functional prod_j b_j^{x_j/2} det(Q(b))^{-1/2},
    Q(b) = sum_j b_j x_j a_j a_j^T, to 60 digits: D at b = p s^2."""
    with mpmath.workdps(60):
        Q = mpmath.zeros(A.shape[0])
        for a, xj, bj in zip(A.T, x, b):
            col = mpmath.matrix(a.tolist())
            Q += mpmath.mpf(bj) * mpmath.mpf(xj) * (col * col.T)
        top = mpmath.fprod(mpmath.mpf(bj) ** (mpmath.mpf(xj) / 2) for xj, bj in zip(x, b))
        return float(top / mpmath.sqrt(mpmath.det(Q)))


class TestStressSet:
    def test_solved_certificates_meet_the_exact_defect(self):
        """300 interior data, half with a near-parallel pair.  Every converged
        solve's s^2 meets s_j^2 <M(s)^{-1} a_j, a_j> = x_j to 1e-8 in 60-digit
        arithmetic, its certificate is a projection, and verify's PDE defect
        is at most that exact max_j |x_j / tau_j - 1|: in exact arithmetic T's
        eigenvalues lie between the smallest and the largest x_j / tau_j, so
        the certificate adds nothing to what s^2 misses.  A solve that stops
        says why."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        checked = 0
        for i in range(300):
            sysm = stress_datum(rng, i % 2 == 1)
            bases = enumerate_bases(sysm)
            e = Exponents(rng.dirichlet(np.ones(bases.count)) @ bases.vectors)
            verdict = is_finite(sysm, e)
            assert verdict.verdict == "inside"
            res = solve_s_system(sysm, e, verdict)
            if not res.converged:
                assert res.notes, i
                continue
            exact = exact_ratio_defect(mpmath, sysm.A, e.inv_p, res.s_sq)
            assert exact <= 1e-8, i
            cert = res.factor.cert()
            assert projection_check(sysm, cert, res.s_sq).ok, i
            defect = verify(sysm, cert, BellmanSpec.young(e.inv_p)).pde_defect
            assert defect <= exact + 1e-9, i
            checked += 1
        assert checked >= 290


def solved(tmp_path, capsys, A, inv_p):
    """The report of `blflow solve-c`, the CLI's solve chain, on (A, 1/p)."""
    k, n = np.shape(A)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"k": k, "n": n, "A": A, "inv_p": inv_p}))
    assert main(["solve-c", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


class TestSolveChain:
    def test_boundary_warning_note(self, tmp_path, capsys):
        # slack 1e-7: inside, but within 1e-6 of the boundary
        doc = solved(tmp_path, capsys, [[1.0, 1.0]], [1.0 - 1e-7, 1e-7])
        assert doc["polytope_verdict"] == "inside" and doc["converged"]
        assert any("boundary" in note for note in doc["notes"])

    def test_clean_run_has_no_notes(self, tmp_path, capsys, young3):
        sysm, e, _ = young3
        doc = solved(tmp_path, capsys, sysm.A.tolist(), e.inv_p.tolist())
        assert doc["converged"] and doc["notes"] == []
