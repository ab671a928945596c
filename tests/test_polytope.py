import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from blflow import Exponents, VectorSystem, enumerate_bases, is_finite
from blflow.errors import UnsupportedScaleError
from blflow.io import parse_problem
from blflow.model import numerical_rank
from blflow.polytope import BOUNDARY_TOL, DEGREE_TOL

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tri_system():
    return VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))


def lp_verdict(sysm, x, boundary_tol=1e-9):
    """The verdict of the convex-weight LP over the basis indicators.

    Maximize the least weight t subject to V^T lam = x, sum(lam) = 1,
    lam_i >= t: infeasible is outside, t <= boundary_tol is the boundary.
    HiGHS works to a feasibility tolerance near 1e-7, so this oracle is only
    trusted on points whose slack is well above that.
    """
    V = enumerate_bases(sysm).vectors
    m, n = V.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_eq = np.zeros((n + 1, m + 1))
    A_eq[:n, :m] = V.T
    A_eq[n, :m] = 1.0
    A_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq,
                  b_eq=np.concatenate([x, [1.0]]),
                  bounds=[(0.0, 1.0)] * m + [(-1.0, 1.0)], method="highs")
    if not res.success:
        return "outside"
    return "inside" if res.x[-1] > boundary_tol else "boundary"


def rank_slack(sysm, x, S):
    """r(S) - x(S), with the rank taken from an SVD of the columns S."""
    return numerical_rank(sysm.A[:, list(S)]) - float(np.sum(np.asarray(x)[list(S)]))


def brute_force_slack(sysm, x):
    """Least r(S) - x(S) over the non-separators S, from one SVD per subset."""
    n, k = sysm.n, sysm.k
    best = math.inf
    for size in range(1, n):
        for S in combinations(range(n), size):
            rest = [j for j in range(n) if j not in S]
            if numerical_rank(sysm.A[:, list(S)]) + numerical_rank(sysm.A[:, rest]) > k:
                best = min(best, rank_slack(sysm, x, S))
    return best


def unit_columns(rng, k, n):
    while True:
        A = rng.normal(size=(k, n))
        A /= np.linalg.norm(A, axis=0)
        if min(abs(np.linalg.det(A[:, list(S)])) for S in combinations(range(n), k)) > 1e-3:
            return A


def polytope_data(rng, cls, k, n):
    """(system, x) of one data class: interior, near_boundary, boundary or outside."""
    if cls == "outside" and k >= 2:
        # a repeated column whose two exponents sum past its rank 1
        A = unit_columns(rng, k, n - 1)
        A = np.concatenate([A, A[:, :1]], axis=1)
        delta = rng.uniform(0.1, 0.3)
        while True:
            rest = (k - 1.0 - 2.0 * delta) * rng.dirichlet(np.ones(n - 2))
            if rest.max() < 0.95:
                break
        return VectorSystem(A), np.concatenate([[0.5 + delta], rest, [0.5 + delta]])
    A = unit_columns(rng, k, n)
    sysm = VectorSystem(A)
    V = enumerate_bases(sysm).vectors
    inner = rng.dirichlet(np.ones(len(V))) @ V
    if cls == "interior":
        return sysm, inner
    if cls == "near_boundary":
        eps = math.exp(rng.uniform(math.log(1e-3), math.log(1e-2)))
        return sysm, (1.0 - eps) * V[rng.integers(len(V))] + eps * inner
    if cls == "boundary":
        j = int(rng.integers(n))
        x = rng.dirichlet(np.ones(int(V[:, j].sum()))) @ V[V[:, j] == 1.0]
        x[j] = 1.0
        return sysm, x
    # k = 1: every column is parallel, so only the degree can fail
    return sysm, np.minimum(1.1 * inner, 1.0)


def columns_of(bases):
    """The index set of each basis, in the order of the rows of ``vectors``."""
    return [tuple(np.flatnonzero(row).tolist()) for row in bases.vectors]


class TestEnumerateBases:
    def test_all_pairs_independent(self, tri_system):
        bases = enumerate_bases(tri_system)
        assert columns_of(bases) == [(0, 1), (0, 2), (1, 2)]
        expected = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
        assert np.array_equal(bases.vectors, expected)

    def test_scalar_columns(self):
        sysm = VectorSystem(np.array([[1.0, 1.0]]))
        bases = enumerate_bases(sysm)
        assert np.array_equal(bases.vectors, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_parallel_columns_excluded(self):
        sysm = VectorSystem(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
        bases = enumerate_bases(sysm)
        assert columns_of(bases) == [(0, 2), (1, 2)]

    def test_rank_table_matches_svd(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 7))
        A[:, 5] = A[:, 1] - 2.0 * A[:, 2]  # a dependent triple
        A[:, 6] = -A[:, 0]  # a repeated direction
        sysm = VectorSystem(A)
        bases = enumerate_bases(sysm)
        for mask, rank in zip(bases.masks, bases.ranks):
            assert rank == numerical_rank(A[:, mask == 1.0])

    def test_more_than_twelve_columns_unsupported(self):
        sysm = VectorSystem(np.ones((1, 13)))
        with pytest.raises(UnsupportedScaleError):
            enumerate_bases(sysm)
        with pytest.raises(UnsupportedScaleError):
            is_finite(sysm, Exponents(np.full(13, 1.0 / 13)))


class TestMembership:
    def test_inside_with_certificate(self, tri_system):
        # every proper subset is a non-separator; the singletons have room 1/3
        v = is_finite(tri_system, Exponents([2 / 3, 2 / 3, 2 / 3]))
        assert v.verdict == "inside"
        assert v.basis_count == 3
        assert v.witness == (0,)
        assert v.slack == pytest.approx(1 / 3, abs=1e-12)

    def test_vertex_is_boundary(self, tri_system):
        v = is_finite(tri_system, Exponents([1.0, 1.0, 1e-12 + 1e-9]))
        assert v.verdict == "boundary"

    def test_outside_by_coordinate_sum(self, tri_system):
        v = is_finite(tri_system, Exponents([1.0, 1.0, 1.0]))
        assert v.verdict == "outside"
        assert v.witness == (0, 1, 2)
        assert v.slack == pytest.approx(-1.0)

    def test_certificate_reproduces_point(self, tri_system):
        # the witness's slack can be checked by hand, and no subset beats it
        e = Exponents([0.7, 0.6, 0.7])
        v = is_finite(tri_system, e)
        assert v.verdict == "inside"
        assert v.slack == pytest.approx(rank_slack(tri_system, e.inv_p, v.witness), abs=1e-12)
        assert v.slack == pytest.approx(brute_force_slack(tri_system, e.inv_p), abs=1e-12)
        assert v.slack == pytest.approx(0.3, abs=1e-12)

    def test_violated_subset_is_witness(self):
        # columns 0 and 1 are parallel: x_0 + x_1 = 1.2 exceeds their rank 1
        sysm = VectorSystem(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
        v = is_finite(sysm, Exponents([0.6, 0.6, 0.8]))
        assert v.verdict == "outside"
        assert v.witness == (0, 1)
        assert v.slack == pytest.approx(-0.2)

    def test_boundary_witness_is_tight(self, tri_system):
        v = is_finite(tri_system, Exponents([1.0, 0.5, 0.5]))
        assert v.verdict == "boundary"
        assert abs(rank_slack(tri_system, [1.0, 0.5, 0.5], v.witness)) <= 1e-12

    def test_deep_near_boundary_is_inside(self, tri_system):
        # 1e-7 from a vertex, where the LP's feasibility tolerance called the
        # point outside; the rank test sees the exact slack
        v = is_finite(tri_system, Exponents([1.0 - 1e-7, 1.0 - 2e-7, 3e-7]))
        assert v.verdict == "inside"
        assert v.slack == pytest.approx(1e-7, rel=1e-6)

    def test_degree_tolerance(self, tri_system):
        x = np.array([2 / 3, 2 / 3, 2 / 3])
        assert is_finite(tri_system, Exponents(x + DEGREE_TOL / 4)).verdict == "inside"
        v = is_finite(tri_system, Exponents(x + DEGREE_TOL))
        assert v.verdict == "outside"
        assert v.witness == (0, 1, 2)


class TestStructures:
    def test_identity_is_a_single_point(self):
        # A = I: every subset is a separator, K = {1}, and no slack exists
        sysm = VectorSystem(np.eye(3))
        v = is_finite(sysm, Exponents([1.0, 1.0, 1.0]))
        assert (v.verdict, v.witness, v.slack, v.basis_count) == ("inside", None, math.inf, 1)
        v = is_finite(sysm, Exponents([1.0, 1.0, 0.5]))
        assert v.verdict == "outside" and v.witness == (0, 1, 2)
        assert v.slack == pytest.approx(-0.5)

    def test_block_diagonal(self):
        # K is the product of the blocks' polytopes; each block is a separator
        A = np.zeros((3, 5))
        A[0, :2] = 1.0
        A[1:, 2:] = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        sysm = VectorSystem(A)
        assert enumerate_bases(sysm).count == 2 * 3
        v = is_finite(sysm, Exponents([0.5, 0.5, 2 / 3, 2 / 3, 2 / 3]))
        assert v.verdict == "inside"
        assert v.slack == pytest.approx(1 / 3)
        # mass moved across the blocks breaks the separator x(E_1) = 1
        v = is_finite(sysm, Exponents([0.6, 0.5, 0.6, 0.6, 0.7]))
        assert v.verdict == "outside"
        assert v.witness == (0, 1)
        assert v.slack == pytest.approx(-0.1)
        # a facet of one block is a facet of K
        v = is_finite(sysm, Exponents([0.5, 0.5, 1.0, 0.5, 0.5]))
        assert v.verdict == "boundary"
        assert v.witness == (2,)

    def test_coloop_is_pinned(self):
        # column 2 is in every basis, so x_2 = 1 on all of K without making
        # the point a boundary point
        sysm = VectorSystem(np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]))
        v = is_finite(sysm, Exponents([0.3, 0.7, 1.0]))
        assert v.verdict == "inside"
        assert v.slack == pytest.approx(0.3)
        v = is_finite(sysm, Exponents([0.5, 0.6, 0.9]))
        assert v.verdict == "outside"
        assert v.witness == (0, 1)

    def test_repeated_columns(self):
        a = np.array([[0.6], [0.8]])
        sysm = VectorSystem(np.hstack([a, a, -a, [[1.0], [0.0]]]))
        assert enumerate_bases(sysm).count == 3
        v = is_finite(sysm, Exponents([0.3, 0.3, 0.4, 1.0]))
        assert v.verdict == "inside"
        v = is_finite(sysm, Exponents([0.4, 0.4, 0.3, 0.9]))
        assert v.verdict == "outside" and v.witness == (0, 1, 2)
        assert v.slack == pytest.approx(-0.1)


class TestLPOracle:
    @pytest.mark.parametrize("cls", ["interior", "near_boundary", "boundary", "outside"])
    def test_verdict_parity(self, cls):
        rng = np.random.default_rng(["interior", "near_boundary", "boundary",
                                     "outside"].index(cls) + 101)
        expected = {"interior": "inside", "near_boundary": "inside"}.get(cls, cls)
        for k in (1, 2, 3, 4):
            for n in range(k + 1, 11):
                if cls == "boundary" and k == 1:
                    continue  # K's k = 1 faces have a zero exponent
                sysm, x = polytope_data(rng, cls, k, n)
                v = is_finite(sysm, Exponents(x))
                assert v.verdict == lp_verdict(sysm, x) == expected, (k, n, x)
                if v.witness is not None:
                    assert v.slack == pytest.approx(rank_slack(sysm, x, v.witness), abs=1e-12)

    @pytest.mark.parametrize("A", [
        [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
        [[1.0, 2.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]],
        [[1.0, -1.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0, 1.0]],
    ], ids=["blocks", "parallel", "coloop", "blocks3"])
    def test_structured_parity(self, A):
        rng = np.random.default_rng(17)
        sysm = VectorSystem(np.array(A))
        V = enumerate_bases(sysm).vectors
        for _ in range(60):
            face = V
            if rng.uniform() < 0.3:
                # the face x(S) = r(S): the bases that span S
                S = rng.uniform(size=sysm.n) < 0.5
                face = V[V @ S == numerical_rank(sysm.A[:, S])] if S.any() else V
            x = rng.dirichlet(np.full(len(face), 0.5)) @ face
            if rng.uniform() < 0.4:
                i, j = rng.choice(sysm.n, size=2, replace=False)
                step = rng.uniform(0.0, max(0.0, min(x[j], 1.0 - x[i])))
                x[i] += step
                x[j] -= step
            x = np.minimum(x, 1.0)
            if x.min() <= 1e-6:
                continue  # off the exponents' domain (0, 1]
            assert is_finite(sysm, Exponents(x)).verdict == lp_verdict(sysm, x), x


class TestProperties:
    def test_certificate_coordinate_sum_is_k(self, tri_system):
        # every hull point has coordinate sum k, so none is outside, and the
        # witness attains the least slack over all non-separators
        rng = np.random.default_rng(3)
        bases = enumerate_bases(tri_system)
        for _ in range(100):
            lam = rng.dirichlet(np.ones(bases.count))
            point = bases.vectors.T @ lam
            point = np.clip(point, 1e-9, 1.0)
            v = is_finite(tri_system, Exponents(point))
            assert v.verdict in ("inside", "boundary")
            assert abs(point.sum() - 2.0) <= DEGREE_TOL
            assert v.slack == pytest.approx(brute_force_slack(tri_system, point), abs=1e-12)

    def test_vertices_never_outside(self, tri_system):
        bases = enumerate_bases(tri_system)
        for row in bases.vectors:
            e = Exponents(np.clip(row, 1e-12, 1.0))
            assert is_finite(tri_system, e).verdict in ("inside", "boundary")

    def test_permutation_invariance(self, tri_system):
        rng = np.random.default_rng(5)
        for _ in range(100):
            e = rng.uniform(0.05, 1.0, size=3)
            perm = rng.permutation(3)
            v1 = is_finite(tri_system, Exponents(e))
            sys_p = VectorSystem(tri_system.A[:, perm])
            v2 = is_finite(sys_p, Exponents(e[perm]))
            assert v1.verdict == v2.verdict


def table_verdict(sysm, x, boundary_tol=BOUNDARY_TOL):
    """is_finite's rule applied to the whole rank table of enumerate_bases.

    Returns (verdict, witness, slack, components, room), where room[i] is
    r(S) - x(S) for the subset S of bit mask i + 1, or None off degree.
    """
    bases = enumerate_bases(sysm)
    separators = bases.ranks + bases.ranks[::-1] == sysm.k
    sep = bases.masks[separators]
    components = (sep.T @ (1.0 - sep) == 0.0).argmax(axis=1)
    off_degree = float(x.sum()) - sysm.k
    if abs(off_degree) > DEGREE_TOL:
        return "outside", tuple(range(sysm.n)), -abs(off_degree), components, None
    room = bases.ranks - bases.masks @ x
    if room.size and room.min() < -DEGREE_TOL:
        worst = int(room.argmin())
        return ("outside", tuple(np.flatnonzero(bases.masks[worst]).tolist()),
                float(room[worst]), components, room)
    candidates = np.flatnonzero(~separators)
    if not candidates.size:
        return "inside", None, math.inf, components, room
    tight = candidates[room[candidates].argmin()]
    slack = float(room[tight])
    return ("inside" if slack > boundary_tol else "boundary",
            tuple(np.flatnonzero(bases.masks[tight]).tolist()), slack, components, room)


def assert_matches_table(sysm, x):
    """is_finite gives the rank table's verdict, components and basis count,
    its slack to 8 ulp of k, and a witness that attains the table's least room.

    The table breaks an exact tie by the rounding of its sums, which follows
    the BLAS kernel, so where rooms agree to 8 ulp of k the witness may be any
    of those subsets; among those of its own size it has the least bit mask.
    """
    v = is_finite(sysm, Exponents(x))
    verdict, witness, slack, components, room = table_verdict(sysm, x)
    assert (v.verdict, v.basis_count) == (verdict, enumerate_bases(sysm).count)
    assert np.array_equal(v.components, components)
    ulps = 8 * np.spacing(float(sysm.k))
    assert v.slack == slack or abs(v.slack - slack) <= ulps
    if room is None or witness is None:
        assert v.witness == witness
        return
    near = np.flatnonzero(room <= room.min() + ulps) + 1
    mask = sum(1 << j for j in v.witness)
    assert mask in near
    assert mask == min(m for m in near if bin(m).count("1") == len(v.witness))


def general_position_datum(rng, cls):
    """(system, x): every k-subset of columns a basis, k <= 5, n <= 12, column
    scales over 16 decades, and x of one class.  At k = 1 the faces of K have
    a zero exponent, so boundary data take k >= 2.  Free data take n = k,
    k = n = 1 among them, where K is the single point x = 1."""
    while True:
        k = int(rng.integers(2 if cls == "boundary" else 1, 6))
        n = k if cls == "free" else int(rng.integers(k + 1, 13))
        sysm = VectorSystem(rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-8, 8, size=n))
        V = enumerate_bases(sysm).vectors
        if len(V) == math.comb(n, k):
            break
    if cls == "free":
        # x = 1 less up to 1e-6 on some columns: both sides of DEGREE_TOL
        return sysm, 1.0 - rng.integers(0, 2, size=n) * 10.0 ** rng.uniform(-10, -6, size=n)
    inner = rng.dirichlet(np.ones(len(V))) @ V
    if cls == "inside":
        return sysm, inner
    if cls == "near_boundary":
        eps = 10.0 ** rng.uniform(-9, -2)
        return sysm, (1.0 - eps) * V[rng.integers(len(V))] + eps * inner
    if cls == "boundary":
        j = int(rng.integers(n))
        x = rng.dirichlet(np.ones(int(V[:, j].sum()))) @ V[V[:, j] == 1.0]
        x[j] = 1.0
        return sysm, x
    if cls == "off_degree":
        # both sides of DEGREE_TOL
        return sysm, np.minimum(inner * (1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9, -6)),
                                1.0)
    if cls == "all_equal":
        return sysm, np.full(n, k / n)
    # repeated: two or three values, each on several columns
    while True:
        x = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 4)))[rng.integers(0, 2, size=n)]
        x *= k / x.sum()
        if x.max() <= 1.0:
            return sysm, x


CLASSES = ("inside", "near_boundary", "boundary", "off_degree", "all_equal", "repeated", "free")


class TestUniformClosedForm:
    """Data with every k-subset a basis are decided on the 2n singletons and their
    complements (none at n = 1); the table is the oracle."""

    @pytest.mark.parametrize("cls", CLASSES)
    def test_random_data(self, cls):
        rng = np.random.default_rng(CLASSES.index(cls) + 280)
        for _ in range(250):
            assert_matches_table(*general_position_datum(rng, cls))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("workload", ["certify_sweep", "verify_battery", "flow_scan"])
    def test_benchmark_files(self, monkeypatch, workload, seed):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import bench_data

        for case in bench_data.generate(workload, seed):
            problem = parse_problem(case.text)
            if problem.exponents is not None:
                assert_matches_table(problem.system, problem.exponents.inv_p)

    def test_exact_ties_go_to_the_least_mask(self):
        # at 1/p = 1/2 on k = 2, n = 4 every {j} and every E \\ {j} has room
        # 1/2 exactly, and {0} has the least bit mask
        sysm = VectorSystem(np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, -1.0]]))
        v = is_finite(sysm, Exponents(np.full(4, 0.5)))
        assert (v.verdict, v.witness, v.slack) == ("inside", (0,), 0.5)
        # at 2/5 on n = 5 the E \\ {j} alone have the least room, 2/5, and
        # E \\ {4} has the least mask of them
        sysm = VectorSystem(np.array([[1.0, 0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, -1.0, 1.0]]))
        v = is_finite(sysm, Exponents(np.full(5, 0.4)))
        assert (v.verdict, v.witness) == ("inside", (0, 1, 2, 3))
        assert v.slack == pytest.approx(0.4, abs=1e-15)
