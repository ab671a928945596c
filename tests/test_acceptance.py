"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
criterion lines as they print).
"""

import math
import time

import numpy as np
import pytest

from blflow import (BellmanSpec, Box, Exponents, VectorSystem, certificate_defect,
                    check_L3, enumerate_bases, gaussian_extremizer, is_finite, make_cert,
                    monotonicity_scan, numerical_rank, projection_check, verify)
from blflow.certificate import _factor
from blflow.errors import EvaluationError
from blflow.verifier import euler_defect_at
from oracles import (bellman_identity_probe, gaussian_objective, hadamard_form,
                     quadrature_objective, solve_datum)


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {num} ({name}): {status} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num} ({name}) failed"
    assert in_time, f"criterion {num} ({name}) exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_holder_constant():
    t0 = time.perf_counter()
    sysm = VectorSystem(np.array([[1.0, 1.0]]))
    res = solve_datum(sysm, Exponents([0.5, 0.5]))
    ok = abs(res.D - 1.0) <= 1e-9 and res.converged
    _report(1, "two-function mean constant D = 1", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    while checked < 20:
        k = int(rng.integers(1, 3))
        n = int(rng.integers(k + 1, 5))
        A = rng.normal(size=(k, n))
        if np.min(np.linalg.svd(A, compute_uv=False)) < 0.3:
            continue
        w = rng.uniform(0.3, 1.0, size=n)
        inv_p = w * (k / w.sum())
        if np.any(inv_p >= 1.0):
            continue
        sysm, e = VectorSystem(A), Exponents(inv_p)
        z = rng.normal(scale=0.5, size=n)
        closed = gaussian_objective(sysm, e, z)
        quad = quadrature_objective(sysm, e, z)
        ok &= abs(closed - quad) <= 1e-6 * abs(quad)
        checked += 1
    _report(2, "closed form vs tensor quadrature, 20 instances", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_3_young_certificate_chain():
    t0 = time.perf_counter()
    sysm = VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))
    e = Exponents([2 / 3, 2 / 3, 2 / 3])
    B = BellmanSpec.young([2 / 3, 2 / 3, 2 / 3])
    result = solve_datum(sysm, e)
    cert = result.factor.cert()
    proj = projection_check(sysm, cert, result.s_sq)
    eig_on_01 = np.all(np.minimum(np.abs(proj.eigenvalues),
                                  np.abs(proj.eigenvalues - 1.0)) <= 1e-8)
    rep = verify(sysm, cert, B)
    ok = (result.converged and result.residual <= 1e-10
          and certificate_defect(sysm, e, cert) <= 1e-9
          and bool(eig_on_01) and proj.rank == 2
          and rep.l3_ok and rep.pde_ok and rep.pde_defect <= 1e-8
          and rep.rank_ok and rep.rank <= 1)
    _report(3, "convolution-triple certificate chain", ok,
            time.perf_counter() - t0, 10.0)


def test_criterion_4_kn_structure():
    t0 = time.perf_counter()
    sysm = VectorSystem(np.eye(2))
    B = BellmanSpec.product(1.0, 2)
    cert = make_cert(sysm, np.eye(2))
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(50):
        y = np.exp(rng.uniform(-2, 2, size=2))
        H = hadamard_form(sysm, cert, B, y)
        ok &= bool(np.all(H == 0.0))
        ok &= np.linalg.matrix_rank(H) == 0
    rep = verify(sysm, cert, B)
    ok &= rep.pde_ok and rep.pde_defect == 0.0
    bad = make_cert(sysm, np.array([[1.0, 1.0], [1.0, 1.0]]) + 1e-9 * np.eye(2))
    ok &= not check_L3(sysm, bad, B)[0]
    _report(4, "k = n product structure + negative control", ok,
            time.perf_counter() - t0, 1.0)


def test_criterion_5_section_triple():
    t0 = time.perf_counter()
    A = np.array([[0.0, 0.0, 1.0 / math.sqrt(2.0)], [1.0, 1.0, 0.0]])
    sysm = VectorSystem(A)
    B = BellmanSpec.lifted("sqrt_uv", alpha=[1.0], section_vars=(0, 1))
    cert = make_cert(sysm, np.diag([2.0, 1.0]))
    rep = verify(sysm, cert, B, pde_tol=1e-10)
    ok = rep.l3_ok and rep.pde_ok and rep.pde_defect <= 1e-10 and rep.rank_ok and rep.rank == 1
    _report(5, "lifted-section triple (non-product certificate)", ok,
            time.perf_counter() - t0, 5.0)


def test_criterion_6_heat_flow_monotonicity():
    t0 = time.perf_counter()
    sysm = VectorSystem(np.array([[1.0, 1.0]]))
    B = BellmanSpec.young([0.5, 0.5])
    cert = make_cert(sysm, np.array([[1.0]]))
    profiles = (Box(0.0, 1.0, 1.0), Box(0.0, 2.0, 1.0))
    trace, verdict = monotonicity_scan(sysm, cert, B, profiles)
    late = trace.values[-1]
    ok = (verdict.monotone
          and abs(trace.values[0] - 1.0) <= 1e-8
          and math.sqrt(2.0) - 1e-3 <= late <= math.sqrt(2.0) + 1e-8
          and bool(np.all(np.diff(trace.values) >= -verdict.mono_tol)))
    _report(6, "box/box heat-flow trace monotone to sqrt(2)", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_7_equality_cases():
    t0 = time.perf_counter()
    quad_tol = 1e-8
    # (a) proportional profiles, identical arguments: constant trace
    sysm1 = VectorSystem(np.array([[1.0, 1.0]]))
    B1 = BellmanSpec.young([0.5, 0.5])
    cert1 = make_cert(sysm1, np.array([[1.0]]))
    profiles1 = (Box(0.0, 1.0, 2.0), Box(0.0, 1.0, 3.0))
    trace1, _ = monotonicity_scan(sysm1, cert1, B1, profiles1, quad_tol=quad_tol)
    band1 = 5.0 * quad_tol * max(1.0, float(np.max(np.abs(trace1.values))))
    ok = float(np.ptp(trace1.values)) <= band1

    # (b) Gaussian extremizer family under the solved certificate
    sysm2 = VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))
    e2 = Exponents([2 / 3, 2 / 3, 2 / 3])
    B2 = BellmanSpec.young([2 / 3, 2 / 3, 2 / 3])
    cert2 = solve_datum(sysm2, e2).factor.cert()
    profiles2 = tuple(gaussian_extremizer(m, s)
                      for m, s in zip((1.0, 2.0, 1.5), cert2.sigma))
    trace2, verdict2 = monotonicity_scan(sysm2, cert2, B2, profiles2,
                                         quad_tol=quad_tol)
    band2 = 5.0 * quad_tol * max(1.0, float(np.max(np.abs(trace2.values))))
    ok &= float(np.ptp(trace2.values)) <= band2
    ok &= abs(trace2.values[-1] - verdict2.limit_value) <= band2
    _report(7, "equality cases give constant traces", ok,
            time.perf_counter() - t0, 60.0)


def test_criterion_8_identity_probe():
    t0 = time.perf_counter()
    from blflow import GaussianProfile

    families = []
    # product family, k = n = 2
    sysm = VectorSystem(np.eye(2))
    families.append((sysm, make_cert(sysm, np.eye(2)), BellmanSpec.product(1.0, 2),
                     (GaussianProfile(1.0, 0.2, 1.0), GaussianProfile(0.8, -0.3, 2.0))))
    # geometric-mean family, k = 1
    sysm = VectorSystem(np.array([[1.0, 1.0]]))
    families.append((sysm, make_cert(sysm, np.array([[1.0]])),
                     BellmanSpec.young([0.5, 0.5]),
                     (Box(0.0, 1.0, 1.0), Box(0.0, 2.0, 1.0))))
    # lifted-section family, k = 2
    A = np.array([[0.0, 0.0, 1.0 / math.sqrt(2.0)], [1.0, 1.0, 0.0]])
    sysm = VectorSystem(A)
    families.append((sysm, make_cert(sysm, np.diag([2.0, 1.0])),
                     BellmanSpec.lifted("sqrt_uv", alpha=[1.0], section_vars=(0, 1)),
                     (Box(0.0, 1.0, 1.0), GaussianProfile(1.0, 0.0, 1.0),
                      Box(-1.0, 1.0, 0.5))))
    rng = np.random.default_rng(8)
    ok = True
    for i in range(50):
        sysm, cert, B, profiles = families[i % 3]
        t = float(rng.uniform(0.5, 3.0))
        x = rng.uniform(-1.0, 1.0, size=sysm.k)
        defect, lhs, rhs = bellman_identity_probe(sysm, cert, B, profiles, t, x)
        ok &= defect <= 1e-4 * (1.0 + max(abs(lhs), abs(rhs)))
    _report(8, "pointwise evolution identity at 50 random (x, t)", ok,
            time.perf_counter() - t0, 60.0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    ok = True

    # 1) Euler homogeneity, 100 random Young functions and points
    for _ in range(100):
        n = int(rng.integers(2, 6))
        B = BellmanSpec.young(rng.uniform(0.05, 0.95, size=n))
        passed, _ = euler_defect_at(B, np.exp(rng.uniform(-2, 2, size=n)))
        ok &= passed

    # 2) gradient/Hessian finite-difference consistency
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(2, 5))
        B = BellmanSpec.young(rng.uniform(0.1, 0.9, size=n))
        y = rng.uniform(0.5, 2.0, size=n)
        g, H = B.gradient(y), B.hessian(y)
        j = int(rng.integers(n))
        ej = np.zeros(n)
        ej[j] = h
        fd_g = (B.evaluate(y + ej) - B.evaluate(y - ej)) / (2 * h)
        fd_H = (B.gradient(y + ej) - B.gradient(y - ej)) / (2 * h)
        ok &= abs(g[j] - fd_g) <= 1e-6 * (1.0 + abs(fd_g))
        ok &= bool(np.allclose(H[:, j], fd_H, rtol=1e-6, atol=1e-8))

    # 3) gauge invariance of the Gaussian objective
    for _ in range(100):
        k = int(rng.integers(1, 3))
        n = k + int(rng.integers(1, 3))
        A = rng.normal(size=(k, n))
        if np.min(np.linalg.svd(A, compute_uv=False)) < 0.2:
            continue
        w = rng.uniform(0.3, 1.0, size=n)
        inv_p = w * (k / w.sum())
        if np.any(inv_p >= 1.0):
            continue
        sysm, e = VectorSystem(A), Exponents(inv_p)
        z = rng.normal(size=n)
        try:
            v1 = gaussian_objective(sysm, e, z)
            v2 = gaussian_objective(sysm, e, z + rng.uniform(-2, 2))
        except EvaluationError:
            continue
        ok &= abs(v2 - v1) <= 1e-12 * abs(v1)

    # 4) gauge covariance (lambda C, s^2 / lambda)
    sysm = VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))
    e = Exponents([2 / 3, 2 / 3, 2 / 3])
    base = solve_datum(sysm, e)
    C0 = base.factor.cert().C
    for _ in range(100):
        lam = float(np.exp(rng.uniform(-2, 2)))
        cert = _factor(sysm.A, base.s_sq / lam).cert()
        ok &= bool(np.allclose(cert.C, lam * C0, rtol=1e-10))
        # max_j |1/p_j - s_j^2 sigma_j| p_j, scale-free in s^2
        ok &= float(np.max(np.abs(e.inv_p - base.s_sq / lam * cert.sigma) / e.inv_p)) <= 1e-9

    # 5) polytope coordinate-sum invariant: hull points sum to k, so none is
    #    outside, and the witness's rank slack r(S) - x(S) is the reported one
    bases = enumerate_bases(sysm)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(bases.count))
        point = np.clip(bases.vectors.T @ lam, 1e-9, 1.0)
        v = is_finite(sysm, Exponents(point))
        ok &= v.verdict in ("inside", "boundary") and v.witness is not None
        S = list(v.witness)
        ok &= abs(numerical_rank(sysm.A[:, S]) - float(point[S].sum()) - v.slack) <= 1e-12

    # 6) permutation invariance of the finiteness verdict
    for _ in range(100):
        e_vec = rng.uniform(0.05, 1.0, size=3)
        perm = rng.permutation(3)
        v1 = is_finite(sysm, Exponents(e_vec))
        v2 = is_finite(VectorSystem(sysm.A[:, perm]), Exponents(e_vec[perm]))
        ok &= v1.verdict == v2.verdict

    _report(9, "six randomized property suites, 100 trials each", ok,
            time.perf_counter() - t0, 120.0)
