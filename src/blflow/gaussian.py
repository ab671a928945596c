"""The sharp constant as a supremum over centered Gaussian trial functions.

Gaussians attain the sharp bound (Lieb, Invent. Math. 102, 1990).  For trial
functions g_j(x) = b_j^{1/2} exp(-pi x^2 b_j) the functional

    int prod_j g_j(<a_j, x>)^{1/p_j} dx

has the closed form  prod_j b_j^{1/(2 p_j)} * det(Q(b))^{-1/2}  with
Q(b) = sum_j (b_j / p_j) a_j a_j^T.  At b = p s^2, Q(b) = M(s) and the
stationarity condition of the functional is the s-system, so the supremum
D is not searched for here: blflow.certificate.solve_s_system returns it
with its maximizer, from the one Newton solve that also gives C.  This
module keeps the functional itself, as an oracle for that solve.
:func:`gaussian_integral` is every other closed form of the package (the
objective here, blflow.heatflow, the verifier's L5); it is validated against
direct quadrature of the integrand (k <= 2), once per process, before
blflow.heatflow relies on it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EvaluationError
from .model import RANK_TOL, Exponents, VectorSystem


def gaussian_integral(A, w, amp, center, variance, coeff: float = 1.0):
    """Integral over R^k of coeff prod_j (amp_j exp(-(<a_j, x> - c_j)^2 / v_j))^{w_j}.

    The integrand is coeff prod amp_j^{w_j} exp(-x^T Q x + 2 b^T x - c0), where
    Q = A diag(w/v) A^T, b = A (w c / v) and c0 = sum_j w_j c_j^2 / v_j, so
    the integral is coeff prod amp_j^{w_j} pi^{k/2} det(Q)^{-1/2}
    exp(b^T Q^{-1} b - c0).  Q = M M^T and b = M g for M = A diag(sqrt(w/v))
    and g = sqrt(w/v) c, so one SVD M = U S V^T gives det(Q)^{1/2} = prod S
    and b^T Q^{-1} b - c0 = -|g - V V^T g|^2, g's squared distance from the
    row space of M.  The SVD keeps the digits of det(Q) that a Cholesky of
    the formed Q loses when Q is ill-conditioned.  rank M = k is decided to
    round-off on M's unit columns, as VectorSystem decides rank A = k, so
    that rescaling a column cannot change it: where it fails the integral is
    math.inf.  The unit columns N = M diag(1 / |m_j|) have
    S_min(N) >= S_min / S_max and S_max(N) <= sqrt(n), so
    S_min > RANK_TOL sqrt(n) S_max already passes the test on N, and only
    the rest take N's SVD.  There a column m_j whose |m_j|^2 underflows
    counts as 0, since its term m_j m_j^T in Q is below every double.

    ``amp``, ``center`` and ``variance`` broadcast against ``w`` along the
    last axis; one leading axis (one row per time, say) gives one integral
    per row from one stacked SVD, and 1-D input gives a float.
    """
    root = np.sqrt(w / variance)
    M = A * root[..., None, :]
    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    g = root * center
    miss = g - (Vt.swapaxes(-1, -2) @ (Vt @ g[..., None]))[..., 0]
    value = (coeff * (amp**w).prod(axis=-1) * math.pi ** (A.shape[0] / 2.0)
             * np.exp(-(miss * miss).sum(axis=-1)))
    full = s.T[-1] > RANK_TOL * math.sqrt(A.shape[1]) * s.T[0]  # one per row
    if not full.all():
        norms = np.sqrt((M * M).sum(axis=-2, keepdims=True))
        unit = np.linalg.svd(M / np.where(norms > 0.0, norms, 1.0), compute_uv=False)
        full = unit.T[-1] > RANK_TOL * unit.T[0]
        value = np.where(full, value, math.inf)
        s = np.where(full[..., None], s, 1.0)
    value = value / s.prod(axis=-1)
    return float(value) if value.ndim == 0 else value


def gaussian_objective(sys: VectorSystem, e: Exponents, log_b) -> float:
    """Value of the Gaussian functional at b = exp(log_b).

    It is :func:`gaussian_integral` on the columns b_j^{1/2} a_j,
    prod_j b_j^{1/(2 p_j)} / prod S for the singular values S of
    A diag(sqrt(b/p)).  Raises EvaluationError when Q(b) is singular to
    round-off (this happens when b degenerates toward directions outside
    the finiteness polytope).
    """
    root_b = np.exp(0.5 * np.asarray(log_b, dtype=float).ravel())
    value = gaussian_integral(sys.A * root_b, e.inv_p, root_b, 0.0, 1.0 / math.pi)
    if value == math.inf:
        raise EvaluationError("Q(b) is singular or indefinite")
    return value


def quadrature_objective(sys: VectorSystem, e: Exponents, log_b,
                         rel_tol: float = 1e-9) -> float:
    """Direct quadrature of the Gaussian integrand over R^k (k <= 3).

    blflow.quadrature is imported here, so that verify, which needs only
    the closed form, starts without it.
    """
    from . import quadrature

    b = np.exp(np.asarray(log_b, dtype=float).ravel())
    Q = (sys.A * (b * e.inv_p)) @ sys.A.T
    if np.linalg.eigvalsh(Q)[0] <= 0.0:
        raise EvaluationError("Q(b) is singular or indefinite")
    pref = float(np.prod(b ** (0.5 * e.inv_p)))

    def integrand(X):
        proj = X @ sys.A  # (m, n) values of <a_j, x>
        return np.exp(-math.pi * (proj**2 @ (b * e.inv_p)))

    return pref * quadrature.decay_quad(integrand, math.pi * Q, rel_tol=rel_tol).value


@functools.lru_cache(maxsize=1)
def _closed_form_selftest() -> bool:
    """One-time check of the closed forms against quadrature; raises on failure.

    Checks gaussian_objective, and gaussian_integral itself at the centres
    <b_j^{1/2} a_j, x0>, a translate of the same integrand by x0.
    """
    holder = (VectorSystem(np.array([[1.0, 1.0]])), Exponents([0.5, 0.5]))
    young3 = (VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])), Exponents([2 / 3] * 3))
    for sysm, e, log_b in [(*holder, [0.0, 0.0]), (*holder, [0.0, math.log(4.0)]),
                           (*young3, [0.3, -0.1, 0.25])]:
        quad = quadrature_objective(sysm, e, log_b)
        root_b = np.exp(0.5 * np.asarray(log_b))
        Ab = sysm.A * root_b
        shifted = gaussian_integral(Ab, e.inv_p, root_b, 0.7 * Ab.sum(axis=0), 1.0 / math.pi)
        for closed in (gaussian_objective(sysm, e, log_b), shifted):
            if not abs(closed - quad) <= 1e-7 * abs(quad):
                raise EvaluationError(
                    f"closed-form self-test failed: {closed!r} vs quadrature {quad!r}")
    return True

