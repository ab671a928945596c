"""The sharp constant as a supremum over centered Gaussian trial functions.

For trial functions g_j(x) = b_j^{1/2} exp(-pi x^2 b_j) the functional

    int prod_j g_j(<a_j, x>)^{1/p_j} dx

has the closed form  prod_j b_j^{1/(2 p_j)} * det(Q(b))^{-1/2}  with
Q(b) = sum_j (b_j / p_j) a_j a_j^T.  At b = p s^2, Q(b) = M(s) and the
stationarity condition of the functional is the s-system of
blflow.certificate, so the supremum comes from that module's Newton solve.
The closed form is an implementation derivation, so it is validated against
direct quadrature of the integrand (k <= 2) before it is relied on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import certificate, quadrature
from .errors import EvaluationError
from .model import Exponents, VectorSystem


def _quadratic_form(sys: VectorSystem, e: Exponents, b: np.ndarray) -> np.ndarray:
    return (sys.A * (b * e.inv_p)) @ sys.A.T


def gaussian_objective(sys: VectorSystem, e: Exponents, log_b) -> tuple[float, np.ndarray]:
    """Value of the Gaussian functional and its gradient w.r.t. log b.

    Raises EvaluationError when Q(b) is not positive definite (this happens
    when b degenerates toward directions outside the finiteness polytope).
    """
    log_b = np.asarray(log_b, dtype=float).ravel()
    b = np.exp(log_b)
    Q = _quadratic_form(sys, e, b)
    try:
        Lc = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError("Q(b) is singular or indefinite") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(Lc))))
    logval = 0.5 * float(e.inv_p @ log_b) - 0.5 * logdet
    value = math.exp(logval)
    # d(logdet)/db_j = <Q^{-1} a_j, a_j> / p_j = |Lc^{-1} a_j|^2 / p_j
    quad = np.sum(np.linalg.solve(Lc, sys.A) ** 2, axis=0)
    grad_log = 0.5 * e.inv_p - 0.5 * b * e.inv_p * quad
    return value, value * grad_log


def quadrature_objective(sys: VectorSystem, e: Exponents, log_b,
                         rel_tol: float = 1e-9) -> float:
    """Direct quadrature of the Gaussian integrand over R^k (k <= 3)."""
    log_b = np.asarray(log_b, dtype=float).ravel()
    b = np.exp(log_b)
    Q = _quadratic_form(sys, e, b)
    if np.linalg.eigvalsh(Q)[0] <= 0.0:
        raise EvaluationError("Q(b) is singular or indefinite")
    pref = float(np.prod(b ** (0.5 * e.inv_p)))

    def integrand(X):
        proj = X @ sys.A  # (m, n) values of <a_j, x>
        return np.exp(-math.pi * (proj**2 @ (b * e.inv_p)))

    return pref * quadrature.decay_quad(integrand, math.pi * Q, rel_tol=rel_tol).value


@functools.lru_cache(maxsize=1)
def _closed_form_selftest() -> bool:
    """One-time check of the closed form against quadrature; raises on failure."""
    cases = [
        (VectorSystem(np.array([[1.0, 1.0]])), Exponents([0.5, 0.5]), [0.0, 0.0]),
        (VectorSystem(np.array([[1.0, 1.0]])), Exponents([0.5, 0.5]), [0.0, math.log(4.0)]),
        (VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])),
         Exponents([2 / 3, 2 / 3, 2 / 3]), [0.3, -0.1, 0.25]),
    ]
    for sysm, e, log_b in cases:
        closed, _ = gaussian_objective(sysm, e, log_b)
        quad = quadrature_objective(sysm, e, log_b)
        if abs(closed - quad) > 1e-7 * abs(quad):
            raise EvaluationError(
                f"closed-form objective self-test failed: {closed!r} vs quadrature {quad!r}")
    return True


@dataclass(frozen=True)
class MaximizeResult:
    value: float
    log_b: np.ndarray
    iterations: int
    residual: float
    converged: bool
    notes: tuple[str, ...] = ()

    @property
    def b(self) -> np.ndarray:
        return np.exp(self.log_b)


def maximize_D(sys: VectorSystem, e: Exponents,
               res_tol: float = certificate.RES_TOL) -> MaximizeResult:
    """Supremum of the Gaussian functional.

    The maximizer is b = p s^2 with s^2 from certificate.solve_s_system: in
    log coordinates the logarithm of the functional is concave, so the one
    stationary point that solver finds is the maximum.  ``converged`` is the
    solver's, to ``res_tol``; off the interior of the finiteness polytope the
    supremum is not attained, and the value is that at the solver's last
    iterate.
    """
    _closed_form_selftest()
    result = certificate.solve_s_system(sys, e, res_tol=res_tol)
    log_b = np.log(e.p * result.s_sq)
    value, _ = gaussian_objective(sys, e, log_b)
    return MaximizeResult(value=value, log_b=log_b, iterations=result.iterations,
                          residual=result.residual, converged=result.converged,
                          notes=result.notes)
