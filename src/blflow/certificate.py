"""Solve for the certifying matrix C and the sharp constant D, and check C.

The auxiliary weights s_j^2 satisfy the nonlinear system

    1/p_j = s_j^2 <M(s)^{-1} a_j, a_j>,   M(s) = A diag(s^2) A^T,

solved by one Newton iteration on the concave log of the Gaussian
functional (see solve_s_system), a log-sum-exp over the basis table of
polytope.is_finite's verdict.  Its Hessian is singular along a null space
that the table already names: the span of (1, ..., 1) and the indicators of
the matroid's separators, the column sets S with r(S) + r(E \\ S) = k.  Each
step is one positive-definite solve with the Hessian plus the projector onto
that span (_null_projector).  The iteration starts at the fixed-point image
of C = I, s_j^2 = (1/p_j) / |a_j|^2, which solves k = 1 data outright and
makes the iterates equivariant under column scaling.  That one solve gives
both answers: D, the functional's value at its maximizer b = p s^2
(blflow.gaussian), and the certificate C = M(s)^{-1} with its Gram matrix
G = A^T C A, read off one QR factor of A S, S = diag(s_j) (build_C).
s^2, the solve's residual and its notes stay with the solve
(SSystemResult).  The certificate's quality is read off the spectrum of T
(model.gram_spectrum): ||T - I||_F at d = 1/(p_j sigma_j)
(certificate_defect), and at d = s^2 the projector P = (A S)^T C (A S),
which must be an orthogonal projection of rank k (projection_check).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CertificateRejection, IterationError
from .model import Exponents, GaussCert, VectorSystem, gram_spectrum
from .polytope import DEGREE_TOL, BasisIndicatorSet

MAX_ITER = 100
RES_TOL = 1e-10
_DIVERGENCE_SPREAD = 60.0  # |log s^2 - log s0^2| beyond this moves s^2 ratios by > e^120
_MAX_STEP = 8.0  # cap on max|dz| per step, so that exp(z) cannot overflow
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30
# a predicted increase t * slope below this times max(1, |f|) is lost in f's round-off
_ROUNDOFF = 1e-12
# a larger part of the gradient outside the Hessian's range is not round-off
_RANGE_TOL = 1e-8
# projection_check's bounds on ||P^2 - P||_F and on each eigenvalue's distance to 0 or 1
IDEM_TOL = 1e-9
EIG_TOL = 1e-8


class SSystemResult(NamedTuple):
    s_sq: np.ndarray
    residual: float
    iterations: int
    converged: bool
    f: float  # the log-objective f at z = log s_sq
    D: float  # the Gaussian functional at b = p s_sq, exp(f - sum(x log x) / 2)
    notes: tuple[str, ...] = ()


def _newton_terms(bases: BasisIndicatorSet, x: np.ndarray, z: np.ndarray):
    """f(z), the residual x - tau and the Hessian factor K at s^2 = exp(z).

    By Cauchy-Binet det M(e^z) = sum_B c_B e^{<1_B, z>} over the bases B,
    with c_B = det(A_B)^2, so f(z) = (<x, z> - log det M(e^z)) / 2 is a
    log-sum-exp over the basis table.  Under mu_B = c_B e^{<1_B, z>} / det M
    the marginals are tau = mu V, and K = V^T diag(mu) V - tau tau^T, the
    covariance of 1_B, is -2 times the Hessian of f.
    """
    V = bases.vectors
    logw = bases.log_c + V @ z
    top = float(logw.max())
    mu = np.exp(logw - top)
    total = float(mu.sum())
    mu /= total
    tau = mu @ V
    f = 0.5 * (float(x @ z) - top - math.log(total))
    return f, x - tau, (V.T * mu) @ V - np.outer(tau, tau)


def _null_projector(bases: BasisIndicatorSet, k: int) -> np.ndarray:
    """Orthogonal projector onto the null space of K, the same at every z.

    A separator S, r(S) + r(E \\ S) = k, meets every basis B in r(S)
    columns, so K 1_S = 0; with 1, the separators' indicators span null(K),
    which is spanned by the indicators of the connected components of the
    column matroid.  Columns i and j share a component iff no separator holds
    one and not the other, and P averages over components: 11^T / n for
    connected data.
    """
    sep = bases.masks[bases.ranks + bases.ranks[::-1] == k]
    apart = sep.T @ (1.0 - sep)
    same = (apart + apart.T) == 0.0
    return same / same.sum(axis=1, keepdims=True)


def solve_s_system(bases: BasisIndicatorSet, e: Exponents,
                   res_tol: float = RES_TOL) -> SSystemResult:
    """Newton iteration for the auxiliary weights.

    In z = log s^2 the system is the stationarity condition of the concave
    f(z) = (<1/p, z> - log det M(e^z)) / 2, evaluated on the basis table
    ``bases`` of A (polytope.is_finite's; n and k are read from it, see
    _newton_terms): the gradient is (1/p - tau) / 2 with
    tau_j = s_j^2 <M(s)^{-1} a_j, a_j>, and the Hessian is -K / 2.  The
    iteration starts at z = log(x_j / |a_j|^2), centred: one fixed-point
    step s_j^2 = x_j / <C a_j, a_j> from C = I, exact for k = 1.  K
    annihilates the gauge direction (1, ..., 1) and, on decomposable data,
    the indicator of every connected component.  That null space is the same
    at every z, P = _null_projector(bases, k) projects onto it, and the step
    d solves the positive-definite system (K + P) d = r - P r, whose solution
    is orthogonal to the null space, so sum(z) stays fixed.  Steps are capped
    and backtracked (Armijo on f; only in the round-off endgame, where f
    cannot show the predicted increase, a drop in the residual also accepts
    a step).  Off the interior of the finiteness polytope the supremum is
    not attained and the iterates run off to infinity; the solve stops
    unconverged when they move farther than _DIVERGENCE_SPREAD from the
    start in some coordinate (measured from the start, not from the gauge
    origin, so that rescaling a column does not change the verdict) or the
    gradient leaves the Hessian's range (K d misses r by more than
    _RANGE_TOL, or K + P is singular to working precision).  Off-degree
    exponents, |sum(1/p_j) - k| > polytope.DEGREE_TOL, stop it unconverged
    after the first evaluation.  Within that tolerance, exponents that miss
    the degree by more than res_tol are solved at x = (1/p) k / sum(1/p),
    and all others at x = 1/p.  s^2 is returned normalized to the scale-free
    tr M(s) = 1, with f there; the residual is max_j |x_j - tau_j|.
    D = exp(f - sum_j x_j log x_j / 2) is the Gaussian functional at
    b = p s^2 (no determinant of Q(b) is formed): the concave f's one
    stationary point is its maximum, so D is the sharp constant when the
    solve converges, and off the interior of the polytope the value at the
    last iterate.
    """
    k = int(bases.vectors[0].sum())
    x = e.inv_p
    degree = float(x.sum())
    off_degree = abs(degree - k) > DEGREE_TOL
    if res_tol < abs(degree - k) <= DEGREE_TOL:
        # sum(x - tau) = sum(x) - k at every z, so at x the residual could not
        # meet res_tol; x k / sum(x) has degree k up to round-off
        x = x * (k / degree)
        degree = float(x.sum())

    def result(z, f, residual, iterations, converged, note=None) -> SSystemResult:
        shift = float(np.logaddexp.reduce(z + 2.0 * np.log(bases.norms)))  # tr M(s) = 1
        f = f - 0.5 * shift * (degree - k)
        return SSystemResult(np.exp(z - shift), residual, iterations, converged, f,
                             math.exp(f - 0.5 * float(x @ np.log(x))),
                             () if note is None else (note,))

    # one fixed-point step from C = I, s_j^2 = x_j / |a_j|^2: exact for k = 1
    z = np.log(x / bases.norms**2)
    z -= z.mean()
    z0 = z
    f, r, K = _newton_terms(bases, x, z)
    residual = float(np.max(np.abs(r)))
    it = 1
    if off_degree:
        # sum(1/p - tau) = sum(1/p) - k at every z, so the residual cannot vanish
        return result(z, f, residual, it, False, f"sum(1/p_j) = {degree!r} differs from "
                      f"k = {k}: the s-system has no solution")
    P = _null_projector(bases, k)
    while residual > res_tol:
        if it == MAX_ITER:
            return result(z, f, residual, it, False, f"no convergence in {MAX_ITER} iterations")
        if float(np.max(np.abs(z - z0))) > _DIVERGENCE_SPREAD:
            return result(z, f, residual, it, False, "log s^2 moved more than "
                          f"{_DIVERGENCE_SPREAD:g} from its start: the supremum is not attained")
        try:
            d = np.linalg.solve(K + P, r - P @ r)
        except np.linalg.LinAlgError:
            d = None
        if d is None or float(np.max(np.abs(r - K @ d))) > _RANGE_TOL:
            # f is linear along K's null space, which is the same at every z
            return result(z, f, residual, it, False, "the gradient leaves the range "
                          "of the Hessian: the supremum is not attained")
        longest = float(np.max(np.abs(d)))
        if longest > _MAX_STEP:
            d *= _MAX_STEP / longest
        slope = 0.5 * float(r @ d)
        t = 1.0
        while t >= _MIN_STEP:
            f_new, r_new, K_new = _newton_terms(bases, x, z + t * d)
            if f_new >= f + _ARMIJO * t * slope:
                break
            # round-off in f hides the last steps; there a lower residual takes them
            if (t * slope <= _ROUNDOFF * max(1.0, abs(f))
                    and np.max(np.abs(r_new)) < residual):
                break
            t *= 0.5
        else:
            return result(z, f, residual, it, False, "line search stalled")
        z, f, r, K = z + t * d, f_new, r_new, K_new
        residual = float(np.max(np.abs(r)))
        it += 1
    return result(z, f, residual, it, True)


def build_C(sys: VectorSystem, s_sq) -> GaussCert:
    """Certificate C = (A diag(s^2) A^T)^{-1} and its G = A^T C A, from one QR factor.

    (A S)^T = Q R, S = diag(s_j), gives M(s) = R^T R, C = R^{-1} R^{-T} and
    G = S^{-1} Q Q^T S^{-1} without forming M(s), which would square the
    conditioning of A S on nearly parallel columns.
    """
    s_sq = np.asarray(s_sq, dtype=float).ravel()
    if not np.all((s_sq > 0.0) & (s_sq < np.inf)):
        raise CertificateRejection("s_j^2 must be positive and finite")
    s = np.sqrt(s_sq)
    Q, R = np.linalg.qr((sys.A * s).T)
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError as exc:
        raise IterationError("M(s) is numerically singular") from exc
    W = Q / s[:, None]
    return GaussCert(C=R_inv @ R_inv.T, G=W @ W.T)


def certificate_defect(sys: VectorSystem, e: Exponents, cert: GaussCert) -> float:
    """||T - I||_F at d = 1/(p_j sigma_j): zero exactly when A diag(1/(p_j sigma_j)) A^T C = I."""
    return float(np.linalg.norm(gram_spectrum(cert.G, e.inv_p / cert.sigma, sys.k) - 1.0))


class ProjectionReport(NamedTuple):
    ok: bool
    eigenvalues: np.ndarray
    rank: int
    idempotency_defect: float
    trace: float
    diag_bound_ok: bool


def projection_check(sys: VectorSystem, cert: GaussCert, s_sq) -> ProjectionReport:
    """Check that P = (A S)^T C (A S), S = diag(s_j), is an orthogonal projection of rank k.

    P = S G S has T's spectrum at d = s^2 (model.gram_spectrum) and n - k
    zeros, so every figure is read off T's k eigenvalues: ||P^2 - P||_F = ||lambda^2 - lambda||, the trace, the
    rank, and the bound A^T C A <= diag(1/s_j^2), that is P <= I, that is
    lambda_max <= 1 (up to EIG_TOL).
    """
    lam = gram_spectrum(cert.G, s_sq, sys.k)
    idem = float(np.linalg.norm(lam * lam - lam))
    on_01 = bool(np.all(np.minimum(np.abs(lam), np.abs(lam - 1.0)) <= EIG_TOL))
    rank = int(np.count_nonzero(np.abs(lam) > 1e-8 * np.max(np.abs(lam))))
    return ProjectionReport(ok=idem <= IDEM_TOL and on_01 and rank == sys.k,
                            eigenvalues=np.sort(np.append(np.zeros(sys.n - sys.k), lam)),
                            rank=rank, idempotency_defect=idem, trace=float(lam.sum()),
                            diag_bound_ok=float(lam[-1]) - 1.0 <= EIG_TOL)
