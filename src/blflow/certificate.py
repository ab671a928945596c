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
makes the iterates equivariant under column scaling.  One solve evaluates
the table once per trial point (_newton_terms), builds the projector at most
once, at its first step (so never on data solved at the start, k = 1 among
them), and then factors (A S)^T = Q R, S = diag(s_j), once per finish step:
the table's tau loses digits on bases that hold nearly parallel columns, so
the solve finishes on the factor's own tau_j = |q_j|^2.  That last factor
gives both answers: D, the functional's value at its maximizer b = p s^2
(blflow.gaussian), and the certificate C = M(s)^{-1} with its Gram matrix
G = A^T C A (Factor.cert), read without a second QR.  s^2, the residual, the
notes and the factor stay with the solve (SSystemResult).  The certificate's
quality is read off the spectrum of T (model.gram_spectrum): ||T - I||_F at
d = 1/(p_j sigma_j) (certificate_defect), and at d = s^2 the projector
P = (A S)^T C (A S), an orthogonal projection of rank k (projection_check).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IterationError
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
# Newton steps the solve may take on the certificate's factor once the table meets res_tol
_FINISH_STEPS = 5
# projection_check's bounds on ||P^2 - P||_F and on each eigenvalue's distance to 0 or 1
IDEM_TOL = 1e-9
EIG_TOL = 1e-8


class Factor(NamedTuple):
    """(A S)^T = Q R at S = diag(s_j).  M(s) = R^T R, so the squared row
    norms of Q are the leverage scores tau_j = s_j^2 <C a_j, a_j> for
    C = M(s)^{-1} = R^{-1} R^{-T}."""

    s: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def cert(self) -> GaussCert:
        """C = R^{-1} R^{-T} and G = S^{-1} Q Q^T S^{-1}, without forming M(s),
        which would square the conditioning of A S on nearly parallel columns."""
        try:
            R_inv = np.linalg.inv(self.R)
        except np.linalg.LinAlgError as exc:
            raise IterationError("M(s) is numerically singular") from exc
        W = self.Q / self.s[:, None]
        return GaussCert(C=R_inv @ R_inv.T, G=W @ W.T)


def _max_abs(v) -> float:  # NaN propagates, so a NaN residual never meets a tolerance
    return float(abs(v).max())


def _factor(A: np.ndarray, s_sq: np.ndarray) -> Factor:
    s = np.sqrt(s_sq)
    return Factor(s, *np.linalg.qr((A * s).T))


class SSystemResult(NamedTuple):
    s_sq: np.ndarray
    residual: float  # max_j |x_j - tau_j|, on the factor once the table met res_tol
    iterations: int
    converged: bool  # the certificate's factor met res_tol
    table_converged: bool  # the basis table's residual met res_tol, which is all D needs
    D: float  # the Gaussian functional at b = p s_sq, exp(f - sum(x log x) / 2)
    factor: Factor  # (A S)^T = Q R at s_sq; factor.cert() is the certificate
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
    return f, x - tau, (V.T * mu) @ V - tau[:, None] * tau


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
    tr M(s) = 1, with D there; the residual is max_j |x_j - tau_j|.  Once
    the table's residual meets res_tol, tau is read off the QR factor of
    (A S)^T at the normalized s^2, the factor the certificate comes from
    (Factor), and up to _FINISH_STEPS Newton steps on it, with the same
    covariance written diag(tau) - Pi o Pi for Pi = Q Q^T, bring that
    residual to res_tol; otherwise the solve stops unconverged, with a note.
    The result carries the factor at its s^2, and the residual is the
    factor's wherever the table met res_tol.
    D = exp(f - sum_j x_j log x_j / 2) is the Gaussian functional at
    b = p s^2 (no determinant of Q(b) is formed): the concave f's one
    stationary point is its maximum, so D is the sharp constant when the
    solve converges, and off the interior of the polytope the value at the
    last iterate.
    """
    k = bases.A.shape[0]
    x = e.inv_p
    degree = float(x.sum())
    off_degree = abs(degree - k) > DEGREE_TOL
    if res_tol < abs(degree - k) <= DEGREE_TOL:
        # sum(x - tau) = sum(x) - k at every z, so at x the residual could not
        # meet res_tol; x k / sum(x) has degree k up to round-off
        x = x * (k / degree)
        degree = float(x.sum())

    log_norms_sq = 2.0 * np.log(bases.norms)

    def normalized(z):  # the shift of z to tr M(s) = 1, and s^2 there
        shift = float(np.logaddexp.reduce(z + log_norms_sq))
        return shift, np.exp(z - shift)

    def result(z, f, residual, iterations, converged, note=None, factor=None,
               norm=None) -> SSystemResult:
        shift, s_sq = normalized(z) if norm is None else norm
        f = f - 0.5 * shift * (degree - k)
        # only the finish, which starts once the table met res_tol, hands in its factor
        return SSystemResult(s_sq, residual, iterations, converged, factor is not None,
                             math.exp(f - 0.5 * float(x @ np.log(x))),
                             _factor(bases.A, s_sq) if factor is None else factor,
                             () if note is None else (note,))

    # one fixed-point step from C = I, s_j^2 = x_j / |a_j|^2: exact for k = 1
    z = np.log(x / bases.norms**2)
    z -= z.mean()
    z0 = z
    f, r, K = _newton_terms(bases, x, z)
    residual = _max_abs(r)
    it = 1
    if off_degree:
        # sum(1/p - tau) = sum(1/p) - k at every z, so the residual cannot vanish
        return result(z, f, residual, it, False, f"sum(1/p_j) = {degree!r} differs from "
                      f"k = {k}: the s-system has no solution")
    P = None  # the null projector, built at the first Newton step
    while residual > res_tol:
        if it == MAX_ITER:
            return result(z, f, residual, it, False, f"no convergence in {MAX_ITER} iterations")
        if _max_abs(z - z0) > _DIVERGENCE_SPREAD:
            return result(z, f, residual, it, False, "log s^2 moved more than "
                          f"{_DIVERGENCE_SPREAD:g} from its start: the supremum is not attained")
        P = _null_projector(bases, k) if P is None else P
        try:
            d = np.linalg.solve(K + P, r - P @ r)
        except np.linalg.LinAlgError:
            d = None
        if d is None or _max_abs(r - K @ d) > _RANGE_TOL:
            # f is linear along K's null space, which is the same at every z
            return result(z, f, residual, it, False, "the gradient leaves the range "
                          "of the Hessian: the supremum is not attained")
        longest = _max_abs(d)
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
                    and _max_abs(r_new) < residual):
                break
            t *= 0.5
        else:
            return result(z, f, residual, it, False, "line search stalled")
        z, f, r, K = z + t * d, f_new, r_new, K_new
        residual = _max_abs(r)
        it += 1
    # the finish on the certificate's own factor, tau_j = |q_j|^2
    for step in range(_FINISH_STEPS + 1):
        norm = normalized(z)
        factor = _factor(bases.A, norm[1])
        tau = (factor.Q**2).sum(axis=1)
        r = x - tau
        residual = _max_abs(r)
        if residual <= res_tol:
            return result(z, f, residual, it, True, None, factor, norm)
        if step == _FINISH_STEPS:
            break
        P = _null_projector(bases, k) if P is None else P
        Pi = factor.Q @ factor.Q.T
        try:
            d = np.linalg.solve(np.diag(tau) - Pi * Pi + P, r - P @ r)
        except np.linalg.LinAlgError:
            break
        longest = _max_abs(d)
        if longest > _MAX_STEP:
            d *= _MAX_STEP / longest
        z = z + d
        f = _newton_terms(bases, x, z)[0]
        it += 1
    return result(z, f, residual, it, False, f"the certificate's residual max_j |x_j - tau_j| "
                  f"stays at {residual:.3g} > res_tol = {res_tol:g}", factor, norm)


def certificate_defect(sys: VectorSystem, e: Exponents, cert: GaussCert) -> float:
    """||T - I||_F at d = 1/(p_j sigma_j): zero exactly when A diag(1/(p_j sigma_j)) A^T C = I."""
    return float(np.linalg.norm(gram_spectrum(cert.G, e.inv_p / cert.sigma, sys.k) - 1.0))


class ProjectionReport(NamedTuple):
    ok: bool
    eigenvalues: np.ndarray
    rank: int
    idempotency_defect: float
    trace: float


def projection_check(sys: VectorSystem, cert: GaussCert, s_sq) -> ProjectionReport:
    """Check that P = (A S)^T C (A S), S = diag(s_j), is an orthogonal projection of rank k.

    P = S G S has T's spectrum at d = s^2 (model.gram_spectrum) and n - k
    zeros, so every figure is read off T's k eigenvalues: ||P^2 - P||_F =
    ||lambda^2 - lambda||, the trace and the rank.  The bound
    A^T C A <= diag(1/s_j^2), that is P <= I, is eigenvalues[-1] <= 1.

    For the certificate of a solve at its own s^2 (Factor.cert), P = Q Q^T
    by construction, so this checks the factor's orthonormality and how G
    was formed, not whether s^2 solves the system: a solve that stops short
    of res_tol still gives a projection.  solve-c's fit readings are
    system_residual (the solve's residual), residual
    (max_j |1/p_j - s_j^2 sigma_j| p_j) and inverse_defect (certificate_defect).
    """
    lam = gram_spectrum(cert.G, s_sq, sys.k)
    idem = float(np.linalg.norm(lam * lam - lam))
    on_01 = bool((np.minimum(abs(lam), abs(lam - 1.0)) <= EIG_TOL).all())
    rank = int(np.count_nonzero(abs(lam) > 1e-8 * abs(lam).max()))
    return ProjectionReport(ok=idem <= IDEM_TOL and on_01 and rank == sys.k,
                            eigenvalues=np.sort(np.append(np.zeros(sys.n - sys.k), lam)),
                            rank=rank, idempotency_defect=idem, trace=float(lam.sum()))
