"""Solve for the certifying matrix C and the sharp constant D, and check C.

The auxiliary weights s_j^2 satisfy the nonlinear system

    1/p_j = s_j^2 <M(s)^{-1} a_j, a_j>,   M(s) = A diag(s^2) A^T,

the stationarity condition of the concave log of the Gaussian functional,
solved by one damped Newton iteration (see solve_s_system).  Each point
of it is one SVD (A S)^T = U diag(sv) V^T, S = diag(s_j), of the rows
sorted by decreasing s_j^2 |a_j|^2 (_factor), and that factor gives
everything the step needs: log det M(s) = 2 sum log sv, the leverage scores
tau_j = |u_j|^2 and the Hessian through Pi = U U^T.  The Hessian is
singular along the span of the indicators of the column matroid's connected
components, which polytope.is_finite's verdict labels.  Each step is one
positive-definite solve with the Hessian plus the projector onto that span
(_null_projector).  The iteration starts at the fixed-point image
of C = I, s_j^2 = (1/p_j) / |a_j|^2, which solves k = 1 data outright and
makes the iterates equivariant under column scaling.  The last factor gives
both answers: D, the functional's value at its maximizer b = p s^2
(blflow.gaussian), and the certificate C = M(s)^{-1} with its Gram matrix
G = A^T C A (Factor.cert), read without another factorisation.  s^2, the
residual, the notes and the factor stay with the solve (SSystemResult).
The certificate's quality is read off the spectrum of T
(model.gram_spectrum): ||T - I||_F at d = 1/(p_j sigma_j)
(certificate_defect), and at d = s^2 the projector P = (A S)^T C (A S), an
orthogonal projection of rank k (projection_check).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import IterationError
from .model import Exponents, GaussCert, VectorSystem, gram_spectrum

if TYPE_CHECKING:
    from .polytope import MembershipVerdict

MAX_ITER = 100
RES_TOL = 1e-10
_DIVERGENCE_SPREAD = 60.0  # |log s^2 - log s0^2| beyond this moves s^2 ratios by > e^120
_MAX_STEP = 8.0  # cap on max|dz| per step, so that exp(z) cannot overflow
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30
# a predicted increase t * slope below this times max(1, |f|) is lost in f's round-off
_ROUNDOFF = 1e-12
# projection_check's bounds on ||P^2 - P||_F and on each eigenvalue's distance to 0 or 1
IDEM_TOL = 1e-9
EIG_TOL = 1e-8


class Factor(NamedTuple):
    """(A S)^T = U diag(sv) V^T at S = diag(s_j), U with orthonormal columns.
    M(s) = V diag(sv)^2 V^T, so the squared row norms of U are the leverage
    scores tau_j = s_j^2 <C a_j, a_j> for C = M(s)^{-1} = V diag(sv)^{-2} V^T."""

    s: np.ndarray
    U: np.ndarray
    sv: np.ndarray
    Vt: np.ndarray

    def cert(self) -> GaussCert:
        """C = V diag(sv)^{-2} V^T and G = S^{-1} U U^T S^{-1}, without forming M(s),
        which would square the conditioning of A S on nearly parallel columns."""
        if not self.sv[-1] > 0.0:
            raise IterationError("M(s) is numerically singular")
        W = self.U / self.s[:, None]
        Y = self.Vt.T / self.sv
        return GaussCert(C=Y @ Y.T, G=W @ W.T)


def _max_abs(v) -> float:  # NaN propagates, so a NaN residual never meets a tolerance
    return float(abs(v).max())


def _factor(A: np.ndarray, s_sq: np.ndarray) -> Factor:
    """SVD of (A S)^T with its rows sorted by decreasing s_j^2 |a_j|^2, which
    keeps it row-wise backward stable; U's rows come back in column order."""
    s = np.sqrt(s_sq)
    AS_T = (A * s).T
    order = np.argsort((AS_T * AS_T).sum(axis=1))[::-1]
    U, sv, Vt = np.linalg.svd(AS_T[order], full_matrices=False)
    U[order] = U.copy()
    return Factor(s, U, sv, Vt)


class SSystemResult(NamedTuple):
    s_sq: np.ndarray
    residual: float  # max_j |x_j - tau_j| on the factor at s_sq
    iterations: int
    converged: bool  # the residual met res_tol
    D: float  # the Gaussian functional at b = p s_sq, exp(f - sum(x log x) / 2)
    factor: Factor  # the SVD of (A S)^T at s_sq; factor.cert() is the certificate
    notes: tuple[str, ...] = ()


def _null_projector(components: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of the Hessian, the same at every z.

    A separator S, r(S) + r(E \\ S) = k, meets every basis B in r(S)
    columns, so K 1_S = 0, and null(K) is spanned by the indicators of the
    column matroid's connected components, which ``components`` labels.  P
    averages over components: 11^T / n for connected data.
    """
    same = components[:, None] == components
    return same / same.sum(axis=1, keepdims=True)


def solve_s_system(sys: VectorSystem, e: Exponents, verdict: MembershipVerdict,
                   res_tol: float = RES_TOL) -> SSystemResult:
    """Damped Newton iteration for the auxiliary weights, one factor per point.

    In z = log s^2 the system is the stationarity condition of the concave
    f(z) = (<1/p, z> - log det M(e^z)) / 2; ``verdict`` is
    polytope.is_finite's on (sys, e).  Each evaluation factors
    (A S)^T = U diag(sv) V^T at the normalized s^2 (_factor) and reads
    everything off it: log det M(s) = 2 sum_i log sv_i, the gradient
    (1/p - tau) / 2 with tau_j = |u_j|^2 = s_j^2 <M(s)^{-1} a_j, a_j>, and the
    Hessian -K / 2 with K = diag(tau) - Pi o Pi, Pi = U U^T.  By Cauchy-Binet
    det M(e^z) = sum_B det(A_B)^2 e^{<1_B, z>} over the bases B, and K is
    the covariance of 1_B under the weights of that sum.  The iteration
    starts at z = log(x_j / |a_j|^2), centred: one fixed-point step
    s_j^2 = x_j / <C a_j, a_j> from C = I, exact for k = 1.  K annihilates
    the gauge direction (1, ..., 1) and, on decomposable data, the indicator
    of every connected component.  That null space is the same at every z,
    P = _null_projector(verdict.components) projects onto it (built at the
    first step, so never on data solved at the start), and the step d solves
    the positive-definite system (K + P) d = r - P r, whose solution is
    orthogonal to the null space, so sum(z) stays fixed; where K + P is
    singular to working precision the step is r - P r itself.  Steps are
    capped and backtracked (Armijo on f; only in the round-off endgame, where
    f cannot show the predicted increase, a drop in the residual also accepts
    a step).  An outside verdict, off-degree exponents among them, raises
    IterationError before any factorisation: the s-system has no solution
    there.  On the boundary of the polytope the supremum is not attained and
    the iterates run off to infinity; the solve stops unconverged when they
    move farther than _DIVERGENCE_SPREAD from the start in some coordinate
    (measured from the start, not from the gauge origin, so that rescaling a
    column does not change the verdict), when the line search stalls, or
    after MAX_ITER evaluations.  Exponents that miss the degree k by more
    than res_tol are solved at x = (1/p) k / sum(1/p), and all others at
    x = 1/p.  s^2 is returned normalized to the scale-free tr M(s) = 1, with
    the factor there, whose certificate is factor.cert(), and the residual
    max_j |x_j - tau_j| on it: the solve converged exactly when that
    residual met res_tol.
    D = exp(f - sum_j x_j log x_j / 2) is the Gaussian functional at
    b = p s^2 (blflow.gaussian; no determinant of Q(b) is formed): the
    concave f's one stationary point is its maximum, so D is the sharp
    constant when the solve converges, and on the boundary the value at the
    last iterate.
    """
    if verdict.verdict == "outside":
        raise IterationError(f"the exponents miss the polytope by {-verdict.slack:.3g} at "
                             f"columns S = {list(verdict.witness)}: the s-system has no solution")
    A = sys.A
    k, n = A.shape
    x = e.inv_p
    degree = float(x.sum())
    if res_tol < abs(degree - k):
        # sum(x - tau) = sum(x) - k at every z, so at x the residual could not
        # meet res_tol; x k / sum(x) has degree k up to round-off
        x = x * (k / degree)
        degree = float(x.sum())

    norms = np.sqrt((A * A).sum(axis=0))
    log_norms_sq = 2.0 * np.log(norms)

    def evaluate(z):
        """f(z), x - tau, the factor at s^2 = e^{z - shift} and shift = log tr M(e^z)."""
        shift = float(np.logaddexp.reduce(z + log_norms_sq))
        factor = _factor(A, np.exp(z - shift))
        tau = (factor.U * factor.U).sum(axis=1)
        log_det = 2.0 * float(np.log(factor.sv).sum())
        return 0.5 * (float(x @ z) - k * shift - log_det), x - tau, factor, shift

    def result(z, point, iterations, note=None) -> SSystemResult:
        f, r, factor, shift = point
        residual = _max_abs(r)
        f = f - 0.5 * shift * (degree - k)
        return SSystemResult(np.exp(z - shift), residual, iterations, note is None,
                             math.exp(f - 0.5 * float(x @ np.log(x))), factor,
                             () if note is None else (note,))

    # one fixed-point step from C = I, s_j^2 = x_j / |a_j|^2: exact for k = 1
    z = np.log(x / norms**2)
    z -= z.mean()
    z0 = z
    point = evaluate(z)
    f, r, factor, _ = point
    residual = _max_abs(r)
    it = 1
    P = None  # the null projector, built at the first Newton step
    while not residual <= res_tol:  # a NaN residual does not end the loop
        if it == MAX_ITER:
            return result(z, point, it, f"no convergence in {MAX_ITER} iterations")
        if _max_abs(z - z0) > _DIVERGENCE_SPREAD:
            return result(z, point, it, "log s^2 moved more than "
                          f"{_DIVERGENCE_SPREAD:g} from its start: the supremum is not attained")
        P = _null_projector(verdict.components) if P is None else P
        Pi = factor.U @ factor.U.T
        H = P - Pi * Pi
        H.flat[::n + 1] += Pi.diagonal()  # tau_j = Pi_jj
        g = r - P @ r
        try:
            d = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:  # singular to working precision: a gradient step
            d = g
        longest = _max_abs(d)
        if longest > _MAX_STEP:
            d *= _MAX_STEP / longest
        slope = 0.5 * float(r @ d)
        t = 1.0
        while t >= _MIN_STEP:
            trial = evaluate(z + t * d)
            if trial[0] >= f + _ARMIJO * t * slope:
                break
            # round-off in f hides the last steps; there a lower residual takes them
            if (t * slope <= _ROUNDOFF * max(1.0, abs(f))
                    and _max_abs(trial[1]) < residual):
                break
            t *= 0.5
        else:
            return result(z, point, it, "line search stalled")
        z, point = z + t * d, trial
        f, r, factor, _ = point
        residual = _max_abs(r)
        it += 1
    return result(z, point, it)


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
