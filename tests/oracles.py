"""Test-only references: dense n x n forms for the verifier, the s-system's
Cauchy-Binet terms and null projector over the basis table, the Gaussian
functional whose supremum is D, in closed form and by direct quadrature, and
the heat flow's evolved Gaussian, closed-form y-derivatives and pointwise
identity probe; and solve_datum, the s-system solve on a datum's own verdict.

The package decides L3, the PDE identity and the rank bound on the k x k
spectrum of T = F^{1/2} C F^{1/2}, F = A diag(w / sigma) A^T
(blflow.verifier).  The functions here build the n x n objects those
verdicts stand for: the Hadamard form H(y) = (A^T C A) o Hess B(y) at one
point, and the y-free core K = (A^T C A) o (w w^T - diag w) with
H(y) = B(y) Y^{-1} K Y^{-1}, so that the tests can hold the k x k verdicts
against K's eigenvalues, rank and PDE defect, and cholesky_spectrum is T
itself, formed the other way round.
"""

from __future__ import annotations

import math

import numpy as np

from blflow import gaussian, is_finite, quadrature, solve_s_system
from blflow.errors import DomainError, EvaluationError
from blflow.heatflow import GaussianProfile
from blflow.model import numerical_rank

KN_TOL = 1e-10


def hadamard_form(sys, cert, B, y) -> np.ndarray:
    """Entrywise product of the Gram matrix <C a_i, a_j> with Hess B(y) at one point."""
    return sys.A.T @ cert.C @ sys.A * B.hessian(y)


def core_form(sys, cert, B) -> tuple[np.ndarray, float]:
    """K = (A^T C A) o (w w^T - diag w) and its scale ||A^T C A||_2 ||w w^T - diag w||_F."""
    G = sys.A.T @ cert.C @ sys.A
    w = B.weights
    W = np.outer(w, w) - np.diag(w)
    return G * W, float(np.linalg.norm(G, 2) * np.linalg.norm(W))


def dense_verdicts(sys, cert, B, rank_tol: float) -> tuple[float, float, int]:
    """K's top eigenvalue and PDE defect ||A diag(1/sigma) K||_F, each over its
    scale, and K's numerical rank at rank_tol."""
    K, scale = core_form(sys, cert, B)
    inv_sigma = 1.0 / cert.sigma
    pde_scale = scale * float(np.linalg.norm(sys.A, 2) * np.max(inv_sigma))
    return (float(np.linalg.eigvalsh(K)[-1]) / scale,
            float(np.linalg.norm((sys.A * inv_sigma) @ K)) / pde_scale,
            numerical_rank(K, tol=rank_tol))


def cauchy_binet_terms(A, bases, x, z):
    """f(z), the residual x - tau and K at s^2 = exp(z), over the basis table.

    By Cauchy-Binet det M(e^z) = sum_B c_B e^{<1_B, z>} over the bases B,
    with c_B = det(A_B)^2, so f(z) = (<x, z> - log det M(e^z)) / 2 is a
    log-sum-exp over the table.  Under mu_B = c_B e^{<1_B, z>} / det M the
    marginals are tau = mu V, and K = V^T diag(mu) V - tau tau^T, the
    covariance of 1_B, is -2 times the Hessian of f: the same terms that
    blflow.certificate.solve_s_system reads off one factor of (A S)^T.
    """
    V = bases.vectors
    columns = V.nonzero()[1].reshape(len(V), A.shape[0])
    log_c = 2.0 * np.log(abs(np.linalg.det(np.moveaxis(A[:, columns], 1, 0))))
    logw = log_c + V @ z
    top = float(logw.max())
    mu = np.exp(logw - top)
    total = float(mu.sum())
    mu /= total
    tau = mu @ V
    f = 0.5 * (float(x @ z) - top - math.log(total))
    return f, x - tau, (V.T * mu) @ V - np.outer(tau, tau)


def separator_projector(bases, k: int) -> np.ndarray:
    """The projector onto the Hessian's null space, from the rank table.

    The separators S, r(S) + r(E \\ S) = k, are the rows whose rank and
    whose complement's rank sum to k.  Columns i and j share a connected
    component iff no separator holds one and not the other, and P averages
    over components.  blflow.certificate._null_projector builds P from the
    component labels of blflow.polytope.is_finite instead.
    """
    sep = bases.masks[bases.ranks + bases.ranks[::-1] == k]
    apart = sep.T @ (1.0 - sep)
    same = (apart + apart.T) == 0.0
    return same / same.sum(axis=1, keepdims=True)


def solve_datum(sys, e, **kwargs):
    """blflow.certificate.solve_s_system on (sys, e) and its finiteness verdict."""
    return solve_s_system(sys, e, is_finite(sys, e), **kwargs)


def _positive_form(sys, e, log_b) -> tuple[np.ndarray, np.ndarray]:
    """b = exp(log_b) and Q(b) = A diag(b / p) A^T; raises EvaluationError
    when Q(b) is singular or indefinite to round-off (this happens when b
    degenerates toward directions outside the finiteness polytope)."""
    b = np.exp(np.asarray(log_b, dtype=float).ravel())
    Q = (sys.A * (b * e.inv_p)) @ sys.A.T
    if np.linalg.eigvalsh(Q)[0] <= 0.0:
        raise EvaluationError("Q(b) is singular or indefinite")
    return b, Q


def gaussian_objective(sys, e, log_b) -> float:
    """Value of the Gaussian functional at b = exp(log_b).

    It is :func:`blflow.gaussian.gaussian_integral` on the columns
    b_j^{1/2} a_j, prod_j b_j^{1/(2 p_j)} / prod S for the singular values S
    of A diag(sqrt(b/p)), once Q(b) passes :func:`_positive_form`: the
    closed form tests no rank, and though rank A = k, a b that spans more
    than a double can leave Q(b) singular.
    """
    _positive_form(sys, e, log_b)
    root_b = np.exp(0.5 * np.asarray(log_b, dtype=float).ravel())
    return gaussian.gaussian_integral(sys.A * root_b, e.inv_p, root_b, 0.0, 1.0 / math.pi)


def quadrature_objective(sys, e, log_b, rel_tol: float = 1e-9) -> float:
    """Direct quadrature of the Gaussian integrand over R^k (k <= 3)."""
    b, Q = _positive_form(sys, e, log_b)
    pref = float(np.prod(b ** (0.5 * e.inv_p)))

    def integrand(X):
        proj = X @ sys.A  # (m, n) values of <a_j, x>
        return np.exp(-math.pi * (proj**2 @ (b * e.inv_p)))

    return pref * quadrature.decay_quad(integrand, math.pi * Q, rel_tol=rel_tol).value


def cholesky_spectrum(A, C, d) -> np.ndarray:
    """Ascending eigenvalues of T = L^T C L, L L^T = A diag(d) A^T: T formed from
    a factor of A diag(d) A^T, independent of blflow.model.gram_spectrum's
    reading of the n x n form off A^T C A."""
    L = np.linalg.cholesky((A * d) @ A.T)
    return np.linalg.eigvalsh(L.T @ C @ L)


def check_kn_structure(B, tol: float = KN_TOL) -> tuple[bool, float]:
    """Diagonal Hessian entries vanish (the degree-n product structure).

    Hess B(y)_jj = B(y) w_j (w_j - 1) / y_j^2, so this holds iff every w_j = 1:
    exactly for the product family and for no other catalog member, so it
    doubles as a negative control.  Returns (ok, max_j |w_j (w_j - 1)|).
    """
    worst = float(np.max(np.abs(B.weights * (B.weights - 1.0))))
    return worst <= tol, worst


def evolved(profile: GaussianProfile, sigma: float, t: float) -> GaussianProfile:
    """The heat extension of a Gaussian profile at time t, again a Gaussian:
    variance v_t = v + 4 sigma t and amplitude a sqrt(v / v_t), so the mass is kept."""
    vt = profile.variance + 4.0 * sigma * t
    return GaussianProfile(profile.amplitude * math.sqrt(profile.variance / vt),
                           profile.center, vt)


def heat_dy(profile, y, sigma: float, t: float):
    """d/dy of profile.heat(y, sigma, t) at one time t > 0, in closed form."""
    y = np.asarray(y, dtype=float)
    if isinstance(profile, GaussianProfile):
        g = evolved(profile, sigma, t)
        return -2.0 * (y - g.center) / g.variance * g.value(y)
    lo, hi, height = profile._edges
    w = math.sqrt(4.0 * sigma * t)
    gauss = np.exp(-((y[..., None] - lo) / w) ** 2) - np.exp(-((y[..., None] - hi) / w) ** 2)
    return (height / (w * math.sqrt(math.pi)) * gauss).sum(axis=-1)


def bellman_identity_probe(sys, cert, B, profiles, t: float, x) -> tuple[float, float, float]:
    """Finite-difference check of the pointwise evolution identity.

    Left side: (d/dt - sum c_ij d^2/dx_i dx_j) B(u(x, t)) by central
    differences (steps 1e-4 in x, 1e-5 max(t, 1) in t) on the analytic heat
    extensions.  Right side (analytic): -<(A^T C A) o Hess B(u) u', u'>.
    Returns (defect, lhs, rhs).
    """
    x = np.asarray(x, dtype=float).ravel()
    h_t, h_x = 1e-5 * max(t, 1.0), 1e-4
    if t < 10.0 * h_t:
        raise DomainError("probe requires t >= 10 * h_t")
    cols = list(zip(profiles, sys.A.T, cert.sigma))

    def F(pt, tt):
        return float(B.evaluate([p.heat(float(a @ pt), s, tt) for p, a, s in cols]))

    lhs = (F(x, t + h_t) - F(x, t - h_t)) / (2.0 * h_t)
    E = h_x * np.eye(sys.k)
    for i, ei in enumerate(E):
        for j, ej in enumerate(E[i:], i):
            second = (F(x + ei + ej, t) - F(x + ei - ej, t)
                      - F(x - ei + ej, t) + F(x - ei - ej, t)) / (4.0 * h_x**2)
            lhs -= (1.0 if i == j else 2.0) * cert.C[i, j] * second
    y = np.array([float(p.heat(float(a @ x), s, t)) for p, a, s in cols])
    du = np.array([float(heat_dy(p, float(a @ x), s, t)) for p, a, s in cols])
    rhs = -float(du @ ((sys.A.T @ cert.C @ sys.A) * B.hessian(y)) @ du)
    return abs(lhs - rhs), lhs, rhs
