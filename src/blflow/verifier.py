"""Exact checks of the concavity certificate and its consequences.

The central object is the Hadamard form

    H(y) = G o Hess B(y),      G = A^T C A,      o = entrywise product,

which must be negative semidefinite at every interior point (the concavity
condition, L3), must be annihilated on the left by A D(y) with
D(y) = diag(y_j / sigma_j) (the second-order PDE identity), and must have
rank at most n - k.

Every catalog B is a monomial coeff * prod_j y_j^{w_j}, so with
W = w w^T - diag(w) and Y = diag(y)

    Hess B(y) = B(y) Y^{-1} W Y^{-1},   H(y) = B(y) Y^{-1} K Y^{-1},   K = G o W.

K does not depend on y and B(y) > 0, so by Sylvester's law of inertia H(y)
has the inertia and rank of K at every interior y.  Since G_jj = sigma_j,
E K E = A_w^T C A_w - I with E = diag(1/sqrt(w_j sigma_j)) and
A_w = A diag(sqrt(w / sigma)), and the nonzero spectrum of A_w^T C A_w is
the spectrum lambda_1 <= ... <= lambda_k of the k x k matrix
T = F^{1/2} C F^{1/2}, F = A_w A_w^T = A diag(w / sigma) A^T, read off G
(model.gram_spectrum).  So K has the inertia and rank of
diag(lambda_1 - 1, ..., lambda_k - 1, -1, ..., -1), and

    L3:    K <= 0                   iff  lambda_k <= 1,
    PDE:   A diag(1/sigma) K = 0    iff  T = I,
           since A diag(1/sigma) K = (F C - I) A diag(w),
    rank:  rank K = n - #{i : lambda_i = 1} <= n - k  iff  T = I.

All three verdicts are read off one k x k spectrum, with no sampled point.
T = I says that the columns C^{1/2} a_j / sqrt(sigma_j) with weights w are
in Ball-Barthe geometric position.  T, and with it every verdict, does not
see a positive scaling of C or of B, a permutation or a rescaling of the
columns, or a rotation of R^k.  Over 3000 random solved certificates
(k = 2, 3, n <= 8, unit columns, Young B) max |lambda_i - 1| was 8.5e-11 at
the 99th percentile and 1.7e-10 at most; the negative controls (one
eigenvalue of C doubled or halved) were at least 4.8e-3 off.

L5 integrates B(exp(-<a_1, x>^2), ..., exp(-<a_n, x>^2)) over R^k, which is
coeff * exp(-x^T Q x) with Q = A diag(w) A^T: the integral is
coeff * pi^{k/2} det(Q)^{-1/2}, finite iff Q is positive definite: the
shared blflow.gaussian.gaussian_integral at unit Gaussians.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .gaussian import gaussian_integral
from .model import HOMOG_TOL, BellmanSpec, GaussCert, VectorSystem, gram_spectrum

#: lambda_max(T) - 1
L3_TOL = 1e-9
#: max_i |lambda_i(T) - 1|
PDE_TOL = 1e-8
#: eigenvalues of T within RANK_TOL of 1 are zero eigenvalues of K
RANK_TOL = 1e-6


def check_L3(sys: VectorSystem, cert: GaussCert, B: BellmanSpec) -> tuple[bool, float]:
    """Negative semidefiniteness of H(y) at every interior y: lambda_max(T) <= 1.

    Returns (ok, lambda_max(T) - 1), ok up to L3_TOL.
    """
    top = float(gram_spectrum(cert.G, B.weights / cert.sigma, sys.k)[-1]) - 1.0
    return top <= L3_TOL, top


def euler_defect_at(B: BellmanSpec, y) -> tuple[bool, float]:
    """Relative homogeneity defect |<grad B(y), y> - deg(B) B(y)| / (1 + |B(y)|) at one point."""
    y = np.asarray(y, dtype=float).ravel()
    b = B.evaluate(y)
    defect = abs(float(B.gradient(y) @ y) - B.degree * b) / (1.0 + abs(b))
    return defect <= HOMOG_TOL, defect


class L5Report(NamedTuple):
    converged: bool
    value: float


def check_L5(sys: VectorSystem, B: BellmanSpec) -> L5Report:
    """Integrability probe: B(exp(-<a_1,x>^2), ...) over R^k in closed form.

    The integrand is coeff * exp(-x^T Q x) with Q = A diag(w) A^T; the
    integral coeff * pi^{k/2} det(Q)^{-1/2} converges iff Q > 0, and is
    unconverged (inf) where gaussian_integral finds Q singular to round-off.
    """
    value = gaussian_integral(sys.A, B.weights, 1.0, 0.0, 1.0, B.coeff)
    return L5Report(converged=value < math.inf, value=value)


class VerifierReport(NamedTuple):
    """Aggregate of the certificate checks with the tolerances used."""

    l3_ok: bool
    l3_max_eig: float
    pde_ok: bool
    pde_defect: float
    rank_ok: bool
    rank: int
    l5: L5Report
    tolerances: dict

    @property
    def ok(self) -> bool:
        return self.l3_ok and self.pde_ok and self.rank_ok and self.l5.converged


def verify(sys: VectorSystem, cert: GaussCert, B: BellmanSpec,
           pde_tol: float = PDE_TOL) -> VerifierReport:
    """Run the full check battery on one (A, C, B) triple, from one spectrum of T."""
    lam = gram_spectrum(cert.G, B.weights / cert.sigma, sys.k)
    dev = np.abs(lam - 1.0)
    l3, pde = float(lam[-1]) - 1.0, float(dev.max())
    rank = sys.n - int(np.count_nonzero(dev <= RANK_TOL))
    return VerifierReport(
        l3_ok=l3 <= L3_TOL, l3_max_eig=l3, pde_ok=pde <= pde_tol, pde_defect=pde,
        rank_ok=rank <= sys.n - sys.k, rank=rank, l5=check_L5(sys, B),
        tolerances={"l3_tol": L3_TOL, "pde_tol": pde_tol, "rank_tol": RANK_TOL},
    )
