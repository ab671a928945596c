"""Dense n x n references for the verifier, used by the tests only.

The package decides L3, the PDE identity and the rank bound on the k x k
spectrum of T = F^{1/2} C F^{1/2}, F = A diag(w / sigma) A^T
(blflow.verifier).  The functions here build the n x n objects those
verdicts stand for: the Hadamard form H(y) = (A^T C A) o Hess B(y) at one
point, and the y-free core K = (A^T C A) o (w w^T - diag w) with
H(y) = B(y) Y^{-1} K Y^{-1}, so that the tests can hold the k x k verdicts
against K's eigenvalues, rank and PDE defect.
"""

from __future__ import annotations

import numpy as np

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


def check_kn_structure(B, tol: float = KN_TOL) -> tuple[bool, float]:
    """Diagonal Hessian entries vanish (the degree-n product structure).

    Hess B(y)_jj = B(y) w_j (w_j - 1) / y_j^2, so this holds iff every w_j = 1:
    exactly for the product family and for no other catalog member, so it
    doubles as a negative control.  Returns (ok, max_j |w_j (w_j - 1)|).
    """
    worst = float(np.max(np.abs(B.weights * (B.weights - 1.0))))
    return worst <= tol, worst
