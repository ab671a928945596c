"""The one Gaussian closed form of the package, and its runtime guard.

Gaussians attain the sharp bound (Lieb, Invent. Math. 102, 1990), so every
closed form blflow reports is :func:`gaussian_integral`: flow's energies on
Gaussian data and its t -> infinity limit (blflow.heatflow), and the
verifier's L5.  The sharp constant D itself is not evaluated here:
blflow.certificate.solve_s_system returns it from the Newton solve that also
gives C.  :func:`_closed_form_selftest` holds gaussian_integral against
direct quadrature once per process, before blflow.heatflow relies on it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EvaluationError


def gaussian_integral(A, w, amp, center, variance, coeff: float = 1.0):
    """Integral over R^k of coeff prod_j (amp_j exp(-(<a_j, x> - c_j)^2 / v_j))^{w_j}.

    The integrand is coeff prod amp_j^{w_j} exp(-x^T Q x + 2 b^T x - c0), where
    Q = A diag(w/v) A^T, b = A (w c / v) and c0 = sum_j w_j c_j^2 / v_j, so
    the integral is coeff prod amp_j^{w_j} pi^{k/2} det(Q)^{-1/2}
    exp(b^T Q^{-1} b - c0).  Q = M M^T and b = M g for M = A diag(sqrt(w/v))
    and g = sqrt(w/v) c, so one SVD M = U S V^T gives det(Q)^{1/2} = prod S
    and b^T Q^{-1} b - c0 = -|g - V V^T g|^2, g's squared distance from the
    row space of M.  The SVD keeps the digits of det(Q) that a Cholesky of
    the formed Q loses when Q is ill-conditioned.  Rank is not tested here:
    every caller passes a VectorSystem's A, whose rank k was decided at parse
    (blflow.model.VectorSystem), a positive column scaling of it, or the
    self-test's fixed full-rank A, so M has rank k and prod S > 0 unless it
    underflows, as when the columns of M do: there the integral is math.inf.

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
    with np.errstate(divide="ignore"):
        value = value / s.prod(axis=-1)
    return float(value) if value.ndim == 0 else value


@functools.lru_cache(maxsize=1)
def _closed_form_selftest() -> bool:
    """One-time check of gaussian_integral against quadrature; raises on failure.

    gaussian_integral is called as blflow.heatflow.gaussian_energy calls it,
    at k = 1 and k = 2, with distinct weights, per-column amplitudes and
    variances and coeff != 1, on one stack of two rows: centres 0 and
    <a_j, x0>, a translate of the same integrand, so that both rows equal one
    quadrature.decay_quad of the centred integrand.  blflow.quadrature is
    imported here, so that verify, which needs only the closed form, starts
    without it.
    """
    from . import quadrature

    for A in (np.array([[1.0, 1.0]]), np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])):
        k, n = A.shape
        w, amp, variance = np.linspace([0.4, 1.6, 0.5], [0.9, 0.7, 1.5], n).T
        coeff = 1.3
        center = np.stack([np.zeros(n), np.array([0.7, -0.4])[:k] @ A])
        closed = gaussian_integral(A, w, amp, center, variance, coeff)

        def integrand(X):
            return coeff * np.prod((amp * np.exp(-(X @ A) ** 2 / variance)) ** w, axis=-1)

        quad = quadrature.decay_quad(integrand, (A * (w / variance)) @ A.T, rel_tol=1e-9).value
        if not np.all(abs(closed - quad) <= 1e-7 * abs(quad)):
            raise EvaluationError(
                f"closed-form self-test failed: {closed!r} vs quadrature {quad!r}")
    return True
