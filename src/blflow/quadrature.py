"""Tensor-product quadrature for smooth, rapidly decaying integrands.

:func:`decay_quad` integrates over all of R^k any integrand bounded by
c * exp(-x^T F x).  It whitens in F's eigenbasis, x = U diag(lam)^{-1/2} z,
and applies the nested trapezoid rule on the fixed cube
[-sqrt(LOG_TAIL), sqrt(LOG_TAIL)]^k in z, halving the mesh width until two
successive sums agree.  The grids are nested: each halving keeps the last
sum and evaluates the new nodes only (:func:`_trapezoid_sums`).  On analytic
integrands with Gaussian decay the trapezoid rule converges exponentially
(Trefethen & Weideman, SIAM Rev. 56, 2014), so no extrapolation is applied.

Every grid is summed by :func:`_grid_sum`, which evaluates the integrand in
slabs along the first axis, so no (m**k, k) array of nodes is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureAnomaly, UnsupportedScaleError

#: hard cap on the ambient dimension of the tensor grid
MAX_DIM = 3

#: evaluate integrands on slabs of about this many points to bound memory
_SLAB = 1 << 16

#: decay_quad's cube is [-sqrt(LOG_TAIL), sqrt(LOG_TAIL)]^k in whitened
#: coordinates: the bound c exp(-|z|^2) is below c exp(-LOG_TAIL) outside it
LOG_TAIL = 40.0

#: decay_quad's coarsest grid has this many intervals per axis
_N0 = 16

#: decay_quad gives up rather than evaluate the integrand at more points
MAX_NODES = 1 << 23


@dataclass(frozen=True)
class QuadResult:
    value: float
    halfwidth: float
    levels: int
    nodes_per_axis: int


def _grid_sum(f, axes, weights) -> float:
    """sum of prod_i weights[i][j_i] * f(axes[0][j_0], ..., axes[k-1][j_{k-1}]).

    ``axes`` and ``weights`` hold one node array and one weight array per
    axis; ``f`` maps an (m, k) array of points to an (m,) array.  The grid is
    visited in slabs of whole rows along the first axis, each of at most
    about _SLAB points, so memory does not grow with the grid.
    """
    k = len(axes)
    rest = np.stack([g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")],
                    axis=-1) if k > 1 else np.empty((1, 0))
    rest_w = np.ones(1)
    for w in weights[1:]:
        rest_w = np.outer(rest_w, w).ravel()
    rows = max(1, _SLAB // rest.shape[0])
    total = 0.0
    for start in range(0, axes[0].size, rows):
        lead = axes[0][start:start + rows]
        pts = np.empty((lead.size, rest.shape[0], k))
        pts[:, :, 0] = lead[:, None]
        pts[:, :, 1:] = rest
        vals = f(pts.reshape(-1, k)).reshape(lead.size, -1)
        total += float(weights[0][start:start + rows] @ (vals @ rest_w))
    return total


def _trapezoid_sums(f, k: int, Z: float):
    """Yield (m, S_m) for m = _N0, 2 _N0, 4 _N0, ...: the trapezoid sum of f
    on [-Z, Z]^k with m intervals per axis.

    Each level reuses the last: the nodes of the m-interval grid are the
    even-indexed nodes of the 2m-interval grid, where every weight is halved
    on each axis, so S_2m = S_m / 2**k plus the sum over the new nodes only.
    Those are the nodes with an odd index on some axis; split by the first
    such axis i, they are k tensor grids (even indices before i, odd on i,
    all indices after i).  Every node is evaluated once, so the levels up to
    m evaluate (m + 1)**k points in all.  Stops before a grid of more than
    MAX_NODES nodes.
    """
    m, total = _N0, None
    while (m + 1) ** k <= MAX_NODES:
        full = np.linspace(-Z, Z, m + 1)
        full_w = np.full(m + 1, 2.0 * Z / m)
        full_w[[0, -1]] *= 0.5
        if total is None:
            total = _grid_sum(f, [full] * k, [full_w] * k)
        else:
            even, even_w, odd, odd_w = full[::2], full_w[::2], full[1::2], full_w[1::2]
            total = total / 2**k + sum(
                _grid_sum(f, [even] * i + [odd] + [full] * (k - 1 - i),
                          [even_w] * i + [odd_w] + [full_w] * (k - 1 - i))
                for i in range(k))
        yield m, total
        m *= 2


def decay_quad(f, F, rel_tol: float = 1e-8) -> QuadResult:
    """Integrate ``f`` over R^k, given |f(x)| <= c exp(-x^T F x).

    Parameters
    ----------
    f : callable
        Maps an (m, k) array of points to an (m,) array of values.
    F : (k, k) array
        Symmetric positive definite decay form; k is at most ``MAX_DIM``.
    rel_tol : float
        Stop when two successive trapezoid sums agree to this relative
        tolerance.

    The coarsest grid has _N0 intervals per axis and each level doubles
    them, evaluating the new nodes only; QuadratureAnomaly is raised rather
    than evaluate more than MAX_NODES points, so a returned sum has met
    ``rel_tol``.  The result's ``halfwidth`` is sqrt(LOG_TAIL / lam_min(F)),
    the reach of the cube along F's softest direction, ``levels`` the number
    of doublings and ``nodes_per_axis`` the final grid's.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    k = F.shape[0]
    if k > MAX_DIM:
        raise UnsupportedScaleError(f"tensor quadrature supports k <= {MAX_DIM}, got k={k}")
    lam, U = np.linalg.eigh(F)
    if lam[0] <= 0.0:
        raise ValueError("decay form must be positive definite")
    T = U / np.sqrt(lam)  # x = T z
    jacobian = 1.0 / math.sqrt(float(np.prod(lam)))
    Z = math.sqrt(LOG_TAIL)

    def whitened(z):
        return f(z @ T.T)

    prev = None
    for doublings, (m, total) in enumerate(_trapezoid_sums(whitened, k, Z)):
        value = jacobian * total
        if prev is not None and abs(value - prev) <= rel_tol * max(abs(value), abs(prev)):
            return QuadResult(value, Z / math.sqrt(lam[0]), doublings, m + 1)
        prev = value
    raise QuadratureAnomaly(
        f"trapezoid sums did not reach rel_tol={rel_tol:g} within {MAX_NODES} "
        f"nodes on R^{k}; the next grid would have {2 * m} intervals per axis")

