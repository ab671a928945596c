"""Tensor-product quadrature for smooth, rapidly decaying integrands.

:func:`decay_quad` integrates over all of R^k any integrand bounded by
c * exp(-x^T F x).  It whitens in F's eigenbasis, x = U diag(lam)^{-1/2} z,
and applies the nested trapezoid rule on the fixed cube
[-sqrt(LOG_TAIL), sqrt(LOG_TAIL)]^k in z, halving the mesh width until two
successive sums agree.  The grids are nested: each halving keeps the last
sum and evaluates the new nodes only (:func:`_new_nodes_sum`).  On analytic
integrands with Gaussian decay the trapezoid rule converges exponentially
(Trefethen & Weideman, SIAM Rev. 56, 2014), so no extrapolation is applied.

The cube does not depend on F, so a stack of forms (one per integrand)
shares the z nodes: one pass integrates them all, and each form leaves it
at its own first level where two successive sums agree.

Every grid is summed by :func:`_grid_sum`, which evaluates the integrand in
slabs along the first axis, so no (m**k, k) array of nodes is ever built.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class QuadResult(NamedTuple):
    value: float
    halfwidth: float
    levels: int  # mesh doublings: the last grid has _N0 * 2**levels intervals per axis


def _grid_sum(f, axes, weights, forms: int = 1):
    """sum of prod_i weights[i][j_i] * f(axes[0][j_0], ..., axes[k-1][j_{k-1}]).

    ``axes`` and ``weights`` hold one node array and one weight array per
    axis; ``f`` maps an (m, k) array of points to an (..., m) array, one row
    per integrand, and the sums come back as an (...) array.  The grid is
    visited in slabs of whole rows along the first axis, each of at most
    about _SLAB points over all ``forms`` rows of f, so memory does not grow
    with the grid.
    """
    k = len(axes)
    rest = np.stack([g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")],
                    axis=-1) if k > 1 else np.empty((1, 0))
    rest_w = np.ones(1)
    for w in weights[1:]:
        rest_w = np.outer(rest_w, w).ravel()
    rows = max(1, _SLAB // (forms * rest.shape[0]))
    total = 0.0
    for start in range(0, axes[0].size, rows):
        lead = axes[0][start:start + rows]
        pts = np.empty((lead.size, rest.shape[0], k))
        pts[:, :, 0] = lead[:, None]
        pts[:, :, 1:] = rest
        vals = f(pts.reshape(-1, k))
        vals = vals.reshape(*vals.shape[:-1], lead.size, -1)
        total = total + (vals @ rest_w) @ weights[0][start:start + rows]
    return total


def _trapezoid_grid(Z: float, m: int):
    """Nodes and weights of the trapezoid rule with m intervals on [-Z, Z]."""
    nodes = np.linspace(-Z, Z, m + 1)
    weights = np.full(m + 1, 2.0 * Z / m)
    weights[[0, -1]] *= 0.5
    return nodes, weights


def _new_nodes_sum(f, k: int, Z: float, m: int, forms: int = 1):
    """S_m - S_{m/2} / 2**k: the part of the trapezoid sum S_m of f's rows on
    [-Z, Z]^k, m intervals per axis, over the nodes that S_{m/2} lacks.

    The m/2-interval nodes are the even-indexed m-interval nodes, whose
    weights halve on each axis.  The new nodes have an odd index on some
    axis; split by the first such axis i, they are k tensor grids (even
    indices before i, odd on i, all indices after i).
    """
    full, full_w = _trapezoid_grid(Z, m)
    even, even_w, odd, odd_w = full[::2], full_w[::2], full[1::2], full_w[1::2]
    return sum(_grid_sum(f, [even] * i + [odd] + [full] * (k - 1 - i),
                         [even_w] * i + [odd_w] + [full_w] * (k - 1 - i), forms)
               for i in range(k))


def decay_quad(f, F, rel_tol: float = 1e-8):
    """Integrate ``f`` over R^k, given |f(x)| <= c exp(-x^T F x).

    Parameters
    ----------
    f : callable
        For a single form, maps an (m, k) array of points to an (m,) array
        of values.  For a stack of T forms, f(X, idx) maps the points
        X (T_active, m, k) of the still-active forms, with their indices idx
        into the stack, to a (T_active, m) array: row i is the integrand
        bounded by form idx[i].
    F : (k, k) or (T, k, k) array
        Symmetric positive definite decay form(s); k is at most ``MAX_DIM``.
    rel_tol : float
        Stop when two successive trapezoid sums agree to this relative
        tolerance.

    Every form is whitened onto the same cube [-sqrt(LOG_TAIL),
    sqrt(LOG_TAIL)]^k, so a stack shares one pass over the z nodes.  The
    coarsest grid has _N0 intervals per axis and each level doubles them,
    evaluating the new nodes only; a form leaves the pass at its first level
    that agrees with the one before, so it is never evaluated on a finer
    grid.  QuadratureAnomaly is raised rather than evaluate more than
    MAX_NODES points for a form, so a returned sum has met ``rel_tol``.  A
    result's ``halfwidth`` is sqrt(LOG_TAIL / lam_min(F)), the reach of the
    cube along F's softest direction, and ``levels`` the number of doublings.
    A single form gives one QuadResult, a stack a list of them.
    """
    F = np.asarray(F, dtype=float)
    single = F.ndim < 3
    if single:
        F = np.atleast_2d(F)[None]
    batched = (lambda X, idx: f(X[0])[None]) if single else f
    k = F.shape[-1]
    if k > MAX_DIM:
        raise UnsupportedScaleError(f"tensor quadrature supports k <= {MAX_DIM}, got k={k}")
    lam, U = np.linalg.eigh(F)
    if np.any(lam[:, 0] <= 0.0):
        raise ValueError("decay form must be positive definite")
    T = U / np.sqrt(lam)[:, None, :]  # x = T[i] z
    jacobian = 1.0 / np.sqrt(np.prod(lam, axis=-1))
    Z = math.sqrt(LOG_TAIL)
    halfwidth = Z / np.sqrt(lam[:, 0])
    active = np.arange(len(F))
    results = [None] * len(F)

    def whitened(z):
        return batched(z @ T[active].transpose(0, 2, 1), active)

    m, levels, total = _N0, 0, None
    prev = np.full(len(F), np.nan)  # the first level agrees with nothing
    while (m + 1) ** k <= MAX_NODES:
        if total is None:
            nodes, weights = _trapezoid_grid(Z, m)
            total = _grid_sum(whitened, [nodes] * k, [weights] * k, active.size)
        else:
            total = total / 2**k + _new_nodes_sum(whitened, k, Z, m, active.size)
        value = jacobian[active] * total
        done = np.abs(value - prev) <= rel_tol * np.maximum(np.abs(value), np.abs(prev))
        for i in np.flatnonzero(done):
            results[active[i]] = QuadResult(float(value[i]), float(halfwidth[active[i]]), levels)
        active, prev, total = active[~done], value[~done], total[~done]
        if not active.size:
            return results[0] if single else results
        m, levels = 2 * m, levels + 1
    raise QuadratureAnomaly(
        f"trapezoid sums of {active.size} decay form(s) did not reach "
        f"rel_tol={rel_tol:g} within {MAX_NODES} nodes on R^{k}; the next grid "
        f"would have {m} intervals per axis")
