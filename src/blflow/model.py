"""Domain types: vector systems, exponents, concavity candidates, certificates.

Every candidate function in the catalog is a generalized monomial

    B(y) = M * y_1**w_1 * ... * y_n**w_n,

which covers the three supported variants: ``young`` (all weights in (0,1)),
``product`` (all weights 1) and ``lifted`` (a monomial prefactor times a
weighted geometric mean of two designated variables, itself a monomial).
Keeping the catalog monomial makes gradients and Hessians exact, which is
what the downstream certificate checks rely on.

A certificate (GaussCert) is the symmetric matrix C and its Gram matrix
G = A^T C A: the concavity test reads G, the heat flow sigma_j = G_jj.
Every range check here is written so that NaN fails it, and an open range
also requires a finite value, so a non-finite number in a problem file is a
StructuralError (exit 2), never a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateRejection, DomainError, StructuralError

# default tolerances, sized for double precision at desk scale (k <= 4, n <= 8)
RANK_TOL = 1e-9
HOMOG_TOL = 1e-8
SYM_TOL = 1e-12

#: named one-homogeneous concave sections phi(u, v); value is the exponent
#: of the first variable in the weighted geometric mean u**theta * v**(1-theta)
SECTION_CATALOG = {
    "sqrt_uv": 0.5,
}


def numerical_rank(M, tol: float = RANK_TOL) -> int:
    """Number of singular values above tol times the largest one."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise StructuralError("matrix has non-finite entries")
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0]))


def gram_spectrum(G, d, k: int) -> np.ndarray:
    """Ascending eigenvalues of T = F^{1/2} C F^{1/2}, F = A diag(d) A^T, read off G = A^T C A.

    For d > 0 the n x n form D G D = (A D)^T C (A D), D = diag(sqrt(d)), has
    T's spectrum and n - k zeros, so its k eigenvalues of largest modulus
    are kept; where T has an eigenvalue near 0 the choice among near-zeros
    moves no verdict.  T does not see a rescaling a_j -> c_j a_j that
    rescales d_j by 1 / c_j^2, a positive scaling of C against d, or a
    rotation of R^k.
    """
    root = np.sqrt(d)
    lam = np.linalg.eigvalsh(root[:, None] * G * root)
    top = lam[abs(lam).argsort()[lam.size - k:]]
    top.sort()
    return top


@dataclass(frozen=True)
class VectorSystem:
    """The k x n matrix A whose j-th column is the vector a_j."""

    A: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "A", A)
        k, n = A.shape
        if not (1 <= k <= n):
            raise StructuralError(f"need 1 <= k <= n, got k={k}, n={n}")
        norms = np.sqrt((A * A).sum(axis=0))
        if (norms == 0.0).any():
            raise StructuralError("every column of A must be nonzero")
        # on unit columns, so that rescaling one column cannot change the answer
        if numerical_rank(A / norms) < k:
            raise StructuralError("rank(A) < k")

    @property
    def k(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class Exponents:
    """The vector (1/p_1, ..., 1/p_n); each entry in (0, 1].

    The homogeneity constraint sum(1/p_j) = k is enforced by the callers
    that need it, so polytope queries may probe arbitrary points.
    """

    inv_p: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.inv_p, dtype=float).ravel()
        object.__setattr__(self, "inv_p", v)
        if v.size == 0 or not ((v > 0.0) & (v <= 1.0)).all():
            raise StructuralError("each 1/p_j must lie in (0, 1]")

    @property
    def n(self) -> int:
        return self.inv_p.size

    @property
    def p(self) -> np.ndarray:
        return 1.0 / self.inv_p


@dataclass(frozen=True)
class BellmanSpec:
    """A candidate function B with exact evaluate/gradient/Hessian oracles.

    Internally B(y) = coeff * prod(y_j ** weights_j).  ``variant`` records
    which catalog family the instance came from.
    """

    variant: str
    coeff: float
    weights: np.ndarray
    section_vars: tuple[int, int] | None = None
    theta: float | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "weights", w)
        if not (self.coeff > 0.0 and math.isfinite(self.coeff)):
            raise StructuralError("prefactor must be positive and finite")
        if not np.all((w > 0.0) & (w <= 1.0 + 1e-15)):
            raise StructuralError("monomial weights must lie in (0, 1]")

    # -- constructors ------------------------------------------------------

    @classmethod
    def young(cls, alpha) -> "BellmanSpec":
        alpha = np.asarray(alpha, dtype=float).ravel()
        if not np.all((alpha > 0.0) & (alpha < 1.0)):
            raise StructuralError("Young exponents must lie strictly in (0, 1)")
        return cls("young", 1.0, alpha)

    @classmethod
    def product(cls, M: float, n: int) -> "BellmanSpec":
        return cls("product", float(M), np.ones(n))

    @classmethod
    def lifted(cls, phi_id: str, alpha=(), section_vars: tuple[int, int] | None = None,
               theta: float | None = None) -> "BellmanSpec":
        """Monomial prefactor with exponents alpha times the section phi.

        By default the section occupies the last two variables; pass
        ``section_vars`` to place it elsewhere (the prefactor exponents then
        apply to the remaining variables in order).
        """
        if phi_id in SECTION_CATALOG:
            th = SECTION_CATALOG[phi_id]
        elif phi_id == "geomean":
            if theta is None or not (0.0 < theta < 1.0):
                raise StructuralError("geomean section needs theta in (0, 1)")
            th = float(theta)
        else:
            raise StructuralError(f"unknown section {phi_id!r}; catalog: "
                                  f"{sorted(SECTION_CATALOG)} or 'geomean'")
        alpha = np.asarray(alpha, dtype=float).ravel()
        if not np.all((alpha > 0.0) & (alpha <= 1.0)):
            raise StructuralError("prefactor exponents must lie in (0, 1]")
        n = alpha.size + 2
        if section_vars is None:
            section_vars = (n - 2, n - 1)
        p, q = section_vars
        if p == q or not (0 <= p < n and 0 <= q < n):
            raise StructuralError("section variables must be two distinct indices")
        w = np.empty(n)
        rest = [j for j in range(n) if j not in (p, q)]
        w[rest] = alpha
        w[p] = th
        w[q] = 1.0 - th
        return cls("lifted", 1.0, w, section_vars=(p, q), theta=th)

    # -- basic facts -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def degree(self) -> float:
        return float(self.weights.sum())

    # -- oracles -----------------------------------------------------------

    def evaluate(self, y) -> np.ndarray | float:
        """B(y); y may carry leading batch dimensions, last axis length n."""
        y = np.asarray(y, dtype=float)
        if np.any(y < 0.0):
            raise DomainError("B is only defined on the nonnegative orthant")
        val = self.coeff * np.prod(np.power(y, self.weights), axis=-1)
        return val if val.ndim else float(val)

    def _interior(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim == 0 or y.shape[-1] != self.n:
            raise StructuralError(f"expected points of length {self.n}")
        if np.any(y <= 0.0):
            raise DomainError("derivatives require an interior point (all y_j > 0)")
        return y

    def gradient(self, y) -> np.ndarray:
        """Gradient of B; y may carry leading batch dimensions, last axis length n."""
        y = self._interior(y)
        return np.asarray(self.evaluate(y))[..., None] * self.weights / y

    def hessian(self, y) -> np.ndarray:
        """Hessian of B, (..., n, n) for points y of shape (..., n)."""
        y = self._interior(y)
        b = np.asarray(self.evaluate(y))[..., None]
        r = self.weights / y
        H = b[..., None] * (r[..., :, None] * r[..., None, :])
        # diagonal via w(w-1)/y^2 so unit weights give exact zeros
        i = np.arange(self.n)
        H[..., i, i] = b * self.weights * (self.weights - 1.0) / y**2
        return H


@dataclass(frozen=True)
class GaussCert:
    """A candidate certificate: the symmetric matrix C and its Gram matrix
    G = A^T C A, which must be finite, with every sigma_j = G_jj = <C a_j, a_j> > 0."""

    C: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "G", np.atleast_2d(np.asarray(self.G, dtype=float)))
        if not np.isfinite(C).all():
            raise StructuralError("C must have finite entries")
        # a finite C can still overflow G
        if not (np.isfinite(self.G).all() and (self.sigma > 0.0).all()):
            raise CertificateRejection("A^T C A must be finite and every <C a_j, a_j> positive")
        scale = max(1.0, float(abs(C).max()))
        if abs(C - C.T).max() > SYM_TOL * scale:
            raise StructuralError("C must be symmetric within 1e-12")

    @property
    def sigma(self) -> np.ndarray:  # the diffusivities sigma_j = G_jj = <C a_j, a_j>
        return self.G.diagonal()


def make_cert(sys: VectorSystem, C) -> GaussCert:
    """Assemble a GaussCert from an explicit matrix C."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # GaussCert rejects what is not finite
        G = sys.A.T @ C @ sys.A
    return GaussCert(C=C, G=G)
