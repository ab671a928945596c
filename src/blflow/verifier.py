"""Operational checks of the concavity certificate and its consequences.

The central object is the Hadamard form

    H(y) = G o Hess B(y),      G = A^T C A,      o = entrywise product,

which must be negative semidefinite at every interior point (the concavity
condition, L3), must be annihilated on the left by A D(y) with
D(y) = diag(y_j / sigma_j) (the second-order PDE identity), and must have
rank at most n - k.  Certificates are verified on deterministic
pseudo-random samples with the seed recorded in the report.

The forms of all samples are built at once as an (m, n, n) stack
(:func:`hadamard_forms`), and each check is one batched call on it: a
stacked ``eigvalsh`` for L3, a stacked SVD for the rank, one product for
``A D(y) H(y)``.  :func:`verify` builds the stack in slabs of about ``_SLAB``
matrix entries, so memory does not grow with the sample count.

Every tolerance is relative to the size of the data at each sample,
``||G||_2 ||Hess B(y)||_F``: the verdicts then do not see the exact
symmetries of the datum, a positive scaling of C or of B, a permutation of
the columns or a rotation of R^k.

L5 integrates B(exp(-<a_1, x>^2), ..., exp(-<a_n, x>^2)) over R^k.  Every
catalog B is a monomial, so the integrand is coeff * exp(-x^T F x) with
F = A diag(w) A^T, and quadrature.decay_quad integrates it on the cube
whitened by F.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .model import (HOMOG_TOL, BellmanSpec, GaussCert, VectorSystem, numerical_rank,
                    relative_top_eig)

SAMPLE_COUNT = 1000
SAMPLE_LO = 1e-2
SAMPLE_HI = 1e2
#: top eigenvalue of H(y) over ||G||_2 ||Hess B(y)||_F
L3_TOL = 1e-9
#: ||A D(y) H(y)||_F over ||A||_2 max_j |D_jj(y)| ||G||_2 ||Hess B(y)||_F
PDE_TOL = 1e-8
#: singular values of H(y) above RANK_TOL times the largest count
RANK_TOL = 1e-6
KN_TOL = 1e-10
L5_REL_TOL = 1e-9
EULER_SAMPLES = 100
#: verify builds the forms in slabs of about this many matrix entries
_SLAB = 1 << 16


def sample_interior(n: int, count: int = SAMPLE_COUNT, seed: int = 0,
                    lo: float = SAMPLE_LO, hi: float = SAMPLE_HI) -> np.ndarray:
    """Log-uniform interior samples on [lo, hi]^n; fixed seed for reproducibility."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=(count, n)))


def _gram(sys: VectorSystem, cert: GaussCert) -> np.ndarray:
    return sys.A.T @ cert.C @ sys.A


def hadamard_form(sys: VectorSystem, cert: GaussCert, B: BellmanSpec, y) -> np.ndarray:
    """Entrywise product of the Gram matrix <C a_i, a_j> with Hess B(y).

    y may carry leading batch dimensions; the result is then the stack of forms.
    """
    return _gram(sys, cert) * B.hessian(y)


@dataclass(frozen=True)
class HadamardForms:
    """The Hadamard forms of one (A, C, B) triple at a stack of samples.

    ``H[i] = G o Hess B(y[i])`` and ``scale[i] = ||G||_2 ||Hess B(y[i])||_F``,
    the size every relative tolerance is measured against.
    """

    y: np.ndarray
    H: np.ndarray
    scale: np.ndarray


def hadamard_forms(sys: VectorSystem, cert: GaussCert, B: BellmanSpec, y) -> HadamardForms:
    """The forms and their scales at the samples y, shape (m, n)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    G = _gram(sys, cert)
    K = B.hessian(y)
    return HadamardForms(y=y, H=G * K,
                         scale=np.linalg.norm(G, 2) * np.linalg.norm(K, axis=(-2, -1)))


def _forms_of(sys, cert, B, samples, seed) -> HadamardForms:
    """``samples`` as forms: built from points, or passed through when built."""
    if isinstance(samples, HadamardForms):
        return samples
    if samples is None:
        samples = sample_interior(B.n, seed=seed)
    return hadamard_forms(sys, cert, B, samples)


@dataclass(frozen=True)
class L3Report:
    ok: bool
    worst_eig: float  # largest top eigenvalue of H(y) over ||G||_2 ||Hess B(y)||_F
    worst_point: np.ndarray
    samples: int


def check_L3(sys: VectorSystem, cert: GaussCert, B: BellmanSpec,
             samples=None, tol: float = L3_TOL, seed: int = 0) -> L3Report:
    """Negative semidefiniteness of the Hadamard form on every sample.

    ``samples`` are points (m, n) or their :class:`HadamardForms`; the top
    eigenvalue and the asymmetry guard are relative to each sample's scale.
    """
    forms = _forms_of(sys, cert, B, samples, seed)
    top = relative_top_eig(forms.H, forms.scale, tol=tol)
    i = int(np.argmax(top))
    return L3Report(ok=bool(top[i] <= tol), worst_eig=float(top[i]),
                    worst_point=forms.y[i], samples=len(top))


def _pde_defects(sys: VectorSystem, cert: GaussCert, forms: HadamardForms) -> np.ndarray:
    """Per-sample normalized Frobenius defect of A D(y) H(y) = 0."""
    D = forms.y / cert.sigma
    R = sys.A @ (D[:, :, None] * forms.H)
    norms = np.linalg.norm(R, axis=(-2, -1))
    scale = np.linalg.norm(sys.A, 2) * np.max(np.abs(D), axis=-1) * forms.scale
    return norms / np.where(scale > 0.0, scale, 1.0)


def pde_defect(sys: VectorSystem, cert: GaussCert, B: BellmanSpec, y) -> float:
    """Normalized Frobenius defect of A D(y) [(A^T C A) o Hess B(y)] = 0 at one point."""
    y = np.asarray(y, dtype=float).ravel()
    return float(_pde_defects(sys, cert, hadamard_forms(sys, cert, B, y))[0])


def check_pde_identity(sys: VectorSystem, cert: GaussCert, B: BellmanSpec,
                       samples=None, tol: float = PDE_TOL,
                       seed: int = 0) -> tuple[bool, float]:
    """Worst normalized PDE defect over the samples; pass iff below tol.

    ``samples`` are points (m, n) or their :class:`HadamardForms`.
    """
    worst = float(np.max(_pde_defects(sys, cert, _forms_of(sys, cert, B, samples, seed))))
    return worst <= tol, worst


def check_rank_bound(sys: VectorSystem, cert: GaussCert, B: BellmanSpec,
                     samples=None, tol: float = RANK_TOL,
                     seed: int = 0) -> tuple[bool, int, np.ndarray]:
    """rank((A^T C A) o Hess B(y)) <= n - k at every sample.

    ``samples`` are points (m, n) or their :class:`HadamardForms`.  Returns
    (ok, worst_rank, per-sample ranks).
    """
    ranks = numerical_rank(_forms_of(sys, cert, B, samples, seed).H, tol=tol)
    worst = int(ranks.max())
    return worst <= sys.n - sys.k, worst, ranks


def check_kn_structure(B: BellmanSpec, samples: np.ndarray | None = None,
                       tol: float = KN_TOL, seed: int = 0) -> tuple[bool, float]:
    """Diagonal Hessian entries vanish (the degree-n product structure).

    Holds exactly for the product family and fails for every other catalog
    member, so it doubles as a negative control.
    """
    if samples is None:
        samples = sample_interior(B.n, count=100, seed=seed)
    diag = np.abs(np.diagonal(B.hessian(samples), axis1=-2, axis2=-1)).max(axis=-1)
    worst = float(np.max(diag / np.maximum(np.abs(B.evaluate(samples)), 1e-300)))
    return worst <= tol, worst


def _euler_defects(B: BellmanSpec, y) -> np.ndarray:
    """|<grad B(y), y> - deg(B) B(y)| / (1 + |B(y)|) for points y of shape (..., n)."""
    b = np.asarray(B.evaluate(y))
    return np.abs(np.sum(B.gradient(y) * y, axis=-1) - B.degree * b) / (1.0 + np.abs(b))


def euler_defect_at(B: BellmanSpec, y) -> tuple[bool, float]:
    """Relative homogeneity defect at one point (see model.euler_check)."""
    defect = float(_euler_defects(B, np.asarray(y, dtype=float).ravel()))
    return defect <= HOMOG_TOL, defect


@dataclass(frozen=True)
class L5Report:
    converged: bool
    value: float
    levels: int
    nodes_per_axis: int


def check_L5(sys: VectorSystem, B: BellmanSpec, rel_tol: float = L5_REL_TOL) -> L5Report:
    """Integrability probe: B(exp(-<a_1,x>^2), ...) over R^k.

    The integrand is coeff * exp(-x^T F x) with F = A diag(w) A^T, the bound
    quadrature.decay_quad needs; ``converged`` is its verdict at rel_tol.
    """
    def integrand(X):
        proj = X @ sys.A
        return B.evaluate(np.exp(-proj**2))

    F = (sys.A * B.weights) @ sys.A.T
    res = quadrature.decay_quad(integrand, F, rel_tol=rel_tol)
    return L5Report(converged=res.converged, value=res.value, levels=res.levels,
                    nodes_per_axis=res.nodes_per_axis)


@dataclass(frozen=True)
class VerifierReport:
    """Aggregate of the certificate checks with the tolerances used."""

    l3_ok: bool
    l3_max_eig: float
    pde_ok: bool
    pde_defect: float
    rank_ok: bool
    rank_worst: int
    euler_defect: float
    l5: L5Report
    samples: int
    seed: int
    tolerances: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.l3_ok and self.pde_ok and self.rank_ok and self.l5.converged


def verify(sys: VectorSystem, cert: GaussCert, B: BellmanSpec,
           count: int = SAMPLE_COUNT, seed: int = 0,
           l3_tol: float = L3_TOL, pde_tol: float = PDE_TOL) -> VerifierReport:
    """Run the full check battery on one (A, C, B) triple.

    The samples' forms are built once per slab of about ``_SLAB`` matrix
    entries and every check runs on each slab; the report keeps the worst
    value of each check over all slabs.
    """
    samples = sample_interior(B.n, count=count, seed=seed)
    rows = max(1, _SLAB // B.n**2)
    worst = []
    for start in range(0, count, rows):
        forms = hadamard_forms(sys, cert, B, samples[start:start + rows])
        worst.append((check_L3(sys, cert, B, forms, tol=l3_tol).worst_eig,
                      check_pde_identity(sys, cert, B, forms, tol=pde_tol)[1],
                      check_rank_bound(sys, cert, B, forms)[1]))
    l3_max, pde_worst, rank_worst = (max(column) for column in zip(*worst))
    euler = _euler_defects(B, samples[:EULER_SAMPLES])
    l5 = check_L5(sys, B)
    return VerifierReport(
        l3_ok=l3_max <= l3_tol, l3_max_eig=l3_max,
        pde_ok=pde_worst <= pde_tol, pde_defect=pde_worst,
        rank_ok=rank_worst <= sys.n - sys.k, rank_worst=rank_worst,
        euler_defect=float(euler.max(initial=0.0)), l5=l5,
        samples=count, seed=seed,
        tolerances={"l3_tol": l3_tol, "pde_tol": pde_tol,
                    "rank_tol": RANK_TOL, "l5_rel_tol": L5_REL_TOL},
    )
