"""Seeded problem generator for the blflow benchmark.

Each workload is a fixed schedule of (data class, k, n) slots.  The numbers
in each slot are drawn once from a fixed catalog seed; the run seed then
flips the signs of the columns, a_j -> -a_j, and reflects their profiles.
Sign flips are an exact symmetry of the datum that floating point also keeps
exact, so every seed asks the program for the same work and must get the
same verdicts, while no two seeds send the same files.  Column permutations
and rotations of R^k are symmetries too, but they change the work: the order
pairs columns with the verifier's fixed samples and the ascent's restarts,
rounding under a rotation moves borderline verdicts, and the quadrature grid
is axis-aligned.
Problems reach the program only as files written by
``blflow.io.serialize_problem``: one seed gives byte-identical files.

The generator has its own NumPy solver for the s-system and its own closed
form for the Gaussian constant, so the data and the output checks do not
depend on the solvers under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from blflow.heatflow import Box, GaussianProfile, SumOfBoxes
from blflow.io import Problem, serialize_problem
from blflow.model import BellmanSpec, Exponents, VectorSystem

#: data classes; ``k3`` is reported beside them and tags slots with k == 3
CLASSES = ("interior", "near_boundary", "boundary", "outside",
           "negative_control", "symmetry", "extremizer")

#: the ops each workload sends to ``blflow.cli.main``, in order
COMMANDS = {
    "certify_sweep": ("finiteness", "constant", "solve-c"),
    "verify_battery": ("verify",),
    "flow_scan": ("flow",),
}

#: the slot catalog is drawn from this seed, never from the run seed
CATALOG_SEED = 1411

# Slot schedules: (class, k, n, variant).  ``scale<d>`` multiplies the
# solved C by 10**d, an exact symmetry the verdict must not see.
# 25 to 46 slots each, so that op_tail_ms sits near the 70th percentile, and
# one kind of op holds the median of each workload.  certify_sweep has enough
# near-boundary slots that its tail falls among their solver stalls.
_CERTIFY_INTERIOR = [(k, n) for k in (1, 2, 3, 4) for n in range(k + 1, 11)]
SCHEDULES = {
    "certify_sweep": (
        [("interior", k, n, "") for k, n in _CERTIFY_INTERIOR]
        + [("near_boundary", k, n, "") for k, n in ((1, 4), (2, 5), (2, 7), (3, 6), (4, 7))]
        + [("boundary", 2, 4, "")]
        + [("outside", k, n, "") for k, n in ((2, 4), (2, 6), (3, 5), (3, 7))]
        + [("near_boundary", k, n, "") for k, n in ((1, 5), (2, 4), (2, 6), (3, 5), (3, 7), (4, 6))]
    ),
    "verify_battery": (
        [("interior", 1, n, "") for n in (2, 3, 4, 5, 6, 8)]
        + [("interior", 2, n, "") for n in (3, 4, 5, 6, 7, 8) * 2]
        + [("negative_control", 2, n, "") for n in (3, 4, 5, 6, 7, 8)]
        + [("symmetry", 1, 4, "scale+4"), ("symmetry", 1, 5, "scale-4"),
           ("symmetry", 2, 4, "scale+2"), ("symmetry", 2, 5, "scale-2"),
           ("symmetry", 2, 6, "scale+4"), ("symmetry", 2, 7, "scale-4"),
           ("symmetry", 2, 8, "scale+0")]
        + [("interior", 3, 4, "")]
    ),
    "flow_scan": (
        [("interior", 1, n, "") for n in (2, 3, 4, 5, 6, 7)]
        + [("interior", 2, n, "") for n in (3, 4, 5) * 5]
        + [("extremizer", 1, 3, ""), ("extremizer", 2, 3, ""), ("extremizer", 2, 4, "")]
        + [("interior", 3, 4, "")]
    ),
}


@dataclass(frozen=True)
class Case:
    """One generated problem and the facts its output checks need."""

    name: str
    cls: str
    k: int
    text: str
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent NumPy reference


def unit_columns(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """Random k x n matrix with unit columns and every k-subset a basis."""
    while True:
        A = rng.normal(size=(k, n))
        A /= np.linalg.norm(A, axis=0)
        if min(abs(np.linalg.det(A[:, list(S)])) for S in combinations(range(n), k)) > 1e-3:
            return A


def basis_indicators(A: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """0/1 indicator rows of the column k-subsets that are bases."""
    k, n = A.shape
    rows = []
    for S in combinations(range(n), k):
        if abs(np.linalg.det(A[:, list(S)])) > tol:
            row = np.zeros(n)
            row[list(S)] = 1.0
            rows.append(row)
    return np.asarray(rows)


def dirichlet_point(rng: np.random.Generator, V: np.ndarray) -> np.ndarray:
    """Dirichlet-weighted average of indicator rows: sum(1/p) = k by construction."""
    return rng.dirichlet(np.ones(len(V))) @ V


def solve_s(A: np.ndarray, inv_p: np.ndarray, tol: float = 1e-14,
            max_iter: int = 200_000) -> np.ndarray:
    """s^2 with 1/p_j = s_j^2 <M(s)^{-1} a_j, a_j>, normalized to sum 1."""
    s_sq = np.full(A.shape[1], 1.0 / A.shape[1])
    for _ in range(max_iter):
        quad = np.einsum("ij,ij->j", A, np.linalg.solve((A * s_sq) @ A.T, A))
        if np.max(np.abs(inv_p - s_sq * quad)) <= tol:
            return s_sq
        s_sq = 0.5 * (inv_p / quad + s_sq)
        s_sq /= s_sq.sum()
    raise RuntimeError("reference s-system solver did not converge")


def certificate(A: np.ndarray, s_sq: np.ndarray) -> np.ndarray:
    C = np.linalg.inv((A * s_sq) @ A.T)
    return 0.5 * (C + C.T)


def closed_form_D(A: np.ndarray, inv_p: np.ndarray, s_sq) -> float:
    """prod_j b_j^{1/(2 p_j)} det(Q(b))^{-1/2} at b = p s^2, Q(b) = sum_j (b_j/p_j) a_j a_j^T."""
    s_sq = np.asarray(s_sq, dtype=float)
    b = s_sq / inv_p
    _, logdet = np.linalg.slogdet((A * s_sq) @ A.T)
    return math.exp(0.5 * float(inv_p @ np.log(b)) - 0.5 * logdet)


# ---------------------------------------------------------------------------
# data classes


def _interior(rng, k, n):
    A = unit_columns(rng, k, n)
    return A, dirichlet_point(rng, basis_indicators(A))


def _near_boundary(rng, k, n):
    """(1 - eps) * vertex + eps * interior point, eps log-uniform in [1e-3, 1e-2]."""
    A = unit_columns(rng, k, n)
    V = basis_indicators(A)
    eps = math.exp(rng.uniform(math.log(1e-3), math.log(1e-2)))
    return A, (1.0 - eps) * V[rng.integers(len(V))] + eps * dirichlet_point(rng, V)


def _boundary(rng, k, n):
    """One 1/p_j = 1 exactly; the rest average the bases through column j."""
    A = unit_columns(rng, k, n)
    V = basis_indicators(A)
    j = int(rng.integers(n))
    inv_p = dirichlet_point(rng, V[V[:, j] == 1.0])
    inv_p[j] = 1.0
    return A, inv_p


def _outside(rng, k, n):
    """A repeated column whose two exponents sum past 1 (needs k >= 2)."""
    A = unit_columns(rng, k, n - 1)
    A = np.concatenate([A, A[:, :1]], axis=1)
    delta = rng.uniform(0.1, 0.3)
    while True:
        rest = (k - 1.0 - 2.0 * delta) * rng.dirichlet(np.ones(n - 2))
        if rest.max() < 0.95:
            break
    inv_p = np.concatenate([[0.5 + delta], rest, [0.5 + delta]])
    return A, inv_p


def _profiles(rng, k, n, index):
    """k = 1 alternates boxes, sums of boxes and Gaussians; k >= 2 is Gaussian."""
    out = []
    for j in range(n):
        kind = (index + j) % 3 if k == 1 else 2
        if kind == 0:
            lo = rng.uniform(-1.5, 0.5)
            out.append(Box(lo, lo + rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)))
        elif kind == 1:
            lo = rng.uniform(-2.0, -0.5)
            out.append(SumOfBoxes((Box(lo, lo + rng.uniform(0.3, 1.0), rng.uniform(0.5, 2.0)),
                                   Box(0.2, 0.2 + rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.0)))))
        else:
            out.append(GaussianProfile(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5),
                                       rng.uniform(0.5, 2.0)))
    return tuple(out)


def _slot(workload, index, cls, k, n, variant, rng) -> dict:
    """The catalog entry of one slot: everything but the run's symmetry."""
    make = {"near_boundary": _near_boundary, "boundary": _boundary,
            "outside": _outside}.get(cls, _interior)
    A, inv_p = make(rng, k, n)
    slot = {"A": A, "inv_p": inv_p, "C": None, "profiles": None,
            "seed": int(rng.integers(2**31)), "facts": {}}
    if workload == "certify_sweep":
        slot["facts"]["verdict"] = {"boundary": "boundary",
                                    "outside": "outside"}.get(cls, "inside")
        return slot
    if cls in ("negative_control", "symmetry", "extremizer"):
        C = certificate(A, solve_s(A, inv_p))
        if cls == "negative_control":
            w, U = np.linalg.eigh(C)
            i = int(rng.integers(k))
            C = C + w[i] * np.outer(U[:, i], U[:, i])
        elif variant.startswith("scale"):
            C = C * 10.0 ** int(variant[5:])
        slot["C"] = 0.5 * (C + C.T)
    if workload == "flow_scan":
        if cls == "extremizer":
            sigma = np.einsum("ij,ik,kj->j", A, slot["C"], A)
            masses = rng.uniform(0.5, 2.0, size=n)
            slot["profiles"] = tuple(GaussianProfile(m / math.sqrt(math.pi * s), 0.0, float(s))
                                     for m, s in zip(masses, sigma))
        else:
            slot["profiles"] = _profiles(rng, k, n, index)
    return slot


def _reflect(profile):
    """The profile y -> u(-y)."""
    if isinstance(profile, Box):
        return Box(-profile.hi, -profile.lo, profile.height)
    if isinstance(profile, SumOfBoxes):
        return SumOfBoxes(tuple(_reflect(b) for b in profile.boxes))
    return GaussianProfile(profile.amplitude, -profile.center, profile.variance)


def _flip_columns(slot: dict, signs) -> dict:
    """a_j -> signs_j a_j and u_j(y) -> u_j(signs_j y); C and 1/p are unchanged."""
    out = dict(slot, A=slot["A"] * signs)
    if slot["profiles"] is not None:
        out["profiles"] = tuple(p if s > 0 else _reflect(p)
                                for p, s in zip(slot["profiles"], signs))
    return out


def _problem(slot: dict, with_B: bool) -> str:
    return serialize_problem(Problem(
        system=VectorSystem(slot["A"]), exponents=Exponents(slot["inv_p"]),
        B=BellmanSpec.young(slot["inv_p"]) if with_B else None,
        profiles=slot["profiles"], C=slot["C"], seed=slot["seed"]))


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's batch for ``seed``; same seed, same files."""
    w = sorted(SCHEDULES).index(workload)
    catalog_rng = np.random.default_rng([CATALOG_SEED, w])
    run_rng = np.random.default_rng([seed, w])
    cases = []
    for i, (cls, k, n, variant) in enumerate(SCHEDULES[workload]):
        slot = _slot(workload, i, cls, k, n, variant, catalog_rng)
        slot = _flip_columns(slot, run_rng.choice((-1.0, 1.0), size=n))
        cases.append(Case(f"{workload}-{i:03d}", cls, k,
                          _problem(slot, with_B=workload != "certify_sweep"),
                          slot["facts"]))
    return cases


def class_counts(cases) -> dict[str, int]:
    """Ops per data class, plus ``k3``: the ops with k == 3."""
    counts = dict.fromkeys(CLASSES, 0)
    counts["k3"] = 0
    for case in cases:
        counts[case.cls] += 1
        counts["k3"] += case.k == 3
    return counts
