"""Finiteness of the sharp constant via the basis polytope of the column matroid.

D is finite iff the exponents (1/p_j) lie in the convex hull K of the 0/1
indicator vectors of the column k-subsets of A that form bases of R^k.  K is
the base polytope of the column matroid of A, so Edmonds' rank description
decides membership exactly, with no linear program: x lies in K iff
sum(x) = k and x(S) <= r(S) for every column subset S, and in its relative
interior iff, in addition, every tight S is a separator,
r(S) + r(E \\ S) = k.  The rank of S is the largest |B & S| over the bases B,
so one stacked determinant over the k-subsets and one product against the
2^n - 2 proper subsets give the whole rank table; n is capped at MAX_N.

enumerate_bases is the package's one test of which column subsets are
bases.  Its table keeps the bases and the rank of every proper subset, and
serves only the verdict: is_finite also reads off it the matroid's connected
components, which blflow.certificate's s-system solve needs for its
Hessian's null space.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import StructuralError, UnsupportedScaleError
from .model import Exponents, VectorSystem

BASIS_TOL = 1e-9
# x may miss sum(x) = k, or exceed a rank x(S) <= r(S), by this much and still
# count as in K: sums of n <= 12 exponents carry round-off near 1e-15, and
# exponents entered to eight or nine digits stay within it
DEGREE_TOL = 1e-8
# a point whose slack, the least r(S) - x(S) over non-separators S, is at most
# this is on the relative boundary of K; the slack is the l1 distance from x to
# that boundary up to a factor of 2
BOUNDARY_TOL = 1e-9
MAX_N = 12


class BasisIndicatorSet(NamedTuple):
    """Bases of the column matroid of A, with the rank of every proper subset.

    Row i of ``masks`` is the indicator of the column subset whose bit mask
    is i + 1, and ``ranks[i]`` is its rank, so the complement of row i is row
    2^n - 3 - i and ``ranks[::-1]`` lists the complements' ranks.
    """

    vectors: np.ndarray  # shape (m, n), the indicator of each basis's columns
    masks: np.ndarray  # shape (2^n - 2, n), one row per proper subset
    ranks: np.ndarray  # shape (2^n - 2,)

    @property
    def count(self) -> int:
        return len(self.vectors)


class MembershipVerdict(NamedTuple):
    verdict: str  # "inside" | "boundary" | "outside"
    witness: tuple[int, ...] | None  # the column subset S that attains the slack
    slack: float  # r(S) - x(S) at the witness; inf when every S is a separator
    bases: BasisIndicatorSet  # the table it was read from
    components: np.ndarray  # shape (n,), the least column of each column's component


def enumerate_bases(sys: VectorSystem) -> BasisIndicatorSet:
    """All k-subsets of columns with a nonsingular k x k submatrix, and the rank table.

    The rows of ``vectors`` are in lexicographic order of their index sets.
    The determinant test is scale invariant: |det| must exceed BASIS_TOL
    times the product of the column norms.
    """
    k, n = sys.k, sys.n
    if n > MAX_N:
        raise UnsupportedScaleError(f"the rank table supports n <= {MAX_N}, got n={n}")
    combos = np.array(list(combinations(range(n), k)))
    norms = np.sqrt((sys.A * sys.A).sum(axis=0))
    dets = np.abs(np.linalg.det(np.moveaxis(sys.A[:, combos], 1, 0)))
    keep = dets > BASIS_TOL * norms[combos].prod(axis=1)
    rows = combos[keep]
    if not len(rows):
        # cannot happen for a valid VectorSystem (rank(A) = k)
        raise StructuralError("no basis subsets found: rank(A) < k")
    vectors = np.zeros((len(rows), n))
    vectors[np.arange(len(rows))[:, None], rows] = 1.0
    bits = np.arange(1, 2**n - 1)
    masks = ((bits[:, None] >> np.arange(n)) & 1).astype(float)
    ranks = (masks @ vectors.T).max(axis=1, initial=0.0)
    return BasisIndicatorSet(vectors, masks, ranks)


def is_finite(sys: VectorSystem, e: Exponents,
              boundary_tol: float = BOUNDARY_TOL) -> MembershipVerdict:
    """Classify x = (1/p_1, ..., 1/p_n) against the polytope K.

    Outside: sum(x) misses k by more than DEGREE_TOL (the witness is every
    column, the slack -|sum(x) - k|), or some x(S) exceeds r(S) by more than
    DEGREE_TOL (the witness is the most violated S).  Otherwise the slack is
    the least r(S) - x(S) over non-separators S, attained at the witness: at
    most boundary_tol is the boundary, more is inside.  With no non-separator
    K is the single point x = 1, and x is inside with slack inf.  The
    separators, r(S) + r(E \\ S) = k, also give the matroid's connected
    components: ``components`` labels each column by the least column that no
    separator holds without it.
    """
    if e.n != sys.n:
        raise StructuralError("exponent vector length differs from n")
    bases = enumerate_bases(sys)
    separators = bases.ranks + bases.ranks[::-1] == sys.k
    sep = bases.masks[separators]  # closed under complements, so sep^T (1 - sep) is symmetric
    components = (sep.T @ (1.0 - sep) == 0.0).argmax(axis=1)
    x = e.inv_p
    off_degree = float(x.sum()) - sys.k
    if abs(off_degree) > DEGREE_TOL:
        return MembershipVerdict("outside", tuple(range(sys.n)), -abs(off_degree), bases,
                                 components)
    room = bases.ranks - bases.masks @ x
    if room.size and room.min() < -DEGREE_TOL:
        worst = int(room.argmin())
        return MembershipVerdict("outside", _columns(bases.masks[worst]), float(room[worst]),
                                 bases, components)
    candidates = (~separators).nonzero()[0]
    if not candidates.size:
        return MembershipVerdict("inside", None, math.inf, bases, components)
    tight = candidates[room[candidates].argmin()]
    slack = float(room[tight])
    verdict = "inside" if slack > boundary_tol else "boundary"
    return MembershipVerdict(verdict, _columns(bases.masks[tight]), slack, bases, components)


def _columns(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(mask.nonzero()[0].tolist())
