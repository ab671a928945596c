"""Finiteness of the sharp constant via the basis polytope of the column matroid.

D is finite iff the exponents (1/p_j) lie in the convex hull K of the 0/1
indicator vectors of the column k-subsets of A that form bases of R^k.  K is
the base polytope of the column matroid of A, so Edmonds' rank description
decides membership exactly, with no linear program: x lies in K iff
sum(x) = k and x(S) <= r(S) for every column subset S, and in its relative
interior iff, in addition, every tight S is a separator,
r(S) + r(E \\ S) = k.

One stacked determinant over the k-subsets of columns (_determinant_test) is
the package's one test of which subsets are bases.  When every k-subset
passes and n > k, the matroid is uniform, r(S) = min(|S|, k), and it is
connected, so is_finite decides x on the n singletons and the n complements
of singletons in closed form (_uniform_verdict).  Only data with a dependent
k-subset, or with n = k, build the rank table: r(S) is the largest |B & S|
over the bases B, so one product against the 2^n - 2 proper subsets gives
every rank, and n is capped at MAX_N.  The table serves only the verdict;
its separators also give the matroid's connected components, which
blflow.certificate's s-system solve needs for its Hessian's null space.
enumerate_bases returns the table for any datum, as the tests' oracle.
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
    basis_count: int  # the number of k-subsets of columns that are bases
    components: np.ndarray  # shape (n,), the least column of each column's component


def enumerate_bases(sys: VectorSystem) -> BasisIndicatorSet:
    """All k-subsets of columns with a nonsingular k x k submatrix, and the rank table.

    The rows of ``vectors`` are in lexicographic order of their index sets.
    """
    return _rank_table(sys.n, *_determinant_test(sys))


def _determinant_test(sys: VectorSystem) -> tuple[np.ndarray, np.ndarray]:
    """The k-subsets of columns and which of them are bases.

    The test is scale invariant: |det| must exceed BASIS_TOL times the
    product of the column norms.
    """
    k, n = sys.k, sys.n
    if n > MAX_N:
        raise UnsupportedScaleError(f"the rank table supports n <= {MAX_N}, got n={n}")
    combos = np.array(list(combinations(range(n), k)))
    norms = np.sqrt((sys.A * sys.A).sum(axis=0))
    dets = np.abs(np.linalg.det(np.moveaxis(sys.A[:, combos], 1, 0)))
    return combos, dets > BASIS_TOL * norms[combos].prod(axis=1)


def _rank_table(n: int, combos: np.ndarray, keep: np.ndarray) -> BasisIndicatorSet:
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
    separator holds without it.  Between subsets of equal room the witness
    is the one of least bit mask.
    """
    if e.n != sys.n:
        raise StructuralError("exponent vector length differs from n")
    combos, keep = _determinant_test(sys)
    x = e.inv_p
    off_degree = float(x.sum()) - sys.k
    if sys.n > sys.k and keep.all():
        return _uniform_verdict(sys.k, x, off_degree, len(keep), boundary_tol)
    bases = _rank_table(sys.n, combos, keep)
    separators = bases.ranks + bases.ranks[::-1] == sys.k
    sep = bases.masks[separators]  # closed under complements, so sep^T (1 - sep) is symmetric
    components = (sep.T @ (1.0 - sep) == 0.0).argmax(axis=1)
    if abs(off_degree) > DEGREE_TOL:
        return MembershipVerdict("outside", tuple(range(sys.n)), -abs(off_degree), bases.count,
                                 components)
    room = bases.ranks - bases.masks @ x
    if room.size and room.min() < -DEGREE_TOL:
        worst = int(room.argmin())
        return MembershipVerdict("outside", _columns(bases.masks[worst]), float(room[worst]),
                                 bases.count, components)
    candidates = (~separators).nonzero()[0]
    if not candidates.size:
        return MembershipVerdict("inside", None, math.inf, bases.count, components)
    tight = candidates[room[candidates].argmin()]
    slack = float(room[tight])
    verdict = "inside" if slack > boundary_tol else "boundary"
    return MembershipVerdict(verdict, _columns(bases.masks[tight]), slack, bases.count,
                             components)


def _uniform_verdict(k: int, x: np.ndarray, off_degree: float, basis_count: int,
                     boundary_tol: float) -> MembershipVerdict:
    """is_finite on the uniform matroid U_{k,n}, n > k: every k-subset a basis.

    r(S) = min(|S|, k), the matroid is connected, and only the empty set and
    E are separators.  For 0 < x <= 1 the least r(S) - x(S) over proper
    non-empty S is attained at some {j}, with room 1 - x_j, or at some
    E \\ {j}, with room k - x(E \\ {j}): an S of at most k columns has no
    less room than any of its singletons, and an S of at least k no less than
    E \\ {j} for any column j it leaves out.  So these 2n rooms give the rank
    table's verdict.
    """
    n = len(x)
    components = np.zeros(n, dtype=np.intp)
    if abs(off_degree) > DEGREE_TOL:
        return MembershipVerdict("outside", tuple(range(n)), -abs(off_degree), basis_count,
                                 components)
    bits = 1 << np.arange(n)
    masks = np.concatenate([bits, (1 << n) - 1 - bits])
    room = np.concatenate([1.0 - x, k - (x.sum() - x)])
    slack = float(room.min())
    mask = int(masks[room == slack].min())
    witness = tuple(j for j in range(n) if mask >> j & 1)
    if slack < -DEGREE_TOL:
        verdict = "outside"
    else:
        verdict = "inside" if slack > boundary_tol else "boundary"
    return MembershipVerdict(verdict, witness, slack, basis_count, components)


def _columns(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(mask.nonzero()[0].tolist())
