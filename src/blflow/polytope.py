"""Finiteness of the sharp constant via the basis polytope of the column matroid.

D is finite iff the exponents (1/p_j) lie in the convex hull K of the 0/1
indicator vectors of the column k-subsets of A that form bases of R^k.  K is
the base polytope of the column matroid of A, so Edmonds' rank description
decides membership exactly, with no linear program: x lies in K iff
sum(x) = k and x(S) <= r(S) for every column subset S, and in its relative
interior iff, in addition, every tight S is a separator,
r(S) + r(E \\ S) = k.

One stacked determinant over the k-subsets of columns (_determinant_test) is
the package's one test of which subsets are bases, and one rule in is_finite
decides x on rows of (subset, room r(S) - x(S), separator flag) and the
matroid's connected components, which blflow.certificate's s-system solve
needs for its Hessian's null space.  The rows come from one of two sources.
When every k-subset passes, the matroid is uniform, r(S) = min(|S|, k), and
the n singletons and their n complements decide x in closed form: for n > k
the matroid is connected and none of them is a separator, for n = k it is
free and every subset is one.  Only data with a dependent k-subset build the
rank table (_rank_table): r(S) is the largest |B & S| over the bases B, so one
product against the 2^n - 2 proper subsets gives every rank, and n is capped
at MAX_N.  enumerate_bases returns the table for any datum, as the tests'
oracle.
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
    least_accepted: float  # the least |det A_B| / prod |a_j| over the bases B
    greatest_rejected: float | None  # the greatest over the other k-subsets; None if none


def enumerate_bases(sys: VectorSystem) -> BasisIndicatorSet:
    """All k-subsets of columns with a nonsingular k x k submatrix, and the rank table.

    The rows of ``vectors`` are in lexicographic order of their index sets.
    """
    combos, rel = _determinant_test(sys)
    return _rank_table(sys.n, combos, rel > BASIS_TOL)


def _determinant_test(sys: VectorSystem) -> tuple[np.ndarray, np.ndarray]:
    """The k-subsets of columns and their relative determinants.

    The test is scale invariant: a subset is a basis where its |det| over
    the product of its column norms exceeds BASIS_TOL.
    """
    k, n = sys.k, sys.n
    if n > MAX_N:
        raise UnsupportedScaleError(f"the rank table supports n <= {MAX_N}, got n={n}")
    combos = np.array(list(combinations(range(n), k)))
    norms = np.sqrt((sys.A * sys.A).sum(axis=0))
    dets = np.abs(np.linalg.det(np.moveaxis(sys.A[:, combos], 1, 0)))
    return combos, dets / norms[combos].prod(axis=1)


def _rank_table(n: int, combos: np.ndarray, keep: np.ndarray) -> BasisIndicatorSet:
    rows = combos[keep]
    if not len(rows):
        raise StructuralError("no k-subset of columns passes the determinant test: every |det| is "
                              f"at most BASIS_TOL = {BASIS_TOL:g} times the product of its column "
                              "norms")
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
    is the one of least bit mask.  ``least_accepted`` and
    ``greatest_rejected`` are the relative determinants of the k-subsets
    nearest BASIS_TOL on either side, the margin by which the matroid holds.

    The subsets S come from one of two sources.  When every k-subset is a
    basis the matroid is U_{k,n}, r(S) = min(|S|, k), and for 0 < x <= 1 the
    least room is at some {j}, with room 1 - x_j, or at some E \\ {j}, with
    room min(n - 1, k) - x(E \\ {j}): an S of at most k columns has no less
    room than any of its singletons, and an S of at least k no less than
    E \\ {j} for any column j it leaves out.  For n > k it is connected, so
    none of these 2n subsets is a separator; for n = k it is free, every
    column a coloop and every subset a separator; at n = 1 no subset is both
    proper and non-empty.  Otherwise the rank table gives all 2^n - 2 proper
    subsets.
    """
    if e.n != sys.n:
        raise StructuralError("exponent vector length differs from n")
    k, n, x = sys.k, sys.n, e.inv_p
    total = x.sum()
    combos, rel = _determinant_test(sys)
    keep = rel > BASIS_TOL
    if keep.all():
        xs = x[: n if n > 1 else 0]  # n = 1 has no proper non-empty subset
        bits = 1 << np.arange(len(xs))
        ids = np.concatenate([bits, (1 << n) - 1 - bits])
        room = np.concatenate([1.0 - xs, min(n - 1, k) - (total - xs)])
        separators = n == k  # one flag for every row
        components = np.arange(n) if n == k else np.zeros(n, dtype=np.intp)
        count = len(keep)
    else:
        bases = _rank_table(n, combos, keep)
        ids = np.arange(1, 2**n - 1)
        room = bases.ranks - bases.masks @ x
        separators = bases.ranks + bases.ranks[::-1] == k
        sep = bases.masks[separators]  # closed under complements, so sep^T (1 - sep) is symmetric
        components = (sep.T @ (1.0 - sep) == 0.0).argmax(axis=1)
        count = bases.count
    facts = (count, components, float(rel[keep].min()),
             None if keep.all() else float(rel[~keep].max()))
    off_degree = float(total) - k
    if abs(off_degree) > DEGREE_TOL:
        return MembershipVerdict("outside", tuple(range(n)), -abs(off_degree), *facts)
    violated = room.min(initial=0.0) < -DEGREE_TOL
    if not violated:
        room = np.where(separators, math.inf, room)
    slack = float(room.min(initial=math.inf))
    if slack == math.inf:
        return MembershipVerdict("inside", None, slack, *facts)
    verdict = "outside" if violated else "inside" if slack > boundary_tol else "boundary"
    mask = int(ids[room == slack].min())
    return MembershipVerdict(verdict, tuple(i for i in range(n) if mask >> i & 1), slack, *facts)
