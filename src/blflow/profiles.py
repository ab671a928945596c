"""Initial data: the profile catalog and its exact heat extensions.

Initial data comes from a small catalog (boxes, Gaussians, sums of boxes)
whose heat extensions have closed forms (error functions / Gaussians), so no
PDE time stepping is needed: a monotonicity violation in the energy trace
indicates a real bug, not solver drift.  Each profile's bound(sigma, t) is a
Gaussian bound u(y, t) <= b_t exp(-delta_t (y - c)^2) centred on its own
data: exact for a Gaussian, and e^BOX_MARGIN times the total height for
boxes.  heat_kernel stacks the extensions u_j(<a_j, x>, t) of every column
into one batched call over a grid of points and times.

Nothing here reads B, the certificate or the energy (blflow.heatflow), so a
problem file's profiles parse without the energy layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError


def erfc(x):
    """The complementary error function of libm, elementwise over an array."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


#: below this half-width h = (hi - lo) / (2 w), erf((c - lo) / w) - erf((c - hi) / w)
#: is taken from its series in h: the tails' difference loses about
#: log10(1 / h) digits there, and more where |c| >> hi - lo
_SERIES_H = 1e-3


def erf_diff(c, lo, hi, w):
    """erf((c - lo) / w) - erf((c - hi) / w) for lo < hi and w > 0, elementwise.

    It is taken from the tails erfc(|a|) and erfc(|b|) of a = (c - lo) / w and
    b = (c - hi) / w: where a and b have one sign it is the tails'
    difference, which keeps every digit where erf(a) - erf(b) is the round-off
    of 1 - 1.  Where the half-width h = (hi - lo) / (2 w) is below _SERIES_H
    (a kernel much wider than the interval) the tails cancel, and so do a and
    b, so there it is _erf_diff_series at the midpoint (c - (lo + hi) / 2) / w
    and h, both formed without a difference of nearby numbers.
    """
    a, b = (c - lo) / w, (c - hi) / w
    ea, eb = erfc(np.abs(a)), erfc(np.abs(b))
    diff = np.where((b > 0.0) | (a < 0.0), np.abs(ea - eb), 2.0 - ea - eb)
    h = 0.5 * (hi - lo) / w
    if np.min(h) < _SERIES_H:
        diff = np.where(h < _SERIES_H, _erf_diff_series((c - 0.5 * (lo + hi)) / w, h), diff)
    return diff


def _erf_diff_series(m, h):
    """erf(m + h) - erf(m - h) for 0 <= h < _SERIES_H, from the Taylor series
    of exp(-s^2) about the midpoint m:
    (4 h / sqrt(pi)) exp(-m^2) sum_n H_2n(m) h^2n / (2n + 1)!, with the
    Hermite polynomials H_2n, to the h^6 term.  The first omitted term is below
    1e-15 relative while exp(-m^2) is a normal number (|m| < 27); |m| is capped
    at 40, where the sum is 0, so that no H_2n overflows."""
    m2 = np.minimum(np.abs(m), 40.0) ** 2
    h2 = h * h
    H2 = 4.0 * m2 - 2.0
    H4 = (16.0 * m2 - 48.0) * m2 + 12.0
    H6 = ((64.0 * m2 - 480.0) * m2 + 720.0) * m2 - 120.0
    series = 1.0 + h2 * (H2 / 6.0 + h2 * (H4 / 120.0 + h2 * H6 / 5040.0))
    return 4.0 / math.sqrt(math.pi) * h * np.exp(-m2) * series


def _box_heat(y, lo, hi, height, w, starts):
    """The heat extensions of sums of boxes, one per run of edges.

    ``lo``, ``hi`` and ``height`` hold every box edge of every sum, each sum a
    run that begins at an index in ``starts``; ``y`` and the kernel widths
    ``w`` broadcast against them along the last axis.  One erf_diff over all
    the edges, and each run is summed back by np.add.reduceat:
    (..., edges) -> (..., runs).
    """
    return np.add.reduceat(0.5 * height * erf_diff(y, lo, hi, w), starts, axis=-1)


def _gaussian_heat(y, amp, center, variance, added):
    """The heat extension of amp exp(-(y - center)^2 / variance) once the
    kernel has added the variance ``added`` = 4 sigma t: the variance
    v_t = variance + added and the amplitude amp sqrt(variance / v_t), so the
    mass is kept; the arguments broadcast elementwise."""
    vt = variance + added
    return amp * np.sqrt(variance / vt) * np.exp(-((y - center) ** 2) / vt)


#: the log margin K of a box profile's Gaussian bound (_Boxes.bound): the
#: bound is e^K times the sum of the heights at its centre
BOX_MARGIN = 8.0


# ---------------------------------------------------------------------------
# the catalog


class _Boxes:
    """The one body of Box and SumOfBoxes: the sum of height * 1_[lo, hi]
    over the (lo, hi, height) arrays that _set_edges builds once per profile."""

    def _set_edges(self, rows) -> None:
        lo, hi, height = np.array(rows, dtype=float).T
        if not np.all((lo < hi) & (height > 0.0)
                      & np.isfinite(lo) & np.isfinite(hi) & np.isfinite(height)):
            raise StructuralError("box needs finite lo < hi and a finite positive height")
        object.__setattr__(self, "_edges", (lo, hi, height))

    def mass(self) -> float:
        lo, hi, height = self._edges
        return float(np.sum(height * (hi - lo)))

    def value(self, y):
        lo, hi, height = self._edges
        y = np.asarray(y, dtype=float)[..., None]
        return (height * ((y >= lo) & (y <= hi))).sum(axis=-1)

    def heat(self, y, sigma: float, t):
        if np.ndim(t) == 0 and t == 0.0:
            return self.value(y)
        y = np.asarray(y, dtype=float)[..., None]
        return _box_heat(y, *self._edges, np.sqrt(4.0 * sigma * t)[..., None], [0])[..., 0]

    def bound(self, sigma: float, t):
        """(c, delta_t, log b_t) with u(y, t) <= b_t exp(-delta_t (y - c)^2).

        On the hull [c - l, c + l] of the boxes, with H the sum of their
        heights and w^2 = 4 sigma t, erfc(x) <= exp(-x^2) gives
        u(y, t) <= H exp(-((|y - c| - l)_+)^2 / w^2), and by Cauchy-Schwarz
        that is at most H exp(BOX_MARGIN - (y - c)^2 / (w^2 + l^2 / BOX_MARGIN)).
        """
        lo, hi, height = self._edges
        left, right = float(lo.min()), float(hi.max())
        half = 0.5 * (right - left)
        return (0.5 * (left + right), 1.0 / (4.0 * sigma * t + half * half / BOX_MARGIN),
                math.log(float(height.sum())) + BOX_MARGIN)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(np.ravel(self._edges[:2], order="F").tolist())  # lo, hi of each box


@dataclass(frozen=True)
class Box(_Boxes):
    """Indicator of [lo, hi] scaled to the given height."""

    lo: float
    hi: float
    height: float

    def __post_init__(self):
        self._set_edges([(self.lo, self.hi, self.height)])


@dataclass(frozen=True)
class GaussianProfile:
    """u(y) = amplitude * exp(-(y - center)^2 / variance)."""

    amplitude: float
    center: float
    variance: float

    def __post_init__(self):
        if not (0.0 < self.amplitude < math.inf and 0.0 < self.variance < math.inf
                and math.isfinite(self.center)):
            raise StructuralError("Gaussian needs a finite center and finite positive "
                                  "amplitude and variance")

    def mass(self) -> float:
        return self.amplitude * math.sqrt(math.pi * self.variance)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return self.amplitude * np.exp(-((y - self.center) ** 2) / self.variance)

    def heat(self, y, sigma: float, t):
        return _gaussian_heat(np.asarray(y, dtype=float), self.amplitude, self.center,
                              self.variance, 4.0 * sigma * t)

    def bound(self, sigma: float, t):
        """(c, delta_t, log b_t) with u(y, t) <= b_t exp(-delta_t (y - c)^2),
        with equality: the centre, 1 / v_t and the log of the evolved amplitude."""
        vt = self.variance + 4.0 * sigma * t
        return (self.center, 1.0 / vt,
                math.log(self.amplitude) + 0.5 * np.log(self.variance / vt))

    def breakpoints(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class SumOfBoxes(_Boxes):
    boxes: tuple[Box, ...]

    def __post_init__(self):
        if not self.boxes:
            raise StructuralError("sum of boxes needs at least one box")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        self._set_edges([(b.lo, b.hi, b.height) for b in self.boxes])


#: every profile's heat(y, sigma, t) takes one time t >= 0, or an array of
#: times t > 0 broadcast against y (a (T, 1) column against (T, m) points);
#: its bound(sigma, t) takes one time or an array of them
Profile = Box | GaussianProfile | SumOfBoxes


def gaussian_extremizer(mass: float, sigma: float) -> GaussianProfile:
    """The equality-case profile b e^{-y^2/sigma} (pi sigma)^{-1/2} with
    integral ``mass``; its heat extension stays in the same family."""
    return GaussianProfile(amplitude=mass / math.sqrt(math.pi * sigma),
                           center=0.0, variance=sigma)


def heat_kernel(A, sigma, profiles):
    """The stacked heat extensions u_j(<a_j, x>, t), as one function of an
    (..., m, k) batch of points and of times t broadcast against (..., m, 1),
    with values (..., m, n), for profiles of which some are boxes or sums of
    boxes.  Their edges are gathered here, once, so that each call is one
    _box_heat over all of them and one _gaussian_heat over the Gaussian
    columns."""
    gauss = [j for j, p in enumerate(profiles) if isinstance(p, GaussianProfile)]
    boxes = [j for j in range(len(profiles)) if j not in gauss]
    edges = [profiles[j]._edges for j in boxes]
    sizes = [e[0].size for e in edges]
    lo, hi, height = (np.concatenate(e) for e in zip(*edges))
    owner = np.repeat(boxes, sizes)
    starts = np.cumsum([0, *sizes[:-1]])
    amp, center, variance = np.array([(profiles[j].amplitude, profiles[j].center,
                                       profiles[j].variance) for j in gauss]).reshape(-1, 3).T

    def heat(X, t):
        out = np.empty((*X.shape[:-1], len(profiles)))
        out[..., boxes] = _box_heat(X @ A[:, owner], lo, hi, height,
                                    np.sqrt(4.0 * sigma[owner] * t), starts)
        if gauss:
            out[..., gauss] = _gaussian_heat(X @ A[:, gauss], amp, center, variance,
                                             4.0 * sigma[gauss] * t)
        return out

    return heat
