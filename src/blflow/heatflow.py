"""Heat-flow energies: exact kernels, the energy trace, and its limits.

Initial data comes from a small catalog (boxes, Gaussians, sums of boxes)
whose heat extensions have closed forms (error functions / Gaussians), so no
PDE time stepping is needed: a monotonicity violation in the trace indicates
a real bug, not solver drift.  Each profile's bound(sigma, t) is a Gaussian
bound u(y, t) <= b_t exp(-delta_t (y - c)^2) centred on its own data: exact
for a Gaussian, and e^BOX_MARGIN times the total height for boxes.

The energy is the integral of B composed with the per-coordinate heat
extensions, u_j evolving with diffusivity sigma_j = <C a_j, a_j>.  Every B in
the catalog is a monomial, so for all-Gaussian data the integrand is a
Gaussian in x and the energy, like the t -> infinity limit, is the closed
form blflow.gaussian.gaussian_integral (gaussian_energy), at every time, and
one stacked call gives the whole trace.  Box data at t = 0 is piecewise
constant, so for k = 1 the integrand is a constant times a Gaussian between
breakpoints and the energy is again a closed form (_box_energy_at_zero).
Otherwise the bounds make the integrand at time t at most
c exp(M - (x - x*)^T F_t (x - x*)) with F_t = sum_j w_j delta_j(t) a_j a_j^T,
centre x* = F_t^{-1} sum_j w_j delta_j c_j a_j and margin M from the box
columns, and bellman_energies integrates every such time of a grid over R^k
in one quadrature.decay_quad pass: the nested trapezoid rule on the cube
whitened by F_t (widened to cover e^M) about x*, which is the same cube for
every t, so the times share its nodes.  Each node is evaluated once however
many times the mesh halves, with every column's kernel in one batched call
(_heat_kernel), and each time leaves the pass at its first level where two
successive sums agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gaussian, quadrature
from .errors import DomainError, StructuralError, UnsupportedScaleError
from .model import BellmanSpec, GaussCert, VectorSystem
from .verifier import check_L3

QUAD_TOL = 1e-8
DEFAULT_TIMES = (0.0, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)


def time_grid(tmax: float | None = None) -> list[float]:
    """DEFAULT_TIMES up to ``tmax``, and ``tmax`` itself; all of them for None."""
    if tmax is None:
        return list(DEFAULT_TIMES)
    return sorted({t for t in DEFAULT_TIMES if t <= tmax} | {tmax})

def erfc(x):
    """The complementary error function of libm, elementwise over an array."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


#: below this half-width h = (hi - lo) / (2 w), erf((c - lo) / w) - erf((c - hi) / w)
#: is taken from its series in h: the tails' difference loses about
#: log10(1 / h) digits there, and more where |c| >> hi - lo
_SERIES_H = 1e-3


def _erf_diff(c, lo, hi, w):
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
    ``w`` broadcast against them along the last axis.  One _erf_diff over all
    the edges, and each run is summed back by np.add.reduceat:
    (..., edges) -> (..., runs).
    """
    return np.add.reduceat(0.5 * height * _erf_diff(y, lo, hi, w), starts, axis=-1)


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
# profiles


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


# ---------------------------------------------------------------------------
# energy


def _check_problem(sys: VectorSystem, B: BellmanSpec, profiles) -> None:
    if profiles is None:
        raise StructuralError("flow needs profiles")
    if sys.k > quadrature.MAX_DIM:
        raise UnsupportedScaleError(f"tensor quadrature capped at k <= {quadrature.MAX_DIM}")
    if len(profiles) != sys.n or B.n != sys.n:
        raise StructuralError("need one profile per column and B of n variables")


def _heat_kernel(A, sigma, profiles):
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


def gaussian_energy(sys: VectorSystem, B: BellmanSpec, profiles, added_variance=0.0):
    """Integral over R^k of B(u_1(<a_1, x>), ..., u_n(<a_n, x>)) for Gaussian u_j.

    With B = coeff prod y_j^{w_j} and u_j = amp_j exp(-(y - c_j)^2 / v_j) this
    is :func:`blflow.gaussian.gaussian_integral`, after its one-time self-test;
    where it finds rank(A) < k it raises StructuralError.  ``added_variance``
    evolves the profiles by the heat flow first: 4 sigma_j t for each column
    gives v_j + 4 sigma_j t and amplitude amp_j sqrt(v_j / (v_j + 4 sigma_j t)),
    and a (T, n) stack of them, one row per time, gives the T energies at once.
    """
    gaussian._closed_form_selftest()
    amp, center, variance = np.array([(p.amplitude, p.center, p.variance) for p in profiles]).T
    vt = variance + added_variance
    value = gaussian.gaussian_integral(sys.A, B.weights, amp * np.sqrt(variance / vt),
                                       center, vt, B.coeff)
    if np.any(value == math.inf):
        raise StructuralError("degenerate Gaussian form; is rank(A) = k?")
    return value


def _box_energy_at_zero(sys: VectorSystem, B: BellmanSpec, profiles) -> float:
    """Integral over R of B(u_1(a_1 x), ..., u_n(a_n x)) at t = 0, k = 1.

    Between successive cuts edge / a_j the box and sum-of-boxes factors are
    constant, read off by one B.evaluate at the panel midpoints with each
    Gaussian column set to its amplitude.  The Gaussian factors then leave
    exp(-q x^2 + 2 b x - c0) with q = sum w_j a_j^2 / v_j,
    b = sum w_j a_j c_j / v_j and c0 = sum w_j c_j^2 / v_j over the Gaussian
    columns, whose integral over [lo, hi] is
    sqrt(pi / q) exp(b^2 / q - c0) (erf(r (hi - m)) - erf(r (lo - m))) / 2
    with r = sqrt(q) and m = b / q, or hi - lo when q = 0.  Every column of A
    is nonzero, so beyond the outermost cuts some box factor vanishes and the
    unbounded end panels add nothing.
    """
    a = sys.A[0]
    cuts = np.unique([edge / a_j for a_j, p in zip(a, profiles) for edge in p.breakpoints()])
    lo, hi = cuts[:-1], cuts[1:]
    mid = 0.5 * (lo + hi)
    gauss = [isinstance(p, GaussianProfile) for p in profiles]
    cols = [np.full(mid.size, p.amplitude) if g else p.value(a_j * mid)
            for a_j, p, g in zip(a, profiles, gauss)]
    const = B.evaluate(np.stack(cols, axis=-1))
    c = np.array([p.center if g else 0.0 for p, g in zip(profiles, gauss)])
    wv = np.array([w / p.variance if g else 0.0
                   for p, g, w in zip(profiles, gauss, B.weights)])
    q = float(wv @ a**2)
    if q == 0.0:
        return float(const @ (hi - lo))
    b, c0 = float(wv @ (a * c)), float(wv @ c**2)
    r, m = math.sqrt(q), b / q
    return (float(const @ _erf_diff(m, lo, hi, 1.0 / r))
            * 0.5 * math.sqrt(math.pi / q) * math.exp(b * m - c0))


@dataclass(frozen=True)
class EnergyTrace:
    times: np.ndarray  # strictly increasing, finite and >= 0
    values: np.ndarray
    halfwidths: np.ndarray  # the decay cube's reach; 0 for a closed form
    levels: np.ndarray  # mesh doublings; 0 for a closed form

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise StructuralError("trace values must be finite")


def bellman_energies(sys: VectorSystem, cert: GaussCert, B: BellmanSpec,
                     profiles, times, quad_tol: float = QUAD_TOL) -> EnergyTrace:
    """The energy trace over the given times, sorted and without repeats.

    Every time must be finite and >= 0, and so must every 4 sigma_j t
    (DomainError otherwise).  All-Gaussian data stay Gaussian under the heat
    flow, so their energies are one stacked :func:`gaussian_energy` over
    the times; box data at t = 0 with k = 1 is :func:`_box_energy_at_zero`.
    Both closed forms are reported with halfwidth and levels 0.  Every other
    time is integrated in one nested-trapezoid pass of
    :func:`blflow.quadrature.decay_quad` over the stack of the times' decay
    forms F_t, which share the whitened cube about each time's centre x*
    (:func:`_energies_by_quadrature`): the halfwidth is the cube's reach
    sqrt((40 + M) / lam_min(F_t)) along the softest direction of F_t, for
    the box columns' margin M, and levels the number of mesh doublings that
    time needed.  Box data at t = 0 with k >= 2 raises UnsupportedScaleError.
    """
    times = sorted({float(t) for t in times})
    for t in times:
        if not (math.isfinite(t) and t >= 0.0):
            raise DomainError(f"need finite t >= 0, got t = {t}")
    if times and not math.isfinite(4.0 * float(np.max(cert.sigma)) * times[-1]):
        raise DomainError(f"4 sigma_j t overflows at t = {times[-1]}")
    _check_problem(sys, B, profiles)
    values, halfwidths = np.zeros((2, len(times)))
    levels = np.zeros(len(times), dtype=int)
    if all(isinstance(p, GaussianProfile) for p in profiles):
        values = gaussian_energy(sys, B, profiles, np.outer(times, 4.0 * cert.sigma))
        return EnergyTrace(np.array(times), values, halfwidths, levels)
    # some profile is a box or a sum of boxes, discontinuous at t = 0: times[0]
    start = int(0.0 in times)
    if start and sys.k > 1:
        raise UnsupportedScaleError(
            "box initial data at t = 0 is only integrated exactly for k = 1; "
            "evaluate at t > 0 or use Gaussian profiles")
    results = _energies_by_quadrature(sys, cert, B, profiles, np.array(times[start:]), quad_tol)
    for i, res in enumerate(results, start):
        values[i], halfwidths[i], levels[i] = res.value, res.halfwidth, res.levels
    if start:
        values[0] = _box_energy_at_zero(sys, B, profiles)
    return EnergyTrace(np.array(times), values, halfwidths, levels)


def _energies_by_quadrature(sys, cert, B, profiles, ts, quad_tol) -> list:
    """decay_quad's results at the times ts > 0, from one pass over the
    profiles' Gaussian bounds, centred on the data.

    The bounds u_j(y, t) <= b_j exp(-delta_j (y - c_j)^2) make the integrand
    at time t at most prod_j b_j^{w_j} exp(-(x - x*)^T F_t (x - x*)), with
    F_t = sum_j w_j delta_j a_j a_j^T and x* = F_t^{-1} sum_j w_j delta_j c_j a_j.
    prod_j b_j^{w_j} is e^M times a bound on the integrand's peak, for
    M = BOX_MARGIN times the weights of the box columns.  So the nodes are
    shifted by x*, and decay_quad gets F_t LOG_TAIL / (LOG_TAIL + M): its
    cube then covers the margin e^M as well.
    """
    if not ts.size:
        return []
    bounds = [p.bound(s, ts) for p, s in zip(profiles, cert.sigma)]
    centres = np.array([c for c, _, _ in bounds])
    wd = B.weights * np.stack([d for _, d, _ in bounds], axis=-1)
    F = (sys.A * wd[:, None, :]) @ sys.A.T
    if np.any(np.linalg.eigvalsh(F)[:, 0] <= 0.0):
        raise StructuralError("degenerate decay form; is rank(A) = k?")
    x_star = np.linalg.solve(F, ((wd * centres) @ sys.A.T)[..., None])[..., 0]
    margin = BOX_MARGIN * sum(w for w, p in zip(B.weights, profiles)
                              if not isinstance(p, GaussianProfile))
    heat = _heat_kernel(sys.A, cert.sigma, profiles)

    def integrand(X, idx):
        return B.evaluate(heat(X + x_star[idx, None, :], ts[idx, None, None]))

    tail = quadrature.LOG_TAIL
    return quadrature.decay_quad(integrand, F * (tail / (tail + margin)), rel_tol=quad_tol)


def rhs_limit(sys: VectorSystem, cert: GaussCert, B: BellmanSpec, masses) -> float:
    """The t -> infinity limit: B of normalized Gaussians scaled by the masses.

    This is the energy of the extremizers gaussian_extremizer(m_j, sigma_j),
    so it is the closed form :func:`gaussian_energy`.
    """
    masses = np.asarray(masses, dtype=float).ravel()
    if masses.size != sys.n or np.any(masses <= 0.0):
        raise StructuralError("need one positive mass per column")
    return gaussian_energy(sys, B, [gaussian_extremizer(m, s) for m, s in zip(masses, cert.sigma)])


class FlowVerdict(NamedTuple):
    monotone: bool
    certified: bool
    mono_tol: float
    initial_value: float
    limit_value: float
    final_gap: float  # |last trace value - t->infinity limit|
    label: str


def monotonicity_scan(sys: VectorSystem, cert: GaussCert, B: BellmanSpec,
                      profiles, times=DEFAULT_TIMES,
                      quad_tol: float = QUAD_TOL) -> tuple[EnergyTrace, FlowVerdict]:
    """The energy trace of :func:`bellman_energies` over a time grid, and
    whether it never decreases.

    When the certificate fails the verdict is labeled accordingly:
    monotonicity is only guaranteed under the concavity condition.
    """
    trace = bellman_energies(sys, cert, B, profiles, times, quad_tol)
    values = trace.values
    mono_tol = max(1e-8, 10.0 * quad_tol * float(np.max(np.abs(values))))
    monotone = bool(np.all(np.diff(values) >= -mono_tol))
    certified = check_L3(sys, cert, B)[0]
    limit = rhs_limit(sys, cert, B, [p.mass() for p in profiles])
    label = "certified" if certified else "no certificate"
    verdict = FlowVerdict(monotone=monotone, certified=certified, mono_tol=mono_tol,
                          initial_value=float(values[0]), limit_value=limit,
                          final_gap=abs(float(values[-1]) - limit), label=label)
    return trace, verdict
