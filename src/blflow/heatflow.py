"""Heat-flow energies: the energy trace and its limits.

The initial data u_j and their exact heat extensions are blflow.profiles;
this module integrates B over them.  The energy is the integral of B
composed with the per-coordinate heat extensions, u_j evolving with
diffusivity sigma_j = <C a_j, a_j>.  Every B in the catalog is a monomial,
so for all-Gaussian data the integrand is a Gaussian in x and the energy,
like the t -> infinity limit, is the closed form
blflow.gaussian.gaussian_integral (gaussian_energy), at every time, and one
stacked call gives the whole trace.  Box data at t = 0 is piecewise
constant, so for k = 1 the integrand is a constant times a Gaussian between
breakpoints and the energy is again a closed form (_box_energy_at_zero).
Otherwise the profiles' Gaussian bounds make the integrand at time t at most
c exp(M - (x - x*)^T F_t (x - x*)) with F_t = sum_j w_j delta_j(t) a_j a_j^T,
centre x* = F_t^{-1} sum_j w_j delta_j c_j a_j and margin M from the box
columns, and bellman_energies integrates every such time of a grid over R^k
in one quadrature.decay_quad pass: the nested trapezoid rule on the cube
whitened by F_t (widened to cover e^M) about x*, which is the same cube for
every t, so the times share its nodes.  Each node is evaluated once however
many times the mesh halves, with every column's kernel in one batched call
(profiles.heat_kernel), and each time leaves the pass at its first level
where two successive sums agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gaussian, quadrature
from .errors import DomainError, StructuralError, UnsupportedScaleError
from .model import BellmanSpec, GaussCert, VectorSystem
# Box and SumOfBoxes are not read here; they stay bound for importers of this module
from .profiles import (BOX_MARGIN, Box, GaussianProfile, SumOfBoxes, erf_diff,  # noqa: F401
                       gaussian_extremizer, heat_kernel)
from .verifier import check_L3

QUAD_TOL = 1e-8
DEFAULT_TIMES = (0.0, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)


def time_grid(tmax: float | None = None) -> list[float]:
    """DEFAULT_TIMES up to ``tmax``, and ``tmax`` itself; all of them for None."""
    if tmax is None:
        return list(DEFAULT_TIMES)
    return sorted({t for t in DEFAULT_TIMES if t <= tmax} | {tmax})


def _check_problem(sys: VectorSystem, B: BellmanSpec, profiles) -> None:
    if profiles is None:
        raise StructuralError("flow needs profiles")
    if len(profiles) != sys.n or B.n != sys.n:
        raise StructuralError("need one profile per column and B of n variables")


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
    # sorted, without repeats; np.unique would import numpy.ma on its first call
    cuts = np.array(sorted({edge / a_j for a_j, p in zip(a, profiles)
                            for edge in p.breakpoints()}))
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
    return (float(const @ erf_diff(m, lo, hi, 1.0 / r))
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
    time needed.  Box data at t = 0 with k >= 2 raises UnsupportedScaleError,
    and so does decay_quad on k > quadrature.MAX_DIM; the closed forms have
    no cap on k.
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
    heat = heat_kernel(sys.A, cert.sigma, profiles)

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
