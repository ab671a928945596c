import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import erfc

from blflow import (BellmanSpec, Box, GaussianProfile, SumOfBoxes, VectorSystem,
                    bellman_energies, cli, gaussian, gaussian_energy, gaussian_extremizer,
                    make_cert, monotonicity_scan, quadrature, rhs_limit)
from blflow.errors import DomainError, StructuralError, UnsupportedScaleError
from blflow.heatflow import DEFAULT_TIMES, QUAD_TOL, time_grid
from blflow.profiles import BOX_MARGIN, erf_diff, erfc as profiles_erfc
from blflow.quadrature import LOG_TAIL, decay_quad
from oracles import bellman_identity_probe, evolved, heat_dy

HOLDER_BOXES = Path(__file__).resolve().parent.parent / "problems" / "holder_boxes.json"

PROFILES = [
    Box(0.0, 1.0, 1.0),
    Box(-2.0, 0.5, 3.0),
    GaussianProfile(1.0, 0.0, 1.0),
    GaussianProfile(0.7, -1.5, 2.0),
    SumOfBoxes((Box(-1.0, 0.0, 1.0), Box(0.5, 2.0, 2.0))),
]


def shifted(profile, s):
    """The profile y -> u(y - s)."""
    if isinstance(profile, Box):
        return Box(profile.lo + s, profile.hi + s, profile.height)
    if isinstance(profile, SumOfBoxes):
        return SumOfBoxes(tuple(shifted(b, s) for b in profile.boxes))
    return GaussianProfile(profile.amplitude, profile.center + s, profile.variance)


def dilated(profile, lam):
    """The profile y -> u(y / lam) / lam, of the same mass."""
    if isinstance(profile, Box):
        return Box(lam * profile.lo, lam * profile.hi, profile.height / lam)
    if isinstance(profile, SumOfBoxes):
        return SumOfBoxes(tuple(dilated(b, lam) for b in profile.boxes))
    return GaussianProfile(profile.amplitude / lam, lam * profile.center,
                           lam * lam * profile.variance)


def assert_dominated(profile, sigma=1.7):
    """u(y, t) <= b_t exp(-delta_t (y - c)^2) for (c, delta_t, log b_t) =
    profile.bound(sigma, t), at random t in (1e-6, 1e6) and random y out to
    twelve times the profile's half-width plus kernel width from its middle;
    a Gaussian's bound is attained at its centre."""
    rng = np.random.default_rng(53)
    if isinstance(profile, GaussianProfile):
        r = math.sqrt(profile.variance)
        lo, hi = profile.center - r, profile.center + r
    else:
        lo, hi = float(profile._edges[0].min()), float(profile._edges[1].max())
    for t in 10.0 ** rng.uniform(-6.0, 6.0, size=40):
        c, d, log_b = profile.bound(sigma, t)
        reach = 0.5 * (hi - lo) + math.sqrt(4.0 * sigma * t)
        y = 0.5 * (lo + hi) + reach * rng.uniform(-12.0, 12.0, size=50)
        u = profile.heat(y, sigma, t)
        assert np.all(u <= np.exp(log_b - d * (y - c) ** 2) * (1.0 + 1e-12) + 1e-300)
        if isinstance(profile, GaussianProfile):
            assert float(profile.heat(c, sigma, t)) == pytest.approx(math.exp(log_b), rel=1e-14)


class TestKernels:
    def test_box_closed_form(self):
        # unit box, sigma = 1: u(y, t) = (erf((y-lo)/w) - erf((y-hi)/w))/2
        b = Box(0.0, 1.0, 1.0)
        w = math.sqrt(4.0 * 1.0 * 0.25)
        got = b.heat(0.3, 1.0, 0.25)
        want = 0.5 * (math.erf(0.3 / w) - math.erf((0.3 - 1.0) / w))
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_box_tail_has_no_cancellation(self, side):
        # ten kernel widths outside the box, erf(a) - erf(b) is 1 - 1 in
        # floating point; the complementary tail keeps every digit
        b = Box(0.0, 1.0, 1.5)
        sigma, t = 1.0, 0.01
        w = math.sqrt(4.0 * sigma * t)
        y = b.hi + 10.0 * w if side > 0 else b.lo - 10.0 * w
        u = float(b.heat(y, sigma, t))
        assert u > 0.0
        assert u == pytest.approx(0.5 * b.height * erfc(10.0), rel=1e-12)

    @pytest.mark.parametrize("h", [1e-12, 1e-8, 1e-5, 9e-4, 2e-3, 0.3])
    @pytest.mark.parametrize("c", [0.0, 0.4, -1.1, 3e4, -2.5e9])
    def test_erf_diff_against_50_digits(self, c, h):
        # the kernel 1/(2h) interval widths wide, its centre from 0 to 2.5e9
        # widths off the interval: at small h the erfc tails and a - b cancel
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        lo, hi = c - 1.0, c - 0.5
        w = 0.25 / h
        ms = np.linspace(-8.0, 8.0, 33)
        y = c - 0.75 + ms * w
        got = erf_diff(y, lo, hi, w)
        for yi, g in zip(y, got):
            a = (mpmath.mpf(yi) - mpmath.mpf(lo)) / mpmath.mpf(w)
            b = (mpmath.mpf(yi) - mpmath.mpf(hi)) / mpmath.mpf(w)
            if a + b < 0:
                a, b = -b, -a  # erf is odd; erfc then has no 2 - 2 to cancel
            ref = mpmath.erfc(b) - mpmath.erfc(a)
            assert abs(g - ref) <= 1e-12 * ref

    def test_erfc_is_libm(self):
        # Box.heat's erfc is libm's; SciPy's differs from it by at most 5.7e-14
        # relative on this grid (measured with SciPy 1.17), erfc(26) ~ 6e-296
        x = np.linspace(-6.0, 26.0, 32001)
        got = profiles_erfc(x)
        assert got.dtype == np.float64
        assert np.array_equal(got, [math.erfc(v) for v in x])
        assert np.max(np.abs(got - erfc(x)) / erfc(x)) <= 1e-13
        assert profiles_erfc(10.0) == math.erfc(10.0)

    def test_erfc_of_a_0d_array(self):
        got = profiles_erfc(np.array(0.5))
        assert got.shape == () and got.dtype == np.float64
        assert got == math.erfc(0.5)

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_erfc_of_an_empty_array(self, shape):
        got = profiles_erfc(np.empty(shape))
        assert got.shape == shape and got.dtype == np.float64

    @pytest.mark.parametrize("profile", PROFILES)
    def test_heat_takes_a_column_of_times(self, profile):
        y = np.linspace(-4.0, 4.0, 17)
        times = np.array([1e-2, 1.0, 50.0])
        got = profile.heat(np.stack([y + t for t in times]), 1.3, times[:, None])
        want = np.stack([profile.heat(y + t, 1.3, t) for t in times])
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_box_is_a_sum_of_one_box(self):
        # Box and SumOfBoxes share one body, so one box gives the same bits
        lo, hi, h = -0.7, 1.3, 2.5
        box, one = Box(lo, hi, h), SumOfBoxes((Box(lo, hi, h),))
        y = np.linspace(-4.0, 4.0, 33)
        times = np.array([1e-2, 1.0, 50.0])
        column = np.stack([y + t for t in times])
        pairs = [(p.value(y), p.heat(y, 1.3, 0.4), p.heat(column, 1.3, times[:, None]),
                  heat_dy(p, y, 1.3, 0.4)) for p in (box, one)]
        for got, want in zip(*pairs):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert box.mass() == one.mass() == h * (hi - lo)
        assert box.bound(1.3, 0.4) == one.bound(1.3, 0.4)
        assert box.breakpoints() == one.breakpoints() == (lo, hi)

    def test_box_t_zero_is_indicator(self):
        b = Box(0.0, 2.0, 1.5)
        y = np.array([-0.1, 0.0, 1.0, 2.0, 2.1])
        assert np.array_equal(b.heat(y, 1.0, 0.0),
                              [0.0, 1.5, 1.5, 1.5, 0.0])

    def test_gaussian_self_similar(self):
        # the extremizer family is invariant: variance grows by 4 sigma t
        sigma = 2.0
        g = gaussian_extremizer(3.0, sigma)
        y = np.linspace(-5.0, 5.0, 101)
        for t in (0.0, 0.1, 1.0, 10.0):
            vt = sigma + 4.0 * sigma * t
            want = (3.0 / math.sqrt(math.pi * vt)) * np.exp(-(y**2) / vt)
            assert np.max(np.abs(g.heat(y, sigma, t) - want)) <= 1e-12

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: type(p).__name__)
    def test_mass_conservation(self, profile):
        for sigma, t in [(1.0, 0.3), (2.5, 1.0), (0.5, 10.0)]:
            span = 30.0 + math.sqrt(4.0 * sigma * t) * 20.0
            val, err = scipy_quad(lambda y: float(profile.heat(y, sigma, t)),
                                  -span, span, limit=400, points=(-5.0, 0.0, 5.0))
            assert val == pytest.approx(profile.mass(), rel=1e-8)

    def test_solves_heat_equation(self):
        # u_t = sigma u_yy by central differences on the closed forms
        sigma, t, h = 1.3, 0.7, 1e-4
        for profile in PROFILES:
            for y in (-0.8, 0.2, 1.4):
                ut = (profile.heat(y, sigma, t + h)
                      - profile.heat(y, sigma, t - h)) / (2 * h)
                uyy = (profile.heat(y + h, sigma, t)
                       - 2 * profile.heat(y, sigma, t)
                       + profile.heat(y - h, sigma, t)) / h**2
                assert ut == pytest.approx(sigma * uyy, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: type(p).__name__)
    def test_evolved_domination(self, profile):
        # the profile, shifted by -40 and 1e3 and dilated by 1e-3 and 30
        for moved in (profile, shifted(profile, -40.0), shifted(profile, 1e3),
                      dilated(profile, 1e-3), dilated(profile, 30.0)):
            assert_dominated(moved)

    @pytest.mark.parametrize("profile", [
        SumOfBoxes((Box(-5.0, -4.0, 2.0), Box(3.0, 3.5, 0.5), Box(9.0, 20.0, 1.0))),
        SumOfBoxes((Box(100.0, 100.1, 7.0), Box(101.0, 101.01, 0.1))),
    ])
    def test_evolved_domination_of_sums_with_gaps(self, profile):
        assert_dominated(profile)

    def test_profile_invariants(self):
        with pytest.raises(StructuralError):
            Box(1.0, 0.0, 1.0)
        with pytest.raises(StructuralError):
            GaussianProfile(1.0, 0.0, -1.0)
        with pytest.raises(StructuralError):
            SumOfBoxes(())


class TestEnergy:
    def test_box_initial_energy_exact(self, holder, box_profiles):
        sysm, _, B, cert = holder
        trace = bellman_energies(sysm, cert, B, box_profiles, [0.0])
        assert trace.levels[0] == 0 and trace.halfwidths[0] == 0.0
        # sqrt(1_[0,1] * 1_[0,2]) integrates to exactly 1
        assert trace.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_limit_is_geometric_mean_of_masses(self, holder, box_profiles):
        sysm, _, B, cert = holder
        limit = rhs_limit(sysm, cert, B, [p.mass() for p in box_profiles])
        assert isinstance(limit, float)
        assert limit == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_late_time_energy_near_limit(self, holder, box_profiles):
        sysm, _, B, cert = holder
        value = bellman_energies(sysm, cert, B, box_profiles, [1000.0]).values[0]
        assert math.sqrt(2.0) - 1e-3 <= value <= math.sqrt(2.0) + 1e-8

    def test_k2_boxes_at_t0_unsupported(self, young3, young3_cert):
        sysm, _, B = young3
        boxes = (Box(0.0, 1.0, 1.0),) * 3
        with pytest.raises(UnsupportedScaleError):
            bellman_energies(sysm, young3_cert, B, boxes, [0.0])
        # positive time is fine
        assert bellman_energies(sysm, young3_cert, B, boxes, [0.5]).values[0] > 0.0

    def test_k4_boxes_past_t0_meet_the_quadratures_cap(self):
        # decay_quad alone refuses k > MAX_DIM; the closed forms have no cap on k
        sysm, cert, B, profiles = gaussian_datum(4, 3)
        boxes = (Box(0.0, 1.0, 1.0), *profiles[1:])
        with pytest.raises(UnsupportedScaleError, match="k <= 3, got k=4") as exc:
            bellman_energies(sysm, cert, B, boxes, [0.5])
        assert exc.traceback[-1].name == "decay_quad"

    def test_rejects_profile_count_mismatch(self, holder):
        sysm, _, B, cert = holder
        with pytest.raises(StructuralError):
            bellman_energies(sysm, cert, B, (Box(0.0, 1.0, 1.0),), [1.0])

    def test_rejects_negative_time(self, holder, box_profiles):
        sysm, _, B, cert = holder
        with pytest.raises(DomainError):
            bellman_energies(sysm, cert, B, box_profiles, [-1.0])
        with pytest.raises(DomainError):
            monotonicity_scan(sysm, cert, B, box_profiles, times=(-0.1, 0.0, 1.0))

    def test_time_grid(self):
        assert time_grid() == list(DEFAULT_TIMES)
        assert time_grid(10.0) == [0.0, 1e-2, 1e-1, 1.0, 10.0]
        assert time_grid(5.0) == [0.0, 1e-2, 1e-1, 1.0, 5.0]
        assert time_grid(-1.0) == [-1.0]

    def test_rejects_missing_profiles(self, holder):
        sysm, _, B, cert = holder
        with pytest.raises(StructuralError, match="needs profiles"):
            monotonicity_scan(sysm, cert, B, None)


def per_time_quadrature(sysm, cert, B, profiles, t, rel_tol=QUAD_TOL):
    """decay_quad of the energy integrand at one time, on its own bound: each
    profile's (c_j, delta_j) gives F = sum_j w_j delta_j a_j a_j^T and the
    centre x* = F^{-1} sum_j w_j delta_j c_j a_j, and the cube is widened to
    cover BOX_MARGIN per unit weight of the box columns."""
    A, sigma = sysm.A, cert.sigma
    c, d = np.array([p.bound(s, t)[:2] for p, s in zip(profiles, sigma)]).T
    wd = B.weights * d
    F = (A * wd) @ A.T
    x_star = np.linalg.solve(F, A @ (wd * c))
    margin = BOX_MARGIN * sum(w for w, p in zip(B.weights, profiles)
                              if not isinstance(p, GaussianProfile))

    def f(X):
        X = X + x_star
        return B.evaluate(np.stack([p.heat(X @ A[:, j], sigma[j], t)
                                    for j, p in enumerate(profiles)], axis=-1))

    return decay_quad(f, F * (LOG_TAIL / (LOG_TAIL + margin)), rel_tol=rel_tol)


def gaussian_datum(k, seed):
    """A random k x (k + 1) system, certificate, Young B and off-centre Gaussians."""
    rng = np.random.default_rng(seed)
    n = k + 1
    sysm = VectorSystem(rng.normal(size=(k, n)))
    G = rng.normal(size=(k, k))
    cert = make_cert(sysm, G @ G.T + 0.5 * np.eye(k))
    B = BellmanSpec.young(rng.uniform(0.2, 0.9, size=n))
    profiles = tuple(GaussianProfile(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                                     rng.uniform(0.5, 2.0)) for _ in range(n))
    return sysm, cert, B, profiles


class TestGaussianEnergy:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_quadrature_at_every_time(self, k):
        sysm, cert, B, profiles = gaussian_datum(k, 70 + k)
        for t in DEFAULT_TIMES:
            want = per_time_quadrature(sysm, cert, B, profiles, t, rel_tol=1e-12).value
            at_t = [evolved(p, s, t) for p, s in zip(profiles, cert.sigma)]
            assert gaussian_energy(sysm, B, at_t) == pytest.approx(want, rel=1e-10)

    def test_bellman_energies_are_the_closed_form(self):
        sysm, cert, B, profiles = gaussian_datum(2, 7)
        trace = bellman_energies(sysm, cert, B, profiles, (0.0, 1.0))
        for t, value in zip(trace.times, trace.values):
            at_t = [evolved(p, s, t) for p, s in zip(profiles, cert.sigma)]
            assert value == gaussian_energy(sysm, B, at_t)
        assert set(trace.levels) == {0} and set(trace.halfwidths) == {0.0}

    def test_gaussian_scan_and_limit_run_no_quadrature(self, monkeypatch):
        # after the one-time self-test, every Gaussian value is the closed form
        gaussian._closed_form_selftest()

        def no_quadrature(*args, **kwargs):
            raise AssertionError("decay_quad called on all-Gaussian data")

        monkeypatch.setattr(quadrature, "decay_quad", no_quadrature)
        sysm, cert, B, profiles = gaussian_datum(2, 7)
        # weights of sum k, the degree at which the scan reports a limit
        B = BellmanSpec.young(B.weights * (sysm.k / B.degree))
        trace, verdict = monotonicity_scan(sysm, cert, B, profiles)
        limit = rhs_limit(sysm, cert, B, [p.mass() for p in profiles])
        assert set(trace.levels) == {0}
        assert verdict.limit_value == limit

    def test_evolved_is_a_semigroup(self):
        g = GaussianProfile(0.7, -1.5, 2.0)
        twice = evolved(evolved(g, 1.3, 0.4), 1.3, 0.6)
        once = evolved(g, 1.3, 1.0)
        assert twice.variance == pytest.approx(once.variance, rel=1e-14)
        assert twice.amplitude == pytest.approx(once.amplitude, rel=1e-14)
        assert once.center == g.center and once.mass() == pytest.approx(g.mass(), rel=1e-14)

    def test_graded_variances_are_not_degenerate(self):
        # A has full rank, so Q = A diag(w/v) A^T is positive definite, though
        # the variances 1e24 make it numerically rank 1 in absolute terms: rank
        # is decided on unit columns, and the energy is the closed form.  With
        # q = w/v, Cauchy-Binet gives det Q = q1 q2 + q1 q3 + q2 q3, and
        # g = sqrt(q) c is at squared distance q1 q2 q3 (c3 - c1 - c2)^2 / det Q
        # from the row space of A diag(sqrt(q))
        sysm = VectorSystem(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        B = BellmanSpec.young([0.5, 0.5, 0.5])
        c, v = np.array([0.0, 0.5, -0.5]), np.array([1.0, 1e24, 1e24])
        profiles = tuple(GaussianProfile(1.0, ci, vi) for ci, vi in zip(c, v))
        q = B.weights / v
        det = q[0] * q[1] + q[0] * q[2] + q[1] * q[2]
        want = math.pi / math.sqrt(det) * math.exp(-q.prod() * (c[2] - c[0] - c[1]) ** 2 / det)
        assert gaussian_energy(sysm, B, profiles) == pytest.approx(want, rel=1e-12)
        trace = bellman_energies(sysm, make_cert(sysm, np.eye(2)), B, profiles, [0.0, 1.0])
        assert trace.values[0] == pytest.approx(want, rel=1e-12)
        assert math.isfinite(trace.values[1]) and trace.values[1] > want

    def test_underflowing_determinant_is_inf(self):
        # rank A = k is decided at parse; at variances 1e300 the singular values
        # of A diag(sqrt(w/v)) are near 1e-150, and their product underflows to 0
        sysm = VectorSystem(np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0],
                                      [0.0, 0.0, 1.0, 1.0]]))
        B = BellmanSpec.young([0.75] * 4)
        variance = np.array([[1.0] * 4, [1e300] * 4])
        values = gaussian.gaussian_integral(sysm.A, B.weights, 1.0, 0.0, variance)
        assert math.isfinite(values[0]) and values[1] == math.inf
        with pytest.raises(StructuralError, match="underflows"):
            gaussian_energy(sysm, B, [GaussianProfile(1.0, 0.0, 1e300)] * 4)


def reflect(profile):
    """The profile y -> u(-y)."""
    if isinstance(profile, Box):
        return Box(-profile.hi, -profile.lo, profile.height)
    if isinstance(profile, SumOfBoxes):
        return SumOfBoxes(tuple(reflect(b) for b in profile.boxes))
    return GaussianProfile(profile.amplitude, -profile.center, profile.variance)


def box_mix(seed):
    """A random k = 1 datum: 2..4 columns of either sign, Box, SumOfBoxes and
    Gaussian profiles, at least one of them not Gaussian, and every box
    containing 0, so the supports overlap."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a = rng.uniform(0.5, 2.0, size=n) * rng.choice((-1.0, 1.0), size=n)

    def box():
        return Box(rng.uniform(-1.5, -0.1), rng.uniform(0.1, 1.5), rng.uniform(0.5, 2.0))

    def profile(kind):
        if kind == 0:
            return box()
        if kind == 1:
            lo = rng.uniform(-3.0, 2.0)
            return SumOfBoxes((box(), Box(lo, lo + rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0))))
        return GaussianProfile(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0))

    kinds = rng.integers(0, 3, size=n)
    kinds[rng.integers(n)] = rng.integers(0, 2)
    profiles = tuple(profile(kind) for kind in kinds)
    sysm = VectorSystem(a[None, :])
    return sysm, make_cert(sysm, np.eye(1)), BellmanSpec.young(rng.uniform(0.2, 0.9, size=n)), profiles


def energy_by_panels(sysm, B, profiles):
    """SciPy's quad of the t = 0 integrand summed over the breakpoint panels,
    the two unbounded end panels included."""
    a = sysm.A[0]
    cuts = sorted({e / a_j for a_j, p in zip(a, profiles) for e in p.breakpoints()})

    def f(x):
        return float(B.evaluate(np.array([p.value(a_j * x) for a_j, p in zip(a, profiles)])))

    edges = [-math.inf, *cuts, math.inf]
    return sum(scipy_quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


class TestBoxEnergyAtZero:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_quad_over_panels(self, seed):
        sysm, cert, B, profiles = box_mix(seed)
        trace = bellman_energies(sysm, cert, B, profiles, [0.0])
        assert trace.levels[0] == 0 and trace.halfwidths[0] == 0.0
        assert trace.values[0] > 0.0
        assert trace.values[0] == pytest.approx(energy_by_panels(sysm, B, profiles), rel=1e-12)

    def test_all_boxes_is_a_panel_sum(self):
        # u_1 = 2 on [0, 1] plus 1 on [1/4, 3/4]; u_2(-2x) = 3 for x in [1/2, 3/2]
        sysm = VectorSystem(np.array([[1.0, -2.0]]))
        profiles = (SumOfBoxes((Box(0.0, 1.0, 2.0), Box(0.25, 0.75, 1.0))),
                    Box(-3.0, -1.0, 3.0))
        B = BellmanSpec.young([0.3, 0.7])
        trace = bellman_energies(sysm, make_cert(sysm, np.eye(1)), B, profiles, [0.0])
        want = 0.25 * 3.0**0.3 * 3.0**0.7 + 0.25 * 2.0**0.3 * 3.0**0.7
        assert trace.values[0] == pytest.approx(want, rel=1e-14)

    def test_disjoint_supports_give_zero(self):
        sysm = VectorSystem(np.array([[1.0, 1.0, 1.0]]))
        profiles = (Box(0.0, 1.0, 1.0), GaussianProfile(1.0, 0.5, 1.0), Box(2.0, 3.0, 1.0))
        B = BellmanSpec.young([0.5, 0.5, 0.5])
        cert = make_cert(sysm, np.eye(1))
        assert bellman_energies(sysm, cert, B, profiles, [0.0]).values[0] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_sign_flips(self, seed):
        # a_j -> -a_j with u_j reflected leaves every factor u_j(a_j x) unchanged
        sysm, cert, B, profiles = box_mix(seed)
        signs = np.random.default_rng(100 + seed).choice((-1.0, 1.0), size=sysm.n)
        flipped = VectorSystem(sysm.A * signs)
        reflected = tuple(p if s > 0 else reflect(p) for p, s in zip(profiles, signs))
        want = bellman_energies(sysm, cert, B, profiles, [0.0]).values[0]
        got = bellman_energies(flipped, make_cert(flipped, np.eye(1)), B, reflected,
                               [0.0]).values[0]
        assert got == pytest.approx(want, rel=1e-13)


@st.composite
def flow_data(draw):
    """A random k = 2, 3 datum with profiles, an orthogonal U and column signs."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(k, k + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(k, n))
    A /= np.linalg.norm(A, axis=0)
    G = rng.normal(size=(k, k))
    C = G @ G.T + 0.5 * np.eye(k)
    U, _ = np.linalg.qr(rng.normal(size=(k, k)))
    profiles = []
    for _ in range(n):
        if rng.random() < 0.5:
            lo = rng.uniform(-1.5, 0.5)
            profiles.append(Box(lo, lo + rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)))
        else:
            profiles.append(GaussianProfile(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5),
                                            rng.uniform(0.5, 2.0)))
    signs = rng.choice((-1.0, 1.0), size=n)
    B = BellmanSpec.young(rng.uniform(0.2, 0.9, size=n))
    t = draw(st.sampled_from([0.1, 1.0, 10.0]))
    return A, C, U, tuple(profiles), signs, B, t


class TestSymmetries:
    @settings(max_examples=100, deadline=None)
    @given(flow_data())
    def test_rotation_and_sign_flips(self, datum):
        # A -> UA, C -> U C U^T is a change of variables x -> U^T x; a_j -> -a_j
        # with u_j reflected leaves every factor u_j(<a_j, x>) unchanged
        A, C, U, profiles, signs, B, t = datum
        masses = [p.mass() for p in profiles]
        variants = [
            (A, C, profiles),
            (U @ A, U @ C @ U.T, profiles),
            (A * signs, C, tuple(p if s > 0 else reflect(p)
                                 for p, s in zip(profiles, signs))),
        ]
        energies, limits = [], []
        for Av, Cv, pv in variants:
            sysm = VectorSystem(Av)
            cert = make_cert(sysm, 0.5 * (Cv + Cv.T))
            energies.append(bellman_energies(sysm, cert, B, pv, [t]).values[0])
            limits.append(rhs_limit(sysm, cert, B, masses))
        for values in (energies, limits):
            assert max(values) - min(values) <= 1e-9 * abs(values[0])


class TestMonotonicity:
    def test_box_flow_is_monotone_and_certified(self, holder, box_profiles):
        sysm, _, B, cert = holder
        trace, verdict = monotonicity_scan(sysm, cert, B, box_profiles)
        assert verdict.monotone and verdict.certified
        assert verdict.label == "certified"
        assert verdict.initial_value == pytest.approx(1.0, abs=1e-8)
        assert verdict.limit_value == pytest.approx(math.sqrt(2.0), rel=1e-8)
        assert verdict.final_gap <= 1e-3
        assert np.all(np.diff(trace.values) >= -verdict.mono_tol)

    def test_final_gap_shrinks_with_horizon(self, holder, box_profiles):
        sysm, _, B, cert = holder
        gaps = []
        for tmax in (10.0, 100.0, 1000.0):
            _, verdict = monotonicity_scan(sysm, cert, B, box_profiles,
                                           times=(0.0, tmax / 10.0, tmax))
            gaps.append(verdict.final_gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_extremizer_trace_is_constant(self, young3, young3_cert):
        sysm, _, B = young3
        profiles = tuple(gaussian_extremizer(m, s)
                         for m, s in zip((1.0, 2.0, 1.5), young3_cert.sigma))
        trace, verdict = monotonicity_scan(sysm, young3_cert, B, profiles)
        spread = float(np.ptp(trace.values))
        assert spread <= 5e-8
        assert verdict.monotone
        # equality case: the trace sits at its limit for all time
        assert verdict.final_gap <= 1e-7
        assert abs(verdict.initial_value - verdict.limit_value) <= 1e-7

    def test_weights_of_sum_k_to_round_off_keep_the_limit(self, young3, young3_cert):
        sysm, _, _ = young3
        B = BellmanSpec.young([0.7, 0.6, 0.7])
        assert B.degree != sysm.k and abs(B.degree - sysm.k) <= 1e-15
        profiles = (GaussianProfile(1.0, 0.0, 1.3), GaussianProfile(0.8, 0.5, 1.9),
                    GaussianProfile(1.2, -0.4, 1.8))
        trace, verdict = monotonicity_scan(sysm, young3_cert, B, profiles)
        limit = rhs_limit(sysm, young3_cert, B, [p.mass() for p in profiles])
        assert verdict.limit_value == limit
        assert verdict.final_gap == abs(trace.values[-1] - limit)

    def test_no_limit_off_degree(self, holder, box_profiles):
        # sum(w) = 0.8 < k = 1: E(t) grows like t^0.1, past the extremizers'
        # energy, which is no limit; monotone is read off the differences alone
        sysm, _, _, cert = holder
        B = BellmanSpec.young([0.4, 0.4])
        trace, verdict = monotonicity_scan(sysm, cert, B, box_profiles)
        assert trace.values[-1] > rhs_limit(sysm, cert, B, [p.mass() for p in box_profiles])
        assert verdict.monotone
        assert verdict.limit_value is None and verdict.final_gap is None

    def test_uncertified_scan_is_labeled(self, product2):
        # A = I and B = y1 y2, so T = C, whose eigenvalues are 0.5 and 1.5
        sysm, B, _ = product2
        bad = make_cert(sysm, [[1.0, 0.5], [0.5, 1.0]])
        profiles = (GaussianProfile(1.0, 0.2, 1.0), GaussianProfile(0.8, -0.3, 2.0))
        _, verdict = monotonicity_scan(sysm, bad, B, profiles)
        assert verdict.certified is False and verdict.label == "no certificate"


def k2_boxes(young3, young3_cert):
    sysm, _, B = young3
    profiles = (Box(0.0, 1.0, 1.0), Box(-1.0, 0.5, 2.0),
                SumOfBoxes((Box(-1.0, 0.0, 1.0), Box(0.5, 2.0, 2.0))))
    return sysm, young3_cert, B, profiles


class TestBatchedPass:
    """monotonicity_scan integrates every t > 0 in one decay_quad pass."""

    TIMES = DEFAULT_TIMES[1:]

    def check_against_per_time(self, sysm, cert, B, profiles):
        trace, _ = monotonicity_scan(sysm, cert, B, profiles, times=self.TIMES)
        for t, value, halfwidth, levels in zip(trace.times, trace.values,
                                               trace.halfwidths, trace.levels):
            want = per_time_quadrature(sysm, cert, B, profiles, t)
            assert levels == want.levels
            assert halfwidth == pytest.approx(want.halfwidth, rel=1e-14)
            assert value == pytest.approx(want.value, rel=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_k1_mixed_data_match_per_time_quadrature(self, seed):
        self.check_against_per_time(*box_mix(seed))

    def test_k2_box_data_match_per_time_quadrature(self, young3, young3_cert):
        self.check_against_per_time(*k2_boxes(young3, young3_cert))

    @pytest.mark.parametrize("k", [1, 2])
    def test_each_time_evaluates_its_own_grid_once(self, monkeypatch, k, young3, young3_cert):
        # one pass over the stack of forms; a converged time leaves it, so
        # each time is evaluated on (m_t + 1)**k nodes up to its last level;
        # the sharp edges at t = 1e-3 need a finer grid than the later times
        times = (1e-3, *self.TIMES)
        data = box_mix(3) if k == 1 else k2_boxes(young3, young3_cert)
        calls, points = [], [0]
        decay_quad_of_stack = quadrature.decay_quad

        def counting(f, F, rel_tol):
            calls.append(len(F))

            def g(X, idx):
                points[0] += X.shape[0] * X.shape[1]
                return f(X, idx)

            return decay_quad_of_stack(g, F, rel_tol=rel_tol)

        monkeypatch.setattr(quadrature, "decay_quad", counting)
        trace, _ = monotonicity_scan(*data, times=times)
        assert calls == [len(times)]
        assert len(set(trace.levels)) > 1
        assert points[0] == sum((quadrature._N0 * 2**int(L) + 1) ** k for L in trace.levels)

    def test_t0_box_value_and_batch_keep_their_places(self):
        sysm, cert, B, profiles = box_mix(2)
        times = (0.0, 0.5, 3.0)
        trace = bellman_energies(sysm, cert, B, profiles, times)
        assert list(trace.times) == list(times)
        for i, t in enumerate(times):
            alone = bellman_energies(sysm, cert, B, profiles, [t])
            assert (trace.levels[i], trace.halfwidths[i]) == (alone.levels[0], alone.halfwidths[0])
            assert trace.values[i] == pytest.approx(alone.values[0], rel=1e-13)
        assert trace.levels[0] == 0 and trace.levels[1] > 0

    @pytest.mark.parametrize("budget", [8, 64])
    def test_flow_exits_3_when_the_budget_is_too_small(self, monkeypatch, capsys, budget):
        monkeypatch.setattr(quadrature, "MAX_NODES", budget)
        assert cli.main(["flow", str(HOLDER_BOXES)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("non-convergence: ") and "did not reach rel_tol" in err


def flow_csv(capsys, tmp_path, doc):
    """The exit code of ``flow --format csv`` on the problem ``doc``, and its rows."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["flow", str(path), "--format", "csv"])
    rows = capsys.readouterr().out.splitlines()[1:]
    return code, np.array([[float(x) for x in row.split(",")] for row in rows])


class TestBoxSymmetries:
    """Translations and dilations of box data are exact symmetries of the
    energy; the decay cube follows the data, so they hold to round-off."""

    @pytest.mark.parametrize("shift", [30.0, -100.0])
    def test_translated_holder_boxes(self, tmp_path, capsys, shift):
        doc = json.loads(HOLDER_BOXES.read_text())
        code, want = flow_csv(capsys, tmp_path, doc)
        for profile in doc["profiles"]:
            profile["lo"] += shift
            profile["hi"] += shift
        moved_code, got = flow_csv(capsys, tmp_path, doc)
        assert code == moved_code == 0
        np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x0", [(5.0, -3.0), (20.0, 10.0)])
    def test_translated_k2_boxes(self, young3, young3_cert, x0):
        # u_j -> u_j(. - <a_j, x0>) is the change of variables x -> x - x0
        sysm, cert, B, profiles = k2_boxes(young3, young3_cert)
        moved = tuple(shifted(p, s) for p, s in zip(profiles, np.array(x0) @ sysm.A))
        times = (0.01, 0.1, 1.0, 10.0)
        want = bellman_energies(sysm, cert, B, profiles, times).values
        got = bellman_energies(sysm, cert, B, moved, times).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("lam", [math.sqrt(10.0), 10.0])
    def test_dilated_holder_boxes(self, holder, box_profiles, tmp_path, capsys, lam):
        # u_j -> u_j(. / lam) / lam and t -> lam^2 t is x -> x / lam, and B is
        # one-homogeneous: E_lam(lam^2 t) = E(t)
        sysm, _, B, cert = holder
        want = bellman_energies(sysm, cert, B, box_profiles, DEFAULT_TIMES).values
        dilated_boxes = tuple(dilated(p, lam) for p in box_profiles)
        got = bellman_energies(sysm, cert, B, dilated_boxes,
                               [lam * lam * t for t in DEFAULT_TIMES]).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        doc = json.loads(HOLDER_BOXES.read_text())
        doc["profiles"] = [{"type": "box", "lo": p.lo, "hi": p.hi, "height": p.height}
                           for p in dilated_boxes]
        assert flow_csv(capsys, tmp_path, doc)[0] == 0


class TestIdentityProbe:
    def test_product_family(self, product2):
        sysm, B, cert = product2
        profiles = (GaussianProfile(1.0, 0.2, 1.0), GaussianProfile(0.8, -0.3, 2.0))
        defect, lhs, rhs = bellman_identity_probe(sysm, cert, B, profiles,
                                                  t=1.0, x=[0.3, -0.1])
        assert defect <= 1e-6 * (1.0 + abs(rhs))

    def test_box_family(self, holder, box_profiles):
        sysm, _, B, cert = holder
        defect, lhs, rhs = bellman_identity_probe(sysm, cert, B, box_profiles,
                                                  t=1.0, x=[0.4])
        assert defect <= 1e-6 * (1.0 + abs(rhs))

    def test_section_family_random_points(self, section_triple):
        sysm, B, cert = section_triple
        profiles = (Box(0.0, 1.0, 1.0), GaussianProfile(1.0, 0.0, 1.0),
                    Box(-1.0, 1.0, 0.5))
        rng = np.random.default_rng(59)
        for _ in range(10):
            t = float(rng.uniform(0.5, 5.0))
            x = rng.uniform(-1.0, 1.0, size=2)
            defect, _, rhs = bellman_identity_probe(sysm, cert, B, profiles, t, x)
            assert defect <= 1e-4 * (1.0 + abs(rhs))

    def test_small_time_rejected(self, product2):
        sysm, B, cert = product2
        profiles = (GaussianProfile(1.0, 0.0, 1.0), GaussianProfile(1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            bellman_identity_probe(sysm, cert, B, profiles, t=1e-7, x=[0.0, 0.0])
