import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from magnomech import (DegenerateDenominatorError, EigenSolveError,
                       SystemParams, default_params, working_point)
from magnomech import steady_state
from magnomech.errors import no_failures
from magnomech.steady_state import (NEWTON_STEPS, WorkingPoint,
                                    working_point_batch)

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 10e6

#: Step budget and relative convergence target of the reference iteration.
REFERENCE_STEPS = 10_000
REFERENCE_TOL = 1e-10


def _amplitude(params: SystemParams, delta_m_eff: float) -> complex:
    """m_s in Python complex arithmetic, independent of the kernel."""
    cavity = 1j * params.delta_a - params.kappa_a
    return params.epsilon_d * cavity / (
        params.g_ma**2 + cavity * (1j * delta_m_eff + params.kappa_m))


def reference_working_point(params: SystemParams) -> WorkingPoint | None:
    """The fixed-point iteration m_s -> x_s -> delta_m_eff -> m_s from
    delta_m_eff = delta_m, or None if it does not converge in
    REFERENCE_STEPS steps. Where it contracts, it reaches the lower branch."""
    g_mb, wb, dm = params.g_mb, params.omega_b, params.delta_m
    m_s = _amplitude(params, dm)
    for iteration in range(1, REFERENCE_STEPS + 1):
        m_next = _amplitude(params, dm - g_mb**2 * abs(m_s) ** 2 / wb)
        change = abs(abs(m_next) - abs(m_s))
        m_s = m_next
        if change <= REFERENCE_TOL * max(abs(m_s), 1e-300):
            x_s = -g_mb * abs(m_s) ** 2 / wb
            return WorkingPoint(m_s=m_s, x_s=x_s, delta_m_eff=dm + g_mb * x_s,
                                G=g_mb * abs(m_s), iterations=iteration)
    return None


def _drive_spec_params(delta_m: float, epsilon_d: float) -> SystemParams:
    """The bundled point in drive mode (tests/test_sweep.py's drive_spec)."""
    omega_b = default_params().omega_b
    return default_params().replace(delta_m_eff=None, delta_m=delta_m * omega_b,
                                    G_eff=None, epsilon_d=epsilon_d)


def _drive_params(**overrides):
    defaults = dict(omega_a=TWO_PI * 10.1e9, omega_m=TWO_PI * 10.1e9,
                    omega_b=OMEGA_B, delta_a=-OMEGA_B, delta_m=-OMEGA_B,
                    kappa_a=-0.02 * OMEGA_B, kappa_m=0.1 * OMEGA_B,
                    gamma_b=TWO_PI * 10.0, g_ma=OMEGA_B, g_mb=TWO_PI * 0.2,
                    epsilon_d=1e14, temperature=20e-3)
    defaults.update(overrides)
    return SystemParams(**defaults)


def _columns(points: list[SystemParams]) -> dict:
    """Batch columns of drive-mode points with the same fields set."""
    return {name: None if getattr(points[0], name) is None
            else np.array([getattr(p, name) for p in points])
            for name in vars(points[0])}


def _cubic(params: SystemParams):
    """Exact f(x) = x * |D(delta_m - g_mb^2 x / omega_b)|^2 - eps_d^2 |c|^2
    of a self-consistent point, its coefficients (x^3, x^2, x) and gain."""
    da, ka, km, g, dm, eps = map(Fraction, (
        params.delta_a, params.kappa_a, params.kappa_m, params.g_ma,
        params.delta_m, params.epsilon_d))
    k = Fraction(params.g_mb) ** 2 / Fraction(params.omega_b)
    ar, ai = g * g - ka * km - da * dm, da * km - ka * dm
    br, bi = da * k, ka * k
    gain = eps**2 * (da**2 + ka**2)

    def f(x: Fraction) -> Fraction:
        return x * ((ar + br * x) ** 2 + (ai + bi * x) ** 2) - gain
    return f, (br**2 + bi**2, 2 * (ar * br + ai * bi), ar**2 + ai**2), gain


def _nearest_lower_root(f) -> float:
    """The float nearest the lowest positive root of f, where f(0) < 0. The
    first power of two at which f > 0 brackets it; then exact bisection over
    the bit patterns of the positive floats, which sort as the floats do."""
    def at(bits: int) -> Fraction:
        return Fraction(struct.unpack("<d", struct.pack("<q", bits))[0])
    hi = math.ulp(0.0)
    while f(Fraction(hi)) <= 0:
        hi *= 2.0
    lo, hi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (hi / 2, hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if f(at(mid)) <= 0 else (lo, mid)
    return float(at(hi) if f((at(lo) + at(hi)) / 2) < 0 else at(lo))


#: drive_spec's epsilon_d axis at delta_m = -0.95 omega_b, and a denser one at
#: -0.7 omega_b. The iteration converges at 17 of the 52 points, 8 of which
#: have three positive roots; the others cycle or never repeat.
ITERATION_GRID = ([(-0.95, e) for e in np.linspace(8.6e13, 9.4e13, 9).tolist()]
                  + [(-0.7, e) for e in np.linspace(8e13, 5e14, 43).tolist()])


def _random_drive_points(count: int) -> list[SystemParams]:
    """Seeded drive-mode points, half of them near the bistable edge."""
    rng = np.random.default_rng(16)
    base = default_params()
    wb, km = base.omega_b, base.kappa_m
    points = []
    for _ in range(count):
        if rng.random() < 0.5:
            delta_m, epsilon_d = rng.uniform(-1.5, -0.5), 10.0 ** rng.uniform(12.5, 14.7)
        else:
            delta_m, epsilon_d = rng.uniform(-1.05, -0.95), rng.uniform(0.6e14, 1.4e14)
        points.append(base.replace(
            G_eff=None, delta_m_eff=None, delta_m=delta_m * wb, epsilon_d=epsilon_d,
            kappa_a=rng.uniform(-0.3, 0.3) * km, g_ma=rng.uniform(0.3, 1.5) * wb,
            delta_a=rng.uniform(-1.5, 0.0) * wb))
    return points


class TestSteadyMagnonAmplitude:
    def test_satisfies_defining_linear_relation(self):
        """m_s must solve [g^2 + (i Da - ka)(i Dm + km)] m = eps (i Da - ka)."""
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = _drive_params(
                delta_a=rng.uniform(-2, 2) * OMEGA_B,
                kappa_a=rng.uniform(-0.05, 0.05) * OMEGA_B,
                kappa_m=rng.uniform(0.01, 0.3) * OMEGA_B,
                g_ma=rng.uniform(0.1, 2.0) * OMEGA_B,
                epsilon_d=rng.uniform(1e12, 1e15))
            dm = rng.uniform(-2, 2) * OMEGA_B
            m_s = working_point(p.replace(delta_m_eff=dm)).m_s
            cavity = 1j * p.delta_a - p.kappa_a
            lhs = (p.g_ma**2 + cavity * (1j * dm + p.kappa_m)) * m_s
            rhs = p.epsilon_d * cavity
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_zero_drive(self):
        p = _drive_params(epsilon_d=0.0)
        assert working_point(p.replace(delta_m_eff=-OMEGA_B)).m_s == 0.0

    def test_degenerate_denominator(self):
        # g_ma = 0, kappa_a = 0, delta_a = 0 zeroes the response denominator.
        p = _drive_params(g_ma=0.0, kappa_a=0.0, delta_a=0.0)
        with pytest.raises(DegenerateDenominatorError):
            working_point(p.replace(delta_m_eff=-OMEGA_B))


class TestPresetWorkingPoint:
    def test_direct_fields(self):
        p = _drive_params().replace(epsilon_d=None, G_eff=0.2 * OMEGA_B,
                                    delta_m_eff=-OMEGA_B)
        wp = working_point(p)
        assert wp.G == 0.2 * OMEGA_B
        assert wp.delta_m_eff == -OMEGA_B
        assert abs(wp.m_s) == pytest.approx(wp.G / p.g_mb)
        assert wp.x_s == pytest.approx(-p.g_mb * abs(wp.m_s) ** 2 / p.omega_b)

    def test_zero_coupling_rate(self):
        p = _drive_params(g_mb=0.0, epsilon_d=None, G_eff=0.0,
                          delta_m_eff=-OMEGA_B)
        wp = working_point(p)
        assert wp.G == 0.0 and wp.x_s == 0.0 and wp.m_s == 0.0


class TestSelfConsistentWorkingPoint:
    def test_fixed_point_relations(self):
        p = _drive_params()
        wp = working_point(p)
        # The returned point closes the loop m_s -> x_s -> delta_m_eff -> m_s.
        x_s = -p.g_mb * abs(wp.m_s) ** 2 / p.omega_b
        assert wp.x_s == pytest.approx(x_s, rel=1e-9)
        assert wp.delta_m_eff == pytest.approx(p.delta_m + p.g_mb * wp.x_s,
                                               rel=1e-9)
        m_back = working_point(p.replace(delta_m_eff=wp.delta_m_eff)).m_s
        assert abs(m_back - wp.m_s) <= 1e-8 * abs(wp.m_s)
        assert wp.G == pytest.approx(p.g_mb * abs(wp.m_s), rel=1e-12)

    def test_against_scalar_root_finder(self):
        """Independent 1-D root solve for |m_s| must agree."""
        p = _drive_params()

        def residual(u):
            shift = -p.g_mb**2 * u**2 / p.omega_b
            shifted = p.replace(delta_m_eff=p.delta_m + shift)
            return abs(working_point(shifted).m_s) - u

        u0 = abs(working_point(p.replace(delta_m_eff=p.delta_m)).m_s)
        root = brentq(residual, 0.5 * u0, 2.0 * u0, xtol=1e-6)
        wp = working_point(p)
        assert abs(wp.m_s) == pytest.approx(root, rel=1e-6)

    def test_zero_drive(self):
        wp = working_point(_drive_params(epsilon_d=0.0))
        assert wp.m_s == 0 and wp.G == 0.0 and wp.iterations == 0

    def test_dispatcher_routes_by_fields(self):
        assert working_point(_drive_params()).iterations == NEWTON_STEPS
        direct = _drive_params(delta_m=None, delta_m_eff=-OMEGA_B)
        wp = working_point(direct)
        assert wp.iterations == 0
        assert wp.delta_m_eff == -OMEGA_B


class TestCubicWorkingPoint:
    def test_matches_the_iteration_where_it_converges(self):
        points = [_drive_spec_params(*point) for point in ITERATION_GRID]
        points += _random_drive_points(200)
        converged = 0
        for p in points:
            expected = reference_working_point(p)
            got = working_point(p)
            if expected is None:
                continue
            converged += 1
            assert got.G == pytest.approx(expected.G, rel=1e-9, abs=0.0)
            assert got.delta_m_eff == pytest.approx(expected.delta_m_eff,
                                                    rel=1e-9, abs=0.0)
        assert 17 < converged < len(points)

    def test_lower_branch_of_three_roots(self):
        # Three positive roots where the iteration converges: it reaches the
        # smallest, and so does the cubic.
        bistable = 0
        for point in ITERATION_GRID:
            p = _drive_spec_params(*point)
            _, coefficients, gain = _cubic(p)
            roots = np.roots([*map(float, coefficients), -float(gain)])
            real = np.sort(roots.real[np.abs(roots.imag) <= 1e-9 * np.abs(roots)])
            if len(real) == 3 and reference_working_point(p) is not None:
                bistable += 1
                n = -working_point(p).x_s * p.omega_b / p.g_mb
                assert n == pytest.approx(real[0], rel=1e-9)
        assert bistable == 8

    def test_points_the_iteration_never_settles_are_solved(self):
        # At delta_m = -0.95 omega_b, eps_d = 9.2e13 rad/s the iteration falls
        # into a period-2 cycle around the cubic's only root.
        p = _drive_spec_params(-0.95, 9.2e13)
        assert reference_working_point(p) is None
        wp = working_point(p)
        m_back = working_point(p.replace(delta_m_eff=wp.delta_m_eff)).m_s
        assert abs(m_back - wp.m_s) <= 1e-9 * abs(wp.m_s)
        assert wp.delta_m_eff == pytest.approx(
            p.delta_m - p.g_mb**2 * abs(wp.m_s) ** 2 / p.omega_b, rel=1e-12)

    def test_batch_equals_single_points(self):
        points = [_drive_spec_params(*point) for point in ITERATION_GRID]
        points += _random_drive_points(20)
        failures = no_failures(len(points))
        fields = working_point_batch(_columns(points), failures)
        assert all(failure is None for failure in failures)
        for k, p in enumerate(points):
            assert WorkingPoint(*(field[k].item() for field in fields)) \
                == working_point(p)

    def test_degenerate_denominator_fails_its_point(self):
        points = [_drive_params(), _drive_params(g_ma=0.0, kappa_a=0.0, delta_a=0.0)]
        failures = no_failures(2)
        working_point_batch(_columns(points), failures)
        assert failures[0] is None
        assert type(failures[1]) is DegenerateDenominatorError
        with pytest.raises(DegenerateDenominatorError, match="denominator"):
            working_point(points[1])

    def test_rejected_cubic_fails_its_point(self):
        # s = gain/q0 overflows (gain = 1e108, q0 = 1e-206), so even the
        # scaled companion matrix is not finite and LAPACK rejects it.
        points = [_drive_params(), _drive_params(
            epsilon_d=1e154, delta_a=1e-100, kappa_a=0.0, g_ma=0.0,
            kappa_m=1e-3, delta_m=0.0)]
        failures = no_failures(2)
        _, _, _, g, _ = working_point_batch(_columns(points), failures)
        assert failures[0] is None and g[0] == working_point(points[0]).G
        assert type(failures[1]) is EigenSolveError
        assert "working-point cubic" in str(failures[1])

    @pytest.mark.parametrize("kappa_a", [1e-140, 1e-150])
    def test_tiny_cavity_rate_takes_the_scaled_cubic(self, kappa_a):
        # q2 = (kappa_a * g_mb^2 / omega_b)^2 is so small at the drive base
        # that q0/q2 overflows the companion matrix; n is about 5e-284 and
        # 5e-304.
        p = default_params().replace(
            G_eff=None, delta_m_eff=None, delta_m=-0.95 * OMEGA_B,
            epsilon_d=9.2e13, delta_a=0.0, kappa_a=kappa_a)
        v, failures = _columns([p]), no_failures(1)
        m_s, _, _, _, _ = working_point_batch(v, failures)
        assert failures[0] is None and m_s[0] == working_point(p).m_s
        f, _, exact_gain = _cubic(p)
        x = Fraction(abs(m_s[0]) ** 2)
        assert 0 < x and abs(f(x)) <= Fraction(1e-12) * exact_gain

    @pytest.mark.parametrize("field, value", [
        ("kappa_a", 1e-156), ("kappa_a", 1e-158), ("kappa_a", 1e-160),
        ("g_mb", 1e-82), ("g_mb", 1e-170)])
    def test_vanishing_cubic_term_takes_the_scaled_cubic(self, field, value):
        # q2 = (kappa_a * g_mb^2 / omega_b)^2 underflows to 0 at the drive
        # base, and with it the n^3 term. n is subnormal at these kappa_a and
        # carries few bits, so it must be the float nearest the root, not
        # just a root to a relative residual.
        p = default_params().replace(
            G_eff=None, delta_m_eff=None, delta_m=-0.95 * OMEGA_B,
            epsilon_d=9.2e13, delta_a=0.0, **{field: value})
        v, failures = _columns([p]), no_failures(1)
        gain = v["epsilon_d"] ** 2 * (v["delta_a"] ** 2 + v["kappa_a"] ** 2)
        with np.errstate(all="ignore"):
            n, _ = steady_state._lower_root(v, gain, failures)
        assert failures[0] is None
        f, _, exact_gain = _cubic(p)
        # The cubic handed to _lower_root: exact coefficients, its own gain.
        assert n[0] == _nearest_lower_root(
            lambda x: f(x) + exact_gain - Fraction(gain[0]))
        working_point(p)

    @settings(derandomize=True, max_examples=200, deadline=None)
    # Roots 1e51 apart: LAPACK returns the smallest as 0.0 and the others as
    # a negative pair.
    @example(delta_a=2.220446049250313e-16, kappa_a=0.0, kappa_m=0.25,
             g_ma=0.5502700670679241, delta_m=0.5, log_drive=12.0, g_mb=1.0)
    @given(delta_a=st.floats(-2.0, 2.0), kappa_a=st.floats(-0.3, 0.3),
           kappa_m=st.floats(0.01, 0.3), g_ma=st.floats(0.0, 1.5),
           delta_m=st.floats(-2.0, 2.0), log_drive=st.floats(12.0, 15.0),
           g_mb=st.floats(0.05, 5.0))
    def test_root_is_the_smallest_root_of_the_cubic(
            self, delta_a, kappa_a, kappa_m, g_ma, delta_m, log_drive, g_mb):
        p = _drive_params(delta_a=delta_a * OMEGA_B, kappa_a=kappa_a * OMEGA_B,
                          kappa_m=kappa_m * OMEGA_B, g_ma=g_ma * OMEGA_B,
                          delta_m=delta_m * OMEGA_B, epsilon_d=10.0**log_drive,
                          g_mb=TWO_PI * g_mb)
        # A cavity rate |i*Delta_a - kappa_a| some 1e140 times below the
        # others leaves double precision: the companion matrix overflows
        # (EigenSolveError) or n underflows.
        assume(delta_a == kappa_a == 0.0 or math.hypot(delta_a, kappa_a) > 1e-100)
        v, failures = _columns([p]), no_failures(1)
        working_point_batch(v, failures)
        # A vanishing denominator (here |D| < 1e-12 * scale^2) has no root.
        assume(type(failures[0]) is not DegenerateDenominatorError)
        assert failures[0] is None
        gain = v["epsilon_d"] ** 2 * (v["delta_a"] ** 2 + v["kappa_a"] ** 2)
        n, _ = steady_state._lower_root(v, gain, failures)
        f, (a3, a2, a1), exact_gain = _cubic(p)
        x = Fraction(float(n[0]))
        assert abs(f(x)) <= Fraction(1e-12) * exact_gain
        # f(0) = -gain < 0, so f < 0 on [0, n) unless f's local maximum lies
        # in [0, n) and is not below 0.
        discriminant = a2 * a2 - 3 * a3 * a1
        if discriminant > 0:
            peak = (-float(a2) - math.sqrt(discriminant)) / (3 * float(a3))
            if 0.0 <= peak < x:
                assert f(Fraction(peak)) < 0
