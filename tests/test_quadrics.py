import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrix import (
    QuadratureSettings,
    cap_measures,
    ellipsoid_cap_volume,
    hyperboloid_area_relation,
    hyperboloid_cap_volume,
    invariant_constant,
    mean_value_ratio,
    paraboloid_starred,
    point_on_level,
    refutation_H,
    refutation_domain,
    refutation_theta,
    starred_oracle,
    unit_ball_volume,
    unit_sphere_area,
)
from quadrix.quadrics import hyperboloid_lateral_area, hyperboloid_phi_prime

from conftest import trio


class TestUnitBallAndSphere:
    def test_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_sphere_areas(self):
        assert unit_sphere_area(1) == pytest.approx(2.0 * math.pi)
        assert unit_sphere_area(2) == pytest.approx(4.0 * math.pi)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sphere_is_ball_boundary(self, n):
        assert unit_sphere_area(n - 1) == pytest.approx(n * unit_ball_volume(n), rel=1e-14)


class TestHyperboloidOracle:
    def test_one_dimensional_value(self):
        # antiderivative of sqrt(r^2+k): (r sqrt(r^2+k) + k asinh(r/sqrt(k))) / 2
        k, h = 1.0, 1.0
        integral = (math.sqrt(h) * math.sqrt(h + k) + k * math.asinh(math.sqrt(h / k))) / 2.0
        want = 2.0 * (math.sqrt(k + h) * math.sqrt(h) - integral)
        got = hyperboloid_cap_volume((1.0,), k, h)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.5328399753535521, rel=1e-12)

    def test_two_dimensional_value(self):
        # exact: int r sqrt(r^2+k) dr = ((r^2+k)^(3/2))/3
        k, h, a = 1.0, 1.0, (1.0, 1.0)
        bracket = math.sqrt(k + h) * h - (2.0 / 3.0) * ((k + h) ** 1.5 - k ** 1.5)
        assert hyperboloid_cap_volume(a, k, h) == pytest.approx(math.pi * bracket, rel=1e-12)

    def test_coefficient_scaling(self):
        base = hyperboloid_cap_volume((1.0, 1.0), 1.0, 0.5)
        scaled = hyperboloid_cap_volume((2.0, 3.0), 1.0, 0.5)
        assert scaled == pytest.approx(base / 6.0, rel=1e-12)

    def test_small_h_volume_limit(self):
        # V / h^{(n+2)/2} -> omega_n / (prod(a) sqrt(k) (n+2))
        a, k, n = (1.0, 2.0), 1.5, 2
        lim = unit_ball_volume(n) / (2.0 * math.sqrt(k) * (n + 2))
        ratios = [hyperboloid_cap_volume(a, k, 2.0 ** -j) / (2.0 ** -j) ** ((n + 2) / 2)
                  for j in range(4, 12)]
        devs = [abs(r - lim) / lim for r in ratios]
        assert all(b < a_ for a_, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-3

    def test_phi_prime_matches_central_difference(self):
        a, k = (1.0, 2.0), 1.0
        for h in (0.25, 0.7, 1.5):
            fd = (hyperboloid_cap_volume(a, k, h + 1e-6)
                  - hyperboloid_cap_volume(a, k, h - 1e-6)) / 2e-6
            assert hyperboloid_phi_prime(a, k, h) == pytest.approx(fd, rel=1e-8)

    def test_area_relation_fixture(self):
        # n=1, a=1, k=1, h=1, |grad g| = 2 at the vertex: the chord has length 2
        assert hyperboloid_area_relation((1.0,), 1.0, 1.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_area_is_volume_derivative_along_the_plane_offset(self):
        # A* = phi'(h) * dh/dt with dh/dt = |grad g| sqrt((k+h)/k)
        family = trio()["elliptic_hyperboloid"]
        p = point_on_level(family, 1.0, np.array([0.8, -0.3]))
        gnorm = p.grad_norm
        k, a = 1.0, (1.0, 2.0)

        def h_of_t(t):
            return gnorm ** 2 * t ** 2 / (4 * k) + gnorm * t

        t0, dt = 0.21, 1e-6
        fd = (hyperboloid_cap_volume(a, k, h_of_t(t0 + dt))
              - hyperboloid_cap_volume(a, k, h_of_t(t0 - dt))) / (2 * dt)
        want = hyperboloid_area_relation(a, k, h_of_t(t0), gnorm)
        assert fd == pytest.approx(want, rel=1e-7)

    def test_small_h_area_consistency(self):
        # A*/h^{n/2} -> omega_n |grad g| / (2 prod(a) sqrt(k))
        a, k, g = (1.0, 2.0), 1.0, 3.0
        lim = unit_ball_volume(2) * g / (2.0 * 2.0 * math.sqrt(k))
        got = hyperboloid_area_relation(a, k, 1e-8, g) / 1e-8
        assert got == pytest.approx(lim, rel=1e-7)


class TestCapVolumeOracles:
    """Both cap-volume oracles against adaptive references on cancellation-free integrands."""

    @staticmethod
    def coefs(n):
        return tuple(1.0 + 0.25 * i for i in range(n))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", [0.5, 2.0])
    @pytest.mark.parametrize("ratio", [1e-6, 1e-3, 1.0, 100.0, 1e4])
    def test_hyperboloid(self, n, k, ratio):
        from scipy.integrate import quad

        a, h = self.coefs(n), ratio * k
        # sqrt(k+h) - sqrt(r^2+k) = (h - r^2) / (sqrt(k+h) + sqrt(r^2+k))
        integral = quad(lambda r: r ** (n - 1) * (h - r * r) / (math.sqrt(k + h) + math.sqrt(r * r + k)),
                        0.0, math.sqrt(h), epsabs=0.0, epsrel=1e-13)[0]
        want = unit_ball_volume(n) / math.prod(a) * n * integral
        assert hyperboloid_cap_volume(a, k, h) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", [0.5, 2.0])
    @pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.25, 0.5, 0.999999])
    def test_ellipsoid(self, n, k, ratio):
        from scipy.integrate import quad

        a, h = self.coefs(n), -ratio * k
        radius = math.sqrt(k)
        cap_height = -h / (radius + math.sqrt(k + h))
        # the section at depth u below the pole has radius sqrt(u (2R - u))
        integral = quad(lambda u: (u * (2.0 * radius - u)) ** (n / 2.0), 0.0, cap_height,
                        epsabs=0.0, epsrel=1e-13)[0]
        want = unit_ball_volume(n) / math.prod(a) * integral
        assert ellipsoid_cap_volume(a, k, h) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestEllipsoidOracle:
    def test_classical_cap(self):
        # n=2: cap volume pi c^2 (3R - c) / 3 with R = 1, c = 1/2
        want = math.pi * 0.25 * 2.5 / 3.0
        assert ellipsoid_cap_volume((1.0, 1.0), 1.0, -0.75) == pytest.approx(want, rel=1e-12)

    def test_coefficient_scaling(self):
        assert ellipsoid_cap_volume((2.0, 1.0), 1.0, -0.75) == pytest.approx(
            0.5 * ellipsoid_cap_volume((1.0, 1.0), 1.0, -0.75), rel=1e-12
        )

    def test_degenerate_cap(self):
        assert ellipsoid_cap_volume((1.0, 1.0), 1.0, -1e-6) < 1e-8

    def test_area_relation_matches_section_circle(self):
        # unit sphere, h = -0.75: section of radius sqrt(3)/2
        got = starred_oracle("ellipsoid", (1.0, 1.0), 1.0, -0.75, 2.0)[1]
        assert got == pytest.approx(0.75 * math.pi, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ellipsoid_cap_volume((1.0,), 1.0, 0.5)
        with pytest.raises(ValueError):
            ellipsoid_cap_volume((1.0,), 1.0, -1.5)


class TestParaboloidOracle:
    def test_constant(self):
        v, _ = paraboloid_starred((1.0, 1.0), 1.0, 1.0)
        assert v == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_fixture(self):
        v, a = paraboloid_starred((1.0, 1.0), 0.3, 1.0)
        assert v == pytest.approx(0.1413716694115407, rel=1e-12)
        assert a == pytest.approx(2.0 * (math.pi / 2.0) * 0.3, rel=1e-12)

    def test_quadratic_growth(self):
        v1, _ = paraboloid_starred((1.0, 2.0), 0.2, 1.0)
        v2, _ = paraboloid_starred((1.0, 2.0), 0.4, 1.0)
        assert v2 / v1 == pytest.approx(4.0, rel=1e-12)

    def test_zero_offset(self):
        assert paraboloid_starred((1.0, 1.0), 0.0, 3.0) == (0.0, 0.0)


class TestInvariantConstant:
    def test_values(self):
        assert invariant_constant("ellipsoid", (1.0, 1.0), 1.0) == 16.0
        assert invariant_constant("elliptic_hyperboloid", (1.0,), 1.0) == 8.0
        assert invariant_constant("elliptic_paraboloid", (1.0, 1.0), 5.0) == 4.0

    def test_level_scaling(self):
        c1 = invariant_constant("elliptic_hyperboloid", (1.0, 2.0), 1.0)
        c2 = invariant_constant("elliptic_hyperboloid", (1.0, 2.0), 2.0)
        assert c2 == pytest.approx(2.0 * c1)
        # the paraboloid constant does not depend on the level
        assert invariant_constant("elliptic_paraboloid", (1.0, 2.0), 1.0) == invariant_constant(
            "elliptic_paraboloid", (1.0, 2.0), 7.0
        )


class TestMeanValueMachinery:
    def test_H_at_origin(self):
        assert refutation_H(np.zeros(2), (2.0, 1.0), 1.0) == 1.0

    def test_H_limit_along_stiff_axis(self):
        val = refutation_H(np.array([1e9, 0.0]), (2.0, 1.0), 1.0)
        assert val == pytest.approx(math.sqrt(5.0), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 5.0))
    def test_H_bounds_property(self, y1, y2, k):
        a = (2.0, 1.0)
        val = refutation_H(np.array([y1, y2]), a, k)
        assert 1.0 <= val < math.sqrt(5.0)

    def test_equal_coefficients_closed_form(self):
        y, k = np.array([0.7, -0.4]), 1.3
        want = math.sqrt((2.0 * (y @ y) + k) / ((y @ y) + k))
        assert refutation_H(y, (1.0, 1.0), k) == pytest.approx(want, rel=1e-14)

    def test_domain_is_ball_at_origin(self):
        dom = refutation_domain(np.zeros(2), 1.0, 0.09)
        assert dom.semi_axes == pytest.approx(np.array([0.3, 0.3]))
        assert dom.center == pytest.approx(np.zeros(2))

    def test_domain_fixture(self):
        dom = refutation_domain(np.array([math.sqrt(3.0), 0.0]), 1.0, 0.04)
        assert dom.semi_axes == pytest.approx(np.array([0.4, 0.2]), abs=1e-14)
        assert dom.center == pytest.approx(math.sqrt(1.04) * np.array([math.sqrt(3.0), 0.0]))

    def test_domain_volume_formula(self):
        q, k, h = np.array([1.2, -0.5]), 0.8, 0.3
        dom = refutation_domain(q, k, h)
        want = unit_ball_volume(2) * h * math.sqrt(float(q @ q) + k) / math.sqrt(k)
        assert dom.volume == pytest.approx(want, rel=1e-12)

    def test_membership_matches_inequality(self):
        q, k, h = np.array([1.5, 0.4]), 1.0, 0.2
        dom = refutation_domain(q, k, h)
        rng = np.random.default_rng(31)
        xi = rng.standard_normal((200, 2))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        inside = dom.points(0.999 * xi)
        outside = dom.points(1.001 * xi)
        assert np.all(dom.contains(inside))
        assert not np.any(dom.contains(outside))

    def test_theta_exceeds_one(self):
        for k in (0.5, 1.0):
            for h in (0.25, 1.0):
                assert refutation_theta(k, h, (2.0, 1.0)) > 1.0

    def test_theta_tends_to_one(self):
        vals = [refutation_theta(1.0, h, (2.0, 1.0)) for h in (0.5, 0.1, 0.01, 1e-4)]
        assert all(v > 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)

    def test_mean_ratio_varies_with_base_point(self):
        a, k, h = (2.0, 1.0), 1.0, 0.25
        r0 = mean_value_ratio(np.zeros(2), a, k, h)
        r_far = mean_value_ratio(np.array([10.0, 0.0]), a, k, h)
        assert abs(r0 - r_far) / r0 >= 0.05

    def test_one_dimensional_theta(self):
        # S^0 is two points, so n = 1 is two Gauss-Legendre half-lines
        val = refutation_theta(1.0, 0.25, (2.0,))
        assert val > 1.0


class TestLateralOracle:
    def test_matches_quadrature_n1(self, hyperbola1):
        p = point_on_level(hyperbola1, 1.0, np.array([0.0]))
        got = cap_measures(hyperbola1, p, math.sqrt(2.0) - 1.0, want=("lateral",)).lateral.value
        want = hyperboloid_lateral_area((1.0,), 1.0, 1.0, np.array([0.0]))
        assert got == pytest.approx(want, rel=1e-8)

    def test_matches_quadrature_n2(self):
        from quadrix import starred_measures

        family = trio((2.0, 1.0))["elliptic_hyperboloid"]
        settings = QuadratureSettings()
        for x in (np.array([0.0, 0.0]), np.array([1.5, 0.0]), np.array([0.5, 0.7])):
            p = point_on_level(family, 1.0, x)
            sm = starred_measures(family, p, 0.5, settings)
            want = hyperboloid_lateral_area((2.0, 1.0), 1.0, 0.5, x)
            tol = max(3.0 * sm.lateral.error_estimate, 0.01 * abs(want))
            assert abs(sm.lateral.value - want) <= tol

    # computed once at sphere-rule orders 20, 16 and 12; order 13 moves the
    # n = 6 value by 1.1e-12
    @pytest.mark.parametrize("n, want, rel", [
        (4, 0.9720878562083861, 1e-11),
        (5, 0.6289176523458054, 1e-11),
        (6, 0.5464509600023072, 1e-10),
    ])
    def test_pinned_high_dimensions(self, n, want, rel):
        a = (1.0, 1.5, 2.0, 1.0, 1.2, 0.8)[:n]
        x = np.array([0.6, -0.4, 0.3, 0.5, -0.3, 0.2][:n])
        assert hyperboloid_lateral_area(a, 1.0, 0.5, x) == pytest.approx(want, rel=rel)
