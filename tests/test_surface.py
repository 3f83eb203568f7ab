import dataclasses
import warnings

import numpy as np
import pytest

from quadrix import (
    BranchError,
    ConvexityError,
    LevelFamily,
    PerturbedQuadratic,
    QuadraticForm,
    RegionError,
    TangencyError,
    curvature_invariant,
    gauss_kronecker,
    invariant_constant,
    offset_map_h,
    parallel_tangent,
    parse_expression,
    point_on_level,
)
from quadrix import surface
from quadrix.surface import LocalChart

from conftest import seeded_xs, trio


# family and sampling half-width per case: the trio, then families whose
# second form comes from other alpha, perturbed f, or a convex side below
_CHART_CASES = {
    **{kind: (family, 0.25 if family.sign == "plus" else 1.0) for kind, family in trio().items()},
    "alpha3-minus": (LevelFamily(QuadraticForm((1.0, 2.0)), 3.0, "minus"), 0.4),
    "alpha0.5-minus": (LevelFamily(QuadraticForm((1.0, 2.0)), 0.5, "minus"), 1.0),
    "alpha-1-plus": (LevelFamily(QuadraticForm((1.0, 2.0)), -1.0, "plus"), 0.25),
    "quartic-minus": (LevelFamily(PerturbedQuadratic((1.0, 2.0), 0.2, "quartic"), 2.0, "minus"), 1.0),
    "cosh-plus": (LevelFamily(PerturbedQuadratic((1.0, 2.0), 0.2, "cosh"), 2.0, "plus"), 0.25),
}


def surface_residual(family, p):
    return abs(p.z ** family.alpha + family.sf * p.f_jet.value - p.k)


class TestPointOnLevel:
    def test_hyperbola_vertex(self, hyperbola1):
        p = point_on_level(hyperbola1, 1.0, np.array([0.0]))
        assert p.z == pytest.approx(1.0)
        assert p.grad_norm == pytest.approx(2.0)
        assert p.normal == pytest.approx([0.0, 1.0])  # convex side above

    def test_sphere_north_pole(self, unit_sphere2):
        p = point_on_level(unit_sphere2, 1.0, np.zeros(2))
        assert p.z == pytest.approx(1.0)
        assert p.grad_norm == pytest.approx(2.0)
        assert p.normal == pytest.approx([0.0, 0.0, -1.0])  # convex side is inside

    def test_paraboloid_point(self):
        family = LevelFamily(QuadraticForm((1.0, 1.0)), alpha=1.0, sign="minus")
        p = point_on_level(family, 0.0, np.array([1.0, 0.0]))
        assert p.ambient == pytest.approx([1.0, 0.0, 1.0])

    @pytest.mark.parametrize("kind", ["elliptic_hyperboloid", "ellipsoid", "elliptic_paraboloid"])
    def test_point_invariants(self, kind):
        family = trio()[kind]
        k = 1.0
        xs = seeded_xs(2, 10, 5, 0.4 if family.sign == "plus" else 1.5)
        for x in xs:
            p = point_on_level(family, k, x)
            assert surface_residual(family, p) <= 1e-10 * (1 + abs(k))
            assert abs(np.linalg.norm(p.normal) - 1.0) <= 1e-12
            gram = p.frame.T @ p.frame
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
            assert np.max(np.abs(p.frame.T @ p.normal)) <= 1e-12
            # gradient projects onto the normal with full length
            assert abs(abs(p.grad_g @ p.normal) - p.grad_norm) <= 1e-12 * p.grad_norm

    def test_branchless_point_rejected(self, unit_sphere2):
        with pytest.raises(BranchError):
            point_on_level(unit_sphere2, 1.0, np.array([2.0, 0.0]))

    @pytest.mark.parametrize("alpha", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_zero_or_non_finite_alpha_rejected(self, alpha):
        # a NaN or infinite alpha would lift to NaN z or a NaN second form
        with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
            LevelFamily(QuadraticForm((1.0, 2.0)), alpha)

    @pytest.mark.parametrize("m", [np.full((2, 2), np.nan), np.diag([np.inf, 1.0]),
                                   np.array([[1.0, np.nan], [np.nan, 1.0]])])
    def test_non_finite_form_is_not_certified(self, m):
        # numpy's Cholesky factors these to NaN without raising
        assert not surface._is_positive_definite(m)
        assert surface._is_positive_definite(np.eye(2))

    def test_overflowing_branch_rejected(self):
        # z = 3^1000 is beyond the floats; 2^1000 is not
        family = LevelFamily(QuadraticForm((1.0, 2.0)), alpha=0.001, sign="minus")
        assert family.solve_z(2.0, 0.0) == 2.0 ** 1000
        with pytest.raises(BranchError, match="no finite z"):
            family.solve_z(2.0, 1.0)

    @pytest.mark.parametrize("family, k, x", [
        # z = 0.5002^(1/alpha) underflows to 0 (1e-5, 1e-320), so g_z is 0 or
        # infinite; at 1e-3 z is finite but z^(alpha - 2) overflows
        *((LevelFamily(QuadraticForm((0.1, 0.1)), alpha, "minus"), 0.5, [0.1, 0.1])
          for alpha in (1e-5, 1e-320, 1e-3)),
        # z = 1e-30 and g_z = 1e-269 are finite, but the slope's square is not
        (LevelFamily(parse_expression("x1", 1), 10.0, "minus"), 0.0, [1e-300]),
    ], ids=["alpha=1e-5", "alpha=1e-320", "alpha=1e-3", "slope-overflow"])
    def test_non_finite_graph_jet_rejected(self, family, k, x):
        # off the branch, with no warning, so sampling skips the point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BranchError, match="no finite graph jet"):
                point_on_level(family, k, np.array(x))

    def test_sheet_past_the_pole_rejected(self):
        # alpha = -1: over f > k the real root z = 1 / (k - f) is negative, on
        # the other sheet; alpha = 1 keeps its root through z = 0
        family = LevelFamily(QuadraticForm((1.0, 1.0)), alpha=-1.0, sign="plus")
        assert family.solve_z(1.0, 0.5) == 2.0
        for fval in (1.0, 2.0):
            with pytest.raises(BranchError):
                family.solve_z(1.0, fval)
        with pytest.raises(BranchError):
            point_on_level(family, 1.0, np.array([1.2, 0.0]))
        downward = LevelFamily(QuadraticForm((1.0, 1.0)), alpha=1.0, sign="plus")
        assert downward.solve_z(1.0, 2.0) == -1.0

    def test_nan_level_rejected(self):
        family = trio()["elliptic_hyperboloid"]
        with pytest.raises(BranchError):
            family.solve_z(float("nan"), 0.5)

    def test_saddle_fails_certificate(self):
        family = LevelFamily(parse_expression("x1^2 - x2^2", 2), alpha=1.0, sign="minus")
        with pytest.raises(ConvexityError):
            point_on_level(family, 0.0, np.array([0.3, 0.1]))


class TestCurvature:
    def test_unit_sphere_curvature_is_one(self, unit_sphere2):
        for x in [np.zeros(2), np.array([0.3, -0.4]), np.array([0.6, 0.1])]:
            p = point_on_level(unit_sphere2, 1.0, x)
            assert gauss_kronecker(unit_sphere2, p) == pytest.approx(1.0, rel=1e-12)

    def test_paraboloid_vertex(self, paraboloid2):
        p = point_on_level(paraboloid2, 0.0, np.zeros(2))
        assert gauss_kronecker(paraboloid2, p) == pytest.approx(4.0)
        assert curvature_invariant(paraboloid2, p) == pytest.approx(4.0)

    def test_hyperbola_vertex(self, hyperbola1):
        # 1-D check: z = sqrt(1 + x^2) has curvature z'' / (1 + z'^2)^(3/2) = 1 at 0
        p = point_on_level(hyperbola1, 1.0, np.array([0.0]))
        assert gauss_kronecker(hyperbola1, p) == pytest.approx(1.0)
        assert curvature_invariant(hyperbola1, p) == pytest.approx(8.0)

    def test_sphere_invariant_value(self, unit_sphere2):
        p = point_on_level(unit_sphere2, 1.0, np.array([0.2, 0.5]))
        assert curvature_invariant(unit_sphere2, p) == pytest.approx(16.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["elliptic_hyperboloid", "ellipsoid", "elliptic_paraboloid"])
    def test_invariant_matches_closed_form(self, kind):
        family = trio()[kind]
        a = family.f.a
        for k in (0.5, 1.0, 2.0):
            want = invariant_constant(kind, a, k)
            half = 0.3 if family.sign == "plus" else 1.5
            for x in seeded_xs(2, 20, 11, half):
                p = point_on_level(family, k, x)
                got = curvature_invariant(family, p)
                assert abs(got - want) / want <= 1e-8

    @pytest.mark.parametrize("kind", list(_CHART_CASES))
    def test_curvature_matches_chart_hessian(self, kind):
        # independent oracle: K = det(Hessian of the chart height at 0),
        # by central finite differences of the chart height
        family, half = _CHART_CASES[kind]
        step = 1e-4
        for x in seeded_xs(2, 20, 23, half):
            p = point_on_level(family, 1.0, x)
            chart = LocalChart(family, p)

            def w(y):
                return chart.height(np.asarray(y)[None, :], 0.1)[0]

            hess = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    ei, ej = np.zeros(2), np.zeros(2)
                    ei[i], ej[j] = step, step
                    if i == j:
                        hess[i, i] = (w(ei) - 0.0 + w(-ei)) / step ** 2  # w(0) = 0
                    else:
                        hess[i, j] = (w(ei + ej) - w(ei - ej) - w(-ei + ej) + w(-ei - ej)) / (4 * step ** 2)
            got = np.linalg.det(hess)
            want = gauss_kronecker(family, p)
            assert abs(got - want) / want <= 1e-4


class TestLocalGraph:
    @staticmethod
    def height(family, p, y, t=0.5):
        return LocalChart(family, p).height(np.atleast_2d(y), t)[0]

    def test_sphere_cap_height(self, unit_sphere2):
        p = point_on_level(unit_sphere2, 1.0, np.zeros(2))
        w = self.height(unit_sphere2, p, np.array([0.6, 0.0]))
        assert w == pytest.approx(0.2, abs=1e-10)

    def test_zero_offset(self, hyperbola1):
        p = point_on_level(hyperbola1, 1.0, np.array([0.4]))
        assert self.height(hyperbola1, p, np.array([0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_paraboloid_vertex(self, paraboloid2):
        p = point_on_level(paraboloid2, 0.0, np.zeros(2))
        assert self.height(paraboloid2, p, np.array([0.3, 0.4])) == pytest.approx(0.25)

    def test_gradient_vanishes_at_origin(self, unit_sphere2):
        p = point_on_level(unit_sphere2, 1.0, np.array([0.3, -0.2]))
        chart = LocalChart(unit_sphere2, p)
        Y = np.zeros((1, 2))
        gw = chart.gradient_at(Y, chart.height(Y, 0.5))
        assert np.max(np.abs(gw)) <= 1e-9

    @pytest.mark.parametrize("family, x, Y", [
        (LevelFamily(QuadraticForm((1.0, 1.0)), 2.0, "plus"), [0.3, -0.2],
         [[0.3, 0.1], [-0.2, 0.25], [0.05, -0.4]]),
        (LevelFamily(PerturbedQuadratic((1.0, 2.0, 1.5), 0.3, "cosh"), 2.0, "plus"), [0.1, -0.1, 0.2],
         [[0.2, 0.1, -0.1], [-0.15, 0.05, 0.2], [0.0, -0.2, 0.1]]),
    ], ids=["unit-sphere-n2", "cosh-plus-n3"])
    def test_gradient_matches_central_differences(self, family, x, Y):
        # away from the origin, where the gradient is not zero
        chart = LocalChart(family, point_on_level(family, 1.0, np.array(x)))
        Y, step, t = np.array(Y), 1e-6, 0.5
        gw = chart.gradient_at(Y, chart.height(Y, t))
        E = step * np.eye(family.n)
        fd = np.stack([(chart.height(Y + e, t) - chart.height(Y - e, t)) / (2 * step) for e in E], axis=1)
        assert np.min(np.linalg.norm(gw, axis=1)) > 0.05
        assert np.max(np.abs(gw - fd)) <= 1e-8

    def test_escape_is_outside(self, unit_sphere2):
        # the line misses the sphere; below the plane at 1.5 it also leaves
        # z > 0: there is no height, so the solve raises naming the offset
        p = point_on_level(unit_sphere2, 1.0, np.zeros(2))
        for t in (0.5, 1.5):
            with pytest.raises(RegionError, match=r"chart offset y=\[1\.2, 0\.0\] \(1 of 1 points\)"):
                self.height(unit_sphere2, p, np.array([1.2, 0.0]), t)


# coefficients at n = 1..6; n = 2 keeps trio()'s (1, 2)
_A6 = (1.0, 2.0, 1.5, 1.2, 0.8, 1.1)

# families off the quadric normal forms, at n = 1..6: the family and its
# sampling half-width at n = 2 (shrunk as sqrt(2 / n) at other n)
_TANGENCY_CASES = {
    "quartic-minus": (lambda a: LevelFamily(PerturbedQuadratic(a, 0.3, "quartic"), 2.0, "minus"), 0.8),
    "cosh-plus": (lambda a: LevelFamily(PerturbedQuadratic(a, 0.3, "cosh"), 2.0, "plus"), 0.35),
    "expression-minus": (lambda a: LevelFamily(parse_expression(" + ".join(
        f"{ai ** 2} * x{i + 1}^2 + 0.2 * (cosh(x{i + 1}) - 1)" for i, ai in enumerate(a)), len(a)),
        2.0, "minus"), 0.8),
    "alpha1.5-minus": (lambda a: LevelFamily(QuadraticForm(a), 1.5, "minus"), 0.8),
    "alpha1.5-plus": (lambda a: LevelFamily(QuadraticForm(a), 1.5, "plus"), 0.3),
}


class TestParallelTangent:
    def test_hyperboloid_homothety(self):
        k, h = 1.0, 1.0
        for n in range(1, 7):
            family = trio(_A6[:n])["elliptic_hyperboloid"]
            for x in seeded_xs(n, 6, 3, 1.2 * np.sqrt(2 / n)):
                p = point_on_level(family, k, x)
                res = parallel_tangent(family, p, h)
                want = np.sqrt((k + h) / k) * p.ambient
                assert np.max(np.abs(res.v.ambient - want)) <= 1e-9
                assert res.scale > 0
                assert res.t > 0

    def test_ellipsoid_homothety(self):
        k, h = 1.0, -0.19
        for n in range(1, 7):
            family = trio(_A6[:n])["ellipsoid"]
            for x in seeded_xs(n, 6, 4, 0.3 * np.sqrt(2 / n)):
                p = point_on_level(family, k, x)
                res = parallel_tangent(family, p, h)
                want = np.sqrt((k + h) / k) * p.ambient
                assert np.max(np.abs(res.v.ambient - want)) <= 1e-9

    @pytest.mark.parametrize("kind", list(_TANGENCY_CASES))
    def test_defining_equations(self, kind):
        # v lies on M_{k+h}, its convex-side normal equals p's, and the
        # plane through v lies beyond p
        make, half = _TANGENCY_CASES[kind]
        k = 1.0
        for n in range(1, 7):
            family = make(_A6[:n])
            for x in seeded_xs(n, 3, 40 + n, half * np.sqrt(2 / n)):
                p = point_on_level(family, k, x)
                for h in (0.1, 0.6) if family.sign == "minus" else (-0.1, -0.4):
                    res = parallel_tangent(family, p, h)
                    v = res.v
                    assert surface_residual(family, v) <= 1e-10 * (1 + abs(k + h))
                    assert v.k == k + h
                    assert np.linalg.norm(v.normal - p.normal) <= 1e-9
                    assert res.t > 0

    def test_paraboloid_tangency_is_vertical(self):
        # alpha = 1: every level is the same graph shifted in z, so the
        # tangency sits straight above p at distance h along z
        for n in range(1, 7):
            family = trio(_A6[:n])["elliptic_paraboloid"]
            for x in seeded_xs(n, 3, 50 + n, 1.0):
                p = point_on_level(family, 1.0, x)
                res = parallel_tangent(family, p, 0.5)
                assert np.max(np.abs(res.v.x - p.x)) <= 1e-12
                assert res.v.z == pytest.approx(p.z + 0.5, rel=1e-12)
                assert res.scale == 1.0

    def test_iterates_stay_on_the_upper_sheet(self):
        # alpha = -1: z = 1 / (k - f) is a real root past the pole f = k too,
        # with z < 0; a full Newton step from p crosses the pole
        family = LevelFamily(QuadraticForm(_A6[:2]), -1.0, "plus")
        p = point_on_level(family, 1.0, np.array([0.17, -0.06]))
        res = parallel_tangent(family, p, -0.9)
        assert res.v.z > 0 and res.t > 0
        assert np.linalg.norm(res.v.normal - p.normal) <= 1e-9

    def test_start_off_the_branch(self):
        # a deep ellipsoid cap: the first-order offset of p lies outside the
        # small level k + h = 0.1, and so does x_p; the solve starts from the
        # center of f's osculating quadratic instead
        family = trio(_A6[:5])["ellipsoid"]
        k, h = 1.0, -0.9
        x = np.array([-0.3, 0.2, 0.2, -0.3, -0.3])
        p = point_on_level(family, k, x)
        first_order = p.x + h / (p.grad_g @ p.normal) * p.normal[:-1]
        for off in (first_order, p.x):
            with pytest.raises(BranchError):
                point_on_level(family, k + h, off)
        res = parallel_tangent(family, p, h)
        assert np.max(np.abs(res.v.ambient - np.sqrt((k + h) / k) * p.ambient)) <= 1e-9

    def test_antiparallel_normals_rejected(self, unit_sphere2, monkeypatch):
        # an antiparallel tangency has sine 0 between the normals, as a
        # parallel one has; only the sign of the cosine tells them apart
        p = point_on_level(unit_sphere2, 1.0, np.array([0.2, 0.1]))
        lift = surface._lift  # parallel_tangent lifts the jet it converged on

        def flipped(family, k, x, jet):
            q = lift(family, k, x, jet)
            return dataclasses.replace(q, normal=-q.normal) if k != p.k else q

        monkeypatch.setattr(surface, "_lift", flipped)
        with pytest.raises(TangencyError, match="opposite"):
            parallel_tangent(unit_sphere2, p, -0.19)

    def test_converged_jet_is_lifted_once(self, monkeypatch):
        # v is lifted from the graph jet the Newton loop converged on, so
        # the batched _graph_jets is evaluated once at that x, and the lift
        # equals point_on_level there
        family = LevelFamily(PerturbedQuadratic((1.0, 2.0), 0.2, "quartic"), 2.0, "minus")
        p = point_on_level(family, 1.0, np.array([0.7, -0.4]))
        seen = []
        inner = surface._graph_jets

        def recording(family, c, X):
            seen.extend(np.array(X, copy=True))
            return inner(family, c, X)

        monkeypatch.setattr(surface, "_graph_jets", recording)
        res = parallel_tangent(family, p, 0.5)
        assert sum(np.array_equal(x, res.v.x) for x in seen) == 1
        q = point_on_level(family, 1.5, res.v.x)
        for name in ("z", "grad_g", "normal", "frame", "second_form"):
            assert np.array_equal(getattr(res.v, name), getattr(q, name)), name

    def test_no_branch_at_the_level(self, unit_sphere2):
        # k + h < 0: the level has no z > 0 point anywhere
        p = point_on_level(unit_sphere2, 1.0, np.array([0.3, 0.2]))
        with pytest.raises(TangencyError, match="no start"):
            parallel_tangent(unit_sphere2, p, -1.5)

    def test_unit_sphere_fixture(self, unit_sphere2):
        p = point_on_level(unit_sphere2, 1.0, np.zeros(2))
        res = parallel_tangent(unit_sphere2, p, -0.19)
        assert res.v.ambient == pytest.approx([0.0, 0.0, 0.9], abs=1e-10)
        assert res.t == pytest.approx(0.1, abs=1e-10)

    def test_distance_ratio_limit(self, hyperbola1):
        # t(h) |grad g(p)| / h -> 1, monotonically after the first terms
        p = point_on_level(hyperbola1, 1.0, np.array([0.5]))
        gnorm = p.grad_norm
        devs = []
        for j in range(3, 13):
            h = 2.0 ** -j
            res = parallel_tangent(hyperbola1, p, h)
            devs.append(abs(res.t * gnorm / h - 1.0))
        assert all(b < a for a, b in zip(devs[2:], devs[3:]))
        assert devs[-1] < 1e-3

    def test_offset_outside_interval(self, hyperbola1, unit_sphere2):
        p = point_on_level(hyperbola1, 1.0, np.array([0.0]))
        with pytest.raises(TangencyError):
            parallel_tangent(hyperbola1, p, -0.5)
        q = point_on_level(unit_sphere2, 1.0, np.zeros(2))
        with pytest.raises(TangencyError):
            parallel_tangent(unit_sphere2, q, 0.5)


class TestOffsetMap:
    def test_closed_form_fixtures(self, hyperbola1, unit_sphere2):
        p = point_on_level(hyperbola1, 1.0, np.array([0.0]))
        assert offset_map_h(hyperbola1, p, 0.1) == pytest.approx(0.21, abs=1e-14)
        q = point_on_level(unit_sphere2, 1.0, np.zeros(2))
        assert offset_map_h(unit_sphere2, q, 0.5) == pytest.approx(-0.75, abs=1e-14)

    def test_zero_distance(self, hyperbola1):
        p = point_on_level(hyperbola1, 1.0, np.array([0.3]))
        assert offset_map_h(hyperbola1, p, 0.0) == 0.0

    @pytest.mark.parametrize("kind", ["elliptic_hyperboloid", "ellipsoid"])
    def test_round_trip_on_quadrics(self, kind):
        family = trio()[kind]
        half = 0.3 if family.sign == "plus" else 1.0
        hs = [-0.3, -0.6] if family.sign == "plus" else [0.5, 1.0]
        for x in seeded_xs(2, 4, 9, half):
            p = point_on_level(family, 1.0, x)
            for h in hs:
                t = parallel_tangent(family, p, h).t
                assert offset_map_h(family, p, t) == pytest.approx(h, rel=1e-8)

    @pytest.mark.parametrize("family", [
        LevelFamily(PerturbedQuadratic((1.0, 1.0), 0.2, "quartic"), 2.0, "minus"),
        LevelFamily(QuadraticForm((1.0, 1.0)), 1.0, "minus"),
    ], ids=["perturbed", "paraboloid"])
    def test_other_families_rejected(self, family):
        p = point_on_level(family, 1.0, np.array([0.5, 0.2]))
        with pytest.raises(ValueError, match="diagonal quadratic"):
            offset_map_h(family, p, 0.1)

    def test_plus_family_beyond_range(self, unit_sphere2):
        p = point_on_level(unit_sphere2, 1.0, np.zeros(2))
        with pytest.raises(RegionError):
            offset_map_h(unit_sphere2, p, 1.5)  # max admissible distance is 2k/|grad g| = 1


class TestSecondFundamentalForm:
    @pytest.mark.parametrize("kind", list(_CHART_CASES))
    def test_graph_form_matches_ambient_form(self, kind):
        # reference: -(frame^T Hess g frame) / <grad g, normal> from the
        # ambient Hessian of g = z^alpha + sf f
        family, half = _CHART_CASES[kind]
        for x in seeded_xs(2, 10, 31, half):
            p = point_on_level(family, 1.0, x)
            hess_g = np.zeros((3, 3))
            hess_g[:2, :2] = family.sf * p.f_jet.hessian
            hess_g[2, 2] = family.alpha * (family.alpha - 1.0) * p.z ** (family.alpha - 2.0)
            want = -(p.frame.T @ hess_g @ p.frame) / (p.grad_g @ p.normal)
            assert np.max(np.abs(p.second_form - want)) <= 1e-12 * np.max(np.abs(want))


    @pytest.mark.parametrize("kind", ["elliptic_hyperboloid", "ellipsoid", "elliptic_paraboloid"])
    def test_positive_definite_at_certified_points(self, kind):
        family = trio()[kind]
        half = 0.3 if family.sign == "plus" else 1.2
        for x in seeded_xs(2, 8, 13, half):
            p = point_on_level(family, 1.0, x)
            eigs = np.linalg.eigvalsh(p.second_form)
            assert np.all(eigs > 0)


class TestChartSolver:
    """The one safeguarded root solver behind LocalChart.height and boundary_radius."""

    @staticmethod
    def _chart():
        family = trio()["elliptic_hyperboloid"]
        return LocalChart(family, point_on_level(family, 1.0, np.array([0.7, -0.4])))

    def test_batch_invariance(self, monkeypatch):
        chart = self._chart()
        rng = np.random.default_rng(7)
        U = rng.standard_normal((64, 2))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        Y = U * rng.uniform(0.1, 0.55, 64)[:, None]  # far lanes need more iterations
        batch_sizes = []
        inner = surface.eval_line  # the evaluator the solver loop calls

        def counting(f, row, m):
            batch_sizes.append(m)
            return inner(f, row, m)

        monkeypatch.setattr(surface, "eval_line", counting)
        w = chart.height(Y, 0.3)
        rho = chart.boundary_radius(U, 0.3)
        # converged lanes drop out, so later iterations evaluate fewer lanes
        assert len(set(batch_sizes)) > 3 and min(batch_sizes) < len(Y)
        for i in range(len(Y)):
            assert chart.height(Y[i:i + 1], 0.3)[0] == pytest.approx(w[i], rel=1e-13)
            assert chart.boundary_radius(U[i:i + 1], 0.3)[0] == pytest.approx(rho[i], rel=1e-13)

    @pytest.mark.parametrize("residual, root, start", [
        # Newton from x = 5 jumps to about -26, outside the bracket
        (lambda x: (np.arctan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)), 0.3, 5.0),
        # zero slope at the start: no Newton step is possible
        (lambda x: (x ** 3 - 0.5, 3.0 * x ** 2), 0.5 ** (1.0 / 3.0), 0.0),
    ])
    def test_bisection_fallback(self, residual, root, start):
        seen = []

        def res(idx, x):
            seen.extend(x)
            return residual(x)

        lo, hi = np.full(2, -10.0), np.full(2, 10.0)
        x, unconverged = surface._safeguarded_roots(res, lo, hi, np.array([start, 20.0]), 1e-14,
                                                    np.array([0]))
        assert unconverged.size == 0
        assert x[0] == pytest.approx(root, abs=1e-13)
        assert all(-10.0 <= v <= 10.0 for v in seen)  # every evaluation stayed in the bracket
        assert x[1] == 10.0  # a lane outside idx keeps its clipped start

    def test_unconverged_lanes_reported(self):
        calls = []

        def res(idx, x):  # a step: |residual| never drops below the tolerance
            calls.append(len(idx))
            return np.where(x < 0.3, -1.0, 1.0), np.zeros_like(x)

        lo, hi = np.zeros(3), np.ones(3)
        _, unconverged = surface._safeguarded_roots(res, lo, hi, np.full(3, 0.5), 1e-12, np.arange(3))
        assert unconverged.tolist() == [0, 1, 2]
        assert len(calls) == surface.CHART_MAXITER

    def test_unbounded_bracket(self):
        # hi = +inf: the bracket grows inside the Newton loop, and a NaN
        # residual (off the branch) bounds it like a positive one.  Lane 0 has
        # its root 1.5 just below NaN from 1.55, where the capped step from 1.0
        # lands first; lane 1 has no root before NaN from 2, so it stalls
        # with a finite bound; lane 2 has no root at all and stays unbounded
        def res(idx, x):
            r = np.where(idx == 0, x ** 3 - 3.375, -1.0)
            r[(idx < 2) & (x >= np.where(idx == 0, 1.55, 2.0))] = np.nan
            return r, np.where(idx == 0, 3.0 * x ** 2, 0.0)

        lo, hi = np.zeros(3), np.full(3, np.inf)
        x, unconverged = surface._safeguarded_roots(res, lo, hi, np.ones(3), 1e-12, np.arange(3))
        assert x[0] == pytest.approx(1.5, abs=1e-12)
        assert unconverged.tolist() == [1, 2]
        assert 2.0 <= hi[1] < np.inf and hi[2] == np.inf

    @staticmethod
    def _record_lines(monkeypatch, chart, start=None):
        """Record (lanes, points) of every line evaluation the chart's solves make,
        or only of those on lines from the base points start when it is given."""
        calls = []
        inner = chart._line_residual

        def recording(X0, Z0, dX, dZ, s, idx, tau):
            if start is None or np.array_equal(X0, start):
                calls.append((idx.copy(), np.array(tau, copy=True)))
            return inner(X0, Z0, dX, dZ, s, idx, tau)

        monkeypatch.setattr(chart, "_line_residual", recording)
        return calls

    def test_lazy_bracket(self, unit_sphere2, monkeypatch):
        # the top of the bracket is never evaluated up front, so a lane takes
        # only its Newton iterates: 4 for the root 0.2 from the guess 0.18, 5
        # for the root 0.564 from 0.405
        chart = LocalChart(unit_sphere2, point_on_level(unit_sphere2, 1.0, np.zeros(2)))
        calls = self._record_lines(monkeypatch, chart)
        for t, Y, counts in ((0.3, [[0.6, 0.0]], [4]), (0.9, [[0.6, 0.0], [0.0, 0.9]], [4, 5])):
            calls.clear()
            w = chart.height(np.array(Y), t)
            hi = t + 1e-9 * (1.0 + t)
            assert np.all(np.isfinite(w))
            for lane, count in enumerate(counts):
                taus = [tau[idx == lane][0] for idx, tau in calls if lane in idx]
                assert len(taus) == count and hi not in taus and t not in taus
    def test_boundary_start_is_evaluated_once(self, monkeypatch):
        # the bracket grows inside the Newton loop, so no lane is evaluated
        # twice at the same point of its line from the section's base point
        # (the fold check then evaluates other lines, along the normal)
        chart = self._chart()
        rng = np.random.default_rng(5)
        U = rng.standard_normal((64, 2))
        base = chart.origin + 0.3 * chart.normal
        calls = self._record_lines(monkeypatch, chart, start=base[:2, None])
        rho = chart.boundary_radius(U, 0.3)
        assert np.all(np.isfinite(rho))
        for lane in range(64):
            taus = [tau[idx == lane][0] for idx, tau in calls if lane in idx]
            assert len(taus) == len(set(taus)), (lane, taus)

    def test_fold_check_reads_the_line_residual(self, unit_sphere2, monkeypatch):
        # the fold check reads offset_sign * dg/dnu at the boundary points as
        # the slope of the line residual along the normal: no batch gradient
        # of g, and the unit-sphere section past the equator still folds
        chart = LocalChart(unit_sphere2, point_on_level(unit_sphere2, 1.0, np.zeros(2)))
        calls = []
        inner = surface.eval_value_grad

        def counting(f, X):
            calls.append(len(X))
            return inner(f, X)

        monkeypatch.setattr(surface, "eval_value_grad", counting)
        U = np.random.default_rng(8).standard_normal((32, 2))
        assert np.all(np.isfinite(chart.boundary_radius(U, 0.4)))
        with pytest.raises(RegionError, match=r"^section at t=1\.2 crosses the chart fold$"):
            chart.boundary_radius(U, 1.2)
        assert not calls

    def test_height_block_is_one_lane_wide(self, monkeypatch):
        # an n = 6 block of 16 380 lanes (1 092 rays of 15 nodes): every array
        # the solver loop hands to the evaluator, or gets back, is 1-D
        family = LevelFamily(QuadraticForm((1.0, 1.5, 0.8, 1.2, 0.9, 1.1)), 2.0, "minus")
        chart = LocalChart(family, point_on_level(family, 1.0, np.full(6, 0.2)))
        rng = np.random.default_rng(6)
        U = rng.standard_normal((16380, 6))
        Y = U * (chart.boundary_radius(U, 0.3) * rng.uniform(0.05, 0.95, 16380))[:, None]
        shapes = []
        inner_line, inner_batch = getattr(surface, "eval_line", None), surface.eval_value_grad

        def line(f, row, m):
            def recorded(i):
                x, d = row(i)
                shapes.extend([np.shape(x), np.shape(d)])
                return x, d

            vals, slopes = inner_line(f, recorded, m)
            shapes.extend([np.shape(vals), np.shape(slopes)])
            return vals, slopes

        def batch(f, X):
            vals, grads = inner_batch(f, X)
            shapes.extend([np.shape(X), np.shape(vals), np.shape(grads)])
            return vals, grads

        monkeypatch.setattr(surface, "eval_line", line, raising=False)
        monkeypatch.setattr(surface, "eval_value_grad", batch)
        w = chart.height(Y, 0.3)
        assert np.all(np.isfinite(w))
        assert (16380,) in shapes  # the first iteration takes the whole block
        assert all(len(shape) <= 1 for shape in shapes), set(shapes)

    def test_failure_outcomes(self, unit_sphere2, monkeypatch):
        chart = LocalChart(unit_sphere2, point_on_level(unit_sphere2, 1.0, np.zeros(2)))
        Y = np.array([[0.6, 0.0], [1.2, 0.0], [0.0, 0.9]])  # heights 0.2, past the fold, ~0.56
        # above the plane or past the fold: the solve raises naming the first such offset
        with pytest.raises(RegionError, match=r"chart offset y=\[1\.2, 0\.0\] \(2 of 3 points\)"):
            chart.height(Y, 0.3)
        with pytest.raises(RegionError, match=r"chart offset y=\[1\.2, 0\.0\] \(1 of 3 points\)"):
            chart.height(Y, 0.9)
        w = chart.height(Y[[0, 2]], 0.9)
        assert w[0] == pytest.approx(0.2, abs=1e-12)
        assert w[1] == pytest.approx(1.0 - np.sqrt(1.0 - 0.81), abs=1e-12)
        monkeypatch.setattr(surface, "CHART_MAXITER", 1)  # a stalled solve raises too
        with pytest.raises(RegionError, match=r"chart offset y=\[0\.6, 0\.0\] \(2 of 2 points\)"):
            chart.height(Y[[0, 2]], 0.9)
