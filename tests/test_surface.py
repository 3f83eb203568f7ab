import dataclasses
import warnings
from operator import attrgetter

import numpy as np
import pytest

from quadrix import (
    BranchError,
    ConvexityError,
    EvaluationError,
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
from quadrix._grids import DEFAULT_ORDER, radial_nodes, sphere_rule
from quadrix.measure import _chart_directions
from quadrix.surface import ChartRays, LocalChart

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

    @pytest.mark.parametrize("log_lane", [False, True], ids=["stacked", "evaluation-error"])
    def test_batched_lift_matches_one_point_lifts(self, log_lane):
        # good lanes at three levels, beside an off-branch lane and a non-convex
        # lane; with log_lane, f's jets raise for the whole batch and every
        # lane is lifted alone.  Each good lane is point_on_level's point, bit
        # for bit and as contiguous, and each bad lane its one-point error
        family = LevelFamily(parse_expression("x1^2 + x2^2 - 0.3*x2^4 + 0.1*log(x1 + 3)", 2), 2.0, "minus")
        lanes = [(1.0, [0.1, 0.2]), (1.0, [0.0, 2.5]), (0.5, [0.5, -0.3]), (1.0, [0.2, 1.2]),
                 (2.0, [-0.4, 0.6]), (1.0, [0.3, -1.1])] + [(1.0, [-3.5, 0.0])] * log_lane
        ks = [k for k, _ in lanes]
        lifts = surface._lifts(family, ks, np.array([x for _, x in lanes]))
        kinds = []
        for (k, x), got in zip(lanes, lifts):
            try:
                want = point_on_level(family, k, np.array(x))
            except (BranchError, ConvexityError, EvaluationError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                kinds.append(type(exc).__name__)
                continue
            kinds.append("point")
            assert (got.z, got.k, got.f_jet.value) == (want.z, want.k, want.f_jet.value)
            for name in ("x", "grad_g", "normal", "frame", "second_form", "f_jet.gradient", "f_jet.hessian"):
                a, b = map(attrgetter(name), (got, want))
                assert np.array_equal(a, b) and a.strides == b.strides, name
        assert kinds == ["point", "BranchError", "point", "ConvexityError", "point", "ConvexityError"] + \
            ["EvaluationError"] * log_lane


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


class TestRayPass:
    """LocalChart.height on directions, their radial nodes and their geometry
    is the offset form height(r u, t), with the lateral integrand
    sqrt(1 + |gradient_at|^2)."""

    @staticmethod
    def _cap(family, x, h):
        """The chart at x, the cap's t, the default-order chart directions and their K15 nodes."""
        p = point_on_level(family, 1.0, np.asarray(x))
        t = parallel_tangent(family, p, h).t
        chart = LocalChart(family, p)
        ((U, _),) = _chart_directions([p], sphere_rule(family.n, DEFAULT_ORDER[family.n])[0])
        return chart, t, U, chart.boundary_radius(U, t)[:, None] * radial_nodes()[0]

    @staticmethod
    def _offset_form(chart, t, U, radii):
        Y = (radii[..., None] * U[:, None, :]).reshape(-1, U.shape[1])
        w = chart.height(Y, t)
        slope = chart.gradient_at(Y, w)
        return w, np.sqrt(1.0 + np.sum(slope * slope, axis=1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ray_pass_is_the_offset_form(self, n):
        family = trio(_A6[:n])["ellipsoid"]
        chart, t, U, radii = self._cap(family, np.full(n, 0.1), -0.4)
        w, lateral = chart.height(U, t, radii, chart.rays(U), lateral=True)
        for got, want in zip((w, lateral), self._offset_form(chart, t, U, radii)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_joined_chart(self):
        # two points of one level side by side, each with its own t
        family = trio(_A6[:3])["ellipsoid"]
        caps = [self._cap(family, x, h) for x, h in (([0.1, 0.2, -0.1], -0.4), ([-0.3, 0.1, 0.2], -0.3))]
        U = np.concatenate([U for _, _, U, _ in caps])
        chart = LocalChart.joined([c for c, *_ in caps], [len(U) for *_, U, _ in caps])
        w, lateral = chart.height(U, np.repeat([t for _, t, _, _ in caps], [len(U) for *_, U, _ in caps]),
                                  np.concatenate([radii for *_, radii in caps]),
                                  ChartRays.join([c.rays(D) for c, _, D, _ in caps]), lateral=True)
        want = [np.concatenate(a) for a in zip(*(self._offset_form(*cap) for cap in caps))]
        for got, ref in zip((w, lateral), want):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    def test_offset_heights_keep_their_bits(self):
        # height(Y, t) on chart offsets is the ray pass at radius 1, and
        # keeps the bits of the per-node chart products it replaced (0.12.1)
        family = LevelFamily(PerturbedQuadratic((1.0, 2.0, 1.5), 0.3, "quartic"), 2.0, "plus")
        chart = LocalChart(family, point_on_level(family, 1.0, np.array([0.2, -0.1, 0.15])))
        Y = np.array([[0.3, 0.1, -0.2], [-0.25, 0.2, 0.05], [0.0, -0.3, 0.1]])
        w = chart.height(Y, 0.4)
        assert [v.hex() for v in w.tolist()] == ["0x1.506359c8630e3p-3", "0x1.0ddd351cdb5d6p-2",
                                                 "0x1.7861e3f32bffep-4"]
        assert [v.hex() for v in chart.gradient_at(Y, w).ravel().tolist()] == [
            "0x1.b9f3da14e1f6ap-1", "0x1.26d6980c380acp-2", "-0x1.9834c6713b589p-3",
            "-0x1.8fd776b261e22p+1", "0x1.5431990b352a6p+0", "0x1.2b36295d20e3ap-3",
            "-0x1.0868491f85a72p-3", "-0x1.2fdbeb98744d5p-1", "0x1.904b2fb84e42ap-4"]


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
        # small level k + h = 0.1, and so does x_p; the model's start is the
        # tangency itself, so the solve takes no Newton step
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
        assert res.newton_iterations == 1

    def test_start_from_the_center_of_f(self, monkeypatch):
        # alpha = 3, quartic f: neither the model's start nor the first-order
        # offset lies on the z > 0 graph of the level k + h = 0.12, so the
        # solve starts from the center of f's osculating quadratic at x_p
        family = LevelFamily(PerturbedQuadratic((0.9,), 0.7, "quartic"), 3.0, "plus")
        k, h = 1.0, -0.88
        p = point_on_level(family, k, np.array([-0.56]))
        starts = []
        inner = surface._graph_jets

        def recording(family, c, X):
            starts.append(np.array(X, copy=True))
            jets = inner(family, c, X)
            if len(starts) == 1:  # the batch of both starts
                assert not np.any(jets.finite & (jets.z > 0))
            return jets

        monkeypatch.setattr(surface, "_graph_jets", recording)
        res = parallel_tangent(family, p, h)
        center = p.x - np.linalg.lstsq(p.f_jet.hessian, p.f_jet.gradient, rcond=None)[0]
        assert np.array_equal(starts[1], center[None, :])
        assert surface_residual(family, res.v) <= 1e-12
        assert np.linalg.norm(res.v.normal - p.normal) <= 1e-9 and res.t > 0

    @pytest.mark.parametrize("kind", list(trio()))
    def test_model_start_is_the_tangency_on_the_normal_forms(self, kind):
        # g is its own second-order model there: every solve converges at
        # its start, before any Newton step
        for n in range(1, 7):
            family = trio(_A6[:n])[kind]
            for x in seeded_xs(n, 3, 60 + n, 0.3 * np.sqrt(2 / n)):
                p = point_on_level(family, 1.0, x)
                h = -0.4 if family.sign == "plus" else 0.5
                assert parallel_tangent(family, p, h).newton_iterations == 1

    def test_guard_keeps_the_first_order_start(self, monkeypatch):
        # alpha = 0.5 "plus": g_zz < 0, so g's model is indefinite, and its
        # tangency lies on the graph but on the wrong side of the fold.  The
        # first-order offset has the smaller slope gap and solves, with the
        # t and iterations of a start from the first-order offset alone
        family = LevelFamily(PerturbedQuadratic((1.2,), 0.8, "quartic"), 0.5, "plus")
        p = point_on_level(family, 0.5, np.array([-0.45]))
        res = parallel_tangent(family, p, 0.48)
        assert (res.t, res.newton_iterations) == (0.10068253648575354, 7)
        inner = surface._newton

        def model_only(family, cells, target, slope_p, tol, starts):
            starts = starts.copy()
            starts[len(cells):] = starts[:len(cells)]
            return inner(family, cells, target, slope_p, tol, starts)

        monkeypatch.setattr(surface, "_newton", model_only)
        with pytest.raises(TangencyError, match="opposite"):
            parallel_tangent(family, p, 0.48)

    def test_antiparallel_normals_rejected(self, unit_sphere2, monkeypatch):
        # an antiparallel tangency has sine 0 between the normals, as a
        # parallel one has; only the sign of the cosine tells them apart
        p = point_on_level(unit_sphere2, 1.0, np.array([0.2, 0.1]))
        lift = surface._lift  # parallel_tangent lifts the jets it converged on

        def flipped(family, ks, X, jets):
            return [dataclasses.replace(q, normal=-q.normal) if k != p.k else q
                    for k, q in zip(ks, lift(family, ks, X, jets))]

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
        # not a quadric: on the normal forms g is its own second-order model,
        # so every lane would converge at its first evaluation
        family = LevelFamily(PerturbedQuadratic((1.0, 2.0), 0.3, "quartic"), 2.0, "minus")
        return LocalChart(family, point_on_level(family, 1.0, np.array([0.7, -0.4])))

    @staticmethod
    def _quartic_cap():
        """The chart at the top of a quartic-perturbed cap, symmetric about the z axis."""
        family = LevelFamily(PerturbedQuadratic((1.0, 1.0), 0.3, "quartic"), 2.0, "plus")
        return LocalChart(family, point_on_level(family, 1.0, np.zeros(2)))

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

        lo, hi = np.full(1, -10.0), np.full(1, 10.0)
        x, unconverged = surface._safeguarded_roots(res, lo, hi, np.array([start]), 1e-14)
        assert unconverged.size == 0
        assert x[0] == pytest.approx(root, abs=1e-13)
        assert all(-10.0 <= v <= 10.0 for v in seen)  # every evaluation stayed in the bracket

    def test_unconverged_lanes_reported(self):
        calls = []

        def res(idx, x):  # a step: |residual| never drops below the tolerance
            calls.append(len(idx))
            return np.where(x < 0.3, -1.0, 1.0), np.zeros_like(x)

        lo, hi = np.zeros(3), np.ones(3)
        _, unconverged = surface._safeguarded_roots(res, lo, hi, np.full(3, 0.5), 1e-12)
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
        x, unconverged = surface._safeguarded_roots(res, lo, hi, np.ones(3), 1e-12)
        assert x[0] == pytest.approx(1.5, abs=1e-12)
        assert unconverged.tolist() == [1, 2]
        assert 2.0 <= hi[1] < np.inf and hi[2] == np.inf

    @staticmethod
    def _record_lines(monkeypatch, chart, start=None):
        """Record (lanes, points) of every line evaluation the chart's solves make,
        or only of those on lines from the base points start when it is given."""
        calls = []
        inner = chart._line_residual

        def recording(X0, Z0, dX, dZ, s, level, idx, tau):
            if start is None or np.array_equal(X0, start):
                calls.append((idx.copy(), np.array(tau, copy=True)))
            return inner(X0, Z0, dX, dZ, s, level, idx, tau)

        monkeypatch.setattr(chart, "_line_residual", recording)
        return calls

    def test_lazy_bracket(self, monkeypatch):
        # the top of the bracket is never evaluated up front, so a lane takes
        # only its Newton iterates: 4 for the root 0.225 from the model's
        # guess 0.2, 5 for the root 0.513 from 0.4
        chart = self._quartic_cap()
        calls = self._record_lines(monkeypatch, chart)
        for t, Y, counts in ((0.3, [[0.6, 0.0]], [4]), (0.9, [[0.6, 0.0], [0.0, 0.8]], [4, 5])):
            calls.clear()
            w = chart.height(np.array(Y), t)
            hi = t + 1e-9 * (1.0 + t)
            assert np.all(np.isfinite(w))
            for lane, count in enumerate(counts):
                taus = [tau[idx == lane][0] for idx, tau in calls if lane in idx]
                assert len(taus) == count and hi not in taus and t not in taus
    @pytest.mark.parametrize("kind", list(trio()))
    def test_one_evaluation_per_lane_on_the_normal_forms(self, kind, monkeypatch):
        # g is its own second-order model there, so every lane's start is its
        # root: a boundary solve evaluates the base point once per run, each
        # lane once, and each lane twice more for the fold and convexity
        # checks; a height solve evaluates each lane once
        for n in range(1, 7):
            family = trio(_A6[:n])[kind]
            p = point_on_level(family, 1.0, np.full(n, 0.1))
            t = parallel_tangent(family, p, -0.4 if family.sign == "plus" else 0.2).t
            chart = LocalChart(family, p)
            calls = self._record_lines(monkeypatch, chart)
            U = np.random.default_rng(n).standard_normal((40, n))
            rho = chart.boundary_radius(U, t)
            assert sum(idx.size for idx, _ in calls) == 1 + 3 * 40
            calls.clear()
            chart.height(U * (rho * np.linspace(0.05, 0.95, 40))[:, None], t)
            assert sum(idx.size for idx, _ in calls) == 40

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
        # a stalled solve raises too; off the quadrics, where a lane takes
        # several iterations
        monkeypatch.setattr(surface, "CHART_MAXITER", 1)
        with pytest.raises(RegionError, match=r"chart offset y=\[0\.6, 0\.0\] \(2 of 2 points\)"):
            self._quartic_cap().height(np.array([[0.6, 0.0], [0.0, 0.8]]), 0.9)
