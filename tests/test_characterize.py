import numpy as np
import pytest

from quadrix import (
    ClassifyConfig,
    LevelFamily,
    PerturbedQuadratic,
    QuadraticForm,
    QuadrixError,
    check_condition,
    check_invariant_constancy,
    classify,
    determinant_identity_residual,
    measure,
    parse_expression,
    point_on_level,
    sample_points,
)
from quadrix import _grids

from conftest import seeded_xs, trio


class TestSamplePoints:
    def test_all_admissible_inside_small_box(self, unit_sphere2):
        pts = sample_points(unit_sphere2, 1.0, 8, 17, box=(-0.6, 0.6))
        assert len(pts) == 8
        assert all(p.f_jet.value < 1.0 for p in pts)

    def test_hyperboloid_never_skips(self):
        family = trio()["elliptic_hyperboloid"]
        pts = sample_points(family, 1.0, 10, 17)  # default [-2, 2]^2 box
        assert len(pts) == 10

    def test_ellipsoid_skips_outside_branch(self, unit_sphere2):
        with pytest.warns(UserWarning, match="skipped"):
            pts = sample_points(unit_sphere2, 1.0, 12, 17)  # default box reaches |x| = 2
        assert 2 <= len(pts) < 12

    def test_too_few_admissible(self, unit_sphere2):
        with pytest.raises(QuadrixError, match="fewer than 2"), pytest.warns(UserWarning):
            sample_points(unit_sphere2, 0.01, 4, 17)

    def test_negative_f_warns(self):
        family = LevelFamily(parse_expression("x1^2 - 1", 1), alpha=2.0, sign="minus")
        with pytest.warns(UserWarning, match="nonnegativity"):
            sample_points(family, 2.0, 4, 3, box=(-1.0, 1.0))

    def test_levels_share_one_halton_draw(self):
        # classify samples each level from the same (n, count, seed) set
        _grids._small_draws.cache_clear()
        family = trio()["elliptic_hyperboloid"]
        for k in (0.5, 1.0, 2.0):
            sample_points(family, k, 6, 5)
        info = _grids._small_draws.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert not _grids.halton(2, 6, 5).flags.writeable

    def test_deterministic_for_seed(self, unit_sphere2):
        a = sample_points(unit_sphere2, 1.0, 6, 5, box=(-0.5, 0.5))
        b = sample_points(unit_sphere2, 1.0, 6, 5, box=(-0.5, 0.5))
        assert all(np.array_equal(p.x, q.x) for p, q in zip(a, b))


class TestCheckCondition:
    def test_hyperboloid_volume_condition_constant(self):
        family = trio()["elliptic_hyperboloid"]
        pts = sample_points(family, 1.0, 6, 29)
        rep = check_condition(family, 1.0, "Vstar", [0.5, 1.0], pts)
        assert rep.verdict == "constant"
        assert all(s <= 1e-3 for s in rep.spreads)

    def test_hyperboloid_area_condition_constant(self):
        family = trio()["elliptic_hyperboloid"]
        pts = sample_points(family, 1.0, 6, 29)
        rep = check_condition(family, 1.0, "Astar", [0.5, 1.0], pts)
        assert rep.verdict == "constant"

    def test_hyperboloid_lateral_condition_fails(self):
        family = trio()["elliptic_hyperboloid"]
        pts = sample_points(family, 1.0, 6, 29)
        rep = check_condition(family, 1.0, "Sstar", [0.5, 1.0], pts)
        assert rep.verdict == "non_constant"

    def test_perturbed_volume_condition_fails(self):
        family = LevelFamily(PerturbedQuadratic((1.0, 1.0), 0.2, "quartic"), 2.0, "minus")
        pts = sample_points(family, 1.0, 6, 29)
        rep = check_condition(family, 1.0, "Vstar", [0.5, 1.0], pts)
        assert rep.verdict == "non_constant"

    def test_matrix_shape_and_serialization(self):
        family = trio()["ellipsoid"]
        pts = sample_points(family, 1.0, 4, 29, box=(-0.3, 0.3))
        rep = check_condition(family, 1.0, "Vstar", [-0.25, -0.5], pts)
        assert rep.values.shape == (4, 2)
        doc = rep.to_dict()
        assert doc["condition"] == "Vstar"
        assert len(doc["values"]) == 4 and len(doc["spreads"]) == 2

    def test_empty_grid_rejected(self):
        family = trio()["elliptic_hyperboloid"]
        pts = sample_points(family, 1.0, 4, 29)
        with pytest.raises(ValueError):
            check_condition(family, 1.0, "Vstar", [], pts)
        with pytest.raises(ValueError):
            check_condition(family, 1.0, "curvature_invariant", [0.5], pts)


class TestInvariantAndDeterminant:
    def test_ellipsoid_invariant(self):
        family = trio((1.0, 1.0))["ellipsoid"]
        pts = sample_points(family, 1.0, 6, 41, box=(-0.4, 0.4))
        rep = check_invariant_constancy(family, 1.0, pts)
        assert rep.verdict == "constant"
        assert rep.matched_constant == pytest.approx(16.0, rel=1e-10)

    def test_paraboloid_invariant(self):
        family = trio((1.0, 1.0))["elliptic_paraboloid"]
        pts = sample_points(family, 3.0, 6, 41)
        rep = check_invariant_constancy(family, 3.0, pts)
        assert rep.verdict == "constant"
        assert rep.matched_constant == pytest.approx(4.0, rel=1e-10)

    def test_invariant_threshold_is_not_inflated(self):
        # the invariant has no quadrature error: the threshold stays as given
        family = trio()["elliptic_hyperboloid"]
        pts = sample_points(family, 1.0, 6, 41)
        rep = check_invariant_constancy(family, 1.0, pts, threshold=1e-2)
        assert rep.threshold == 1e-2
        assert rep.value_errors.shape == rep.values.shape and not rep.value_errors.any()
        assert rep.verdict == "constant"

    def test_perturbed_invariant_not_constant(self):
        family = LevelFamily(PerturbedQuadratic((1.0, 1.0), 0.2, "quartic"), 2.0, "minus")
        pts = sample_points(family, 1.0, 6, 41)
        rep = check_invariant_constancy(family, 1.0, pts)
        assert rep.verdict == "non_constant"
        assert rep.matched_constant is None

    @pytest.mark.parametrize("kind", ["elliptic_hyperboloid", "ellipsoid"])
    def test_determinant_identity(self, kind):
        family = trio()[kind]
        half = 0.3 if family.sign == "plus" else 1.5
        for x in seeded_xs(2, 20, 47, half):
            p = point_on_level(family, 1.0, x)
            assert determinant_identity_residual(family, p) <= 1e-10

    def test_determinant_identity_needs_quadratic(self):
        family = LevelFamily(PerturbedQuadratic((1.0, 1.0), 0.1, "quartic"), 2.0, "minus")
        p = point_on_level(family, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            determinant_identity_residual(family, p)


class TestClassify:
    CONFIG = ClassifyConfig(point_count=6, seed=99)

    @pytest.mark.parametrize(
        "kind, levels",
        [
            ("elliptic_hyperboloid", [0.5, 1.0, 2.0]),
            ("ellipsoid", [0.5, 1.0, 2.0]),
            ("elliptic_paraboloid", [1.0]),
        ],
    )
    def test_quadrics_recognized(self, kind, levels):
        family = trio()[kind]
        result = classify(family, levels, self.CONFIG)
        assert result.verdict == kind
        assert not result.blocked_by_errors
        for k in levels:
            from quadrix import invariant_constant

            assert result.matched_constant[k] == pytest.approx(
                invariant_constant(kind, (1.0, 2.0), k), rel=1e-8
            )

    def test_perturbed_rejected_cleanly(self):
        family = LevelFamily(PerturbedQuadratic((1.0, 1.0), 0.2, "quartic"), 2.0, "minus")
        result = classify(family, [1.0], self.CONFIG)
        assert result.verdict == "not_characterized"
        assert not result.blocked_by_errors

    def test_alpha_three_rejected_cleanly(self):
        family = LevelFamily(QuadraticForm((1.0, 1.0)), 3.0, "minus")
        with pytest.warns(UserWarning):
            result = classify(family, [1.0], self.CONFIG)
        assert result.verdict == "not_characterized"
        assert not result.blocked_by_errors  # falsified by the invariant, a clean negative

    def test_blocked_when_sampling_fails(self, unit_sphere2):
        cfg = ClassifyConfig(point_count=4, seed=99, box=((1.5, 2.0), (1.5, 2.0)))
        with pytest.warns(UserWarning):
            result = classify(unit_sphere2, [1.0], cfg)
        assert result.verdict == "not_characterized"
        assert result.blocked_by_errors

    def test_deterministic(self):
        family = trio()["elliptic_hyperboloid"]
        r1 = classify(family, [1.0], self.CONFIG)
        r2 = classify(family, [1.0], self.CONFIG)
        assert r1.verdict == r2.verdict
        for a, b in zip(r1.evidence, r2.evidence):
            assert a.spreads == b.spreads

    def test_one_tangent_solve_per_cell(self, monkeypatch):
        # every cell of every level is one lane of one parallel_tangents call
        solves, calls = [], []
        solve = measure.parallel_tangents

        def counting(family, cells):
            calls.append(len(cells))
            solves.extend((p.k, tuple(p.x), h) for p, h in cells)
            return solve(family, cells)

        monkeypatch.setattr(measure, "parallel_tangents", counting)
        config = ClassifyConfig(point_count=3, seed=99)
        result = classify(trio()["elliptic_hyperboloid"], [0.5, 1.0, 2.0], config)
        cells = sum(rep.values.size for rep in result.evidence if rep.condition == "Vstar")
        assert cells == 3 * 3 * 2  # levels x points x default offsets
        assert len(solves) == len(set(solves)) == cells
        assert calls == [3 * 3 * 2]

    @pytest.mark.parametrize("family", [
        trio()["elliptic_hyperboloid"],
        LevelFamily(PerturbedQuadratic((1.0, 1.0), 0.2, "quartic"), 2.0, "minus"),
    ], ids=["quadric", "perturbed"])
    def test_starred_evidence_matches_check_condition(self, family):
        config = ClassifyConfig(point_count=4, seed=99)
        result = classify(family, [0.5, 1.0], config)
        starred = [rep for rep in result.evidence if rep.condition in ("Vstar", "Astar")]
        assert [rep.condition for rep in starred] == ["Vstar", "Astar"] * 2
        for rep in starred:
            points = sample_points(family, rep.level, 4, 99)
            ref = check_condition(family, rep.level, rep.condition, rep.offsets, points,
                                  config.settings)
            assert np.array_equal(rep.values, ref.values, equal_nan=True)
            assert np.array_equal(rep.value_errors, ref.value_errors, equal_nan=True)
            assert rep.threshold == ref.threshold
            assert rep.verdict == ref.verdict
            # a starred report spans offsets: it matches no single constant
            assert rep.matched_constant is None and ref.matched_constant is None

    def test_monotone_sensitivity_in_perturbation(self):
        # spread of the cap-volume condition grows with the quartic knob
        spreads = []
        for eps in (0.0, 0.05, 0.1, 0.2):
            f = PerturbedQuadratic((1.0, 1.0), eps, "quartic") if eps else QuadraticForm((1.0, 1.0))
            family = LevelFamily(f, 2.0, "minus")
            pts = sample_points(family, 1.0, 6, 53)
            rep = check_condition(family, 1.0, "Vstar", [0.5, 1.0], pts)
            spreads.append(max(rep.spreads))
        assert all(b >= a for a, b in zip(spreads[1:], spreads[2:]))
        assert spreads[0] <= 1e-6  # quadric baseline sits at the noise floor
        assert spreads[-1] >= 10 * max(spreads[0], 1e-6)
