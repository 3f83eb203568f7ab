import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import quadrix
from quadrix import (
    LevelFamily,
    QuadraticForm,
    QuadratureSettings,
    RegionError,
    point_on_level,
    sample_points,
    starred_measures,
)
from quadrix import verify
from quadrix.cli import _fmt, _fmt_err, main


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "family": {"alpha": 2, "sign": "minus", "f": {"kind": "quadratic", "a": [1, 2]}},
        "levels": [1.0],
        "offsets": [0.5, 1.0],
        "points": {"count": 4, "seed": 4242},
        "quadrature": {"order": 12},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def header_lines(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]


def cell_columns(sm):
    """The t, Vstar, Vstar_err, ..., Sstar_err columns a CSV row should carry for sm."""
    return [_fmt(sm.t)] + [fmt(v) for m in (sm.volume, sm.area, sm.lateral)
                           for fmt, v in ((_fmt, m.value), (_fmt_err, m.error_estimate))]


def test_error_columns_round_up_to_three_digits():
    # a printed error estimate is never below the computed one, and carries
    # at most 3 significant digits; values keep 17
    from decimal import Decimal

    rng = np.random.default_rng(3)
    xs = list(10.0 ** rng.uniform(-20, 3, 2000))
    xs += [1.23e-8, np.nextafter(1.23e-8, 1.0), 9.995e-5, 9.999999e-5, 1e-4, 0.5, 7.0, 123.0, 999.7]
    for x in xs:
        text = _fmt_err(x)
        assert float(text) >= x, (x, text)
        assert len(Decimal(text).normalize().as_tuple().digits) <= 3, (x, text)
        assert float(text) <= x * (1 + 1e-2) + 1e-300  # one unit in the third digit at most
    assert _fmt_err(1.23e-8) == "1.23e-08"
    assert _fmt_err(np.nextafter(1.23e-8, 1.0)) == "1.24e-08"
    assert _fmt_err(9.999999e-5) == "0.0001"
    assert [_fmt_err(v) for v in (0.0, None, float("inf"))] == ["0", "", "inf"]
    assert _fmt(0.1234567890123456789) == "0.12345678901234568"


class TestMeasures:
    def test_reproducible_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        assert main(["measures", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["measures", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_metadata_and_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "m.csv"
        main(["measures", "--config", str(cfg), "--out", str(out)])
        head = header_lines(out)
        assert head[0].startswith("# quadrix ")
        assert head[1].startswith("# config_sha256=")
        assert head[2] == "# seed=4242"
        rows = read_rows(out)
        assert len(rows) == 8  # 1 level x 2 offsets x 4 points
        assert list(rows[0]) == [
            "k", "h", "t", "Vstar", "Vstar_err", "Astar", "Astar_err",
            "Sstar", "Sstar_err", "grad_norm", "seed", "error",
        ]
        # cap volume is point-independent on this family
        by_h = {}
        for row in rows:
            by_h.setdefault(row["h"], []).append(float(row["Vstar"]))
        for vals in by_h.values():
            assert max(vals) - min(vals) <= 1e-9 * max(vals)

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "m.csv"
        main(["measures", "--config", str(cfg), "--out", str(out), "--seed", "99"])
        assert "# seed=99" in header_lines(out)

    def test_missing_offsets_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, offsets=[])
        assert main(["measures", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1

    def test_rows_in_level_offset_point_order(self, tmp_path):
        cfg = write_config(tmp_path, levels=[0.5, 1.0], points={"count": 3, "seed": 4242})
        out = tmp_path / "m.csv"
        assert main(["measures", "--config", str(cfg), "--out", str(out)]) == 0
        family = LevelFamily(QuadraticForm((1.0, 2.0)), 2.0, "minus")
        settings = QuadratureSettings(order=12)
        expected = []
        for k in (0.5, 1.0):
            points = sample_points(family, k, 3, 4242)
            for h in (0.5, 1.0):
                for p in points:
                    sm = starred_measures(family, p, h, settings)
                    expected.append([_fmt(k), _fmt(h)] + cell_columns(sm) +
                                    [_fmt(p.grad_norm), "4242", ""])
        assert [list(row.values()) for row in read_rows(out)] == expected

    def test_partial_failures_keep_exit_zero(self, tmp_path):
        # one offset lies outside the admissible interval of the plus family
        cfg = write_config(
            tmp_path,
            family={"alpha": 2, "sign": "plus", "f": {"kind": "quadratic", "a": [1, 1]}},
            offsets=[-0.5, 0.5],
            points={"count": 3, "seed": 5, "box": [[-0.4, 0.4], [-0.4, 0.4]]},
        )
        out = tmp_path / "p.csv"
        assert main(["measures", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        bad = [r for r in rows if r["error"]]
        good = [r for r in rows if not r["error"]]
        assert len(bad) == 3 and len(good) == 3

    def test_too_few_admissible_points_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            family={"alpha": 2, "sign": "plus", "f": {"kind": "quadratic", "a": [1, 2]}},
            levels=[0.5],
            points={"count": 4, "seed": 4242, "box": [5, 6]},  # outside the ellipsoid
        )
        with pytest.warns(UserWarning):
            code = main(["measures", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: fewer than 2 admissible points")

    def test_negative_exponent_expression(self, tmp_path):
        # (x1 - 3)^-2 is a constant power at a negative base; x1^4/12 a product with 12^-1
        source = "x1^2 + 2.25*x2^2 + x1^4/12 + 0.01*(x1 - 3)^-2 + 0.1*2^x2"
        cfg = write_config(tmp_path, family={"alpha": 2, "sign": "minus",
                                             "f": {"kind": "expression", "source": source, "n": 2}},
                           offsets=[0.5], points={"count": 3, "seed": 4242, "box": [-0.5, 0.5]},
                           quadrature={})
        out = tmp_path / "neg.csv"
        assert main(["measures", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        columns = "k h t Vstar Vstar_err Astar Astar_err Sstar Sstar_err grad_norm".split()
        assert len(rows) == 3
        assert all(np.isfinite(float(r[c])) for r in rows for c in columns) and not any(r["error"] for r in rows)

    def test_all_rows_failing_exits_one(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"alpha": 2, "sign": "plus", "f": {"kind": "quadratic", "a": [1, 1]}},
            offsets=[0.5, 1.0],  # wrong direction for this family
            points={"count": 3, "seed": 5, "box": [[-0.4, 0.4], [-0.4, 0.4]]},
        )
        assert main(["measures", "--config", str(cfg), "--out", str(tmp_path / "f.csv")]) == 1

    def test_one_dimensional_any_direction_count(self, tmp_path):
        # S^0 has two points whatever the sphere-rule order
        rows = []
        for order in (None, 256):
            cfg = write_config(
                tmp_path,
                family={"alpha": 2, "sign": "minus", "f": {"kind": "quadratic", "a": [1.3]}},
                quadrature={"order": order},
            )
            out = tmp_path / f"n1-{order}.csv"
            assert main(["measures", "--config", str(cfg), "--out", str(out)]) == 0
            rows.append(read_rows(out))
        assert rows[0] == rows[1] and len(rows[0]) == 8
        assert not any(row["error"] for row in rows[0])


class TestCurvature:
    def test_unit_sphere_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"alpha": 2, "sign": "plus", "f": {"kind": "quadratic", "a": [1, 1]}},
            points={"count": 6, "seed": 11, "box": [[-0.5, 0.5], [-0.5, 0.5]]},
        )
        out = tmp_path / "c.csv"
        assert main(["curvature", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 6
        for row in rows:
            assert float(row["invariant"]) == pytest.approx(16.0, rel=1e-10)
            assert float(row["K"]) == pytest.approx(1.0, rel=1e-10)

    def test_alpha_three_reports_and_exits_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"alpha": 3, "sign": "minus", "f": {"kind": "quadratic", "a": [1, 1]}},
            points={"count": 4, "seed": 11, "box": [[-0.4, 0.4], [-0.4, 0.4]]},
        )
        out = tmp_path / "c3.csv"
        assert main(["curvature", "--config", str(cfg), "--out", str(out)]) == 0
        invs = [float(r["invariant"]) for r in read_rows(out)]
        assert max(invs) - min(invs) > 1e-3 * max(invs)  # reporting, not failing

    def test_convexity_failure_exits_two(self, tmp_path, capsys):
        # the table is written only once every row is computed, so no file is left
        cfg = write_config(
            tmp_path,
            family={"alpha": 1, "sign": "minus",
                    "f": {"kind": "expression", "source": "x1^2 - x2^2", "n": 2}},
            levels=[0.0],
        )
        out = tmp_path / "s.csv"
        assert main(["curvature", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("convexity certificate failed: ") and err.count("\n") == 1
        assert not out.exists()

    def test_sheet_past_the_pole_is_skipped(self, tmp_path):
        # alpha = -1, plus sign: points of the box with f > k have no z > 0
        cfg = write_config(
            tmp_path,
            family={"alpha": -1, "sign": "plus", "f": {"kind": "quadratic", "a": [1, 1]}},
            points={"count": 8, "seed": 4242, "box": [-1.5, 1.5]},
        )
        out = tmp_path / "c.csv"
        assert main(["curvature", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert 0 < len(rows) < 8
        assert all(float(r["z"]) > 0 for r in rows)

    def test_bad_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"family\": {}}")
        assert main(["curvature", "--config", str(path)]) == 1


class TestClassify:
    def test_hyperboloid_verdict(self, tmp_path):
        cfg = write_config(tmp_path, levels=[0.5, 1.0], offsets=None,
                           points={"count": 6, "seed": 4242})
        out = tmp_path / "cls.json"
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        cls = doc["classification"]
        assert cls["verdict"] == "elliptic_hyperboloid"
        assert doc["schema_version"] == 1
        assert {r["condition"] for r in cls["evidence"]} == {"curvature_invariant", "Vstar", "Astar"}

    def test_perturbed_clean_negative_exits_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"alpha": 2, "sign": "minus",
                    "f": {"kind": "perturbed_quadratic", "a": [1, 1], "epsilon": 0.2,
                          "perturbation": "quartic"}},
            offsets=None,
        )
        out = tmp_path / "cls.json"
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["classification"]["verdict"] == "not_characterized"

    def test_blocked_classification_exits_three(self, tmp_path):
        # the sampling box misses the admissible set entirely
        cfg = write_config(
            tmp_path,
            family={"alpha": 2, "sign": "plus", "f": {"kind": "quadratic", "a": [1, 1]}},
            offsets=None,
            points={"count": 4, "seed": 1, "box": [[1.5, 2.0], [1.5, 2.0]]},
        )
        out = tmp_path / "cls.json"
        with pytest.warns(UserWarning):
            assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 3

    @pytest.mark.parametrize("level", [-1.0, 0.0])
    def test_plus_family_at_nonpositive_level_exits_three(self, tmp_path, level):
        # {f < k} is empty at k <= 0, so the level fails sampling like any
        # other empty level: no box scaled by sqrt(k), no traceback
        cfg = write_config(tmp_path, family={"alpha": 2, "sign": "plus",
                                             "f": {"kind": "quadratic", "a": [1, 2]}},
                           levels=[level], offsets=None)
        out = tmp_path / "cls.json"
        proc = _run_cli("classify", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["warning: skipped 4 of 4 sampled points off the admissible set"]
        reasons = json.loads(out.read_text())["classification"]["reasons"]
        assert reasons[0].startswith(f"k={level:g}: sampling failed: fewer than 2 admissible points")


class TestSweep:
    def test_paraboloid_scaling(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"alpha": 1, "sign": "minus", "f": {"kind": "quadratic", "a": [1, 1]}},
            levels=[1.0],
            offsets=[2.0 ** -j for j in range(6, 0, -1)],
            sweep={"x": [0.0, 0.0]},
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        hs = np.array([float(r["h"]) for r in rows])
        vs = np.array([float(r["Vstar"]) for r in rows])
        slope, intercept = np.polyfit(np.log(hs), np.log(vs), 1)
        assert slope == pytest.approx(2.0, abs=0.01)
        assert np.exp(intercept) == pytest.approx(np.pi / 2.0, rel=0.01)

    def test_expression_family_at_its_vertex(self, tmp_path):
        # the README's expression family, swept at x = 0 where x1^2 has curvature 2
        cfg = write_config(
            tmp_path,
            family={"alpha": 2, "sign": "minus",
                    "f": {"kind": "expression", "source": "x1^2 + cosh(x2) - 1", "n": 2}},
            sweep={"x": [0.0, 0.0]},
        )
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 2 and not any(r["error"] for r in rows)

    def test_empty_grid_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, offsets=[])
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 1

    def test_rows_match_direct_cells_and_carry_lift_errors(self, tmp_path):
        # x = (0.8, 0) lies outside the unit-sphere family's level k = 0.5
        cfg = write_config(
            tmp_path,
            family={"alpha": 2, "sign": "plus", "f": {"kind": "quadratic", "a": [1, 1]}},
            levels=[0.5, 1.0],
            offsets=[-0.1, -0.2],
            sweep={"x": [0.8, 0.0]},
        )
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [list(row.values()) for row in read_rows(out)]
        assert [row[:2] for row in rows] == [[_fmt(k), _fmt(h)] for k in (0.5, 1.0)
                                             for h in (-0.1, -0.2)]
        assert rows[0][-1] and rows[0][2:] == rows[1][2:] == [""] * 7 + [rows[0][-1]]
        family = LevelFamily(QuadraticForm((1.0, 1.0)), 2.0, "plus")
        p = point_on_level(family, 1.0, np.array([0.8, 0.0]))
        settings = QuadratureSettings(order=12)
        for row, h in zip(rows[2:], (-0.1, -0.2)):
            assert row[2:] == cell_columns(starred_measures(family, p, h, settings)) + [""]


class TestConfigValidation:
    @pytest.mark.parametrize("command", ["measures", "sweep", "classify"])
    def test_decreasing_box_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, points={"count": 4, "seed": 4242, "box": [1.0, -1.0]})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad points.box")
        assert not (tmp_path / "x.out").exists()

    # quadrature.order replaced the direction count; the test name keeps the old word
    @pytest.mark.parametrize("order", [0, -5, 2])
    def test_directions_below_two_is_config_error(self, tmp_path, capsys, order):
        cfg = write_config(tmp_path, quadrature={"order": order})
        assert main(["measures", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad quadrature config")


    @pytest.mark.parametrize("command", ["measures", "classify", "sweep"])
    def test_order_past_the_cap_is_config_error(self, tmp_path, capsys, command):
        family = {"alpha": 2, "sign": "minus", "f": {"kind": "quadratic", "a": [1, 1.5, 2, 1, 1.2, 0.8]}}
        cfg = write_config(tmp_path, family=family, quadrature={"order": 11})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: bad quadrature config: order 11 is past the cap 10 at n = 6: "
                       "its rules would have more than 50 000 rays"]
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("count", [1, "six"])
    @pytest.mark.parametrize("command", ["curvature", "measures", "classify", "sweep"])
    def test_bad_point_count_is_config_error(self, tmp_path, capsys, command, count):
        cfg = write_config(tmp_path, points={"count": count, "seed": 4242})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad points.count")
        assert not (tmp_path / "x.out").exists()

    # the radial rule is fixed, so radial_order is not a setting, and the
    # Monte Carlo reference lives in the tests, so neither is mc_samples;
    # the error-estimate target is fixed; the sphere rule's order replaced the
    # direction count, so directions is an unknown key too
    @pytest.mark.parametrize("command, key", [
        ("measures", "radial_order"), ("verify", "radial_order"),
        ("measures", "mc_samples"), ("verify", "mc_samples"),
        ("measures", "target_rel_error"), ("measures", "directions"),
    ], ids=["measures", "verify", "measures-mc_samples", "verify-mc_samples",
            "measures-target_rel_error", "measures-directions"])
    def test_unknown_quadrature_key_is_config_error(self, tmp_path, capsys, command, key):
        cfg = write_config(tmp_path, quadrature={"order": 12, key: 16})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad quadrature config: unknown keys")
        assert key in err[0]
        assert not (tmp_path / "x.out").exists()


    @pytest.mark.parametrize("section", ["quadrature", "points"])
    def test_section_not_an_object_is_config_error(self, tmp_path, capsys, section):
        cfg = write_config(tmp_path, **{section: [4, 4242]})
        assert main(["measures", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: bad {section} config: must be a JSON object"]


    # one malformed key on the base config each; the "output" case runs without --out
    @pytest.mark.parametrize("command, overrides", [
        ("measures", {"offsets": ["a"]}),
        ("measures", {"offsets": 0.5}),
        ("measures", {"levels": ["x"]}),
        ("measures", {"levels": 1.0}),
        ("classify", {"classify": 3}),
        ("classify", {"classify": {"threshold": "abc"}}),
        ("classify", {"classify": {"threshold": -1}}),
        ("classify", {"classify": {"threshold": 0}}),
        ("sweep", {"sweep": [0, 0]}),
        ("sweep", {"sweep": {"x": [0.1]}}),
        ("sweep", {"sweep": {"x": "ab"}}),
        ("measures", {"output": "x.csv"}),
        # the order replaced the direction count; the ids keep the old word
        ("measures", {"quadrature": {"order": 12.5}}),
        ("measures", {"quadrature": {"order": True}}),
        # every number is finite, no bool, and an integer where one is meant
        ("curvature", {"levels": [float("nan")]}),
        ("measures", {"offsets": [float("inf")]}),
        ("curvature", {"family": {"alpha": float("nan"), "f": {"kind": "quadratic", "a": [1, 2]}}}),
        ("curvature", {"family": {"alpha": True, "f": {"kind": "quadratic", "a": [1, 2]}}}),
        ("measures", {"family": {"alpha": 2, "f": {"kind": "quadratic", "a": [1, float("nan")]}}}),
        ("measures", {"family": {"alpha": 2, "f": {"kind": "perturbed_quadratic", "a": [1, 2],
                                                   "epsilon": float("nan")}}}),
        ("curvature", {"family": {"alpha": 2, "f": {"kind": "expression", "source": "x1^2 + x2^2",
                                                    "n": 2.7}}}),
        ("classify", {"classify": {"threshold": float("inf")}}),
        ("sweep", {"sweep": {"x": [0.1, True]}}),
        ("measures", {"points": {"count": 4.0, "seed": 4242}}),
        ("measures", {"points": {"count": 4, "box": [float("-inf"), 1]}}),
        ("curvature", {"points": {"count": 4, "box": [[True, 2], [-1, 1]]}}),
    ], ids=["offsets-string", "offsets-scalar", "levels-string", "levels-scalar",
            "classify-scalar", "threshold-string", "threshold-negative", "threshold-zero",
            "sweep-list", "sweep.x-length", "sweep.x-string", "output-string",
            "directions-fraction", "directions-bool",
            "levels-nan", "offsets-inf", "alpha-nan", "alpha-bool", "a-nan", "epsilon-nan",
            "n-fraction", "threshold-inf", "sweep.x-bool", "count-float", "box-inf", "box-bool"])
    def test_malformed_key_is_config_error(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        out = [] if "output" in overrides else ["--out", str(tmp_path / "x.out")]
        assert main([command, "--config", str(cfg)] + out) == 1  # no exception escapes main
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "x.out").exists()

    def test_bad_seed_is_config_error(self, tmp_path, capsys):
        for seed in ("abc", -5, 1.7, True, float("nan")):
            cfg = write_config(tmp_path, points={"count": 4, "seed": seed})
            assert main(["measures", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: bad points.seed"), (seed, err)

    def test_negative_seed_flag_is_config_error(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["config error: bad --seed: need a non-negative integer, got -1"]


class TestExitCodes:
    @pytest.mark.parametrize("command", ["measures", "curvature", "classify"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "missing" / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    # 10^15 sampled points would take 14.2 PiB: the allocation is refused at once
    @pytest.mark.parametrize("command", ["measures", "curvature", "classify"])
    def test_config_too_large_for_memory_is_one_error_line(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, points={"count": 10 ** 15, "seed": 4242})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate"), err
        assert not (tmp_path / "x").exists()

    # plus-sign offsets must be negative: every row fails, and both commands
    # that write one row per (k, h) say so with exit 1
    @pytest.mark.parametrize("command", ["measures", "sweep"])
    def test_every_row_failing_exits_one(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, family={"alpha": 2, "sign": "plus",
                                             "f": {"kind": "quadratic", "a": [1, 1]}},
                           points={"count": 4, "seed": 6, "box": [-0.3, 0.3]}, offsets=[0.1, 0.2])
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == ""
        rows = read_rows(tmp_path / "x.csv")
        assert rows and all("outside the admissible interval" in row["error"] for row in rows)

    # z = (2 + f)^1000 overflows a float wherever f > 0.03: every sampled point
    # is off the admissible set
    @pytest.mark.parametrize("command, code", [("measures", 1), ("classify", 3), ("curvature", 0)])
    def test_overflowing_branch_exit_codes(self, tmp_path, capsys, command, code):
        cfg = write_config(
            tmp_path,
            family={"alpha": 0.001, "sign": "minus", "f": {"kind": "quadratic", "a": [1, 2]}},
            levels=[2.0],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # measures and classify warn of the skipped points
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err.splitlines()
        assert err == (["error: fewer than 2 admissible points at level k=2.0"] if code == 1 else [])
        if command == "curvature":  # every point skipped
            assert read_rows(tmp_path / "x") == []

    # z = (0.5 + f)^(1/alpha) underflows to 0 at alpha = 1e-5, so g_z = 0:
    # every sampled point is off the admissible set, as above
    @pytest.mark.parametrize("command, code", [("measures", 1), ("classify", 3), ("curvature", 0)])
    def test_underflowing_branch_exit_codes(self, tmp_path, capsys, command, code):
        cfg = write_config(
            tmp_path,
            family={"alpha": 1e-5, "sign": "minus", "f": {"kind": "quadratic", "a": [0.1, 0.1]}},
            levels=[0.5], points={"count": 4, "seed": 4242, "box": [-0.5, 0.5]},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # measures and classify warn of the skipped points
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err.splitlines()
        assert err == (["error: fewer than 2 admissible points at level k=0.5"] if code == 1 else [])

    def test_deeply_nested_expression_is_one_config_error_line(self, tmp_path, capsys):
        source = "(" * 198 + "x1^2 + x2^2" + ")" * 198
        cfg = write_config(tmp_path, family={"alpha": 2, "sign": "minus",
                                             "f": {"kind": "expression", "source": source, "n": 2}})
        assert main(["measures", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad family config: expression nested too deeply")
        assert not (tmp_path / "x.csv").exists()


def _run_cli(*args):
    """quadrix in a fresh interpreter, whose warnings print as a user sees them."""
    env = {key: v for key, v in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(quadrix.__file__).parents[1])
    code = "import sys; from quadrix.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


INDEFINITE = {"family": {"alpha": 1, "sign": "minus",
                         "f": {"kind": "expression", "source": "x1^2 - x2^2", "n": 2}},
              "levels": [0.0], "offsets": [0.1]}


class TestWarnings:
    def test_each_warning_is_one_line(self, tmp_path):
        cfg = tmp_path / "indefinite.json"
        cfg.write_text(json.dumps(INDEFINITE))
        done = _run_cli("measures", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert done.returncode == 1
        assert done.stderr.splitlines() == ["warning: skipped 6 of 6 sampled points off the admissible set",
                                            "error: fewer than 2 admissible points at level k=0.0"]

    def test_format_restored_and_warnings_recordable(self, tmp_path):
        # main swaps the warning format only while it runs; a caller that
        # records warnings still gets every one of them
        ok = write_config(tmp_path, offsets=[0.5], points={"count": 2, "seed": 4242}, quadrature={"order": 3})
        failing = tmp_path / "indefinite.json"
        failing.write_text(json.dumps(INDEFINITE))
        before = warnings.formatwarning
        for cfg, code, message in ((ok, 0, "exceeds the target"), (failing, 1, "skipped 6 of 6")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["measures", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == code
            assert warnings.formatwarning is before
            assert any(message in str(w.message) for w in caught)


class TestVerify:
    def test_runs_clean(self, tmp_path, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 20

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_seeds_near_the_paraboloid_fold(self, seed, capsys):
        # these seeds once drew derivative sections across the paraboloid's chart fold
        assert main(["verify", "--seed", seed]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "OK: 0 failing checks"

    def test_suite_error_is_one_fail_line(self, monkeypatch, capsys):
        def derivative(settings, seed, report):
            raise RegionError("the section crosses the chart fold")

        monkeypatch.setattr(verify, "derivative", derivative)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "FAIL derivative: the section crosses the chart fold" in out
        assert any(line.startswith("PASS mean_value/") for line in out)  # later suites ran
        assert out[-1] == "FAILED: 1 failing checks"
