"""End-to-end acceptance checks.

One test per criterion; each prints a PASS/FAIL line with the measured
quantity next to its tolerance before asserting, so a full run doubles as
a verification report (run with -s to see every line).
"""

import json
import math

import numpy as np

from quadrix import (
    LevelFamily,
    PerturbedQuadratic,
    QuadraticForm,
    QuadratureSettings,
    cap_measures,
    check_condition,
    curvature_invariant,
    derivative_check,
    determinant_identity_residual,
    gauss_kronecker,
    invariant_constant,
    point_on_level,
    sample_points,
    starred_measures,
    starred_oracle,
    unit_ball_volume,
)
from quadrix import verify
from quadrix.cli import main

A2 = (1.0, 2.0)


def family_of(kind: str, a=A2) -> LevelFamily:
    alpha, sign = {
        "elliptic_hyperboloid": (2.0, "minus"),
        "ellipsoid": (2.0, "plus"),
        "elliptic_paraboloid": (1.0, "minus"),
    }[kind]
    return LevelFamily(QuadraticForm(a), alpha, sign)


def report(label: str, ok: bool, detail: str) -> None:
    """Print one PASS/FAIL line and assert; the verify suites call it too."""
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def admissible_xs(kind: str, a, k: float, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = np.asarray(a)
    n = len(a)
    if kind == "ellipsoid":
        half = 0.45 * math.sqrt(k / n) / a
    elif kind == "elliptic_paraboloid":
        half = np.minimum(0.8, 0.35 / a ** 2) * np.ones(n)
    else:
        half = np.full(n, 0.8)
    return rng.uniform(-half, half, size=(count, n))


def test_criterion_1_curvature_invariant():
    """Invariant matches its closed-form constant to 1e-8 at 20 points per (family, k)."""
    worst = 0.0
    for kind in ("elliptic_paraboloid", "ellipsoid", "elliptic_hyperboloid"):
        family = family_of(kind)
        for k in (0.5, 1.0, 2.0):
            want = invariant_constant(kind, A2, k)
            for x in admissible_xs(kind, A2, k, 20, seed=101):
                p = point_on_level(family, k, x)
                worst = max(worst, abs(curvature_invariant(family, p) - want) / want)
    report("criterion-1 curvature invariant", worst <= 1e-8, f"max rel dev {worst:.2e} <= 1e-8")


def test_criterion_2_oracle_vs_quadrature():
    """Starred cap volume and section area match the closed-form oracles on 90 fixtures, n = 1..6."""
    coeffs = {1: (1.3,), 2: A2, 3: (1.0, 1.5, 0.7), 4: (1.0, 1.5, 0.7, 1.2),
              5: (1.0, 1.5, 0.7, 1.2, 0.9), 6: (1.0, 1.5, 0.7, 1.2, 0.9, 1.4)}
    rel_offsets = {
        "elliptic_hyperboloid": [0.5, 1.0, 0.5, 1.0, 0.75],
        "ellipsoid": [-0.25, -0.5, -0.25, -0.5, -0.4],
        "elliptic_paraboloid": [0.05, 0.1, 0.08, 0.05, 0.1],
    }
    levels = [0.5, 0.5, 1.0, 1.0, 2.0]
    checked = 0
    worst = 0.0
    for kind, rels in rel_offsets.items():
        for n, a in coeffs.items():
            family = family_of(kind, a)
            for i, (k, rel) in enumerate(zip(levels, rels)):
                h = rel * k if kind != "elliptic_paraboloid" else rel
                x = admissible_xs(kind, a, k, 5, seed=200 + n)[i] * 0.9
                p = point_on_level(family, k, x)
                sm = starred_measures(family, p, h)
                v_want, a_want = starred_oracle(kind, a, k, h, p.grad_norm)
                for got, err, want in ((sm.volume.value, sm.volume.error_estimate, v_want),
                                       (sm.area.value, sm.area.error_estimate, a_want)):
                    tol = max(3.0 * err, 0.01 * abs(want))
                    dev = abs(got - want)
                    worst = max(worst, dev / abs(want))
                    assert dev <= tol, f"{kind} n={n} k={k} h={h}: {got} vs {want}"
                checked += 1
    report("criterion-2 oracle agreement", checked >= 90 and worst <= 1e-8,
           f"{checked} fixtures within max(3 sigma, 1%), worst rel dev {worst:.2e} <= 1e-8")


def test_criterion_3_constancy_on_quadrics():
    """Cap-volume and section-area conditions come back constant with spread <= 1e-3.

    The n = 4 hyperboloid also checks that the decision threshold stays the
    uninflated 1e-3: its error estimates are far below it.
    """
    setups = {
        "elliptic_hyperboloid": (A2, None, [0.5, 1.0]),
        "ellipsoid": (A2, [(-0.25, 0.25), (-0.125, 0.125)], [-0.25, -0.5]),
        "elliptic_paraboloid": (A2, None, [0.1, 0.2]),
        "elliptic_hyperboloid n=4": ((1.0, 1.5, 0.7, 1.2), None, [0.5, 1.0]),
    }
    worst = 0.0
    for name, (a, box, offsets) in setups.items():
        family = family_of(name.split()[0], a)
        pts = sample_points(family, 1.0, 6, seed=301, box=box)
        for condition in ("Vstar", "Astar"):
            rep = check_condition(family, 1.0, condition, offsets, pts)
            assert rep.verdict == "constant", f"{name} {condition}: {rep.verdict} {rep.spreads}"
            if len(a) == 4:
                assert rep.threshold == 1e-3, f"{name} {condition}: threshold {rep.threshold}"
            worst = max(worst, max(rep.spreads))
    report("criterion-3 quadric constancy", worst <= 1e-3,
           f"all verdicts constant, max spread {worst:.2e} <= 1e-3")


def test_criterion_4_perturbation_sensitivity():
    """A quartic bump of size 0.2 drives the cap-volume spread 10x above the quadric baseline."""
    offsets = [0.5, 1.0]
    base_family = LevelFamily(QuadraticForm((1.0, 1.0)), 2.0, "minus")
    pert_family = LevelFamily(PerturbedQuadratic((1.0, 1.0), 0.2, "quartic"), 2.0, "minus")
    base_pts = sample_points(base_family, 1.0, 6, seed=401)
    pert_pts = sample_points(pert_family, 1.0, 6, seed=401)
    base = check_condition(base_family, 1.0, "Vstar", offsets, base_pts)
    pert = check_condition(pert_family, 1.0, "Vstar", offsets, pert_pts)
    baseline = max(base.spreads)
    spread = max(pert.spreads)
    ok = pert.verdict == "non_constant" and spread >= 10.0 * baseline
    report("criterion-4 perturbation sensitivity", ok,
           f"verdict {pert.verdict}, spread {spread:.3e} >= 10 x baseline {baseline:.3e}")


def test_criterion_5_lateral_area_refutation():
    """Normalized lateral area is not point-independent, and the mean-value witnesses say why."""
    verify.refutation(QuadratureSettings(), 0, report)


def test_criterion_6_small_t_limits():
    """Measure ratios converge to the curvature-controlled limits at each vertex."""
    verify.lemma7(QuadratureSettings(), 0, report)  # section area and cap volume
    t, n = 2.0 ** -10, 2
    worst = 0.0
    for family in verify.FAMILIES.values():
        p = point_on_level(family, 1.0, np.zeros(n))
        lim = 2.0 ** (n / 2) * unit_ball_volume(n) / math.sqrt(gauss_kronecker(family, p))
        got = cap_measures(family, p, t, want=("lateral",)).lateral.value
        worst = max(worst, abs(got / t ** (n / 2) - lim) / lim)
    report("criterion-6 small-offset lateral-area limit", worst <= 0.02,
           f"rel error {worst:.2e} <= 2% at t = 2^-10 on all three vertices")


def test_criterion_7_volume_derivative_identity():
    """Central difference of the cap volume reproduces the section area to 1e-3."""
    kinds = ("elliptic_hyperboloid", "ellipsoid", "elliptic_paraboloid")
    worst = 0.0
    for i in range(10):
        kind = kinds[i % 3]
        family = family_of(kind)
        x = admissible_xs(kind, A2, 1.0, 10, seed=700)[i] * 0.8
        p = point_on_level(family, 1.0, x)
        t = [0.1, 0.15, 0.2, 0.12][i % 4]
        if kind == "elliptic_paraboloid":
            t = min(t, 0.1)
        worst = max(worst, derivative_check(family, p, t, 1e-3))
    report("criterion-7 derivative identity", worst <= 1e-3,
           f"max rel mismatch {worst:.2e} <= 1e-3 over 10 fixtures")


def test_criterion_8_paraboloid_scaling():
    """Cap volumes on the round paraboloid follow gamma_2 h^2."""
    verify.scaling(QuadratureSettings(), 0, report)


def test_criterion_9_determinant_identity():
    """The closed-form determinant identity holds to 1e-10 on both alpha=2 families."""
    worst = 0.0
    for kind in ("elliptic_hyperboloid", "ellipsoid"):
        family = family_of(kind)
        for x in admissible_xs(kind, A2, 1.0, 20, seed=901):
            p = point_on_level(family, 1.0, x)
            worst = max(worst, determinant_identity_residual(family, p))
    report("criterion-9 determinant identity", worst <= 1e-10,
           f"max rel residual {worst:.2e} <= 1e-10 at 20 points per family")


def test_criterion_10_reproducibility(tmp_path):
    """Identical config and seed give byte-identical measure tables."""
    cfg = {
        "family": {"alpha": 2, "sign": "minus", "f": {"kind": "quadratic", "a": [1, 2]}},
        "levels": [1.0, 2.0],
        "offsets": [0.5, 1.0],
        "points": {"count": 4, "seed": 1001},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["measures", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["measures", "--config", str(path), "--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    report("criterion-10 reproducibility", ok,
           f"two runs produced identical bytes ({len(out1.read_bytes())} bytes)")
