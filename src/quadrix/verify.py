"""Checks of the paper's identities on the three quadric normal forms.

The suites `invariant`, `determinant`, `lemma7`, `derivative`, `scaling`
and `refutation` each take (settings, seed, report) and call
report(name, passed, detail) once per check.  `run` executes them all, as
`quadrix verify` does; the acceptance tests call the same suites.
"""

from __future__ import annotations

import math

import numpy as np

from .characterize import _normal_form_kind, check_condition, evaluate_cells, sample_points
from .errors import QuadrixError
from .funcspec import QuadraticForm
from .measure import QuadratureSettings, cap_measures
from .quadrics import (
    QUADRIC_KINDS,
    invariant_constant,
    mean_value_ratio,
    paraboloid_starred,
    refutation_theta,
    unit_ball_volume,
)
from .surface import LevelFamily, SurfacePoint, curvature_invariant, gauss_kronecker, point_on_level

__all__ = [
    "FAMILIES",
    "derivative_check",
    "determinant_identity_residual",
    "invariant",
    "determinant",
    "lemma7",
    "derivative",
    "scaling",
    "refutation",
    "run",
]

FAMILIES = {kind: LevelFamily(QuadraticForm((1.0, 2.0)), alpha, sign)
            for kind, (alpha, sign) in QUADRIC_KINDS.items()}


def derivative_check(family: LevelFamily, p: SurfacePoint, t: float, delta: float,
                     settings: QuadratureSettings | None = None) -> float:
    """Relative mismatch between the central difference of the cap volume and the section area.

    Returns |(V(t+delta) - V(t-delta)) / (2 delta) - A(t)| / A(t); the exact
    quantities satisfy V' = A.
    """
    if not (0.0 < delta < t):
        raise ValueError("need 0 < delta < t")
    v_plus = cap_measures(family, p, t + delta, settings, want=("volume",)).volume.value
    v_minus = cap_measures(family, p, t - delta, settings, want=("volume",)).volume.value
    a_mid = cap_measures(family, p, t, settings, want=("area",)).area.value
    return abs((v_plus - v_minus) / (2.0 * delta) - a_mid) / a_mid


def determinant_identity_residual(family: LevelFamily, p: SurfacePoint) -> float:
    """Relative residual of the closed-form determinant identity at p.

    For alpha = 2 diagonal quadratic families,
    det(alpha z^alpha f_ij -/+ (alpha-1) f_i f_j) equals
    alpha^{n-2} c(k) z^{alpha n - 2 alpha + 2}, where the middle sign
    follows the family sign and c(k) is the invariant constant.
    """
    if family.alpha != 2.0 or not isinstance(family.f, QuadraticForm):
        raise ValueError("identity check applies to alpha = 2 diagonal quadratic families")
    a = family.alpha
    n = family.n
    jet = p.f_jet
    term = np.outer(jet.gradient, jet.gradient) * (a - 1.0)
    mat = a * p.z ** a * jet.hessian + (term if family.sign == "plus" else -term)
    c = invariant_constant(_normal_form_kind(family), family.f.a, p.k)
    rhs = a ** (n - 2) * c * p.z ** (a * n - 2.0 * a + 2.0)
    return abs(float(np.linalg.det(mat)) - rhs) / abs(rhs)


def invariant(settings, seed, report):
    """The curvature invariant against its closed-form constant at three levels."""
    for name, family in FAMILIES.items():
        for k in (0.5, 1.0, 2.0):
            points = sample_points(family, k, 8, seed, box=(-0.3, 0.3))
            target = invariant_constant(name, family.f.a, k)
            worst = max(abs(curvature_invariant(family, p) - target) / target for p in points)
            report(f"invariant/{name}/k={k}", worst <= 1e-8, f"max_rel={worst:.2e}")


def determinant(settings, seed, report):
    """The determinant identity on both alpha = 2 families."""
    for name in ("elliptic_hyperboloid", "ellipsoid"):
        family = FAMILIES[name]
        points = sample_points(family, 1.0, 20, seed, box=(-0.3, 0.3))
        worst = max(determinant_identity_residual(family, p) for p in points)
        report(f"determinant/{name}", worst <= 1e-10, f"max_rel={worst:.2e}")


def lemma7(settings, seed, report):
    """Small-t ratios of section area and cap volume against their curvature limits."""
    t_small = 2.0 ** -10
    for name, family in FAMILIES.items():
        p = point_on_level(family, 1.0, np.zeros(2))
        kcurv = gauss_kronecker(family, p)
        n = family.n
        omega = unit_ball_volume(n)
        lim_a = 2.0 ** (n / 2.0) * omega / math.sqrt(kcurv)
        lim_v = 2.0 ** ((n + 2) / 2.0) * omega / ((n + 2) * math.sqrt(kcurv))
        cap = cap_measures(family, p, t_small, settings, want=("area", "volume"))
        ratio_a = cap.area.value / t_small ** (n / 2.0)
        ratio_v = cap.volume.value / t_small ** ((n + 2) / 2.0)
        for tag, got, lim in (("area", ratio_a, lim_a), ("volume", ratio_v, lim_v)):
            rel = abs(got - lim) / lim
            report(f"small_t/{tag}/{name}", rel <= 0.02, f"ratio={got:.6g} limit={lim:.6g} rel={rel:.2e}")


def derivative(settings, seed, report):
    """Central difference of the cap volume against the section area."""
    rng = np.random.default_rng(seed)
    fams = list(FAMILIES.items())
    worst = 0.0
    for i in range(10):
        name, family = fams[i % 3]
        x = rng.uniform(-0.8, 0.8, size=2)
        if family.sign == "plus":
            x *= 0.3
        p = point_on_level(family, 1.0, x)
        t = 0.2 + 0.1 * (i % 4) / 4.0
        if family.sign == "plus":
            t = min(t, 0.25)
        elif name == "elliptic_paraboloid":  # its chart folds from t of about 0.163
            t = min(t, 0.15)
        worst = max(worst, derivative_check(family, p, t, 1e-3, settings))
    report("derivative/max_ratio", worst <= 1e-3, f"max={worst:.2e} tol=1e-3")


def scaling(settings, seed, report):
    """Paraboloid cap volumes scale as h^((n+2)/2) with the predicted constant."""
    family = LevelFamily(QuadraticForm((1.0, 1.0)), alpha=1.0, sign="minus")
    p = point_on_level(family, 1.0, np.zeros(2))
    hs = [2.0 ** -j for j in range(1, 7)]
    cells = evaluate_cells(family, [p], hs, settings, want=("volume",))[0]
    failed = [cell for cell in cells if isinstance(cell, str)]
    if failed:
        report("scaling/cells", False, failed[0])
        return
    vols = [cell.volume.value for cell in cells]
    slope, intercept = np.polyfit(np.log(hs), np.log(vols), 1)
    gamma2 = paraboloid_starred((1.0, 1.0), 1.0, 1.0)[0]
    report("scaling/slope", abs(slope - 2.0) <= 0.01, f"slope={slope:.5f}")
    rel = abs(math.exp(intercept) - gamma2) / gamma2
    report("scaling/intercept", rel <= 0.01, f"exp(b)={math.exp(intercept):.6f} target={gamma2:.6f}")


def refutation(settings, seed, report):
    """Lateral-area spread and the mean-value contradiction witnesses."""
    a = (2.0, 1.0)
    family = LevelFamily(QuadraticForm(a), alpha=2.0, sign="minus")
    k, h = 1.0, 0.5
    xs = [np.array([0.0, 0.0]), np.array([1.5, 0.0]), np.array([0.7, 0.7]), np.array([0.0, 1.2])]
    points = [point_on_level(family, k, x) for x in xs]
    rep = check_condition(family, k, "Sstar", [h], points, settings=settings)
    spread = rep.spreads[0]
    report("lateral/spread", spread >= 0.05, f"spread={spread:.4f} (>= 5%)")
    for kk in (0.5, 1.0):
        for hh in (0.25, 1.0):
            theta = refutation_theta(kk, hh, a)
            report(f"mean_value/theta(k={kk},h={hh})", theta > 1.0, f"theta={theta:.6f}")
    r0 = mean_value_ratio(np.zeros(2), a, 1.0, 0.25)
    r10 = mean_value_ratio(np.array([10.0, 0.0]), a, 1.0, 0.25)
    diff = abs(r0 - r10) / r0
    report("mean_value/ratio_variation", diff >= 0.05, f"r(0)={r0:.4f} r(10,0)={r10:.4f} diff={diff:.2%}")


def run(settings: QuadratureSettings, seed: int) -> int:
    """Run every suite, print one PASS or FAIL line per check and a summary.

    A suite that raises a QuadrixError counts as one failing check named
    after it.  Returns 1 if any check failed, else 0.
    """
    failures = 0

    def report(name: str, passed: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        if not passed:
            failures += 1

    for suite in (invariant, determinant, lemma7, derivative, scaling, refutation):
        try:
            suite(settings, seed, report)
        except QuadrixError as exc:  # e.g. a fixture region that crosses a chart fold
            report(suite.__name__, False, str(exc))
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing checks")
    return 1 if failures else 0
