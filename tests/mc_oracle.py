"""Seeded rejection Monte Carlo measures of a cap: a reference with a failure
profile unlike the radial quadrature's, for the tests to compare against.

It samples a ball that bounds the chart region {w < t} and averages the
indicator, t - w and sqrt(1 + |grad w|^2) over it.  The ball's radius is
1.3 times the largest boundary radius along the whitened directions of the
default-order sphere rule.  Each measure's error estimate is its sampling
standard error.
"""

from __future__ import annotations

import numpy as np

from quadrix import LevelFamily, LocalChart, MeasureResult, SurfacePoint, unit_ball_volume
from quadrix._grids import DEFAULT_ORDER, sphere_rule
from quadrix.funcspec import eval_value_grad
from quadrix.measure import _chart_directions


def monte_carlo_measures(family: LevelFamily, p: SurfacePoint, t: float, seed: int,
                         samples: int = 1 << 16) -> dict[str, MeasureResult]:
    """Area, volume and lateral area of the cap at plane distance t from samples points."""
    chart = LocalChart(family, p)
    n = family.n
    ((D, _),) = _chart_directions([p], sphere_rule(n, DEFAULT_ORDER[n])[0])
    extent = chart.boundary_radius(D, t) * np.linalg.norm(D, axis=1)
    bound = 1.3 * float(np.max(extent))

    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((samples, n))
    gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
    radii = bound * rng.random(samples) ** (1.0 / n)
    Y = gauss * radii[:, None]

    # a sample is inside the section when offset_sign * (g - k) > 0 at the
    # plane (NaN, off the branch, is outside); heights are solved only there
    base = chart.origin + t * chart.normal
    fv, _ = eval_value_grad(family.f, base[:n] + Y @ chart.frame[:n].T)
    g = family._zpow(base[n] + Y @ chart.frame[n], family.alpha) + family.sf * fv
    inside = p.offset_sign * (g - p.k) > 0
    w = np.full(samples, t)  # t - w is 0 outside
    w[inside] = chart.height(Y[inside], t)
    ball = unit_ball_volume(n) * bound ** n

    def finish(values: np.ndarray) -> MeasureResult:
        mean = float(np.mean(values))
        sem = float(np.std(values, ddof=1)) / np.sqrt(samples)
        return MeasureResult(ball * mean, ball * sem, samples)

    lateral = np.zeros(samples)
    if np.any(inside):
        gw = chart.gradient_at(Y[inside], w[inside])
        lateral[inside] = np.sqrt(1.0 + np.sum(gw ** 2, axis=1))
    return {
        "area": finish(inside.astype(float)),
        "volume": finish(t - w),
        "lateral": finish(lateral),
    }
