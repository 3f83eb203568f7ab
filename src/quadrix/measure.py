"""Section area, cap volume and lateral surface area of convex caps.

The three measures of the cap cut from M_k by the plane at normal distance
t from a base point p are integrals over the star-shaped (in fact convex)
chart region {w < t}:

    area    = integral of 1,
    volume  = integral of (t - w),
    lateral = integral of sqrt(1 + |grad w|^2),

all in the tangent-plane coordinates of p.  The primary integrator is
radial: boundary radii along a deterministic low-discrepancy direction set
and one pass of the 15-node Gauss-Kronrod rule along each ray.  The error
estimate is the larger of the spread between interleaved halves of the
direction set and the radial gap |K15 - G7|, where G7 is the Gauss rule
embedded in the same nodes, so it costs no extra height solve.  A seeded
rejection Monte Carlo integrator with a different failure profile is kept
as an independent oracle.  Partial sums reduce in a fixed order, so results
are bit-stable for a given seed.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from ._grids import default_direction_count, radial_nodes, sphere_directions
from .quadrics import unit_ball_volume, unit_sphere_area
from .surface import LevelFamily, LocalChart, SurfacePoint, height_failure, parallel_tangent

__all__ = [
    "MeasureResult",
    "QuadratureSettings",
    "StarredMeasures",
    "section_area",
    "cap_volume",
    "lateral_area",
    "starred_measures",
    "derivative_check",
]

_ERR_FLOOR = 1e-11  # relative floor covering boundary-solve tolerances


@dataclass(frozen=True)
class MeasureResult:
    """A nonnegative measure with an error estimate and method metadata."""

    value: float
    error_estimate: float
    method: str  # "radial_quadrature" | "monte_carlo"
    samples: int
    seed: int | None = None


@dataclass(frozen=True)
class QuadratureSettings:
    """Knobs for both integrators; directions=None picks the per-dimension default.

    Any other directions value must be an integer of at least 2.
    """

    directions: int | None = None
    mc_samples: int = 1 << 16
    seed: int = 123456789

    def __post_init__(self):
        if self.directions is None:
            return
        try:
            if isinstance(self.directions, bool):  # operator.index takes True as 1
                raise TypeError
            operator.index(self.directions)
        except TypeError:
            raise ValueError(f"directions must be an integer, got {self.directions!r}") from None
        if self.directions < 2:
            raise ValueError(f"directions must be at least 2, got {self.directions!r}")

    def direction_count(self, n: int) -> int:
        return default_direction_count(n) if self.directions is None else self.directions


DEFAULT_SETTINGS = QuadratureSettings()


def _paired_error(per_direction: np.ndarray, sigma: float, total: float) -> float:
    """Spread between the interleaved half direction sets."""
    even = sigma * float(np.mean(per_direction[0::2]))
    odd = sigma * float(np.mean(per_direction[1::2]))
    return max(abs(total - even), abs(total - odd))


def _radial_measures(
    family: LevelFamily,
    p: SurfacePoint,
    t: float,
    settings: QuadratureSettings,
    want: tuple[str, ...],
) -> dict[str, MeasureResult]:
    chart = LocalChart(family, p)
    n = family.n
    U = sphere_directions(n, settings.direction_count(n))
    m = len(U)  # S^0 has two points whatever count is asked for
    rho = chart.boundary_radius(U, t)
    sigma = unit_sphere_area(n - 1)
    out: dict[str, MeasureResult] = {}

    def finish(per_dir: np.ndarray, samples: int, extra_err: float = 0.0) -> MeasureResult:
        total = sigma * float(np.mean(per_dir))
        err = _paired_error(per_dir, sigma, total) if n >= 2 else 0.0
        err = max(err, extra_err, _ERR_FLOOR * abs(total))
        return MeasureResult(total, err, "radial_quadrature", samples)

    if "area" in want:
        out["area"] = finish(rho ** n / n, m)

    if "volume" in want or "lateral" in want:
        nodes, kronrod, gauss = radial_nodes()
        radii = rho[:, None] * nodes[None, :]
        Y = (radii[..., None] * U[:, None, :]).reshape(-1, n)
        w = chart.height(Y, t)
        if np.isinf(w).any():  # the nodes lie strictly inside the region
            raise height_failure(Y, np.flatnonzero(np.isinf(w)))
        rpow = radii ** (n - 1)
        samples = m * nodes.size

        def ray_measure(integrand: np.ndarray) -> MeasureResult:
            f = integrand * rpow
            # direction pairing is blind to radial truncation (it is smooth
            # across directions), so fold in the K15 - G7 difference too
            radial_err = abs(sigma * float(np.mean(rho * (f @ (kronrod - gauss)))))
            return finish(rho * (f @ kronrod), samples, radial_err)

        if "volume" in want:
            out["volume"] = ray_measure(t - w.reshape(m, -1))
        if "lateral" in want:
            gw = chart.gradient_at(Y, w)
            out["lateral"] = ray_measure(np.sqrt(1.0 + np.sum(gw ** 2, axis=1)).reshape(m, -1))
    return out


def _monte_carlo_measures(
    family: LevelFamily,
    p: SurfacePoint,
    t: float,
    settings: QuadratureSettings,
    want: tuple[str, ...],
) -> dict[str, MeasureResult]:
    """Rejection sampling in a bounding ball around the chart region."""
    chart = LocalChart(family, p)
    n = family.n
    probe = chart.boundary_radius(sphere_directions(n, settings.direction_count(n)), t)
    bound = 1.3 * float(np.max(probe))

    rng = np.random.default_rng(settings.seed)
    count = settings.mc_samples
    gauss = rng.standard_normal((count, n))
    gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
    radii = bound * rng.random(count) ** (1.0 / n)
    Y = gauss * radii[:, None]

    w = chart.height(Y, t)  # +inf above the plane or past the fold: outside
    inside = w < t
    ball = unit_ball_volume(n) * bound ** n
    out: dict[str, MeasureResult] = {}

    def finish(samples_arr: np.ndarray) -> MeasureResult:
        mean = float(np.mean(samples_arr))
        sem = float(np.std(samples_arr, ddof=1)) / np.sqrt(count)
        return MeasureResult(ball * mean, ball * sem, "monte_carlo", count, settings.seed)

    if "area" in want:
        out["area"] = finish(inside.astype(float))
    if "volume" in want:
        out["volume"] = finish(np.where(inside, t - w, 0.0))
    if "lateral" in want:
        vals = np.zeros(count)
        if np.any(inside):
            gw = chart.gradient_at(Y[inside], w[inside])
            vals[inside] = np.sqrt(1.0 + np.sum(gw ** 2, axis=1))
        out["lateral"] = finish(vals)
    return out


def _measures(family, p, t, settings, method, want):
    if t <= 0:
        raise ValueError("t must be positive")
    settings = settings or DEFAULT_SETTINGS
    if method == "monte_carlo":  # its sampling error is its own gauge
        return _monte_carlo_measures(family, p, t, settings, want)
    if method != "radial":
        raise ValueError(f"unknown method {method!r}")
    out = _radial_measures(family, p, t, settings, want)
    target = 1e-4 if family.n <= 3 else 1e-3
    for name, res in out.items():
        if res.value and res.error_estimate > target * abs(res.value):
            rel = res.error_estimate / abs(res.value)
            warnings.warn(
                f"{name} relative error estimate {rel:.2e} exceeds the target "
                f"{target:.0e}; increase directions",
                stacklevel=3,
            )
    return out


def section_area(family: LevelFamily, p: SurfacePoint, t: float,
                 settings: QuadratureSettings | None = None,
                 method: str = "radial") -> MeasureResult:
    """n-dimensional area of the section cut at normal distance t from p."""
    return _measures(family, p, t, settings, method, ("area",))["area"]


def cap_volume(family: LevelFamily, p: SurfacePoint, t: float,
               settings: QuadratureSettings | None = None,
               method: str = "radial") -> MeasureResult:
    """(n+1)-dimensional volume between M_k and the section plane at distance t."""
    return _measures(family, p, t, settings, method, ("volume",))["volume"]


def lateral_area(family: LevelFamily, p: SurfacePoint, t: float,
                 settings: QuadratureSettings | None = None,
                 method: str = "radial") -> MeasureResult:
    """n-dimensional surface area of M_k between the tangent plane and the section plane."""
    return _measures(family, p, t, settings, method, ("lateral",))["lateral"]


@dataclass(frozen=True)
class StarredMeasures:
    """The three tangency-referenced measures at level offset h, plus the plane distance t.

    Measures omitted from a restricted `want` request are None.
    """

    area: MeasureResult | None
    volume: MeasureResult | None
    lateral: MeasureResult | None
    t: float
    h: float
    grad_norm: float


def starred_measures(family: LevelFamily, p: SurfacePoint, h: float,
                     settings: QuadratureSettings | None = None,
                     want: tuple[str, ...] = ("area", "volume", "lateral")) -> StarredMeasures:
    """Measures of the cap bounded by the parallel tangent plane of M_{k+h}.

    Solves the parallel-tangent problem for the plane offset t(h), then
    evaluates the requested cap measures of M_k at that t in one pass.
    """
    tangency = parallel_tangent(family, p, h)
    res = _measures(family, p, tangency.t, settings, "radial", tuple(want))
    return StarredMeasures(
        area=res.get("area"),
        volume=res.get("volume"),
        lateral=res.get("lateral"),
        t=tangency.t,
        h=h,
        grad_norm=p.grad_norm,
    )


def derivative_check(family: LevelFamily, p: SurfacePoint, t: float, delta: float,
                     settings: QuadratureSettings | None = None) -> float:
    """Relative mismatch between the central difference of the cap volume and the section area.

    Returns |(V(t+delta) - V(t-delta)) / (2 delta) - A(t)| / A(t); the exact
    quantities satisfy V' = A.
    """
    if not (0.0 < delta < t):
        raise ValueError("need 0 < delta < t")
    v_plus = cap_volume(family, p, t + delta, settings).value
    v_minus = cap_volume(family, p, t - delta, settings).value
    a_mid = section_area(family, p, t, settings).value
    return abs((v_plus - v_minus) / (2.0 * delta) - a_mid) / a_mid
