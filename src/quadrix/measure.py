"""Section area, cap volume and lateral surface area of convex caps.

The three measures of the cap cut from M_k by the plane at normal distance
t from a base point p are integrals over the star-shaped (in fact convex)
chart region {w < t}:

    area    = integral of 1,
    volume  = integral of (t - w),
    lateral = integral of sqrt(1 + |grad w|^2),

all in the tangent-plane coordinates of p.  The primary integrator is
radial along the directions L^{-T} e, for the sphere-rule nodes e and
S = L L^T the second fundamental form: on a quadric every section is then a
ball (sections are homothetic to the Dupin indicatrix {y^T S y = 1}), so the
integrand on the sphere is smooth.  The sphere rule is the tensor rule at
n <= 4 and the fully symmetric rule at n >= 5, which needs a sixth of the
rays at n = 6 (`_grids.sphere_rule`).  One K15 pass runs along each ray.
The boundary and height solves run in blocks of at most _LANE_BUDGET chart
points, each height block reduced to per-ray sums before the next, so the
working memory does not grow with the order.
The error estimate is the larger of the gap to the sphere rule of order m - 2,
solved in the same calls, and the radial gap |K15 - G7| of the embedded
Gauss rule.  Partial sums reduce in a fixed order, so results are
bit-stable.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from ._grids import DEFAULT_ORDER, radial_nodes, sphere_rule
from .surface import LevelFamily, LocalChart, SurfacePoint, height_failure, parallel_tangent

__all__ = [
    "MeasureResult",
    "QuadratureSettings",
    "StarredMeasures",
    "section_area",
    "cap_volume",
    "lateral_area",
    "starred_measures",
]

_ERR_FLOOR = 1e-11  # relative floor covering boundary-solve tolerances
_TARGET = 1e-4  # relative error estimate above which a radial measure warns
_LANE_BUDGET = 1 << 14  # chart points per boundary or height solve: a block stays cache-sized


@dataclass(frozen=True)
class MeasureResult:
    """A nonnegative measure with its error estimate and sample count."""

    value: float
    error_estimate: float
    samples: int


@dataclass(frozen=True)
class QuadratureSettings:
    """The sphere-rule order; None picks the per-dimension DEFAULT_ORDER.

    Any other order must be an integer of at least 3: the error estimate
    compares it with order - 2.
    """

    order: int | None = None

    def __post_init__(self):
        if self.order is None:
            return
        try:
            if isinstance(self.order, bool):  # operator.index takes True as 1
                raise TypeError
            operator.index(self.order)
        except TypeError:
            raise ValueError(f"order must be an integer, got {self.order!r}") from None
        if self.order < 3:
            raise ValueError(f"order must be at least 3, got {self.order!r}")


DEFAULT_SETTINGS = QuadratureSettings()


def _chart_directions(p: SurfacePoint, nodes: np.ndarray) -> tuple[np.ndarray, float]:
    """Chart directions L^{-T} e for unit sphere nodes e, where S = L L^T at p.

    Returns them, shape (N, n), with the Jacobian 1 / sqrt(det S) of the map.
    """
    L = np.linalg.cholesky(p.second_form)
    return np.linalg.solve(L.T, nodes.T).T, 1.0 / float(np.prod(np.diag(L)))


def _radial_measures(
    family: LevelFamily,
    p: SurfacePoint,
    t: float,
    settings: QuadratureSettings,
    want: tuple[str, ...],
) -> dict[str, MeasureResult]:
    chart = LocalChart(family, p)
    n = family.n
    order = settings.order or DEFAULT_ORDER[n]
    (fine, w_fine), (coarse, w_coarse) = sphere_rule(n, order), sphere_rule(n, order - 2)
    # both rules share the boundary and height blocks
    D, jac = _chart_directions(p, np.concatenate([fine, coarse]))
    m, split = len(D), len(fine)
    rho = np.concatenate([chart.boundary_radius(D[a:a + _LANE_BUDGET], t)
                          for a in range(0, m, _LANE_BUDGET)])
    out: dict[str, MeasureResult] = {}

    def finish(per_dir: np.ndarray, samples: int, radial_err: float = 0.0) -> MeasureResult:
        total = jac * float(w_fine @ per_dir[:split])
        err = abs(total - jac * float(w_coarse @ per_dir[split:]))
        err = max(err, radial_err, _ERR_FLOOR * abs(total))
        return MeasureResult(total, err, samples)

    if "area" in want:
        out["area"] = finish(rho ** n / n, m)

    along_rays = [name for name in ("volume", "lateral") if name in want]
    if along_rays:
        nodes, kronrod, gauss = radial_nodes()
        gap_rule = kronrod - gauss
        # per ray the K15 sum, and per ray of the order-m rule the K15 - G7 sum
        sums = {name: (np.empty(m), np.empty(split)) for name in along_rays}
        failed, first_failure = 0, None
        step = max(1, _LANE_BUDGET // nodes.size)
        for a in range(0, m, step):
            b = min(a + step, m)
            radii = rho[a:b, None] * nodes
            Y = (radii[..., None] * D[a:b, None, :]).reshape(-1, n)
            w = chart.height(Y, t)
            if np.isinf(w).any():  # the nodes lie strictly inside the region
                escaped = np.flatnonzero(np.isinf(w))
                failed += escaped.size
                if first_failure is None:
                    first_failure = Y[escaped[0]]
                continue
            rpow = radii ** (n - 1)
            fine_end = max(a, min(b, split))
            for name, (kronrod_sums, gap_sums) in sums.items():
                if name == "volume":
                    integrand = t - w
                else:
                    integrand = np.sqrt(1.0 + np.sum(chart.gradient_at(Y, w) ** 2, axis=1))
                f = integrand.reshape(b - a, -1) * rpow
                kronrod_sums[a:b] = rho[a:b] * (f @ kronrod)
                gap_sums[a:fine_end] = rho[a:fine_end] * (f[:fine_end - a] @ gap_rule)
        samples = m * nodes.size
        if failed:
            raise height_failure(first_failure, failed, samples)
        for name, (kronrod_sums, gap_sums) in sums.items():
            # the two sphere orders share the radial rule, so their gap is
            # blind to radial truncation: fold in the K15 - G7 difference too
            radial_err = abs(jac * float(w_fine @ gap_sums))
            out[name] = finish(kronrod_sums, samples, radial_err)
    return out


def _measures(family, p, t, settings, want):
    if t <= 0:
        raise ValueError("t must be positive")
    out = _radial_measures(family, p, t, settings or DEFAULT_SETTINGS, want)
    for name, res in out.items():
        if res.value and res.error_estimate > _TARGET * abs(res.value):
            rel = res.error_estimate / abs(res.value)
            warnings.warn(
                f"{name} relative error estimate {rel:.2e} exceeds the target "
                f"{_TARGET:.0e}; increase the quadrature order",
                stacklevel=3,
            )
    return out


def section_area(family: LevelFamily, p: SurfacePoint, t: float,
                 settings: QuadratureSettings | None = None) -> MeasureResult:
    """n-dimensional area of the section cut at normal distance t from p."""
    return _measures(family, p, t, settings, ("area",))["area"]


def cap_volume(family: LevelFamily, p: SurfacePoint, t: float,
               settings: QuadratureSettings | None = None) -> MeasureResult:
    """(n+1)-dimensional volume between M_k and the section plane at distance t."""
    return _measures(family, p, t, settings, ("volume",))["volume"]


def lateral_area(family: LevelFamily, p: SurfacePoint, t: float,
                 settings: QuadratureSettings | None = None) -> MeasureResult:
    """n-dimensional surface area of M_k between the tangent plane and the section plane."""
    return _measures(family, p, t, settings, ("lateral",))["lateral"]


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
    res = _measures(family, p, tangency.t, settings, tuple(want))
    return StarredMeasures(
        area=res.get("area"),
        volume=res.get("volume"),
        lateral=res.get("lateral"),
        t=tangency.t,
        h=h,
        grad_norm=p.grad_norm,
    )
