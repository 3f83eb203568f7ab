"""Section area, cap volume and lateral surface area of convex caps.

The three measures of the cap cut from M_k by the plane at normal distance
t from a base point p are integrals over the star-shaped (in fact convex)
section S of that plane, in the tangent-plane coordinates y of p:

    area    = integral of 1,
    volume  = integral of (t - w(y)),
    lateral = integral of sqrt(1 + |grad w(y)|^2),

with w the chart height of M_k over y.  On a "minus" family with k > 0 the
cap is sliced along z instead (Cavalieri): there z^alpha = k + f(x) gives
the surface over x explicitly as Z(x), and the chord from a section point
q down (or up) to s = (q_x, Z(q_x)) is the whole cap over q, so

    volume  = |nu_z| integral of |q_z - Z(q_x)|,
    lateral = |nu_z| integral of |grad g(s)| / |g_z(s)|,
              grad g = (sf grad f, alpha Z^(alpha - 1)),

over the same section points, with nu the normal at p.  This needs no
height solve.  A cell takes these chords when f >= 0 at every radial node
(the paper's hypothesis): then Z^alpha >= k > 0, so the cap stays away from
the branch point z = 0 and g_z != 0 on it.  Any other cell, every "plus"
family among them, keeps the chart heights.  There Z = (k - f)^(1/alpha)
has a branch point where the level set turns vertical (the equator of an
ellipsoid), so chords lose digits near it while the chart does not.

The primary integrator is radial along the directions L^{-T} e, for the
sphere-rule nodes e and S = L L^T the second fundamental form: on a quadric
every section is then a ball (sections are homothetic to the Dupin
indicatrix {y^T S y = 1}), so the integrand on the sphere is smooth.  The
sphere rule is the tensor rule at n <= 4 and the fully symmetric rule at
n >= 5, which needs a sixth of the rays at n = 6 (`_grids.sphere_rule`).
One K15 pass runs along each ray.  The boundary solves and the integrands
run in blocks of at most _LANE_BUDGET chart points, each block reduced to
per-ray sums before the next, so the working memory does not grow with the
order.  A block of chords with f < 0 at one of its nodes sends the whole
cell back to the chart heights, from its first ray.  The radial nodes lie
strictly inside the section, so every height converges; a block whose
height solve fails raises its RegionError, counting that block's points.
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
from .funcspec import eval_line, eval_value_grad
from .surface import LevelFamily, LocalChart, SurfacePoint, parallel_tangent

__all__ = [
    "CapMeasures",
    "MeasureResult",
    "QuadratureSettings",
    "cap_measures",
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
    # both rules share the boundary and integrand blocks
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
        step = max(1, _LANE_BUDGET // nodes.size)

        def ray_sums(integrands):
            # per ray the K15 sum, and per ray of the order-m rule the K15 - G7
            # sum; None when the integrands decline a block
            sums = {name: (np.empty(m), np.empty(split)) for name in along_rays}
            for a in range(0, m, step):
                b = min(a + step, m)
                radii = rho[a:b, None] * nodes
                values = integrands(D[a:b], radii)
                if values is None:
                    return None
                rpow = radii ** (n - 1)
                fine_end = max(a, min(b, split))
                for name, (kronrod_sums, gap_sums) in sums.items():
                    f = values[name].reshape(b - a, -1) * rpow
                    kronrod_sums[a:b] = rho[a:b] * (f @ kronrod)
                    gap_sums[a:fine_end] = rho[a:fine_end] * (f[:fine_end - a] @ gap_rule)
            return sums

        def heights(rays, radii):
            Y = (radii[..., None] * rays[:, None, :]).reshape(-1, n)
            w = chart.height(Y, t)  # the nodes lie strictly inside the region
            values = {"volume": t - w} if "volume" in want else {}
            if "lateral" in want:
                values["lateral"] = np.sqrt(1.0 + np.sum(chart.gradient_at(Y, w) ** 2, axis=1))
            return values

        sums = None
        if family.sign == "minus" and p.k > 0:
            sums = ray_sums(_vertical_chords(family, p, t, want))
        if sums is None:
            sums = ray_sums(heights)
        samples = m * nodes.size
        for name, (kronrod_sums, gap_sums) in sums.items():
            # the two sphere orders share the radial rule, so their gap is
            # blind to radial truncation: fold in the K15 - G7 difference too
            radial_err = abs(jac * float(w_fine @ gap_sums))
            out[name] = finish(kronrod_sums, samples, radial_err)
    return out


def _vertical_chords(family: LevelFamily, p: SurfacePoint, t: float, want: tuple[str, ...]):
    """Volume and lateral integrands at section points, read off vertical chords.

    On a "minus" family with k > 0 the cap over a section point q is the
    chord from q to s = (q_x, Z(q_x)), where Z^alpha = k + f(q_x) >= k when
    f(q_x) >= 0.  Per unit of section area the cap then has volume
    |nu_z| |q_z - Z| and lateral area |nu_z| |grad g(s)| / |g_z(s)|: no
    height solve.  The returned block function gives None when f < 0 at any
    of its points, so the cell goes back to the chart heights.
    """
    n, alpha = family.n, family.alpha
    center = p.ambient + t * p.normal
    to_x, to_z = p.frame[:n].T, p.frame[n]
    nu_z = abs(p.normal[n])

    def chords(rays, radii):
        dirs = rays @ to_x  # each ray's x velocity, (rays, n)
        if "lateral" in want:
            X = center[:n] + radii[..., None] * dirs[:, None, :]
            fv, fg = eval_value_grad(family.f, X.reshape(-1, n))
        else:
            def row(i):
                return (center[i] + radii * dirs[:, i, None]).ravel(), 0.0
            fv, _ = eval_line(family.f, row, radii.size)
        if not np.all(fv >= 0.0):
            return None
        zpow = fv + p.k  # Z^alpha
        Z = zpow ** (1.0 / alpha)
        values = {}
        if "volume" in want:
            qz = center[n] + radii * (rays @ to_z)[:, None]
            values["volume"] = nu_z * np.abs(qz.ravel() - Z)
        if "lateral" in want:
            gz = alpha * zpow / Z  # g_z = alpha Z^(alpha - 1)
            values["lateral"] = nu_z * np.sqrt(1.0 + np.einsum("mi,mi->m", fg, fg) / gz ** 2)
        return values

    return chords


_MEASURES = ("area", "volume", "lateral")


@dataclass(frozen=True)
class CapMeasures:
    """The cap measures at plane distance t; each one not asked for is None."""

    area: MeasureResult | None
    volume: MeasureResult | None
    lateral: MeasureResult | None
    t: float


def cap_measures(family: LevelFamily, p: SurfacePoint, t: float,
                 settings: QuadratureSettings | None = None,
                 want: tuple[str, ...] = _MEASURES) -> CapMeasures:
    """Section area, cap volume and lateral area of the cap cut at normal distance t from p.

    want names the measures to compute, any of "area", "volume" and
    "lateral"; all of them share one boundary solve and one ray pass.
    """
    unknown = sorted(set(want) - set(_MEASURES))
    if unknown:
        raise ValueError(f"unknown measures {unknown}; known measures are {list(_MEASURES)}")
    if t <= 0:
        raise ValueError("t must be positive")
    out = _radial_measures(family, p, t, settings or DEFAULT_SETTINGS, want)
    for name, res in out.items():
        if res.value and res.error_estimate > _TARGET * abs(res.value):
            rel = res.error_estimate / abs(res.value)
            warnings.warn(
                f"{name} relative error estimate {rel:.2e} exceeds the target "
                f"{_TARGET:.0e}; increase the quadrature order",
                stacklevel=2,
            )
    return CapMeasures(out.get("area"), out.get("volume"), out.get("lateral"), t)


def starred_measures(family: LevelFamily, p: SurfacePoint, h: float,
                     settings: QuadratureSettings | None = None,
                     want: tuple[str, ...] = _MEASURES) -> CapMeasures:
    """cap_measures at the distance t of the parallel tangent plane of M_{k+h}."""
    return cap_measures(family, p, parallel_tangent(family, p, h).t, settings, want)
