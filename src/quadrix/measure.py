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
One K15 pass runs along each ray.

The cells of a level are solved together (starred_cells, which
characterize.evaluate_cells reads): one surface.parallel_tangents Newton
loop for all tangencies, then one boundary solve and one ray pass over the
rays of all the cells.  These run in blocks of at most _LANE_BUDGET chart
points, each block reduced to per-ray sums before the next, so the working
memory does not grow with the order or the number of cells.  A cell's rays
are cut into the chunks a one-cell call cuts them into, a block joins
whole chunks of several cells (LocalChart.joined), and every product that
sums over a ray's nodes is taken chunk by chunk, so a cell has the same
bits in any table; starred_measures and cap_measures are one-cell calls of
the same pass.  A chunk of chords with f < 0 at one of its nodes sends its
cell back to the chart heights, from its first ray.  The radial nodes lie
strictly inside the section, so every height converges; a block whose
height solve fails raises its RegionError, counting that block's points.
A cell that fails raises for its whole group, and _each solves the group
again in halves, down to that cell, which then gets its own message.
The error estimate is the larger of the gap to the sphere rule of order m - 2,
solved in the same calls, and the radial gap |K15 - G7| of the embedded
Gauss rule.  Partial sums reduce in a fixed order, so results are
bit-stable.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ._grids import DEFAULT_ORDER, radial_nodes, sphere_rule
from .errors import QuadrixError
from .funcspec import eval_line, eval_value_grad
from .surface import LevelFamily, LocalChart, SurfacePoint, _by_lane, _cat, parallel_tangents

__all__ = [
    "CapMeasures",
    "MAX_ORDER",
    "MeasureResult",
    "QuadratureSettings",
    "cap_measures",
    "starred_cells",
    "starred_measures",
]

_ERR_FLOOR = 1e-11  # relative floor covering boundary-solve tolerances
_TARGET = 1e-4  # relative error estimate above which a radial measure warns
_LANE_BUDGET = 1 << 14  # chart points per boundary or height solve: a block stays cache-sized
_GROUP_RAYS = 1 << 20  # rays of the cells one pass holds: their results stay tens of MiB


@dataclass(frozen=True)
class MeasureResult:
    """A nonnegative measure with its error estimate and sample count."""

    value: float
    error_estimate: float
    samples: int


# the largest order per dimension whose rule and order - 2 partner have at
# most 50 000 rays together (the symmetric rules of n = 5 and 6 also take
# 0.6 s and 0.1 s to build there); S^0 has 2 + 2 at every order
MAX_ORDER = {2: 12501, 3: 112, 4: 24, 5: 13, 6: 10}


@dataclass(frozen=True)
class QuadratureSettings:
    """The sphere-rule order; None picks the per-dimension DEFAULT_ORDER.

    Any other order must be an integer of at least 3: the error estimate
    compares it with order - 2.  At dimension n it may not pass MAX_ORDER[n]
    (order_for).
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

    def order_for(self, n: int) -> int:
        """The order at dimension n; ValueError past MAX_ORDER[n]."""
        if self.order is None:
            return DEFAULT_ORDER[n]
        if self.order > MAX_ORDER.get(n, self.order):
            raise ValueError(f"order {self.order} is past the cap {MAX_ORDER[n]} at n = {n}: "
                             "its rules would have more than 50 000 rays")
        return self.order


DEFAULT_SETTINGS = QuadratureSettings()


def _chart_directions(p: SurfacePoint, nodes: np.ndarray) -> tuple[np.ndarray, float]:
    """Chart directions L^{-T} e for unit sphere nodes e, where S = L L^T at p.

    Returns them, shape (N, n), with the Jacobian 1 / sqrt(det S) of the map.
    """
    L = np.linalg.cholesky(p.second_form)
    return np.linalg.solve(L.T, nodes.T).T, 1.0 / float(np.prod(np.diag(L)))


def _radial_cells(family: LevelFamily, cells: list, settings: QuadratureSettings,
                  want: tuple[str, ...]) -> list[dict[str, MeasureResult]]:
    """The wanted measures of the cap of every (p, t) cell, solved together.

    Each point's chart and chart directions are built once.  Every lane of
    every cell then goes through one boundary solve and one ray pass, in
    blocks of at most _LANE_BUDGET chart points.  Each cell's lanes are cut
    into chunks as a cell alone would cut them, and a block joins whole
    chunks, first chunks first.  Every product that reduces over a lane's
    row is taken chunk by chunk, so each cell has the bits it has alone.
    A failing cell raises its error for the whole call.
    """
    n = family.n
    sphere, w_fine, w_coarse, (nodes, kronrod, gap_rule) = _rules(n, settings.order_for(n))
    m, split = len(sphere), len(w_fine)
    charts, rays = {}, {}  # per point: its chart, and its chart directions with their Jacobian
    for p, _ in cells:
        if id(p) not in charts:
            charts[id(p)] = LocalChart(family, p)
            rays[id(p)] = _chart_directions(p, sphere)
    D = [rays[id(p)][0] for p, _ in cells]
    ts = [t for _, t in cells]

    rho = [np.empty(m) for _ in cells]
    for block in _blocks(_chunks(range(len(cells)), m, _LANE_BUDGET), lambda a, b: b - a):
        counts = [b - a for _, a, b in block]
        chart = LocalChart.joined([charts[id(cells[c][0])] for c, _, _ in block], counts)
        radii = chart.boundary_radius(_cat([D[c][a:b] for c, a, b in block], axis=0),
                                      _by_lane([ts[c] for c, _, _ in block], counts))
        for (c, a, b), lo, hi in _bounds(block, counts):
            rho[c][a:b] = radii[lo:hi]
    out: list[dict[str, MeasureResult]] = [{} for _ in cells]

    def finish(c: int, per_dir: np.ndarray, samples: int, radial_err: float = 0.0) -> MeasureResult:
        jac = rays[id(cells[c][0])][1]
        total = jac * float(w_fine @ per_dir[:split])
        err = abs(total - jac * float(w_coarse @ per_dir[split:]))
        err = max(err, radial_err, _ERR_FLOOR * abs(total))
        return MeasureResult(total, err, samples)

    if "area" in want:
        for c in range(len(cells)):
            out[c]["area"] = finish(c, rho[c] ** n / n, m)

    along_rays = [name for name in ("volume", "lateral") if name in want]
    if along_rays:
        sums = [{name: (np.empty(m), np.empty(split)) for name in along_rays} for _ in cells]

        def ray_pass(todo: list[int], integrands) -> set[int]:
            # per ray the K15 sum, and per ray of the order-m rule the K15 - G7
            # sum; returns the cells whose integrands declined a chunk, whose
            # later chunks are then skipped
            declined: set[int] = set()

            def reduce_block(block):  # its arrays die at return, before the next block's exist
                args = [(cells[c][0], ts[c], D[c][a:b], rho[c][a:b, None] * nodes) for c, a, b in block]
                for (c, a, b), (*_, radii), vals in zip(block, args, integrands(args)):
                    if c in declined:
                        continue
                    if vals is None:
                        declined.add(c)
                        continue
                    rpow = radii ** (n - 1)
                    fine_end = max(a, min(b, split))
                    for name, (kronrod_sums, gap_sums) in sums[c].items():
                        f = vals[name].reshape(b - a, -1) * rpow
                        kronrod_sums[a:b] = rho[c][a:b] * (f @ kronrod)
                        gap_sums[a:fine_end] = rho[c][a:fine_end] * (f[:fine_end - a] @ gap_rule)

            chunks = _chunks(todo, m, max(1, _LANE_BUDGET // nodes.size))
            for block in _blocks(chunks, lambda a, b: (b - a) * nodes.size, declined):
                reduce_block(block)
            return declined

        def heights(chunks):
            counts = [radii.size for _, _, _, radii in chunks]
            Y = _cat([(radii[..., None] * D[:, None, :]).reshape(-1, n) for _, _, D, radii in chunks],
                     axis=0)
            chart = LocalChart.joined([charts[id(p)] for p, _, _, _ in chunks], counts)
            lane_t = _by_lane([t for _, t, _, _ in chunks], counts)
            w = chart.height(Y, lane_t)  # the nodes lie strictly inside the region
            values = {"volume": lane_t - w} if "volume" in want else {}
            if "lateral" in want:  # sqrt(1 + |grad w|^2)
                grad = chart.gradient_at(Y, w)
                grad **= 2
                lateral = np.sum(grad, axis=1)
                lateral += 1.0
                values["lateral"] = np.sqrt(lateral, out=lateral)
            return [{name: v[lo:hi] for name, v in values.items()} for _, lo, hi in _bounds(chunks, counts)]

        chords = [c for c, (p, _) in enumerate(cells) if family.sign == "minus" and p.k > 0]
        sliced = set(chords) - ray_pass(chords, _vertical_chords(family, want))
        ray_pass([c for c in range(len(cells)) if c not in sliced], heights)
        samples = m * nodes.size
        for c in range(len(cells)):
            for name, (kronrod_sums, gap_sums) in sums[c].items():
                # the two sphere orders share the radial rule, so their gap is
                # blind to radial truncation: fold in the K15 - G7 difference too
                radial_err = abs(rays[id(cells[c][0])][1] * float(w_fine @ gap_sums))
                out[c][name] = finish(c, kronrod_sums, samples, radial_err)
    return out


@lru_cache(maxsize=32)
def _rules(n: int, order: int):
    """The sphere rules of orders order and order - 2, their nodes joined, and
    the radial rule with its K15 - G7 weights; built once, read-only."""
    (fine, w_fine), (coarse, w_coarse) = sphere_rule(n, order), sphere_rule(n, order - 2)
    sphere = np.concatenate([fine, coarse])  # both rules share the boundary and integrand blocks
    nodes, kronrod, gauss = radial_nodes()
    radial = nodes, kronrod, kronrod - gauss
    for a in (sphere, *radial):
        a.setflags(write=False)
    return sphere, w_fine, w_coarse, radial


def _chunks(cells, m: int, size: int) -> list[tuple[int, int, int]]:
    """Each cell's lanes 0..m in chunks (cell, a, b) of at most size, first chunks first."""
    return [(c, a, min(a + size, m)) for a in range(0, m, size) for c in cells]


def _blocks(chunks, lanes, skip=()):
    """Runs of consecutive chunks with at most _LANE_BUDGET chart points each
    (lanes(a, b) of a chunk); a chunk of a cell in skip, which may grow
    between blocks, is left out."""
    block, total = [], 0
    for chunk in chunks:
        size = lanes(chunk[1], chunk[2])
        if block and total + size > _LANE_BUDGET:
            yield block
            block, total = [], 0
        if chunk[0] not in skip:
            block.append(chunk)
            total += size
    if block:
        yield block


def _bounds(items, counts):
    """Each item with the [lo, hi) range of its lanes in the joined block."""
    return [(item, hi - count, hi) for item, count, hi in zip(items, counts, accumulate(counts))]


def _vertical_chords(family: LevelFamily, want: tuple[str, ...]):
    """Volume and lateral integrands at section points, read off vertical chords.

    On a "minus" family with k > 0 the cap over a section point q is the
    chord from q to s = (q_x, Z(q_x)), where Z^alpha = k + f(q_x) >= k when
    f(q_x) >= 0.  Per unit of section area the cap then has volume
    |nu_z| |q_z - Z| and lateral area |nu_z| |grad g(s)| / |g_z(s)|: no
    height solve.  The returned block function takes chunks (p, t, rays,
    radii) and evaluates f at all of their points at once; it gives each
    chunk's values, or None where f < 0 at one of its points, so that cell
    goes back to the chart heights.
    """
    n, alpha = family.n, family.alpha

    def chords(chunks):
        rays_per = [len(rays) for _, _, rays, _ in chunks]
        # per ray: the section center, x velocity, z velocity, |nu_z| and k
        center = _by_lane([p.ambient + t * p.normal for p, t, _, _ in chunks], rays_per)
        dirs = _cat([rays @ p.frame[:n].T for p, _, rays, _ in chunks], axis=0)
        radii = _cat([radii for *_, radii in chunks], axis=0)
        if "lateral" in want:  # the points lane-last, so each coordinate is one contiguous row
            X = radii * dirs.T[:, :, None]
            X += center.T[:n, :, None]
            fv, fg = eval_value_grad(family.f, X.reshape(n, -1).T)
            del X
        else:
            def row(i):
                return (center[:, i, None] + radii * dirs[:, i, None]).ravel(), 0.0
            fv, _ = eval_line(family.f, row, radii.size)
        points = [count * radii.shape[1] for count in rays_per]
        keep = [np.all(fv[lo:hi] >= 0.0) for _, lo, hi in _bounds(chunks, points)]
        values = {}  # computed in place where it can be: a block is up to 2^14 points
        with np.errstate(invalid="ignore", divide="ignore"):  # declined chunks may have f < 0
            zpow = fv
            zpow += _by_lane([p.k for p, *_ in chunks], points)  # Z^alpha
            Z = zpow ** (1.0 / alpha)
            nu_z = _by_lane([abs(p.normal[n]) for p, *_ in chunks], points)
            if "volume" in want:  # nu_z |q_z - Z|
                dz = _cat([rays @ p.frame[n] for p, _, rays, _ in chunks], axis=0)
                volume = radii * dz[:, None]
                volume += center[:, n, None]
                volume = volume.ravel()
                volume -= Z
                np.abs(volume, out=volume)
                volume *= nu_z
                values["volume"] = volume
            if "lateral" in want:  # nu_z sqrt(1 + |grad f|^2 / g_z^2), g_z = alpha Z^(alpha - 1)
                gz = alpha * zpow
                gz /= Z
                gz **= 2
                lateral = np.einsum("mi,mi->m", fg, fg)
                lateral /= gz
                lateral += 1.0
                np.sqrt(lateral, out=lateral)
                lateral *= nu_z
                values["lateral"] = lateral
        return [{name: v[lo:hi] for name, v in values.items()} if ok else None
                for ok, (_, lo, hi) in zip(keep, _bounds(chunks, points))]

    return chords


_MEASURES = ("area", "volume", "lateral")


@dataclass(frozen=True)
class CapMeasures:
    """The cap measures at plane distance t; each one not asked for is None."""

    area: MeasureResult | None
    volume: MeasureResult | None
    lateral: MeasureResult | None
    t: float


def _check_want(want: tuple[str, ...]) -> None:
    unknown = sorted(set(want) - set(_MEASURES))
    if unknown:
        raise ValueError(f"unknown measures {unknown}; known measures are {list(_MEASURES)}")


def _cap(out: dict[str, MeasureResult], t: float) -> CapMeasures:
    """A cell's CapMeasures; a measure whose estimate misses the target warns."""
    for name, res in out.items():
        if res.value and res.error_estimate > _TARGET * abs(res.value):
            rel = res.error_estimate / abs(res.value)
            warnings.warn(
                f"{name} relative error estimate {rel:.2e} exceeds the target "
                f"{_TARGET:.0e}; increase the quadrature order",
                stacklevel=3,
            )
    return CapMeasures(out.get("area"), out.get("volume"), out.get("lateral"), t)


def _each(solve, cells: list) -> list:
    """solve(cells), one result per cell, all cells together; when that
    raises a QuadrixError, each half again, down to single cells, which get
    their own error.  Since a cell has the same bits in any group, every
    cell gets what it gets alone."""
    try:
        return solve(cells)
    except QuadrixError as exc:
        if len(cells) == 1:
            return [exc]
        half = len(cells) // 2
        return _each(solve, cells[:half]) + _each(solve, cells[half:])


def cap_measures(family: LevelFamily, p: SurfacePoint, t: float,
                 settings: QuadratureSettings | None = None,
                 want: tuple[str, ...] = _MEASURES) -> CapMeasures:
    """Section area, cap volume and lateral area of the cap cut at normal distance t from p.

    want names the measures to compute, any of "area", "volume" and
    "lateral"; all of them share one boundary solve and one ray pass.
    """
    _check_want(want)
    if t <= 0:
        raise ValueError("t must be positive")
    return _cap(_radial_cells(family, [(p, t)], settings or DEFAULT_SETTINGS, want)[0], t)


def starred_cells(family: LevelFamily, points: list[SurfacePoint], offsets,
                  settings: QuadratureSettings | None = None,
                  want: tuple[str, ...] = _MEASURES) -> list[list[CapMeasures | QuadrixError]]:
    """starred_measures of every (point, offset) cell of one level, solved together.

    All tangencies are one parallel_tangents call, and all caps one
    boundary solve and one ray pass.  Returns a points x offsets table of
    CapMeasures, or of the QuadrixError a cell raised: the one its
    starred_measures call raises, as every cell has the bits it has alone.
    """
    _check_want(want)
    settings = settings or DEFAULT_SETTINGS
    rays = len(_rules(family.n, settings.order_for(family.n))[0])
    offsets = list(offsets)
    cells = [(p, h) for p in points for h in offsets]
    out = _each(lambda group: parallel_tangents(family, group), cells)
    levels: dict[float, list[int]] = {}  # a joined chart holds one level
    for i, res in enumerate(out):
        if not isinstance(res, QuadrixError):
            levels.setdefault(cells[i][0].k, []).append(i)
    size = max(1, _GROUP_RAYS // rays)  # a pass holds about 40 bytes of per-ray sums per ray
    caps = {}
    for solved in levels.values():
        for a in range(0, len(solved), size):
            group = solved[a:a + size]
            caps.update(zip(group, _each(lambda part: _radial_cells(family, part, settings, want),
                                         [(cells[i][0], out[i].t) for i in group])))
    for i in sorted(caps):  # warnings in cell order
        out[i] = caps[i] if isinstance(caps[i], QuadrixError) else _cap(caps[i], out[i].t)
    return [out[i * len(offsets):(i + 1) * len(offsets)] for i in range(len(points))]


def starred_measures(family: LevelFamily, p: SurfacePoint, h: float,
                     settings: QuadratureSettings | None = None,
                     want: tuple[str, ...] = _MEASURES) -> CapMeasures:
    """cap_measures at the distance t of the parallel tangent plane of M_{k+h}:
    the one-cell call of starred_cells."""
    cell = starred_cells(family, [p], [h], settings, want)[0][0]
    if isinstance(cell, QuadrixError):
        raise cell
    return cell
