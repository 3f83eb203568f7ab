"""Section area, cap volume and lateral surface area of convex caps.

The three measures of the cap cut from M_k by the plane at normal distance
t from a base point p are integrals over the star-shaped (in fact convex)
section S of that plane, in the tangent-plane coordinates y of p:

    area    = integral of 1,
    volume  = integral of (t - w(y)),
    lateral = integral of sqrt(1 + |grad w(y)|^2),

with w the chart height of M_k over y; the lateral integrand is read as
|grad g| / |<grad g, nu>| at the surface point, the same number, as the
frame and nu are orthonormal.  On a "minus" family with k > 0 the cap is
sliced along z instead (Cavalieri): there z^alpha = k + f(x) gives
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

Cells are solved together, whatever their levels (starred_cells, which
characterize.evaluate_cells and classify read): one
surface.parallel_tangents Newton loop for all tangencies, then one
boundary solve and one ray pass over the rays of all the cells, each lane
on its own point's chart and level.  These run in blocks of at most
_LANE_BUDGET chart points, each block reduced to per-ray sums before the
next, so the working memory does not grow with the order or the number of
cells; a boundary block takes half as many directions, as its checks
evaluate two points per direction.  A pass holds about 64 + 16 n bytes
per ray of each cell (_GROUP_BYTES bounds it).  A block is a run of
consecutive rays of the cells, in cell order, cut wherever the budget
falls: it may end inside one cell and start inside the next
(LocalChart.joined).  Every sum over a lane's row has one fixed order per
lane.  A point's direction geometry (LocalChart.rays) is one product over
its whole sphere rule, which every block slices, the K15 and G7 sums over a
ray's nodes are einsum contractions, and every other step is elementwise.
No reduction crosses lanes, so a cell has the same bits however its rays
are cut, alone or in any table; starred_measures and cap_measures are
one-cell calls of the same pass.  A cell takes chords only if f >= 0 at
every one of its nodes: once a block finds f < 0 at one, the cell's later
rays are skipped and it goes back to the chart heights, from its first ray.
The radial nodes lie strictly inside the section, so every height
converges; a block whose height solve fails raises its RegionError,
counting that block's points.  A failing call is solved again in halves
(_each), down to the failing cell, which then gets its own message; a
failing boundary solve re-solves only boundaries, and the other cells go
on to one ray pass.
The error estimate is the larger of the gap to the sphere rule of order m - 2,
solved in the same calls, and the radial gap |K15 - G7| of the embedded
Gauss rule.  Partial sums reduce in a fixed order, so results are
bit-stable.

Under glibc, importing this module fixes malloc's mmap and trim thresholds
at 32 and 64 MiB (_keep_freed_heap), so the memory a block frees stays
mapped for the next block and the next call instead of being faulted in
again.  The process keeps up to 64 MiB of freed heap; peak RSS does not
change.
"""

from __future__ import annotations

import ctypes
import operator
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ._grids import DEFAULT_ORDER, radial_nodes, sphere_rule
from .errors import QuadrixError
from .funcspec import eval_value_grad, eval_values
from .surface import ChartRays, LevelFamily, LocalChart, SurfacePoint, _by_lane, _cat, parallel_tangents

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
_GROUP_BYTES = 40 << 20  # what one pass holds for its cells' rays (starred_cells): tens of MiB


def _keep_freed_heap() -> None:
    """Fix glibc's malloc thresholds, so that the memory a block frees stays mapped.

    By default glibc mmaps each array above 128 KiB afresh, until its dynamic
    threshold has grown past it, and trims the heap top on free, so every
    block of _LANE_BUDGET chart points faults its working set in again.  32
    and 64 MiB are the limits the dynamic thresholds grow towards.  Without
    glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()


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


def _chart_directions(points: list[SurfacePoint], nodes: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Chart directions L^{-T} e for unit sphere nodes e, where S = L L^T at each point.

    One stacked Cholesky factorization and one stacked solve, the nodes
    broadcast, serve all the points; LAPACK solves each point's matrix as
    it would alone, so the bits are those of one-point calls.  Returns per
    point its directions, shape (N, n), the transpose of its own contiguous
    block (the strides of a one-point solve, so every product over them
    keeps its bits), with the Jacobian 1 / sqrt(det S) of the map.
    """
    L = np.linalg.cholesky(np.array([p.second_form for p in points]))
    # b as a stack of one matrix: numpy 1.x would read a 2-D b as a stack of vectors
    U = np.linalg.solve(L.transpose(0, 2, 1), nodes.T[None])
    return [(u.T, 1.0 / float(np.prod(np.diag(l)))) for u, l in zip(U, L)]


def _radial_cells(family: LevelFamily, cells: list, settings: QuadratureSettings,
                  want: tuple[str, ...]) -> list[dict[str, MeasureResult] | QuadrixError]:
    """The wanted measures of the cap of every (p, t) cell, solved together.

    Each point's chart, its chart directions and their ChartRays are built
    once, the directions of all the points in one stacked solve
    (_chart_directions).  Every lane of every cell then goes through one
    boundary solve and one ray pass, each over the cells' rays in cell
    order, cut into blocks of at most _LANE_BUDGET chart points wherever
    the budget falls.
    Every sum over a lane's row has a fixed order per lane: ChartRays are
    products over a point's whole rule, and the K15 and G7 sums are einsum
    contractions, never a BLAS product of a block.  So a cell has the bits
    it has alone however its rays are cut.  A cell whose boundary solve
    fails gets, in place of its measures, the error its one-cell call
    raises: a failing boundary call is solved again in halves (_each), down
    to that cell, and the ray pass skips it.  A failure in the ray pass
    raises for the whole call.
    """
    n = family.n
    sphere, w_fine, w_coarse, (nodes, kronrod, gap_rule) = _rules(n, settings.order_for(n))
    m, split = len(sphere), len(w_fine)
    unique = list({id(p): p for p, _ in cells}.values())
    points = {}  # per point: its chart, chart directions with their Jacobian, and their ChartRays
    for p, (U, jac) in zip(unique, _chart_directions(unique, sphere)):
        chart = LocalChart(family, p)
        points[id(p)] = chart, U, jac, chart.rays(U)
    at = [points[id(p)] for p, _ in cells]
    ts = [t for _, t in cells]

    def piece(c: int, a: int, b: int):  # cell c's rays a..b: chart, t, chart directions, ChartRays
        chart, U, _, geometry = at[c]
        return chart, ts[c], U[a:b], geometry.take(slice(a, b))

    rho = [np.empty(m) for _ in cells]

    def boundaries(group: list[int]) -> list[None]:
        # the boundary checks evaluate two chart points per direction
        for block in _blocks(group, m, max(1, _LANE_BUDGET // 2)):
            charts, t, U, geometry = zip(*(piece(*cut) for cut in block))
            counts = [len(u) for u in U]
            radii = LocalChart.joined(charts, counts).boundary_radius(  # no name keeps the joined chart
                _cat(U, axis=0), _by_lane(t, counts), ChartRays.join(geometry))
            for (c, a, b), lanes in zip(block, _cuts(counts)):
                rho[c][a:b] = radii[lanes]
        return [None] * len(group)

    out: list = _each(boundaries, list(range(len(cells))))  # None where the radii were solved
    live = [c for c, failed in enumerate(out) if failed is None]
    for c in live:
        out[c] = {}

    def finish(c: int, per_dir: np.ndarray, samples: int, radial_err: float = 0.0) -> MeasureResult:
        jac = at[c][2]
        total = jac * float(w_fine @ per_dir[:split])
        err = abs(total - jac * float(w_coarse @ per_dir[split:]))
        err = max(err, radial_err, _ERR_FLOOR * abs(total))
        return MeasureResult(total, err, samples)

    if "area" in want:
        for c in live:
            out[c]["area"] = finish(c, rho[c] ** n / n, m)

    along_rays = [name for name in ("volume", "lateral") if name in want]
    if along_rays:
        sums = {c: {name: (np.empty(m), np.empty(split)) for name in along_rays} for c in live}

        def ray_pass(todo: list[int], integrands) -> set[int]:
            # per ray the K15 sum, and per ray of the order-m rule the K15 - G7
            # sum; returns the cells whose integrands declined a piece, whose
            # later rays are then skipped
            declined: set[int] = set()

            def reduce_block(block):  # its arrays die at return, before the next block's exist
                args = [(*piece(c, a, b), rho[c][a:b, None] * nodes) for c, a, b in block]
                for (c, a, b), (*_, radii), vals in zip(block, args, integrands(args)):
                    if vals is None:
                        declined.add(c)
                        continue
                    rpow = radii ** (n - 1)
                    fine = slice(a, max(a, min(b, split)))  # the rays of the order-m rule
                    for name, (kronrod_sums, gap_sums) in sums[c].items():
                        # einsum sums each row in one order whatever the row count; BLAS does not
                        f = vals[name].reshape(b - a, -1) * rpow
                        kronrod_sums[a:b] = rho[c][a:b] * np.einsum("ij,j->i", f, kronrod)
                        gap_sums[fine] = rho[c][fine] * np.einsum("ij,j->i", f[:fine.stop - a], gap_rule)

            for block in _blocks(todo, m, max(1, _LANE_BUDGET // nodes.size), declined):
                reduce_block(block)
            return declined

        def heights(args):
            charts, t, U, geometry, radii = zip(*args)
            counts, sizes = [len(u) for u in U], [r.size for r in radii]
            w = LocalChart.joined(charts, counts).height(
                _cat(U, axis=0), _by_lane(t, counts), _cat(radii, axis=0), ChartRays.join(geometry),
                lateral="lateral" in want)  # the nodes lie strictly inside the region
            values = {}
            if "lateral" in want:  # |grad g| / |<grad g, nu>| = sqrt(1 + |grad w|^2)
                w, values["lateral"] = w
            if "volume" in want:
                values["volume"] = _by_lane(t, sizes) - w
            return [{name: v[lanes] for name, v in values.items()} for lanes in _cuts(sizes)]

        chords = [c for c in live if family.sign == "minus" and cells[c][0].k > 0]
        sliced = set(chords) - ray_pass(chords, _vertical_chords(family, want))
        ray_pass([c for c in live if c not in sliced], heights)
        samples = m * nodes.size
        for c in live:
            for name, (kronrod_sums, gap_sums) in sums[c].items():
                # the two sphere orders share the radial rule, so their gap is
                # blind to radial truncation: fold in the K15 - G7 difference too
                radial_err = abs(at[c][2] * float(w_fine @ gap_sums))
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


def _blocks(cells, m: int, size: int, skip=()):
    """The rays 0..m of each cell, in cell order, cut into blocks of at most
    size rays: lists of (cell, a, b), the rays a..b of one cell each.  A cell
    in skip, which may grow between blocks, is left out from there on."""
    block, room = [], size
    for c in cells:
        a = 0
        while a < m and c not in skip:
            b = min(m, a + room)
            block.append((c, a, b))
            room, a = room - (b - a), b
            if not room:
                yield block
                block, room = [], size
    if block:
        yield block


def _cuts(counts: list) -> list[slice]:
    """The lanes of each of the runs of counts[i] lanes that a block joins."""
    return [slice(hi - count, hi) for count, hi in zip(counts, accumulate(counts))]


def _vertical_chords(family: LevelFamily, want: tuple[str, ...]):
    """Volume and lateral integrands at section points, read off vertical chords.

    On a "minus" family with k > 0 the cap over a section point q is the
    chord from q to s = (q_x, Z(q_x)), where Z^alpha = k + f(q_x) >= k when
    f(q_x) >= 0.  Per unit of section area the cap then has volume
    |nu_z| |q_z - Z| and lateral area |nu_z| |grad g(s)| / |g_z(s)|: no
    height solve.  The returned block function takes pieces (chart, t,
    directions, their ChartRays, radii) and evaluates f at all of their
    points at once; it gives each piece's values, or None where f < 0 at
    one of its points, so that cell goes back to the chart heights.  The
    volume needs f's values alone, which it reads with the value seed
    (funcspec.eval_values), one coordinate row at a time: no derivative of
    f is taken.  The lateral area needs grad f, from eval_value_grad.
    """
    n, alpha = family.n, family.alpha

    def chords(args):
        rays_per = [len(U) for _, _, U, *_ in args]
        # per ray: the section center, x velocity, z velocity, |nu_z| and k
        center = _by_lane([chart.origin + t * chart.normal for chart, t, *_ in args], rays_per)
        dX = _cat([geometry.dX for *_, geometry, _ in args])
        radii = _cat([radii for *_, radii in args], axis=0)
        if "lateral" in want:  # the points lane-last, so each coordinate is one contiguous row
            X = radii * dX[:, :, None]
            X += center.T[:n, :, None]
            fv, fg = eval_value_grad(family.f, X.reshape(n, -1).T)
            del X
        else:
            def row(i):
                x = radii * dX[i, :, None]
                x += center[:, i, None]
                return x.ravel()
            fv = eval_values(family.f, row, radii.size)
        points = [count * radii.shape[1] for count in rays_per]
        keep = [np.all(fv[lanes] >= 0.0) for lanes in _cuts(points)]
        values = {}  # computed in place where it can be: a block is up to 2^14 points
        with np.errstate(invalid="ignore", divide="ignore"):  # declined pieces may have f < 0
            zpow = fv
            zpow += _by_lane([chart.k for chart, *_ in args], points)  # Z^alpha
            Z = zpow ** (1.0 / alpha)
            nu_z = _by_lane([abs(chart.normal[n]) for chart, *_ in args], points)
            if "volume" in want:  # nu_z |q_z - Z|
                volume = radii * _cat([geometry.dZ for *_, geometry, _ in args])[:, None]
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
        return [{name: v[lanes] for name, v in values.items()} if ok else None
                for ok, lanes in zip(keep, _cuts(points))]

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
    """A cell's CapMeasures from its measures."""
    return CapMeasures(out.get("area"), out.get("volume"), out.get("lateral"), t)


def _warn_targets(cells: list) -> None:
    """Warn, cell by cell, for each measure whose estimate misses the target;
    a failed cell has none.  Each warning names the line that called the caller."""
    for cell in cells:
        if not isinstance(cell, CapMeasures):
            continue
        for name in _MEASURES:
            res = getattr(cell, name)
            if res is not None and res.value and res.error_estimate > _TARGET * abs(res.value):
                rel = res.error_estimate / abs(res.value)
                warnings.warn(
                    f"{name} relative error estimate {rel:.2e} exceeds the target "
                    f"{_TARGET:.0e}; increase the quadrature order",
                    stacklevel=3,
                )


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
    (out,) = _radial_cells(family, [(p, t)], settings or DEFAULT_SETTINGS, want)
    if isinstance(out, QuadrixError):
        raise out
    cap = _cap(out, t)
    _warn_targets([cap])
    return cap


def starred_cells(family: LevelFamily, cells, settings: QuadratureSettings | None = None,
                  want: tuple[str, ...] = _MEASURES) -> list[CapMeasures | QuadrixError]:
    """starred_measures of every (point, offset) cell, of any levels, solved together.

    All tangencies are one parallel_tangents call, and all caps one
    boundary solve and one ray pass, in groups of at most _GROUP_BYTES of
    what a pass holds.  Returns per cell its CapMeasures, or the
    QuadrixError it raised: the one its starred_measures call raises, as
    every cell has the bits it has alone.  Nothing warns here: callers pass
    the cells to _warn_targets.
    """
    _check_want(want)
    settings = settings or DEFAULT_SETTINGS
    n = family.n
    rays = len(_rules(n, settings.order_for(n))[0])
    cells = list(cells)
    out = _each(lambda group: parallel_tangents(family, group), cells)
    solved = [i for i, res in enumerate(out) if not isinstance(res, QuadrixError)]
    # per ray, a pass holds each cell's radius and per-ray sums (40 bytes)
    # and its point's chart direction (8 n) and ChartRays (8 (n + 3))
    size = max(1, _GROUP_BYTES // (rays * (40 + 8 * n + 8 * (n + 3))))
    for a in range(0, len(solved), size):
        group = solved[a:a + size]
        caps = _each(lambda part: _radial_cells(family, part, settings, want),
                     [(cells[i][0], out[i].t) for i in group])
        for i, cap in zip(group, caps):
            out[i] = cap if isinstance(cap, QuadrixError) else _cap(cap, out[i].t)
    return out


def starred_measures(family: LevelFamily, p: SurfacePoint, h: float,
                     settings: QuadratureSettings | None = None,
                     want: tuple[str, ...] = _MEASURES) -> CapMeasures:
    """cap_measures at the distance t of the parallel tangent plane of M_{k+h}:
    the one-cell call of starred_cells."""
    (cell,) = starred_cells(family, [(p, h)], settings, want)
    if isinstance(cell, QuadrixError):
        raise cell
    _warn_targets([cell])
    return cell
