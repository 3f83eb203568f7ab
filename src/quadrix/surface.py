"""Implicit geometry of the level sets of g(x, z) = z^alpha -/+ f(x), z > 0.

A level set M_c = {g = c} is the graph z = Z_c(x) of one branch, treated as
a strictly convex hypersurface in R^{n+1}.  One graph jet, Z_c with its
gradient and Hessian, is evaluated and lifted once per point: the lift
computes the second fundamental form toward the convex side (read by the
Cholesky convexity certificate, the normal orientation, K = det(form) and
the invariant K |grad g|^{n+2}).  _lifts lifts many (level, x) points as
one batch: one batch of jets, then stacked products, one stacked QR for
the frames and one stacked Cholesky for the certificates, so each point
has the bits and the error of its own call, point_on_level.
parallel_tangents, matching the slopes of M_k and M_{k+h}, lifts the jets
its Newton loop converged on, all cells at once.  That loop takes (point,
offset) cells of any levels as lanes: one batch of graph jets and one
stacked solve per step, with per-lane halving; z, g_z and g_zz are Python
float arithmetic per lane, so a cell's iterates have the same bits in any
batch.  parallel_tangent is its one-cell call.

Every solve starts from g's second-order model at the base point p,
g(p + v) ~ k + grad g . v + v^T H v / 2 with H = blockdiag(sf Hess f, g_zz),
built from what the SurfacePoint holds.  On the normal forms, where g is a
quadratic polynomial in (x, z), the model is g itself, so a chart lane
converges at its first evaluation and a tangency at its start.

The tangent-plane chart serves the integration routines.  Both its solves,
heights and section boundary radii, run one vectorized safeguarded solver:
a per-lane bracket, guarded Newton steps, bisection when a step leaves the
bracket, iterating only the unconverged lanes.  A joined chart gives the
lanes of several points, of any levels, their own base points and levels,
so one solve serves many cells.  Each lane starts from the smallest
nonnegative root of the model along its line.  A boundary lane starts
unbounded above and grows its bracket inside the same loop; an off-branch
(NaN) residual bounds it like a positive one.  Every lane ends in a root
or a RegionError.  The residual reads f along each lane's line with one
forward tangent (funcspec.eval_line), so an iteration allocates nothing n
wide; the fold check reads its slope along the normal, and in the same
call the convexity check reads its value at twice the boundary radius.

Everything here is pure and operates on immutable inputs; the batched
chart solver is safe to call concurrently from several threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import BranchError, ConvexityError, EvaluationError, QuadrixError, RegionError, TangencyError
from .funcspec import FunctionSpec, Jet2, eval_jets, eval_line, eval_value_grad

__all__ = [
    "LevelFamily",
    "SurfacePoint",
    "TangencyResult",
    "point_on_level",
    "gauss_kronecker",
    "curvature_invariant",
    "parallel_tangent",
    "parallel_tangents",
    "LocalChart",
]

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50
CHART_MAXITER = 100
_GROW_FACTOR = 1.6
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}  # NaN and inf flag off-branch lanes


@dataclass(frozen=True)
class LevelFamily:
    """The ambient function g(x, z) = z^alpha + sign * f(x) on the z > 0 branch.

    sign is "minus" (g = z^alpha - f) or "plus" (g = z^alpha + f).
    """

    f: FunctionSpec
    alpha: float
    sign: str = "minus"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha != 0):
            raise ValueError(f"alpha must be finite and nonzero, got {self.alpha!r}")
        if self.sign not in ("minus", "plus"):
            raise ValueError("sign must be 'minus' or 'plus'")

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def sf(self) -> float:
        """Sign with which f enters g: -1 for 'minus', +1 for 'plus'."""
        return -1.0 if self.sign == "minus" else 1.0

    def _zpow(self, z: np.ndarray, expo: float) -> np.ndarray:
        """z**expo, expo alpha or alpha - 1; NaN marks off-branch points."""
        with np.errstate(**_QUIET):
            return self._on_branch(z) ** expo

    def _on_branch(self, z: np.ndarray) -> np.ndarray:
        """z, NaN where z^alpha is off the branch: z <= 0 unless z^alpha is a
        polynomial (positive integer alpha), defined at every z."""
        z = np.asarray(z, dtype=float)
        if not (self.alpha > 0 and float(self.alpha).is_integer()):
            z = np.where(z > 0, z, np.nan)
        return z

    def solve_z(self, k: float, fval: float) -> float:
        """The real branch solution of g(x, z) = k given f(x).

        Positive odd integer alpha has a unique real root (alpha = 1 level
        sets are global graphs and may dip through z = 0).  Every other alpha
        uses the positive branch z > 0: for negative odd alpha the real root
        of a negative z^alpha lies on the sheet past the pole.
        """
        base = k - self.sf * fval  # z^alpha
        alpha = float(self.alpha)
        if alpha > 0 and alpha.is_integer() and int(alpha) % 2 == 1:
            return float(np.sign(base) * abs(base) ** (1.0 / alpha))
        if not base > 0:  # NaN too
            raise BranchError(
                f"no z > 0 branch at level k={k}: z^alpha would be {base:.6g}"
            )
        try:
            return float(base ** (1.0 / self.alpha))
        except OverflowError:  # e.g. a small alpha: z is beyond the floats
            raise BranchError(
                f"no finite z at level k={k}: z^alpha = {base:.6g} with alpha = {self.alpha:g}"
            ) from None


@dataclass(frozen=True)
class SurfacePoint:
    """A point p = (x, z) on M_k with cached gradient, normal and tangent frame.

    normal points to the convex side; frame columns are an orthonormal basis
    of the tangent space.  second_form is the second fundamental form of M_k
    toward normal in frame coordinates, -(frame^T Hess g frame) / <grad g,
    normal>; point_on_level has certified it positive definite.
    """

    x: np.ndarray
    z: float
    k: float
    grad_g: np.ndarray
    normal: np.ndarray
    frame: np.ndarray
    f_jet: Jet2
    second_form: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def ambient(self) -> np.ndarray:
        return np.concatenate([self.x, [self.z]])

    @property
    def grad_norm(self) -> float:
        return float(np.linalg.norm(self.grad_g))

    @property
    def offset_sign(self) -> float:
        """Direction of admissible level offsets: sign of <grad g, normal>."""
        return 1.0 if self.grad_g @ self.normal > 0 else -1.0


def _is_positive_definite(m: np.ndarray) -> bool:
    """Cholesky's certificate; numpy factors a non-finite m to NaN without raising."""
    try:
        np.linalg.cholesky(m)
        return bool(np.isfinite(m).all())
    except np.linalg.LinAlgError:
        return False


def _positive_definite(forms: np.ndarray) -> np.ndarray:
    """_is_positive_definite of each matrix of a stack: one stacked Cholesky,
    and one per matrix only when the stack raises."""
    try:
        np.linalg.cholesky(forms)
    except np.linalg.LinAlgError:
        return np.array([_is_positive_definite(m) for m in forms], dtype=bool)
    return np.isfinite(forms).all(axis=(1, 2))


def _complete_frames(normals: np.ndarray) -> np.ndarray:
    """Orthonormal bases (M, d, d - 1) of the hyperplanes orthogonal to unit vectors (M, d).

    Each is Q's last d - 1 columns in the QR factorization of [normal, e_j
    for j != pivot], pivot the axis most aligned with the normal, taken
    first so that QR keeps full rank.  The stacked QR gives each matrix the
    bits its own factorization gives.
    """
    m, d = normals.shape
    lanes, pivot = np.arange(m), np.argmax(np.abs(normals), axis=1)
    basis = np.zeros((m, d, d))
    basis[:, :, 1:] = np.eye(d)[:, 1:]
    basis[lanes, pivot, pivot] = 0.0  # column pivot holds e_0 instead
    basis[lanes, 0, pivot] = 1.0
    basis[:, :, 0] = normals  # over what pivot 0 wrote there
    q, _ = np.linalg.qr(basis)
    return q[:, :, 1:]


def _branch(family: LevelFamily, c: float, fval: float) -> tuple[float, float, float]:
    """z, g_z and g_zz where f = fval on the branch of M_c, in Python floats; BranchError off it."""
    z = family.solve_z(c, fval)
    a = family.alpha
    try:
        gz = a * z ** (a - 1.0)
        gzz = 0.0 if a == 1.0 else a * (a - 1.0) * z ** (a - 2.0)  # z may be 0 when a == 1
    except (ZeroDivisionError, OverflowError):  # a small alpha: z is 0 or z^(a-2) overflows
        gz = gzz = math.inf
    return z, gz, gzz


class _GraphJets(NamedTuple):
    """M_c near each of M points x as the graph z = Z(x) of its branch (z > 0
    unless alpha is odd), to second order, lane-first; finite marks the
    lanes where it exists."""

    value: np.ndarray  # f, (M,)
    gradient: np.ndarray  # grad f, (M, n)
    f_hessian: np.ndarray  # Hess f, (M, n, n)
    z: np.ndarray
    gz: np.ndarray  # g_z = alpha z^(alpha-1)
    slope: np.ndarray  # grad Z = -sf grad f / g_z
    hessian: np.ndarray  # Hess Z = -(sf Hess f + g_zz grad Z grad Z^T) / g_z
    finite: np.ndarray

    def take(self, sel) -> _GraphJets:
        return _GraphJets(*(a[sel] for a in self))

    def put(self, at, new: _GraphJets, sel) -> _GraphJets:
        """A copy with lanes at replaced by the lanes sel of new."""
        out = _GraphJets(*(a.copy() for a in self))
        for dst, src in zip(out, new):
            dst[at] = src[sel]
        return out


def _graph_jets(family: LevelFamily, c, X: np.ndarray) -> _GraphJets:
    """The graph jets of the branches of M_{c_i} over the rows x_i of X.

    f's jets are one batch; z, g_z and g_zz are Python float arithmetic
    per lane (numpy's array power can differ from it in the last bit), so
    a lane's jet has the same bits in any batch.  A lane is finite unless
    it is off the branch, g_z is 0, or z or a derivative is beyond the floats.
    Callers evaluate it under np.errstate(**_QUIET).
    """
    vals, grads, hess = eval_jets(family.f, X)
    branches, finite = [], []
    for ci, fval in zip(c, vals.tolist()):
        try:
            branch = _branch(family, ci, fval)
        except BranchError:
            branch = (math.nan,) * 3
        branches.append(branch)
        finite.append(branch[1] != 0 and all(map(math.isfinite, branch)))
    z, gz, gzz = np.array(branches).T
    slope = -family.sf * grads / gz[:, None]
    hessian = -(family.sf * hess + gzz[:, None, None] * (slope[:, :, None] * slope[:, None, :]))
    hessian /= gz[:, None, None]
    # a non-finite slope makes the Hessian non-finite too, through its square
    finite = np.array(finite) & np.isfinite(hessian.reshape(len(gz), -1)).all(axis=1)
    return _GraphJets(vals, grads, hess, z, gz, slope, hessian, finite)


def point_on_level(family: LevelFamily, k: float, x: np.ndarray) -> SurfacePoint:
    """Lift x to the z > 0 branch of M_k and certify convexity there.

    The second fundamental form toward the upward graph normal is
    A^T Hess Z A / sqrt(1 + |grad Z|^2), A the x-rows of the frame; the convex
    side is the orientation that makes it positive definite (Cholesky
    certificate), and an indefinite form raises ConvexityError.  The
    one-point call of _lifts.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    (p,) = _lifts(family, [k], x[None, :])
    if isinstance(p, QuadrixError):
        raise p
    return p


def _lifts(family: LevelFamily, ks: list, X: np.ndarray) -> list:
    """point_on_level at every level ks[i] and point X[i], in one batch.

    Returns each lane's SurfacePoint, or the QuadrixError its one-point call
    raises: a BranchError off the branch, where g_z is 0, or where z or a
    derivative is beyond the floats, and a ConvexityError where the form is
    indefinite.  f's jets are one batch; an EvaluationError, which f raises
    for a whole batch, sends each lane through its own call.
    """
    try:
        with np.errstate(**_QUIET):
            jets = _graph_jets(family, ks, X)
    except EvaluationError as exc:
        if len(ks) == 1:
            return [exc]
        return [lift for i in range(len(ks)) for lift in _lifts(family, ks[i:i + 1], X[i:i + 1])]
    if jets.finite.all():
        return _lift(family, ks, X, jets)
    out: list = [None] * len(ks)
    for i in np.flatnonzero(~jets.finite).tolist():
        try:
            z, _, _ = _branch(family, ks[i], float(jets.value[i]))  # raises off the branch
            out[i] = BranchError(f"no finite graph jet at level k={ks[i]}: z = {z:.6g} "
                                 f"with alpha = {family.alpha:g}")
        except BranchError as exc:
            out[i] = exc
    good = np.flatnonzero(jets.finite)
    for i, p in zip(good.tolist(), _lift(family, [ks[i] for i in good], X[good], jets.take(good))):
        out[i] = p
    return out


def _lift(family: LevelFamily, ks: list, X: np.ndarray, jets: _GraphJets) -> list:
    """The points of M_{ks[i]} over X[i] from their finite graph jets, as
    point_on_level describes: each a SurfacePoint or a ConvexityError.

    Stacked products, QR and Cholesky give every lane the bits its own
    call gives.  The convex side is read off the sign of form[0, 0], the
    only orientation that can be positive definite.  Every lane's rows are
    contiguous, as in a one-point batch: numpy's dot sums a strided vector
    in another order.
    """
    m, n = jets.slope.shape
    slope, hessian = np.ascontiguousarray(jets.slope), np.ascontiguousarray(jets.hessian)
    grad_g, up = np.empty((m, n + 1)), np.empty((m, n + 1))
    np.multiply(jets.gradient, family.sf, out=grad_g[:, :n])
    grad_g[:, n] = jets.gz
    lift = np.sqrt(1.0 + (slope[:, None, :] @ slope[:, :, None])[:, 0, 0])
    np.negative(slope, out=up[:, :n])
    up[:, n] = 1.0
    up /= lift[:, None]
    frames = _complete_frames(up)  # the same basis for up and -up
    A = frames[:, :-1]
    form = A.transpose(0, 2, 1) @ hessian @ A
    form /= lift[:, None, None]
    side = np.copysign(1.0, form[:, 0, 0])
    form *= side[:, None, None]
    up *= side[:, None]
    convex = _positive_definite(form)
    f_grad, f_hess = np.ascontiguousarray(jets.gradient), np.ascontiguousarray(jets.f_hessian)
    out = []
    for i in range(m):
        if convex[i]:
            out.append(SurfacePoint(x=X[i], z=float(jets.z[i]), k=ks[i], grad_g=grad_g[i], normal=up[i],
                                    frame=frames[i], f_jet=Jet2(float(jets.value[i]), f_grad[i], f_hess[i]),
                                    second_form=form[i]))
        else:
            out.append(ConvexityError(f"indefinite shape operator at x={X[i].tolist()}, k={ks[i]}: "
                                      "surface not strictly convex there"))
    return out


def gauss_kronecker(family: LevelFamily, p: SurfacePoint) -> float:
    """Gauss-Kronecker curvature of M_k at p toward the convex side: det of the second form."""
    det = float(np.linalg.det(p.second_form))
    if det <= 0:
        raise ConvexityError(f"nonpositive curvature at x={p.x.tolist()}: convexity fails")
    return det


def curvature_invariant(family: LevelFamily, p: SurfacePoint) -> float:
    """The scalar K(p) |grad g(p)|^{n+2}, constant on M_k exactly for quadrics."""
    return gauss_kronecker(family, p) * p.grad_norm ** (p.n + 2)


# ---------------------------------------------------------------------------
# Tangent-plane chart
# ---------------------------------------------------------------------------


class ChartRays(NamedTuple):
    """The geometry of M chart directions u, lane-last, each on its point's
    chart: a node r u takes its base point and model terms from it and r."""

    dX: np.ndarray  # frame[:n] @ u, (n, M)
    dZ: np.ndarray  # frame[n] . u, (M,)
    taylor: np.ndarray  # the Taylor height u^T S u / 2 of the second form S, (M,)
    beta: np.ndarray  # u . beta, (M,)

    def take(self, lanes: slice) -> ChartRays:
        return ChartRays(*(a[..., lanes] for a in self))

    @staticmethod
    def join(parts: list) -> ChartRays:
        return ChartRays(*(_cat(list(a)) for a in zip(*parts)))


class LocalChart:
    """Graph coordinates of M_k over the tangent plane at p.

    Chart points are q(y, tau) = p + frame @ y + tau * normal; the surface
    height w(y) >= 0 solves g(q(y, w)) = k.  Heights and section boundary
    radii are roots along a line per lane, found by _safeguarded_roots from
    the root of g's second-order model at p along that line (beta and gamma
    are computed once per chart); a lane where the model has no such root
    starts from the osculating quadric of the height instead.  Every cap
    needs the boundary radii; the heights serve the caps the measures
    cannot slice along z, which are those of "plus" families and of cells
    where f < 0 at a radial node (measure._vertical_chords).  Heights are
    solved only inside a section: a lane above its plane, or whose line
    leaves the graph region (the chart fold) first, raises RegionError
    instead of silently switching branches, and so does a section that
    crosses the fold or is not convex.

    Both solves take chart directions u.  A height lane is a node r u on
    one, whose base point and model terms follow from r and the direction's
    ChartRays (LocalChart.rays): no per-node product with the frame or the
    second form.  Chart offsets y are the nodes at radius 1.

    LocalChart.joined puts the charts of several points side by side,
    whatever their levels: its lanes come in runs of directions, each run on
    one point's plane and level, and t may be one value per direction, so
    one call solves the lanes of many cells.  A joined chart takes its
    directions' ChartRays from the caller, each computed on its own point's
    chart by rays; past that every step is elementwise per lane, with the
    lane's own k and tolerance, so a lane's root and lateral integrand do
    not depend on the other lanes or on how they were cut into calls.  A
    chart keeps no solver state, so threads may share it.
    """

    def __init__(self, family: LevelFamily, p: SurfacePoint):
        self.family = family
        self.p = p
        self.origin = p.ambient
        self.normal = p.normal
        self.frame = p.frame
        self.k = p.k
        self.second_form = p.second_form
        self._scale = 1.0 + abs(self.k)
        self._runs, self._signs = ((self, None),), p.offset_sign
        self._normals = self._per_lane([self.normal])  # lane-last, one column shared by every lane
        # g's second-order model at p along the chart, per unit of <grad g,
        # normal>: beta = frame^T H normal and gamma = normal^T H normal / 2
        with np.errstate(**_QUIET):  # an infinite g_zz makes them NaN: _first_root falls back
            Hn = np.append(family.sf * (p.f_jet.hessian @ p.normal[:-1]),
                           _g_zz(family, p) * p.normal[-1])
            Hn /= p.grad_g @ p.normal
            self._beta, self._gamma = p.frame.T @ Hn, 0.5 * float(p.normal @ Hn)

    @classmethod
    def joined(cls, charts, counts) -> LocalChart:
        """The charts of points of one family side by side, counts[i] directions
        on charts[i]; the points may lie on different levels, and k and the
        solves' tolerance scale 1 + |k| become one value per direction."""
        if len(charts) == 1:
            return charts[0]
        first = charts[0]
        if any(c.family is not first.family for c in charts):
            raise ValueError("joined charts must share one family")
        chart = cls.__new__(cls)
        chart.family = first.family
        chart.k = np.repeat([c.k for c in charts], counts)
        chart._scale = np.repeat([c._scale for c in charts], counts)
        chart.p = chart.origin = chart.normal = chart.frame = chart.second_form = None
        chart._runs = tuple(zip(charts, counts))
        chart._normals = chart._per_lane([c.normal for c in charts])
        chart._signs = np.repeat([c._signs for c in charts], counts)
        chart._gamma = np.repeat([c._gamma for c in charts], counts)
        return chart

    def _per_lane(self, columns: list) -> np.ndarray:
        """One column per run, lane-last."""
        return _by_lane(np.stack(columns, axis=1), [count for _, count in self._runs], axis=1)

    def _line_residual(self, X0, Z0, dX, dZ, s, level, idx, tau):
        """s * (g - level) and its tau-derivative at (X0 + tau dX, Z0 + tau dZ).

        Lane-last: X0 and dX are (n, M) or (n, 1), Z0, dZ, the sign s and
        the level (M,), (1,) or scalars; the lanes idx are evaluated, at tau
        of shape (idx.size,), taking their rows one coordinate at a time.
        NaN flags off-branch points; callers evaluate under
        np.errstate(**_QUIET).
        """
        fam = self.family

        def row(i):
            d = _lanes(dX[i], idx)
            x = d * tau
            x += _lanes(X0[i], idx)
            return x, d

        res, slope = eval_line(fam.f, row, tau.size)
        dZ = _lanes(dZ, idx)
        Z = dZ * tau
        Z += _lanes(Z0, idx)
        s = _lanes(s, idx)
        # s (z^alpha + sf f - k) and s (sf f' + alpha z^(alpha-1) dZ), in place
        Z = fam._on_branch(Z)
        res *= fam.sf
        res += Z ** fam.alpha
        res -= _lanes(level, idx)
        res *= s
        slope *= fam.sf
        z_slope = Z ** (fam.alpha - 1.0)
        z_slope *= fam.alpha
        z_slope *= dZ
        slope += z_slope
        slope *= s
        return res, slope

    def rays(self, U: np.ndarray) -> ChartRays:
        """The geometry of chart directions U, shape (M, n), on this point's chart."""
        n = U.shape[1]
        return ChartRays(self.frame[:n] @ U.T, U @ self.frame[n],
                         0.5 * np.einsum("mi,mi->m", U @ self.second_form, U), U @ self._beta)

    def _base(self, rays: ChartRays, r: np.ndarray):
        """Chart points p + r frame @ u at the radii r, (M, K), along each
        direction u, lane-last: X of shape (n, M K) and Z of shape (M K,)."""
        n = rays.dX.shape[0]
        origins = self._per_lane([chart.origin for chart, _ in self._runs])  # per direction, or one for all
        X = rays.dX[:, :, None] * r
        X += origins[:n, :, None]
        Z = rays.dZ[:, None] * r
        Z += origins[n, :, None]
        return X.reshape(n, -1), Z.reshape(-1)

    def _grad_g(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """grad g = (sf grad f, alpha z^(alpha-1)) at lane-last points, one row
        per lane; column-major, as the gradients it is built from."""
        fam = self.family
        grad = np.empty((Z.size, X.shape[0] + 1), order="F")
        np.multiply(eval_value_grad(fam.f, X.T)[1], fam.sf, out=grad[:, :-1])
        np.multiply(fam._zpow(Z, fam.alpha - 1.0), fam.alpha, out=grad[:, -1])
        return grad

    def height(self, U: np.ndarray, t, radii=None, rays=None, lateral: bool = False):
        """Graph heights w below the section plane at t at the nodes r u of chart directions U.

        U is (M, n), and radii (M, K) holds K nodes along each direction;
        without radii each direction is one node at radius 1, so U holds
        chart offsets y.  t is one value or one per direction.  rays is U's
        geometry as LocalChart.rays gives it, computed when None; a joined
        chart needs it, each run's from its own point's chart.  A caller
        that solves a point's directions in blocks passes slices of one
        rays call, so that a node's base point and model terms do not depend
        on its block.  Returns w, shape (M K,), direction after direction.
        With lateral, returns (w, lateral) instead, the lateral integrand
        |grad g| / |<grad g, normal>| = sqrt(1 + |grad w|^2) at each solved
        point: one gradient of g there, summed coordinate by coordinate in
        each lane, on the base points the solve used.

        Every node must lie inside the section: its root lies in [0, t] up
        to a margin of 1e-9 (1 + |t|) for the boundary-radius tolerance, so
        the bracket is immediate and needs no evaluation at its top.  Every
        lane is solved from the model's root.  A lane that does not
        converge, whether above the plane, past the chart fold or stalled,
        raises RegionError naming the first such offset r u; no height is +inf.
        """
        U = np.atleast_2d(np.asarray(U, dtype=float))
        rays = self.rays(U) if rays is None else rays
        r = np.ones((len(U), 1)) if radii is None else radii
        m, k, n = r.size, r.shape[1], U.shape[1]
        X0, Z0 = self._base(rays, r)
        normals, signs, level = (_per_node(a, k) for a in (self._normals, self._signs, self.k))
        dX, dZ = normals[:n], normals[n]

        def residual(idx, tau):
            return self._line_residual(X0, Z0, dX, dZ, signs, level, idx, tau)

        # the model's g - k per unit of <grad g, normal> along the line is
        # gamma tau^2 + (1 + y . beta) tau - T, y = r u: T = r^2 (u^T S u / 2)
        T = r * r
        T *= rays.taylor[:, None]
        yb = r * rays.beta[:, None]
        yb += 1.0
        t = _per_node(np.asarray(t, dtype=float), k)
        hi = np.full(m, t + 1e-9 * (1.0 + abs(t)))
        guess = _first_root(_per_node(self._gamma, k), yb.reshape(-1), -T.reshape(-1), T.reshape(-1))
        tau, unconverged = _safeguarded_roots(residual, np.zeros(m), hi, guess,
                                              NEWTON_TOL * _per_node(self._scale, k))
        if unconverged.size:
            j = unconverged[0]
            raise RegionError(
                f"graph-height solve failed at chart offset y={(r.flat[j] * U[j // k]).tolist()} "
                f"({unconverged.size} of {m} points): region escapes the chart"
            )
        if not lateral:
            return tau
        X0 += dX * tau
        Z0 += dZ * tau
        grad = self._grad_g(X0, Z0)
        norm, dot, term = np.zeros(m), np.zeros(m), np.empty(m)
        for i in range(n + 1):  # elementwise, so a lane has the same bits in any block
            np.multiply(grad[:, i], grad[:, i], out=term)
            norm += term
            np.multiply(grad[:, i], normals[i], out=term)
            dot += term
        np.sqrt(norm, out=norm)
        norm /= np.abs(dot, out=dot)
        return tau, norm

    def gradient_at(self, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Exact chart gradient (M, n) of w at already-solved heights w(Y) on this point's
        chart, implicitly: -frame^T grad g / <grad g, normal>, grad g = (sf grad f,
        alpha z^(alpha-1)) at q(y, w)."""
        Y = np.atleast_2d(Y)
        n = Y.shape[1]
        X, Z = self._base(self.rays(Y), np.ones((len(Y), 1)))
        X += self._normals[:n] * w
        Z += self._normals[n] * w
        grad = self._grad_g(X, Z)  # the products sum in the order the column-major grad g fixes
        slope = grad @ self.frame
        np.negative(slope, out=slope)
        slope /= (grad @ self.normal)[:, None]
        return slope

    def boundary_radius(self, U: np.ndarray, t, rays=None) -> np.ndarray:
        """Radii rho with w(rho u) = t, solved on the section plane itself.

        U holds chart directions of any nonzero length, shape (M, n); rho is in
        units of each direction's length.  t and rays are as in height.  Each
        lane starts from the model's root with the bracket [0, +inf).  Raises RegionError when
        t exceeds the cap height, when a lane finds no upper bound (the
        region escapes the chart), ends bracketed against an off-branch top
        (the section reaches the edge of the z > 0 branch) or stalls, or when
        the section crosses the chart fold or is not convex.
        """
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m, n = U.shape
        starts = np.array([0, *accumulate(count for _, count in self._runs[:-1])])

        def t_at(lane):
            return float(np.broadcast_to(t, m)[lane])

        base = self._per_lane([chart.origin + t_at(a) * chart.normal
                               for (chart, _), a in zip(self._runs, starts)])
        X0, Z0 = base[:n], base[n]
        rays = self.rays(U) if rays is None else rays
        dX, dZ = rays.dX, rays.dZ
        s = -self._signs  # negated to increase in rho: positive outside the section

        def residual(idx, rho):
            return self._line_residual(X0, Z0, dX, dZ, s, self.k, idx, rho)

        # rho = 0 is the same point on every lane of a run
        with np.errstate(**_QUIET):
            res0, _ = residual(starts, np.zeros(starts.size))
        if not np.all(res0 < 0):
            lane = starts[np.argmin(res0 < 0)]
            raise RegionError(f"offset t={t_at(lane):.6g} is not below the cap top at this point")
        # the model's g - k per unit of -<grad g, normal> along the line is
        # T rho^2 - t (u . beta) rho - (t + gamma t^2)
        T, gamma = rays.taylor, self._gamma
        guess = _first_root(T, -(rays.beta * t), -(t + gamma * t * t), np.sqrt(t / T))
        hi = np.full(m, np.inf)  # the solve grows each lane's bracket from the guess
        rho, unconverged = _safeguarded_roots(residual, np.zeros(m), hi, guess, NEWTON_TOL * self._scale)
        if unconverged.size:
            lane = unconverged[0]
            if np.isinf(hi[unconverged]).any():
                lane = unconverged[np.argmax(np.isinf(hi[unconverged]))]
                raise RegionError(f"section boundary not found at t={t_at(lane):.6g}: "
                                  "region escapes the chart")
            with np.errstate(**_QUIET):
                res, _ = residual(unconverged, hi[unconverged])
            if np.isnan(res).any():  # bracketed against an off-branch top
                lane = unconverged[np.argmax(np.isnan(res))]
                raise RegionError(f"section at t={t_at(lane):.6g} reaches the edge of the z > 0 branch")
            raise RegionError(f"section boundary solve stalled at t={t_at(lane):.6g}")

        # one evaluation at rho and at 2 rho on every lane.  Fold check: the
        # surface is still a graph over the chart where offset_sign * dg/dnu > 0
        # at rho.  Convexity check: a line from the base point that has left a
        # convex section never comes back in, so no lane is inside (residual
        # > 0 here) at 2 rho; NaN, off the branch, is not inside
        points = np.empty((n + 1, 2 * m))  # base + r (dX, dZ) at r = rho, then 2 rho
        for half, r in ((slice(0, m), rho), (slice(m, 2 * m), 2.0 * rho)):
            np.multiply(dX, r, out=points[:n, half])
            points[:n, half] += X0
            np.multiply(dZ, r, out=points[n, half])
            points[n, half] += Z0
        with np.errstate(**_QUIET):
            res, slope = self._line_residual(points[:n], points[n], _twice(self._normals[:n]),
                                             _twice(self._normals[n]), _twice(self._signs),
                                             _twice(self.k), np.arange(2 * m), np.zeros(2 * m))
        if not np.all(slope[:m] > 0):
            raise RegionError(f"section at t={t_at(np.argmin(slope[:m] > 0)):.6g} crosses the chart fold")
        if np.any(res[m:] > 0):
            raise RegionError(f"section is not convex at t={t_at(np.argmax(res[m:] > 0)):.6g}")
        return rho


def _g_zz(family: LevelFamily, p: SurfacePoint) -> float:
    """g_zz = alpha (alpha - 1) z^(alpha - 2) at p: Hess g = blockdiag(sf Hess f, g_zz)."""
    return _branch(family, p.k, float(p.f_jet.value))[2]


def _first_root(a, b, c, fallback) -> np.ndarray:
    """The smallest nonnegative root of a x^2 + b x + c per lane; fallback where there is none.

    q = -(b + sign(b) sqrt(b^2 - 4 a c)) / 2 gives the roots q / a and c / q
    without cancellation; a = 0 leaves the linear root c / q = -c / b.
    """
    with np.errstate(**_QUIET):  # no real root, a = 0 and NaN coefficients
        q = np.sqrt(b * b - 4.0 * a * c)
        np.copysign(q, b, out=q)
        q += b
        q *= -0.5
        roots = np.stack(np.broadcast_arrays(q / a, c / q))
        roots[~((roots >= 0) & (roots < np.inf))] = np.inf
        root = roots.min(axis=0)
    return np.where(root < np.inf, root, fallback)


def _cat(parts: list, axis: int = -1) -> np.ndarray:
    """The parts joined along axis; one part is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _by_lane(values, counts: list, axis: int = 0) -> np.ndarray:
    """Values of runs, stacked along axis, repeated over each run's lanes;
    a single run keeps its one lane, which broadcasts."""
    values = np.asarray(values)
    return values if len(counts) == 1 else np.repeat(values, counts, axis=axis)


def _per_node(a, k: int):
    """A lane-last array of one value per direction for k nodes per direction;
    one value shared by every lane stays shared."""
    return a if k == 1 or np.ndim(a) == 0 or a.shape[-1] == 1 else np.repeat(a, k, axis=-1)


def _twice(a):
    """A lane-last array for the lanes repeated twice; one shared lane stays shared."""
    return a if np.ndim(a) == 0 or a.shape[-1] == 1 else np.concatenate([a, a], axis=-1)


def _lanes(a, idx: np.ndarray):
    """Lanes idx (sorted, distinct) of a lane-last array; no copy when that is
    all of them, or when a scalar or one-lane a is shared by every lane."""
    if np.ndim(a) == 0 or a.shape[-1] in (1, idx.size):
        return a
    return a.take(idx, axis=-1)


def _safeguarded_roots(residual, lo, hi, x0, tol):
    """Roots in [lo, hi] of residuals increasing in x, one per lane; hi may be +inf.

    residual(idx, x) gives the residual and its slope at the lanes idx, and
    tol is one value or one per lane.  From x0 clipped into the bracket,
    each iteration evaluates only the lanes not yet within their tol, and
    narrows lo and hi in place.
    A negative residual moves lo up to the iterate; anything else, positive
    or NaN (off the branch), moves hi down to it.  The next iterate is the
    Newton step if the slope is positive and the step lands strictly inside
    (lo, cap), else the midpoint.  While a lane's hi is +inf, cap is the
    growth point lo * _GROW_FACTOR, which also stands in for the midpoint:
    the cap keeps a shallow slope from throwing the iterate past the root
    onto a far sign change.  Returns the roots and the lanes not converged
    after CHART_MAXITER evaluations, whose final upper bounds are written
    back into hi.
    """
    x = np.clip(x0, lo, hi)
    idx, xa, la, ha, ta = np.arange(x.size), x, lo, hi, tol
    growing = bool(np.isinf(ha).any())  # only boundary lanes start unbounded
    with np.errstate(**_QUIET):  # off-branch residuals, zero and NaN slopes
        for _ in range(CHART_MAXITER):
            if not idx.size:
                break
            res, slope = residual(idx, xa)
            done = np.abs(res) <= ta  # NaN is never done
            if done.any():
                x[idx[done]] = xa[done]
                keep = np.flatnonzero(~done)
                idx, xa, la, ha, res, slope = (a[keep] for a in (idx, xa, la, ha, res, slope))
                ta = ta[keep] if np.ndim(ta) else ta
            # xa lies inside [la, ha], so it becomes the new bound on its side
            below = res < 0
            np.copyto(la, xa, where=below)
            np.copyto(ha, xa, where=~below)
            cand = np.where(slope > 0, slope, np.nan)
            np.divide(res, cand, out=cand)
            np.subtract(xa, cand, out=cand)
            xa = la + ha
            xa *= 0.5
            cap = ha
            if growing:
                unbounded = np.isinf(ha)
                growing = bool(unbounded.any())
                np.copyto(xa, la * _GROW_FACTOR, where=unbounded)
                cap = np.where(unbounded, xa, ha)
            np.copyto(xa, cand, where=(cand > la) & (cand < cap))  # NaN falls back
    hi[idx] = ha
    return x, idx


# ---------------------------------------------------------------------------
# Parallel tangent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangencyResult:
    """Tangency point v on M_{k+h} whose tangent plane is parallel to the one at p.

    t is the distance from p to that tangent plane, measured along the
    convex-side normal at p; scale is the gradient ratio g_z(v) / g_z(p), so
    that grad g(v) = scale * grad g(p).
    """

    v: SurfacePoint
    t: float
    newton_iterations: int
    scale: float


def parallel_tangent(family: LevelFamily, p: SurfacePoint, h: float) -> TangencyResult:
    """Find v on M_{k+h} with grad g(v) = lambda * grad g(p), lambda > 0.

    The one-cell call of parallel_tangents.
    """
    return parallel_tangents(family, [(p, h)])[0]


def _norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of d, bit for bit: a stacked dot, not a sum."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def parallel_tangents(family: LevelFamily, cells) -> list[TangencyResult]:
    """parallel_tangent for every (p, h) of cells, in one Newton loop over them.

    On the z > 0 graphs of the two levels this is Newton on the slope gap
    grad Z_{k+h}(x) - grad Z_k(x_p), with Jacobian Hess Z_{k+h}; lambda is
    g_z(v) / g_z(p).  Each cell's first batch of jets reads two starts: the
    parallel tangency of g's second-order model at p (_model_tangencies)
    and the x of the first-order offset of p along its normal.  The cell
    starts from the one on the graph with the smaller slope gap, which
    guards against the model where it is indefinite (g_zz < 0, as at alpha
    = 0.5); with neither on the graph, it starts from the center of f's
    osculating quadratic at x_p.  Steps off the graph or not shrinking the
    gap are halved.
    Each cell is a lane: one batch of graph jets and one stacked solve per
    step, a lane leaving once its gap is within tolerance, and per-lane
    halving.  No lane's iterates depend on another's, so a cell has the
    bits it has alone.  A failing cell raises its TangencyError (or the
    error of its jets) for the whole call.
    """
    for p, h in cells:
        if h == 0 or np.sign(h) != p.offset_sign:
            raise TangencyError(f"offset h={h:.6g} is outside the admissible interval at this point")
    if not cells:
        return []
    target = [p.k + h for p, h in cells]
    slope_p = np.array([-p.grad_g[:-1] / p.grad_g[-1] for p, _ in cells])
    tol = NEWTON_TOL * (1.0 + np.max(np.abs(slope_p), axis=1))
    first = np.array([p.x + (h / float(p.grad_g @ p.normal)) * p.normal[:-1] for p, h in cells])
    with np.errstate(**_QUIET):
        starts = np.concatenate([_model_tangencies(family, cells, first), first])
        x, jets, iterations = _newton(family, cells, target, slope_p, tol, starts)
    scales = (jets.gz / np.array([p.grad_g[-1] for p, _ in cells])).tolist()
    out = []
    for (p, h), vp, scale, its in zip(cells, _lift(family, target, x, jets), scales, iterations):
        if scale <= 0:
            raise TangencyError("wrong branch: tangency found with opposite gradient direction")
        if isinstance(vp, QuadrixError):
            raise vp
        # sine of the angle between the normals; arccos of the dot product
        # cannot resolve angles this small.  The sine is 0 for antiparallel
        # normals too, so the cosine must be positive
        cosine = float(vp.normal @ p.normal)
        angle = float(np.linalg.norm(vp.normal - cosine * p.normal))
        if cosine <= 0:
            raise TangencyError(f"tangency normals point opposite ways (cosine {cosine:.3g})")
        if angle > 1e-9:
            raise TangencyError(f"tangency normals misaligned by {angle:.3g} rad")
        t = float((vp.ambient - p.ambient) @ p.normal)
        if t <= 0:
            raise TangencyError("tangency distance came out nonpositive")
        out.append(TangencyResult(v=vp, t=t, newton_iterations=its, scale=scale))
    return out


def _model_tangencies(family, cells, first: np.ndarray) -> np.ndarray:
    """For each (p, h), the x of the parallel tangency on level k + h of g's
    second-order model at p, g(p + v) ~ k + grad g . v + v^T H v / 2 with
    H = blockdiag(sf Hess f, g_zz): x_p + mu Hess f^-1 grad f (least squares
    where Hess f is singular).

    grad g(p + v) = lambda grad g(p) makes v = (lambda - 1) H^-1 grad g, and
    the level fixes lambda - 1 = mu = r / (1 + sqrt(1 + r)), r = 2 h / c with
    c = grad g^T H^-1 grad g = sf grad f^T Hess f^-1 grad f + g_z^2 / g_zz.
    g_zz = 0 (alpha = 1) gives mu = 0: the levels are vertical translates.
    A cell whose model has no finite tangency keeps its row of first, the
    first-order start.  Call under np.errstate(**_QUIET).
    """
    X = np.array([p.x for p, _ in cells])
    grad = np.array([p.f_jet.gradient for p, _ in cells])
    d = np.array([np.linalg.lstsq(p.f_jet.hessian, p.f_jet.gradient, rcond=None)[0] for p, _ in cells])
    gz = np.array([p.grad_g[-1] for p, _ in cells])
    c = family.sf * (grad[:, None, :] @ d[:, :, None])[:, 0, 0]
    c += gz * gz / np.array([_g_zz(family, p) for p, _ in cells])
    r = 2.0 * np.array([h for _, h in cells]) / c
    mu = r / (1.0 + np.sqrt(1.0 + r))
    X += mu[:, None] * d
    return np.where(np.isfinite(X).all(axis=1)[:, None], X, first)


def _newton(family, cells, target, slope_p, tol, starts):
    """parallel_tangents' Newton loop: the cells' converged x (M, n), their
    graph jets there and their iteration counts.

    starts holds two rows per cell, the model starts of all cells and then
    their first-order starts; one batch of jets reads both, and each cell
    starts from the one on the graph with the smaller slope gap.
    """
    m = len(cells)
    both = _graph_jets(family, target * 2, starts)
    gaps = _norms(both.slope - np.concatenate([slope_p, slope_p]))
    gaps[~(both.finite & (both.z > 0))] = np.inf
    pick = np.where(gaps[m:] < gaps[:m], np.arange(m, 2 * m), np.arange(m))
    x, jets = starts[pick], both.take(pick)
    off = ~(jets.finite & (jets.z > 0))
    if off.any():  # start instead from the center of f's osculating quadratic
        for i in np.flatnonzero(off):
            p = cells[i][0]
            x[i] = p.x - np.linalg.lstsq(p.f_jet.hessian, p.f_jet.gradient, rcond=None)[0]
        jets = _graph_jets(family, target, x)  # the other lanes keep their bits
        off = ~(jets.finite & (jets.z > 0))
        if off.any():
            i = int(np.argmax(off))
            raise TangencyError(f"no start on the z > 0 graph of level k={target[i]:.6g} "
                                f"for h={cells[i][1]:.6g}")
    # the live lanes' iterates X, jets J, slope gaps and their norms,
    # compacted whenever lanes converge; a converged lane's x, jets and
    # count are written back into x, jets and iterations, which X and J
    # are until the first step or compaction
    iterations = [0] * m
    lanes, X, J, P, T, C = np.arange(m), x, jets, slope_p, tol, target
    gap = J.slope - P
    size = _norms(gap)
    for it in range(1, NEWTON_MAXITER + 1):
        done = np.abs(gap).max(axis=1) <= T
        if done.any():
            at = lanes[done]
            if X is not x:
                x[at] = X[done]
                for final, live in zip(jets, J):
                    final[at] = live[done]
            for j in at.tolist():
                iterations[j] = it
            if done.all():
                return x, jets, iterations
            keep = ~done
            lanes, X, P, T, gap, size, J = (lanes[keep], X[keep], P[keep], T[keep], gap[keep],
                                            size[keep], J.take(keep))
            C = [c for c, k in zip(C, keep.tolist()) if k]
        try:
            step = np.linalg.solve(J.hessian, gap[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise TangencyError("singular Jacobian in parallel-tangent solve") from exc
        damp, pending, targets, start, goal, shrink = 1.0, slice(None), C, X, P, size
        while True:  # backtrack off-branch steps and steps that do not shrink the gap
            trial = start - damp * step
            new = _graph_jets(family, targets, trial)
            new_gap = new.slope - goal
            new_size = _norms(new_gap)  # NaN off the branch, which compares false
            ok = new.finite & (new.z > 0) & (new_size <= (1.0 - 0.25 * damp) * shrink)
            if ok.all() and isinstance(pending, slice):  # every live lane took its step
                X, J, gap, size = trial, new, new_gap, new_size
                break
            at = np.arange(lanes.size)[pending][ok]
            X, gap, size = X.copy(), gap.copy(), size.copy()
            X[at], gap[at], size[at] = trial[ok], new_gap[ok], new_size[ok]
            J = J.put(at, new, ok)
            if ok.all():
                break
            pending = np.arange(lanes.size)[pending][~ok]
            step, shrink, start, goal = step[~ok], shrink[~ok], X[pending], P[pending]
            targets = [c for c, k in zip(targets, ok.tolist()) if not k]
            damp *= 0.5
            if damp <= 1e-10:
                raise TangencyError(f"parallel-tangent iteration stalled for "
                                    f"h={cells[lanes[pending[0]]][1]:.6g}")
    raise TangencyError(f"parallel-tangent Newton did not converge for h={cells[lanes[0]][1]:.6g}")
