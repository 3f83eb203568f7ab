"""Implicit geometry of the level sets of g(x, z) = z^alpha -/+ f(x), z > 0.

A level set M_c = {g = c} is the graph z = Z_c(x) of one branch, treated as
a strictly convex hypersurface in R^{n+1}.  One graph jet, Z_c with its
gradient and Hessian, is evaluated and lifted once per point: the lift
computes the second fundamental form toward the convex side (read by the
Cholesky convexity certificate, the normal orientation, K = det(form), the
invariant K |grad g|^{n+2} and the chart's osculating quadric).
point_on_level lifts the jet at x; parallel_tangent, matching the slopes of
M_k and M_{k+h}, lifts the one its Newton loop converged on.

The tangent-plane chart serves the integration routines.  Both its solves,
heights and section boundary radii, run one vectorized safeguarded solver:
a per-lane bracket, guarded Newton steps, bisection when a step leaves the
bracket, iterating only the unconverged lanes.  A boundary lane starts
unbounded above and grows its bracket inside the same loop; an off-branch
(NaN) residual bounds it like a positive one.  Every lane ends in a root or
a RegionError.  The residual reads f along each lane's line with one
forward tangent (funcspec.eval_line), so an iteration allocates nothing n
wide; the fold check reads its slope along the normal, and in the same call
the convexity check reads its value at twice the boundary radius.

Everything here is pure and operates on immutable inputs; the batched
chart solver is safe to call concurrently from several threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BranchError, ConvexityError, RegionError, TangencyError
from .funcspec import FunctionSpec, Jet2, eval_jet2, eval_line, eval_value_grad

__all__ = [
    "LevelFamily",
    "SurfacePoint",
    "TangencyResult",
    "point_on_level",
    "gauss_kronecker",
    "curvature_invariant",
    "parallel_tangent",
    "LocalChart",
]

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50
CHART_MAXITER = 100
_GROW_FACTOR = 1.6


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
        """z**expo, expo alpha or alpha - 1; NaN marks off-branch points: z <= 0
        unless z^alpha is a polynomial (positive integer alpha), defined at every z."""
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if not (self.alpha > 0 and float(self.alpha).is_integer()):
                z = np.where(z > 0, z, np.nan)
            return z ** expo

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


def _complete_frame(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to a unit vector."""
    d = normal.shape[0]
    basis = np.eye(d)
    # put the axis most aligned with the normal first so QR keeps full rank
    pivot = int(np.argmax(np.abs(normal)))
    basis[:, [0, pivot]] = basis[:, [pivot, 0]]
    m = np.column_stack([normal, basis[:, 1:]])
    q, _ = np.linalg.qr(m)
    return q[:, 1:]


class _GraphJet(NamedTuple):
    """M_c near x as the graph z = Z(x) of its branch (z > 0 unless alpha is odd), to second order."""

    f_jet: Jet2
    z: float
    gz: float  # g_z = alpha z^(alpha-1)
    slope: np.ndarray  # grad Z = -sf grad f / g_z
    hessian: np.ndarray  # Hess Z = -(sf Hess f + g_zz grad Z grad Z^T) / g_z


def _graph_jet(family: LevelFamily, c: float, x: np.ndarray) -> _GraphJet:
    """Z, grad Z and Hess Z of the branch of M_c over x; BranchError off the branch."""
    jet = eval_jet2(family.f, x)
    z = family.solve_z(c, jet.value)
    a = family.alpha
    gz = a * z ** (a - 1.0)
    gzz = 0.0 if a == 1.0 else a * (a - 1.0) * z ** (a - 2.0)  # z may be 0 when a == 1
    slope = -family.sf * jet.gradient / gz
    hessian = -(family.sf * jet.hessian + gzz * np.outer(slope, slope)) / gz
    return _GraphJet(jet, z, gz, slope, hessian)


def point_on_level(family: LevelFamily, k: float, x: np.ndarray) -> SurfacePoint:
    """Lift x to the z > 0 branch of M_k and certify convexity there.

    The second fundamental form toward the upward graph normal is
    A^T Hess Z A / sqrt(1 + |grad Z|^2), A the x-rows of the frame; the convex
    side is the orientation that makes it positive definite (Cholesky
    certificate), and an indefinite form raises ConvexityError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _lift(family, k, x, _graph_jet(family, k, x))


def _lift(family: LevelFamily, k: float, x: np.ndarray, graph: _GraphJet) -> SurfacePoint:
    """The point of M_k over x from its graph jet there, as point_on_level describes."""
    jet, z, gz, slope, hessian = graph
    grad_g = np.concatenate([family.sf * jet.gradient, [gz]])
    lift = np.sqrt(1.0 + slope @ slope)
    up = np.concatenate([-slope, [1.0]]) / lift
    frame = _complete_frame(up)  # the same basis for up and -up
    form = frame[:-1].T @ hessian @ frame[:-1] / lift
    if _is_positive_definite(form):
        normal = up
    elif _is_positive_definite(-form):
        normal, form = -up, -form
    else:
        raise ConvexityError(
            f"indefinite shape operator at x={x.tolist()}, k={k}: surface not strictly convex there"
        )
    return SurfacePoint(x=x, z=z, k=k, grad_g=grad_g, normal=normal, frame=frame,
                        f_jet=jet, second_form=form)


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


class LocalChart:
    """Graph coordinates of M_k over the tangent plane at p.

    Chart points are q(y, tau) = p + frame @ y + tau * normal; the surface
    height w(y) >= 0 solves g(q(y, w)) = k.  Heights and section boundary
    radii are roots along a line per lane, found by _safeguarded_roots from
    the osculating-quadric guess.  Every cap needs the boundary radii; the
    heights serve the caps the measures cannot slice along z, which are
    those of "plus" families and of cells where f < 0 at a radial node
    (measure._vertical_chords).  Heights are solved only inside a section:
    a lane above its plane, or whose line leaves the graph region (the chart
    fold) first, raises RegionError instead of silently switching branches,
    and so does a section that crosses the fold or is not convex.  A chart
    keeps no solver state, so threads may share it.
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

    def _chart_base(self, Y: np.ndarray):
        """Points p + frame @ y, lane-last: X of shape (n, M), Z of shape (M,)."""
        n = Y.shape[1]
        X = self.frame[:n] @ Y.T
        X += self.origin[:n, None]
        return X, self.origin[n] + Y @ self.frame[n]

    def _line_residual(self, X0, Z0, dX, dZ, idx, tau, sign=1.0):
        """sign * offset_sign * (g - k) and its tau-derivative at (X0 + tau dX, Z0 + tau dZ).

        Lane-last: X0 and dX are (n, M) or (n, 1), Z0 and dZ are (M,) or
        scalars; the lanes idx are evaluated, at tau of shape (idx.size,),
        taking their rows one coordinate at a time.  NaN flags off-branch
        points.
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
        s = sign * self.p.offset_sign
        # s (z^alpha + sf f - k) and s (sf f' + alpha z^(alpha-1) dZ), in place
        res *= fam.sf
        res += fam._zpow(Z, fam.alpha)
        res -= self.k
        res *= s
        slope *= fam.sf
        slope += fam.alpha * fam._zpow(Z, fam.alpha - 1.0) * dZ
        slope *= s
        return res, slope

    def taylor_height(self, Y: np.ndarray) -> np.ndarray:
        return 0.5 * np.einsum("mi,mi->m", Y @ self.second_form, Y)

    def height(self, Y: np.ndarray, t: float) -> np.ndarray:
        """Graph heights w below the section plane at t for chart offsets Y, shape (M, n).

        Every offset must lie inside the section: its root lies in [0, t] up
        to a margin of 1e-9 (1 + |t|) for the boundary-radius tolerance, so
        the bracket is immediate and needs no evaluation at its top.  Every
        lane is solved from the osculating guess.  A lane that does not
        converge, whether above the plane, past the chart fold or stalled,
        raises RegionError naming the first such offset; no height is +inf.
        """
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        m, n = Y.shape
        X0, Z0 = self._chart_base(Y)
        dX, dZ = self.normal[:n, None], self.normal[n]

        def residual(idx, tau):
            return self._line_residual(X0, Z0, dX, dZ, idx, tau)

        hi = np.full(m, t + 1e-9 * (1.0 + abs(t)))
        tau, unconverged = _safeguarded_roots(residual, np.zeros(m), hi, self.taylor_height(Y),
                                              NEWTON_TOL * self._scale, np.arange(m))
        if unconverged.size:
            raise RegionError(
                f"graph-height solve failed at chart offset y={Y[unconverged[0]].tolist()} "
                f"({unconverged.size} of {m} points): region escapes the chart"
            )
        return tau

    def gradient_at(self, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Exact chart gradient (M, n) of w at already-solved heights w(Y), implicitly:
        -frame^T grad g / <grad g, normal>, grad g = (sf grad f, alpha z^(alpha-1)) at q(y, w)."""
        Y = np.atleast_2d(Y)
        n = Y.shape[1]
        X, Z = self._chart_base(Y)
        X += self.normal[:n, None] * w
        Z += self.normal[n] * w
        fam = self.family
        grad = np.concatenate([fam.sf * eval_value_grad(fam.f, X.T)[1],
                               fam.alpha * fam._zpow(Z, fam.alpha - 1.0)[:, None]], axis=1)
        denom = grad @ self.normal
        return -(grad @ self.frame) / denom[:, None]

    def boundary_radius(self, U: np.ndarray, t: float) -> np.ndarray:
        """Radii rho with w(rho u) = t, solved on the section plane itself.

        U holds chart directions of any nonzero length, shape (M, n); rho is in
        units of each direction's length.  Each lane starts from the
        osculating guess with the bracket [0, +inf).  Raises RegionError when
        t exceeds the cap height, when a lane finds no upper bound (the
        region escapes the chart), ends bracketed against an off-branch top
        (the section reaches the edge of the z > 0 branch) or stalls, or when
        the section crosses the chart fold or is not convex.
        """
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m, n = U.shape
        base = self.origin + t * self.normal
        X0, Z0 = base[:n, None], base[n]
        dX, dZ = self.frame[:n] @ U.T, U @ self.frame[n]

        def residual(idx, rho):  # negated to increase in rho: positive outside the section
            return self._line_residual(X0, Z0, dX, dZ, idx, rho, sign=-1.0)

        res0, _ = residual(np.arange(1), np.zeros(1))  # rho = 0 is the same point on every lane
        if not res0[0] < 0:
            raise RegionError(f"offset t={t:.6g} is not below the cap top at this point")
        guess = np.sqrt(t / self.taylor_height(U))
        hi = np.full(m, np.inf)  # the solve grows each lane's bracket from the guess
        rho, unconverged = _safeguarded_roots(residual, np.zeros(m), hi, guess,
                                              NEWTON_TOL * self._scale, np.arange(m))
        if np.isinf(hi[unconverged]).any():
            raise RegionError(f"section boundary not found at t={t:.6g}: region escapes the chart")
        if unconverged.size:
            res, _ = residual(unconverged, hi[unconverged])
            if np.isnan(res).any():  # bracketed against an off-branch top
                raise RegionError(f"section at t={t:.6g} reaches the edge of the z > 0 branch")
            raise RegionError(f"section boundary solve stalled at t={t:.6g}")

        # one evaluation at rho and at 2 rho on every lane.  Fold check: the
        # surface is still a graph over the chart where offset_sign * dg/dnu > 0
        # at rho.  Convexity check: a line from the base point that has left a
        # convex section never comes back in, so no lane is inside (residual
        # > 0 here) at 2 rho; NaN, off the branch, is not inside
        r = np.concatenate([rho, 2.0 * rho])
        res, slope = self._line_residual(X0 + np.tile(dX, 2) * r, Z0 + np.tile(dZ, 2) * r,
                                         self.normal[:n, None], self.normal[n],
                                         np.arange(2 * m), np.zeros(2 * m))
        if not np.all(slope[:m] > 0):
            raise RegionError(f"section at t={t:.6g} crosses the chart fold")
        if np.any(res[m:] > 0):
            raise RegionError(f"section is not convex at t={t:.6g}")
        return rho


def _lanes(a, idx: np.ndarray):
    """Lanes idx (sorted, distinct) of a lane-last array; no copy when that is
    all of them, or when a scalar or one-lane a is shared by every lane."""
    if np.ndim(a) == 0 or a.shape[-1] in (1, idx.size):
        return a
    return a.take(idx, axis=-1)


def _safeguarded_roots(residual, lo, hi, x0, tol, idx):
    """Roots in [lo, hi] of residuals increasing in x, for the lanes idx; hi may be +inf.

    residual(idx, x) gives the residual and its slope.  From x0 clipped into
    the bracket, each iteration evaluates only the lanes not yet within tol.
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
    xa, la, ha = x[idx], lo[idx], hi[idx]
    growing = bool(np.isinf(ha).any())  # only boundary lanes start unbounded
    for _ in range(CHART_MAXITER):
        if not idx.size:
            break
        res, slope = residual(idx, xa)
        done = np.abs(res) <= tol  # NaN is never done
        if done.any():
            x[idx[done]] = xa[done]
            keep = np.flatnonzero(~done)
            idx, xa, la, ha, res, slope = (a[keep] for a in (idx, xa, la, ha, res, slope))
        # xa lies inside [la, ha], so it becomes the new bound on its side
        below = res < 0
        np.copyto(la, xa, where=below)
        np.copyto(ha, xa, where=~below)
        with np.errstate(divide="ignore", invalid="ignore"):
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

    On the z > 0 graphs of the two levels this is Newton on the slope gap
    grad Z_{k+h}(x) - grad Z_k(x_p), with Jacobian Hess Z_{k+h}; lambda is
    g_z(v) / g_z(p).  It starts from the x of the first-order offset of p
    along its normal, or, off the graph, from the center of f's osculating
    quadratic at x_p; steps off the graph or not shrinking the gap are halved.
    """
    if h == 0 or np.sign(h) != p.offset_sign:
        raise TangencyError(f"offset h={h:.6g} is outside the admissible interval at this point")
    target = p.k + h
    slope_p = -p.grad_g[:-1] / p.grad_g[-1]

    def graph_jet(x):  # the jet of M_{k+h} over x on its z > 0 graph, else None
        try:
            jet = _graph_jet(family, target, x)
        except BranchError:
            return None
        return jet if jet.z > 0 else None

    x = p.x + (h / float(p.grad_g @ p.normal)) * p.normal[:-1]
    jet = graph_jet(x)
    if jet is None:  # start instead from the center of f's osculating quadratic
        x = p.x - np.linalg.lstsq(p.f_jet.hessian, p.f_jet.gradient, rcond=None)[0]
        jet = graph_jet(x)
    if jet is None:
        raise TangencyError(f"no start on the z > 0 graph of level k={target:.6g} for h={h:.6g}")
    tol = NEWTON_TOL * (1.0 + np.max(np.abs(slope_p)))
    for iterations in range(1, NEWTON_MAXITER + 1):
        gap = jet.slope - slope_p
        if np.max(np.abs(gap)) <= tol:
            break
        try:
            step = np.linalg.solve(jet.hessian, gap)
        except np.linalg.LinAlgError as exc:
            raise TangencyError("singular Jacobian in parallel-tangent solve") from exc
        damp = 1.0
        while True:  # backtrack off-branch steps and steps that do not shrink the gap
            jet_new = graph_jet(x - damp * step)
            if jet_new is not None and (np.linalg.norm(jet_new.slope - slope_p)
                                        <= (1.0 - 0.25 * damp) * np.linalg.norm(gap)):
                break
            damp *= 0.5
            if damp <= 1e-10:
                raise TangencyError(f"parallel-tangent iteration stalled for h={h:.6g}")
        x, jet = x - damp * step, jet_new
    else:
        raise TangencyError(f"parallel-tangent Newton did not converge for h={h:.6g}")

    scale = jet.gz / p.grad_g[-1]
    if scale <= 0:
        raise TangencyError("wrong branch: tangency found with opposite gradient direction")
    vp = _lift(family, target, x, jet)
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
    return TangencyResult(v=vp, t=t, newton_iterations=iterations, scale=float(scale))
