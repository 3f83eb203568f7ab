"""Implicit geometry of the level sets of g(x, z) = z^alpha -/+ f(x), z > 0.

A level set M_k = {g = k} is treated as a strictly convex hypersurface in
R^{n+1}.  This module lifts points onto M_k and computes there, once, the
second fundamental form of M_k toward its convex side: the Cholesky
certificate of strict convexity, the orientation of the unit normal, the
Gauss-Kronecker curvature K = det(form), the invariant K |grad g|^{n+2} and
the osculating quadric of the tangent-plane graph chart all read that one
form.  The chart serves the integration routines; the parallel-tangent
solve links M_k to nearby levels M_{k+h}.

Both chart solves, heights and section boundary radii, run one vectorized
safeguarded solver: a per-lane bracket, guarded Newton steps, bisection
when a step leaves the bracket, iterating only the unconverged lanes.

Everything here is pure and operates on immutable inputs; the batched
chart solver is safe to call concurrently from several threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchError, ConvexityError, RegionError, TangencyError
from .funcspec import FunctionSpec, Jet2, QuadraticForm, eval_jet2, eval_value_grad

__all__ = [
    "LevelFamily",
    "SurfacePoint",
    "TangencyResult",
    "point_on_level",
    "gauss_kronecker",
    "curvature_invariant",
    "parallel_tangent",
    "offset_map_h",
    "LocalChart",
]

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50
CHART_MAXITER = 100
_GROW_MAXITER = 120
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
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
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
        """z**expo honoring the z > 0 branch; NaN marks off-branch points."""
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if float(self.alpha).is_integer() and float(expo).is_integer():
                return z ** expo
            out = np.where(z > 0, z, np.nan)
            return out ** expo

    def g_values_grads(self, X: np.ndarray, Z: np.ndarray):
        """g and its ambient gradient, batched; gradients have shape (M, n+1)."""
        fv, fg = eval_value_grad(self.f, X)
        g = self._zpow(Z, self.alpha) + self.sf * fv
        gz = self.alpha * self._zpow(Z, self.alpha - 1.0)
        grad = np.concatenate([self.sf * fg, gz[:, None]], axis=1)
        return g, grad

    def ambient_gradient(self, jet: Jet2, z: float) -> np.ndarray:
        gz = self.alpha * z ** (self.alpha - 1.0)
        return np.concatenate([self.sf * jet.gradient, [gz]])

    def ambient_hessian(self, jet: Jet2, z: float) -> np.ndarray:
        n = self.n
        h = np.zeros((n + 1, n + 1))
        h[:n, :n] = self.sf * jet.hessian
        if self.alpha != 1.0:
            h[n, n] = self.alpha * (self.alpha - 1.0) * z ** (self.alpha - 2.0)
        return h

    def solve_z(self, k: float, fval: float) -> float:
        """The real branch solution of g(x, z) = k given f(x).

        Even and non-integer alpha use the positive branch z > 0; odd
        integer alpha has a unique real root (alpha = 1 level sets are
        global graphs and may dip through z = 0).
        """
        base = k - self.sf * fval  # z^alpha
        alpha = float(self.alpha)
        if alpha.is_integer() and int(alpha) % 2 == 1:
            return float(np.sign(base) * abs(base) ** (1.0 / alpha))
        if base <= 0:
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
    try:
        np.linalg.cholesky(m)
        return True
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


def point_on_level(family: LevelFamily, k: float, x: np.ndarray) -> SurfacePoint:
    """Lift x to the z > 0 branch of M_k and certify convexity there.

    The second fundamental form is taken with respect to the upward graph
    normal; the convex side is the orientation that makes it positive
    definite (Cholesky certificate), and an indefinite form raises
    ConvexityError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    jet = eval_jet2(family.f, x)
    z = family.solve_z(k, jet.value)
    grad_g = family.ambient_gradient(jet, z)

    grad_z = -family.sf * jet.gradient / (family.alpha * z ** (family.alpha - 1.0))
    up = np.concatenate([-grad_z, [1.0]]) / np.sqrt(1.0 + grad_z @ grad_z)
    frame = _complete_frame(up)  # the same basis for up and -up
    form = -(frame.T @ family.ambient_hessian(jet, z) @ frame) / float(grad_g @ up)
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
    the osculating-quadric guess.  Heights are solved only below a section
    plane: a lane above it, or whose line leaves the graph region (the chart
    fold) first, comes back +inf instead of silently switching branches.  A
    section that crosses the fold raises RegionError.  A chart keeps no
    solver state, so threads may share it.
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
        return self.origin[:n, None] + self.frame[:n] @ Y.T, self.origin[n] + Y @ self.frame[n]

    def _line_residual(self, X0, Z0, dX, dZ, x, sign=1.0):
        """sign * offset_sign * (g - k) and its x-derivative at (X0 + x dX, Z0 + x dZ).

        Lane-last: X0 and dX are (n, M) or (n, 1), Z0 and dZ are (M,) or
        scalars.  NaN flags off-branch points.
        """
        fam = self.family
        X = dX * x
        X += X0
        fv, fg = eval_value_grad(fam.f, X.T)
        Z = Z0 + dZ * x
        s = sign * self.p.offset_sign
        res = s * (fam._zpow(Z, fam.alpha) + fam.sf * fv - self.k)
        gz = fam.alpha * fam._zpow(Z, fam.alpha - 1.0)
        return res, s * (fam.sf * np.einsum("mi,im->m", fg, dX) + gz * dZ)

    def taylor_height(self, Y: np.ndarray) -> np.ndarray:
        return 0.5 * np.einsum("mi,mi->m", Y @ self.second_form, Y)

    def height(self, Y: np.ndarray, t: float) -> np.ndarray:
        """Graph heights w below the section plane at t for chart offsets Y, shape (M, n).

        The root lies in [0, t] up to a margin of 1e-9 (1 + |t|) for the
        boundary-radius tolerance, so the bracket is immediate.  A lane whose
        height exceeds that, or whose line leaves the graph branch first (past
        the chart fold), comes back +inf; a solve that stalls raises
        RegionError.
        """
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        m, n = Y.shape
        X0, Z0 = self._chart_base(Y)
        dX, dZ = self.normal[:n, None], self.normal[n]

        def residual(idx, tau):
            return self._line_residual(_lanes(X0, idx), _lanes(Z0, idx), dX, dZ, tau)

        hi = np.full(m, t + 1e-9 * (1.0 + abs(t)))
        res_hi, _ = self._line_residual(X0, Z0, dX, dZ, hi)
        outside = ~(res_hi >= 0.0)  # height above the plane, or off branch (NaN)
        tau, unconverged = _safeguarded_roots(residual, np.zeros(m), hi, self.taylor_height(Y),
                                              NEWTON_TOL * self._scale, np.flatnonzero(~outside))
        if unconverged.size:
            raise height_failure(Y[unconverged[0]], unconverged.size, m)
        return np.where(outside, np.inf, tau)

    def gradient_at(self, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Exact chart gradient of w at already-solved heights (implicit differentiation)."""
        Y = np.atleast_2d(Y)
        n = Y.shape[1]
        X, Z = self._chart_base(Y)
        X += self.normal[:n, None] * w
        Z += self.normal[n] * w
        _, grad = self.family.g_values_grads(X.T, Z)
        denom = grad @ self.normal
        return -(grad @ self.frame) / denom[:, None]

    def boundary_radius(self, U: np.ndarray, t: float) -> np.ndarray:
        """Radii rho with w(rho u) = t, solved on the section plane itself.

        U holds chart directions of any nonzero length, shape (M, n); rho is in
        units of each direction's length.  Raises RegionError when
        t exceeds the cap height or the section crosses the chart fold.
        """
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m, n = U.shape
        base = self.origin + t * self.normal
        X0, Z0 = base[:n, None], base[n]
        dX, dZ = self.frame[:n] @ U.T, U @ self.frame[n]

        def residual(idx, rho):  # negated to increase in rho: positive outside the section
            return self._line_residual(X0, Z0, _lanes(dX, idx), _lanes(dZ, idx), rho, sign=-1.0)

        res0, _ = residual(np.arange(1), np.zeros(1))  # rho = 0 is the same point on every lane
        if not res0[0] < 0:
            raise RegionError(f"offset t={t:.6g} is not below the cap top at this point")
        guess = np.sqrt(t / self.taylor_height(U))
        lo, hi = np.zeros(m), guess.copy()
        if _grow_bracket(residual, lo, hi).size:
            raise RegionError(f"section boundary not found at t={t:.6g}: region escapes the chart")
        rho, unconverged = _safeguarded_roots(residual, lo, hi, guess, NEWTON_TOL * self._scale,
                                              np.arange(m))
        if unconverged.size:
            raise RegionError(f"section boundary solve stalled at t={t:.6g}")

        # fold check: the surface must still be a graph over the chart there
        _, grad = self.family.g_values_grads((X0 + dX * rho).T, Z0 + dZ * rho)
        if not np.all(self.p.offset_sign * (grad @ self.normal) > 0):
            raise RegionError(f"section at t={t:.6g} crosses the chart fold")
        return rho


def height_failure(y: np.ndarray, failed: int, total: int) -> RegionError:
    """The RegionError for a height solve that failed on `failed` of `total` points, first at y."""
    return RegionError(
        f"graph-height solve failed at chart offset y={y.tolist()} "
        f"({failed} of {total} points): region escapes the chart"
    )


def _lanes(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Lanes idx (sorted, distinct) of a lane-last array; no copy when that is all of them."""
    return a if idx.size == a.shape[-1] else a.take(idx, axis=-1)


def _grow_bracket(residual, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Grow hi in place until residual(hi) >= 0; returns the lanes left unbracketed.

    Finite negative residuals move lo up to hi; NaN (off-branch) lanes keep
    growing until _GROW_MAXITER is exhausted.
    """
    idx = np.arange(hi.size)
    for _ in range(_GROW_MAXITER):
        if not idx.size:
            break
        res, _ = residual(idx, hi[idx])
        below = idx[np.isfinite(res) & (res < 0)]
        lo[below] = hi[below]
        idx = idx[~(res >= 0.0)]
        hi[idx] *= _GROW_FACTOR
    return idx


def _safeguarded_roots(residual, lo, hi, x0, tol, idx):
    """Roots in [lo, hi] of residuals increasing in x, for the lanes idx.

    residual(idx, x) gives the residual and its slope.  From x0 clipped into
    the bracket, each iteration evaluates only the lanes not yet within tol,
    takes the Newton step if the slope is positive and the step stays inside
    the bracket, and bisects otherwise.  Returns the roots and the lanes not
    converged after CHART_MAXITER evaluations.
    """
    x = np.clip(x0, lo, hi)
    xa, la, ha = x[idx], lo[idx], hi[idx]
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
        la = np.where(res < 0, xa, la)
        ha = np.where(res > 0, xa, ha)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = xa - res / np.where(slope > 0, slope, np.nan)
        xa = np.where((cand > la) & (cand < ha), cand, 0.5 * (la + ha))  # NaN bisects
    return x, idx


# ---------------------------------------------------------------------------
# Parallel tangent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangencyResult:
    """Tangency point v on M_{k+h} whose tangent plane is parallel to the one at p.

    t is the distance from p to that tangent plane, measured along the
    convex-side normal at p; scale is the positive gradient ratio picking
    the near tangency over the antipodal one.
    """

    v: SurfacePoint
    t: float
    newton_iterations: int
    scale: float


def parallel_tangent(family: LevelFamily, p: SurfacePoint, h: float) -> TangencyResult:
    """Find v on M_{k+h} with grad g(v) = lambda * grad g(p), lambda > 0.

    Newton on the (n+2)-unknown system {g(v) = k + h, grad g(v) - lambda
    grad g(p) = 0}, started from the first-order offset of p along its
    normal.  lambda > 0 picks the tangency on the same side as p.
    """
    if h == 0 or np.sign(h) != p.offset_sign:
        raise TangencyError(f"offset h={h:.6g} is outside the admissible interval at this point")
    n = p.n
    q = p.grad_g
    target = p.k + h

    gn = float(q @ p.normal)
    v = p.ambient + (h / gn) * p.normal
    if v[-1] <= 0:
        v = p.ambient.copy()
        v[-1] = 0.5 * p.z
    lam = 1.0

    scale = max(1.0, abs(target), float(np.max(np.abs(q))))

    def residual(vv, ll):
        jet = eval_jet2(family.f, vv[:n])
        gval = vv[-1] ** family.alpha + family.sf * jet.value
        grad = family.ambient_gradient(jet, vv[-1])
        return np.concatenate([[gval - target], grad - ll * q]), jet, grad

    res, jet, grad = residual(v, lam)
    iterations = 0
    for iterations in range(1, NEWTON_MAXITER + 1):
        if np.max(np.abs(res)) <= NEWTON_TOL * scale:
            break
        jac = np.zeros((n + 2, n + 2))
        jac[0, : n + 1] = grad
        jac[1:, : n + 1] = family.ambient_hessian(jet, v[-1])
        jac[1:, n + 1] = -q
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise TangencyError("singular Jacobian in parallel-tangent solve") from exc
        # damped step: keep z positive and do not let the residual grow
        norm_old = float(np.linalg.norm(res))
        damp = 1.0
        while damp > 1e-10 and v[-1] - damp * step[n] <= 0:
            damp *= 0.5
        for _ in range(40):
            v_new = v - damp * step[: n + 1]
            lam_new = lam - damp * step[n + 1]
            res_new, jet_new, grad_new = residual(v_new, lam_new)
            if np.all(np.isfinite(res_new)) and np.linalg.norm(res_new) <= (1.0 - 0.25 * damp) * norm_old:
                break
            damp *= 0.5
            if v_new[-1] <= 0 or damp <= 1e-10:
                raise TangencyError(f"parallel-tangent iteration stalled for h={h:.6g}")
        v, lam, res, jet, grad = v_new, lam_new, res_new, jet_new, grad_new
    else:
        raise TangencyError(f"parallel-tangent Newton did not converge for h={h:.6g}")

    if lam <= 0:
        raise TangencyError("wrong branch: tangency found with opposite gradient direction")
    vp = point_on_level(family, target, v[:n])
    # sine of the angle between the normals; arccos of the dot product
    # cannot resolve angles this small
    angle = float(np.linalg.norm(vp.normal - (vp.normal @ p.normal) * p.normal))
    if angle > 1e-9:
        raise TangencyError(f"tangency normals misaligned by {angle:.3g} rad")
    t = float((vp.ambient - p.ambient) @ p.normal)
    if t <= 0:
        raise TangencyError("tangency distance came out nonpositive")
    return TangencyResult(v=vp, t=t, newton_iterations=iterations, scale=float(lam))


def offset_map_h(family: LevelFamily, p: SurfacePoint, t: float) -> float:
    """Level offset h(t) reached at normal distance t from p (h(0) = 0).

    Closed form for alpha = 2 diagonal quadratic families:
    h = |grad g|^2 t^2 / (4k) +/- |grad g| t with the sign of the family.
    """
    if family.alpha != 2.0 or not isinstance(family.f, QuadraticForm):
        raise ValueError("offset map applies to alpha = 2 diagonal quadratic families")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0.0
    gnorm = p.grad_norm
    k = p.k
    if family.sign == "minus":
        return gnorm ** 2 * t ** 2 / (4.0 * k) + gnorm * t
    tmax = 2.0 * k / gnorm
    if t >= tmax:
        raise RegionError(f"t={t:.6g} beyond the admissible range (max {tmax:.6g})")
    return gnorm ** 2 * t ** 2 / (4.0 * k) - gnorm * t
