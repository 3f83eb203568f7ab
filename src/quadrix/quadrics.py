"""Closed-form ground truth for the three diagonal quadric families.

Covers cap volumes and starred section areas for elliptic hyperboloids
(z^2 = f + k), ellipsoids (z^2 + f = k) and elliptic paraboloids
(z = f + k) with f = sum a_i^2 x_i^2, the constant value of the curvature
invariant on each family, the level offset h(t) reached at plane distance
t on the alpha = 2 families, and the mean-value machinery (H, D_q, theta)
that quantifies why normalized lateral area is never point-independent on
the hyperboloid family.

Every function here is an oracle: independent of the generic quadrature
engine except for the sphere rule it shares with it, at a finer order of
its own and on the unit ball rather than on a chart region.  The 1-D
integrals of the cap volumes use a fixed Gauss-Legendre rule after a
substitution that leaves no cancellation in the integrand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import asinh, atan2, gamma, pi, sqrt
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._grids import tensor_rule
from .errors import RegionError
from .funcspec import QuadraticForm

if TYPE_CHECKING:
    from .surface import LevelFamily, SurfacePoint

__all__ = [
    "QUADRIC_KINDS",
    "unit_ball_volume",
    "unit_sphere_area",
    "hyperboloid_cap_volume",
    "hyperboloid_phi_prime",
    "hyperboloid_area_relation",
    "hyperboloid_lateral_area",
    "ellipsoid_cap_volume",
    "ellipsoid_area_relation",
    "paraboloid_starred",
    "starred_oracle",
    "invariant_constant",
    "offset_map_h",
    "refutation_H",
    "DomainEllipsoid",
    "refutation_domain",
    "mean_H_over_domain",
    "refutation_theta",
    "mean_value_ratio",
]

# the normal form g = z^alpha -/+ f of each kind, as (alpha, sign)
QUADRIC_KINDS = {"elliptic_hyperboloid": (2.0, "minus"), "ellipsoid": (2.0, "plus"),
                 "elliptic_paraboloid": (1.0, "minus")}

# tensor-rule order per dimension of mean_H_over_domain, finer than the engine's
_ORACLE_ORDER = {1: 64, 2: 64, 3: 64, 4: 16, 5: 12, 6: 10}
_CAP_NODES = 48  # Gauss-Legendre nodes of the cap-volume integrals


@lru_cache(maxsize=None)
def _gauss_legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(nodes)


def _gauss_legendre(f, upper: float) -> float:
    """Integral of the vectorized f over [0, upper] by the fixed Gauss-Legendre rule."""
    x, w = _gauss_legendre_rule(_CAP_NODES)
    s = 0.5 * upper * (x + 1.0)
    return 0.5 * upper * float(w @ f(s))


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if not 1 <= n <= 6:
        raise ValueError(f"dimension must be in [1, 6], got {n}")
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def unit_sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^dim in R^(dim+1); equals (dim+1) * ball volume."""
    return (dim + 1) * unit_ball_volume(dim + 1)


def _coef_product(a) -> float:
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise ValueError("quadric coefficients must be positive")
    return float(np.prod(a))


# ---------------------------------------------------------------------------
# Elliptic hyperboloid family: z^2 = a_1^2 x_1^2 + ... + a_n^2 x_n^2 + k
# ---------------------------------------------------------------------------


def hyperboloid_cap_volume(a, k: float, h: float) -> float:
    """Cap volume between M_k and the tangent plane of M_{k+h}, any base point.

    (omega_n / prod a_i) * n * int_0^sqrt(h) r^{n-1} (sqrt(k+h) - sqrt(r^2+k)) dr.
    With r = sqrt(k) sinh s the bracket is
    k sinh(s0-s) sinh(s0+s) / (sqrt(k+h) + sqrt(k) cosh s), s0 = asinh(sqrt(h/k)),
    which keeps its relative accuracy as h -> 0.
    """
    if k <= 0 or h <= 0:
        raise ValueError("hyperboloid caps need k > 0 and h > 0")
    n, rk = len(a), sqrt(k)
    s0 = asinh(sqrt(h / k))

    def integrand(s):
        bracket = k * np.sinh(s0 - s) * np.sinh(s0 + s) / (sqrt(k + h) + rk * np.cosh(s))
        return (rk * np.sinh(s)) ** (n - 1) * bracket * rk * np.cosh(s)

    return unit_ball_volume(n) / _coef_product(a) * n * _gauss_legendre(integrand, s0)


def hyperboloid_phi_prime(a, k: float, h: float) -> float:
    """d/dh of hyperboloid_cap_volume.

    Under the integral sign the boundary term vanishes, since the integrand
    is 0 at r = sqrt(h), and d/dh sqrt(k+h) leaves
    (omega_n / prod a_i) * h^{n/2} / (2 sqrt(k+h)).
    """
    if k <= 0 or h <= 0:
        raise ValueError("k > 0 and h > 0 required")
    n = len(a)
    return unit_ball_volume(n) / _coef_product(a) * h ** (n / 2.0) / (2.0 * sqrt(k + h))


def hyperboloid_area_relation(a, k: float, h: float, grad_norm: float) -> float:
    """Starred section area at (k, h): sqrt((k+h)/k) * phi'(h) * |grad g(p)|."""
    return sqrt((k + h) / k) * hyperboloid_phi_prime(a, k, h) * grad_norm


# ---------------------------------------------------------------------------
# Ellipsoid family: z^2 + a_1^2 x_1^2 + ... + a_n^2 x_n^2 = k
# ---------------------------------------------------------------------------


def ellipsoid_cap_volume(a, k: float, h: float) -> float:
    """Cap volume for the ellipsoid family, -k < h < 0.

    Reduces by the diagonal scaling x_i -> a_i x_i to the cap of the ball of
    radius R = sqrt(k) above the plane z = sqrt(k+h), divided by prod a_i.
    With z = R cos phi that cap is omega_n R^{n+1} int_0^phi0 sin^{n+1} phi dphi,
    where R sin phi0 = sqrt(-h) and R cos phi0 = sqrt(k+h): no cancellation
    as h -> 0.
    """
    if k <= 0 or not (-k < h < 0):
        raise ValueError("ellipsoid caps need k > 0 and -k < h < 0")
    n = len(a)
    phi0 = atan2(sqrt(-h), sqrt(k + h))
    integral = _gauss_legendre(lambda phi: np.sin(phi) ** (n + 1), phi0)
    return unit_ball_volume(n) * sqrt(k) ** (n + 1) * integral / _coef_product(a)


def ellipsoid_area_relation(a, k: float, h: float, grad_norm: float) -> float:
    """Starred section area for the ellipsoid family at (k, h), -k < h < 0.

    Differentiating the spherical-cap reduction gives
    phi'(h) = -(omega_n / prod a_i) (-h)^{n/2} / (2 sqrt(k+h)) and the area
    is -sqrt((k+h)/k) * phi'(h) * |grad g(p)| = omega_n (-h)^{n/2} |grad g| / (2 prod a_i sqrt(k)).
    """
    if k <= 0 or not (-k < h < 0):
        raise ValueError("k > 0 and -k < h < 0 required")
    n = len(a)
    return unit_ball_volume(n) * (-h) ** (n / 2.0) * grad_norm / (2.0 * _coef_product(a) * sqrt(k))


# ---------------------------------------------------------------------------
# Elliptic paraboloid family: z = a_1^2 x_1^2 + ... + a_n^2 x_n^2 + k
# ---------------------------------------------------------------------------


def paraboloid_starred(a, h: float, grad_norm: float) -> tuple[float, float]:
    """Starred (cap volume, section area) for the paraboloid family.

    V = gamma_n h^{(n+2)/2} and A = ((n+2)/2) gamma_n |grad g| h^{n/2} with
    gamma_n = 2 sigma_{n-1} / (n (n+2) prod a_i); both vanish at h = 0.
    """
    if h < 0:
        raise ValueError("h >= 0 required")
    n = len(a)
    gamma_n = 2.0 * unit_sphere_area(n - 1) / (n * (n + 2) * _coef_product(a))
    volume = gamma_n * h ** ((n + 2) / 2.0)
    area = 0.5 * (n + 2) * gamma_n * grad_norm * h ** (n / 2.0)
    return volume, area


def starred_oracle(kind: str, a, k: float, h: float, grad_norm: float) -> tuple[float, float]:
    """(cap volume, section area) ground truth for any of the three families."""
    if kind == "elliptic_hyperboloid":
        return (
            hyperboloid_cap_volume(a, k, h),
            hyperboloid_area_relation(a, k, h, grad_norm),
        )
    if kind == "ellipsoid":
        return (
            ellipsoid_cap_volume(a, k, h),
            ellipsoid_area_relation(a, k, h, grad_norm),
        )
    if kind == "elliptic_paraboloid":
        return paraboloid_starred(a, h, grad_norm)
    raise ValueError(f"unknown quadric kind {kind!r}")


def invariant_constant(kind: str, a, k: float) -> float:
    """Predicted constant value of K |grad g|^{n+2} on the level set M_k.

    2^{n+2} * prod a_i^2 * k for both alpha = 2 families; the paraboloid
    value 2^n * prod a_i^2 does not depend on k.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    prod_sq = float(np.prod(a ** 2))
    if kind in ("ellipsoid", "elliptic_hyperboloid"):
        if k <= 0:
            raise ValueError("k > 0 required for alpha = 2 families")
        return 2.0 ** (n + 2) * prod_sq * k
    if kind == "elliptic_paraboloid":
        return 2.0 ** n * prod_sq
    raise ValueError(f"unknown quadric kind {kind!r}")


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


# ---------------------------------------------------------------------------
# Lateral-area mean-value machinery
# ---------------------------------------------------------------------------


def refutation_H(y, a, k: float) -> np.ndarray | float:
    """The bounded ratio H(y) = sqrt(sum (a_i^2+1) y_i^2 + k) / sqrt(|y|^2 + k).

    Satisfies 1 = H(0) <= H(y) < sqrt(max(a_i)^2 + 1), approaching the upper
    bound along the stiffest axis.
    """
    if k <= 0:
        raise ValueError("k > 0 required")
    y = np.asarray(y, dtype=float)
    a2 = np.asarray(a, dtype=float) ** 2
    num = np.sum((a2 + 1.0) * y ** 2, axis=-1) + k
    den = np.sum(y ** 2, axis=-1) + k
    out = np.sqrt(num / den)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DomainEllipsoid:
    """The ellipsoidal integration domain attached to a base point q.

    center = sqrt((k+h)/k) q; the first principal axis points along q with
    semi-axis sqrt(h (|q|^2 + k) / k), the remaining n-1 semi-axes are
    sqrt(h).
    """

    q: np.ndarray
    k: float
    h: float
    center: np.ndarray
    semi_axes: np.ndarray
    frame: np.ndarray  # columns: principal directions, first along q

    @property
    def volume(self) -> float:
        n = self.q.shape[0]
        return unit_ball_volume(n) * float(np.prod(self.semi_axes))

    def contains(self, y) -> np.ndarray | bool:
        """Membership by the defining inequality
        (|q|^2+k)(|y|^2+k) <= (<q,y> + sqrt(k(k+h)))^2."""
        y = np.asarray(y, dtype=float)
        q2 = float(self.q @ self.q)
        lhs = (q2 + self.k) * (np.sum(y ** 2, axis=-1) + self.k)
        rhs = (y @ self.q + sqrt(self.k * (self.k + self.h))) ** 2
        out = lhs <= rhs
        return bool(out) if np.ndim(out) == 0 else out

    def points(self, xi: np.ndarray) -> np.ndarray:
        """Map unit-ball coordinates xi (M, n) to ambient points of the domain."""
        return self.center[None, :] + (xi * self.semi_axes[None, :]) @ self.frame.T


def refutation_domain(q, k: float, h: float) -> DomainEllipsoid:
    """Principal-axis description of D_q(k, h); q = 0 gives the radius-sqrt(h) ball."""
    if k <= 0 or h <= 0:
        raise ValueError("k > 0 and h > 0 required")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    n = q.shape[0]
    qnorm = float(np.linalg.norm(q))
    center = sqrt((k + h) / k) * q
    semi = np.full(n, sqrt(h))
    semi[0] = sqrt(h * (qnorm ** 2 + k) / k)
    if qnorm > 0:
        first = q / qnorm
        basis = np.eye(n)
        pivot = int(np.argmax(np.abs(first)))
        basis[:, [0, pivot]] = basis[:, [pivot, 0]]
        frame, _ = np.linalg.qr(np.column_stack([first, basis[:, 1:]]))
        # keep the first column exactly along q
        frame[:, 0] = first * np.sign(frame[:, 0] @ first) if n > 1 else first
    else:
        frame = np.eye(n)
    return DomainEllipsoid(q=q, k=k, h=h, center=center, semi_axes=semi, frame=frame)


def mean_H_over_domain(q, a, k: float, h: float) -> float:
    """Mean of H over D_q(k, h) by radial quadrature on the mapped unit ball.

    The affine map to the unit ball has constant Jacobian, so the mean over
    the ellipsoid equals the mean of the pulled-back integrand over the ball.
    """
    dom = refutation_domain(q, k, h)
    n = dom.q.shape[0]
    # the tensor rule at every n, so this oracle shares no sphere rule with the engine at n >= 5
    u, wu = tensor_rule(n, _ORACLE_ORDER[n])
    xg, wg = _gauss_legendre_rule(32)  # Gauss-Legendre, mapped to [0, 1] below
    # mean over the unit ball: (1/omega_n) * int_{S^{n-1}} int_0^1 H r^{n-1} dr du,
    # one radial node at a time, which keeps the n = 6 arrays small
    total = sum(0.5 * w * r ** (n - 1) * float(wu @ refutation_H(dom.points(r * u), a, k))
                for r, w in zip(0.5 * (xg + 1.0), wg))
    return float(total) / unit_ball_volume(n)


def refutation_theta(k: float, h: float, a) -> float:
    """Mean of H over the ball of radius sqrt(h) at the origin; always > 1."""
    n = len(a)
    return mean_H_over_domain(np.zeros(n), a, k, h)


def mean_value_ratio(q, a, k: float, h: float) -> float:
    """r(q) = (mean of H over D_q(k, h)) / H(q).

    Point-independence of normalized lateral area would force r to be
    constant in q; it is not, which is the quantitative contradiction.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return mean_H_over_domain(q, a, k, h) / refutation_H(q, a, k)


def hyperboloid_lateral_area(a, k: float, h: float, x) -> float:
    """Starred lateral area on the hyperboloid family at base point x.

    Equals (1 / prod a_i) * integral of H over D_q(k, h) with q_i = a_i x_i;
    serves as the independent cross-check for the generic lateral-area path.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    q = np.asarray(a, dtype=float) * x
    dom = refutation_domain(q, k, h)
    mean = mean_H_over_domain(q, a, k, h)
    return mean * dom.volume / _coef_product(a)
