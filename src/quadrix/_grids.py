"""Deterministic quadrature grids: Halton sets, the sphere rule and the radial rule.

`halton` is a numpy radical-inverse Halton set, plain or scrambled with
Owen's random digit permutations (arXiv:1706.02808); it equals
SciPy's `stats.qmc.Halton` bit for bit, without SciPy.

`sphere_rule` is a product rule on S^{n-1} in hyperspherical coordinates
(Stroud, Approximate Calculation of Multiple Integrals, 1971): the
trapezoid rule in azimuth and Gauss-Gegenbauer nodes per polar angle,
computed as the eigenvalues of a Jacobi matrix (Golub & Welsch, Math.
Comp. 23, 1969).  Each rule is built once per process and shared
read-only.  The radial rule is the G7/K15 Gauss-Kronrod pair, whose
embedded Gauss rule gives the radial error estimate without evaluating
any further node.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# sphere-rule order per dimension; the rule has 2 * order^(n-1) nodes for n >= 2
DEFAULT_ORDER = {1: 3, 2: 16, 3: 10, 4: 8, 5: 6, 6: 6}

_PRIMES = (2, 3, 5, 7, 11, 13)

# G7/K15 Gauss-Kronrod pair on [-1, 1] (Piessens et al., QUADPACK, 1983),
# the nonnegative half, largest node first; every second Kronrod node,
# starting with the second, is a Gauss-7 node.
_KRONROD_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_GAUSS_WEIGHTS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def halton(n: int, count: int, seed: int | None = None) -> np.ndarray:
    """The first count points of the n-dimensional Halton set, shape (count, n).

    With a seed, each digit of each coordinate goes through its own random
    permutation of the base's digits, drawn in SciPy's order from
    `np.random.default_rng(seed)`.  Digits are summed in SciPy's order too,
    which is what makes the points equal bit for bit.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    out = np.zeros((n, count))
    for d, base in enumerate(_PRIMES[:n]):
        if rng is None:  # identity permutations, as many digits as count - 1 has
            perms = [np.arange(base)] * next(k for k in range(64) if base ** k >= count)
        else:  # SciPy draws every permutation of a base before the next base's
            perms = [rng.permutation(base) for _ in range(math.ceil(54 / math.log2(base)) - 1)]
        quotient, scale = np.arange(count), 1.0 / base
        for perm in perms:
            out[d] += perm[quotient % base] * scale
            quotient //= base
            scale /= base
    return out.T


@lru_cache(maxsize=32)
def sphere_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, n) and weights (N,) on the unit sphere S^{n-1}, both read-only.

    Exact for polynomials of degree up to 2 * order - 1, with weights summing
    to the area of S^{n-1}.  S^0 is its two points whatever the order; S^1 is
    the 2 * order-point midpoint trapezoid rule; higher spheres cross
    order Gauss-Gegenbauer nodes u of the last coordinate with sqrt(1 - u^2)
    times the rule on S^{n-2}.
    """
    if n == 1:
        nodes, weights = np.array([[1.0], [-1.0]]), np.ones(2)
    elif n == 2:
        theta = np.pi * (np.arange(2 * order) + 0.5) / order
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(2 * order, np.pi / order)
    else:
        u, wu = _gegenbauer(order, (n - 2) / 2.0)
        sub, wsub = sphere_rule(n - 1, order)
        ring = np.sqrt(1.0 - u * u)
        nodes = np.column_stack([np.kron(ring[:, None], sub), np.repeat(u, len(sub))])
        weights = np.kron(wu, wsub)
    nodes.setflags(write=False)  # one rule per (n, order) is shared by every caller
    weights.setflags(write=False)
    return nodes, weights


def _gegenbauer(m: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule on [-1, 1] for the weight (1 - u^2)^(lam - 1/2), lam > 0."""
    k = np.arange(1, m)
    off = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    u, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)
    return u, mu0 * vec[0] ** 2


def radial_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15-node Kronrod rule on [0, 1] and its embedded Gauss-7 rule.

    Returns (nodes, kronrod_weights, gauss_weights), nodes increasing and
    strictly inside (0, 1); the Gauss weights are zero at the eight
    Kronrod-only nodes.
    """
    x = np.asarray(_KRONROD_NODES)
    kronrod = np.asarray(_KRONROD_WEIGHTS)
    gauss = np.zeros(8)
    gauss[1::2] = _GAUSS_WEIGHTS
    # mirror the halves to all 15 nodes, increasing
    nodes = np.concatenate([-x, x[-2::-1]])
    kronrod = np.concatenate([kronrod, kronrod[-2::-1]])
    gauss = np.concatenate([gauss, gauss[-2::-1]])
    return 0.5 * (nodes + 1.0), 0.5 * kronrod, 0.5 * gauss
