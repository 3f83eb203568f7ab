"""Deterministic quadrature grids: sphere direction sets and the radial rule.

Direction sets are low-discrepancy and fully deterministic (no RNG):
the two-point set on S^0, uniform angles on S^1, a Fibonacci lattice on
S^2 and a Halton-Gaussian construction for higher spheres.  Interleaved
even/odd halves of every set are themselves well distributed, which is
what the paired error estimates rely on.  The radial rule is the G7/K15
Gauss-Kronrod pair, whose embedded Gauss rule gives the radial error
estimate without evaluating any further node.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm, qmc

DEFAULT_DIRECTIONS = {1: 2, 2: 256, 3: 4096, 4: 8192, 5: 16384, 6: 16384}

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

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


def default_direction_count(n: int) -> int:
    return DEFAULT_DIRECTIONS[n]


def sphere_directions(n: int, count: int) -> np.ndarray:
    """count unit vectors spread over S^{n-1}, shape (count, n)."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        theta = 2.0 * np.pi * (np.arange(count) + 0.5) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        phi = 2.0 * np.pi * i / _GOLDEN
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    sampler = qmc.Halton(d=n, scramble=False)
    u = sampler.random(count + 1)[1:]  # drop the origin-adjacent first point
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    gauss = norm.ppf(u)
    return gauss / np.linalg.norm(gauss, axis=1, keepdims=True)


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
