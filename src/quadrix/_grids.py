"""Deterministic quadrature grids: Halton sets, sphere direction sets and the radial rule.

`halton` is a numpy radical-inverse Halton set, plain or scrambled with
Owen's random digit permutations (arXiv:1706.02808); it equals
`scipy.stats.qmc.Halton` bit for bit without loading scipy.stats.

Direction sets are low-discrepancy and fully deterministic (no RNG):
the two-point set on S^0, uniform angles on S^1, a Fibonacci lattice on
S^2 and a Halton-Gaussian construction for higher spheres.  Each set is
built once per process and shared read-only.  Interleaved
even/odd halves of every set are themselves well distributed, which is
what the paired error estimates rely on.  The radial rule is the G7/K15
Gauss-Kronrod pair, whose embedded Gauss rule gives the radial error
estimate without evaluating any further node.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DEFAULT_DIRECTIONS = {1: 2, 2: 256, 3: 4096, 4: 8192, 5: 16384, 6: 16384}

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

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


def default_direction_count(n: int) -> int:
    return DEFAULT_DIRECTIONS[n]


def halton(n: int, count: int, seed: int | None = None) -> np.ndarray:
    """The first count points of the n-dimensional Halton set, shape (count, n).

    With a seed, each digit of each coordinate goes through its own random
    permutation of the base's digits, drawn in scipy's order from
    `np.random.default_rng(seed)`.  Digits are summed in scipy's order too,
    which is what makes the points equal bit for bit.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    out = np.zeros((n, count))
    for d, base in enumerate(_PRIMES[:n]):
        if rng is None:  # identity permutations, as many digits as count - 1 has
            perms = [np.arange(base)] * next(k for k in range(64) if base ** k >= count)
        else:  # scipy draws every permutation of a base before the next base's
            perms = [rng.permutation(base) for _ in range(math.ceil(54 / math.log2(base)) - 1)]
        quotient, scale = np.arange(count), 1.0 / base
        for perm in perms:
            out[d] += perm[quotient % base] * scale
            quotient //= base
            scale /= base
    return out.T


def sphere_directions(n: int, count: int) -> np.ndarray:
    """count unit vectors spread over S^{n-1}, shape (count, n), read-only."""
    u = _sphere_set(n, count)
    u.setflags(write=False)  # one array per (n, count) is shared by every caller
    return u


@lru_cache(maxsize=32)
def _sphere_set(n: int, count: int) -> np.ndarray:
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
    from scipy.special import ndtri  # equals norm.ppf, without loading scipy.stats

    u = halton(n, count + 1)[1:]  # drop the origin-adjacent first point
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    # C order, as norm.ppf returned it: the layout sets the rounding of later products
    gauss = np.ascontiguousarray(ndtri(u))
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
