"""Deterministic quadrature grids: Halton sets, the sphere rules and the radial rule.

`halton` is a numpy radical-inverse Halton set, plain or scrambled with
Owen's random digit permutations (arXiv:1706.02808); it equals
SciPy's `stats.qmc.Halton` bit for bit, without SciPy.

`tensor_rule` is a product rule on S^{n-1} in hyperspherical coordinates
(Stroud, Approximate Calculation of Multiple Integrals, 1971): the
trapezoid rule in azimuth and Gauss-Gegenbauer nodes per polar angle,
computed as the eigenvalues of a Jacobi matrix (Golub & Welsch, Math.
Comp. 23, 1969).  It has 2 order^(n-1) nodes.  The fully symmetric
interpolatory rule (Genz, J. Comput. Appl. Math. 157, 2003) reaches the
same degree with nodes whose squared coordinates are multiples of
1 / (order - 1), one weight per orbit under coordinate permutations and
sign changes; its size is set by the orbit sizes, not by order^(n-1).
`sphere_rule`, the engine's one entry point, picks the tensor rule at
n <= 4 and the symmetric rule at n >= 5, where it needs 2 364 nodes for
degree 11 at n = 6 against the tensor rule's 15 552.  Each rule is built
once per process and shared read-only.  The radial rule is the G7/K15
Gauss-Kronrod pair, whose embedded Gauss rule gives the radial error
estimate without evaluating any further node.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# sphere-rule order per dimension: sphere_rule(n, order) is exact to degree 2 order - 1
DEFAULT_ORDER = {1: 3, 2: 16, 3: 10, 4: 8, 5: 7, 6: 6}
# at n = 4 the symmetric rules save only 10% of the rays at the default order,
# so n <= 4 keeps the tensor rule and its output bytes
_TENSOR_MAX_N = 4

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
    to the area of S^{n-1}: the tensor rule at n <= 4, the fully symmetric
    rule above.  Nodes come in a fixed order, so sums over them are bit-stable.
    """
    return tensor_rule(n, order) if n <= _TENSOR_MAX_N else _symmetric_rule(n, order)


@lru_cache(maxsize=32)
def tensor_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The product rule on S^{n-1}, exact to degree 2 * order - 1, both arrays read-only.

    S^0 is its two points whatever the order; S^1 is the 2 * order-point
    midpoint trapezoid rule; higher spheres cross order Gauss-Gegenbauer
    nodes u of the last coordinate with sqrt(1 - u^2) times the rule on
    S^{n-2}.
    """
    if n == 1:
        nodes, weights = np.array([[1.0], [-1.0]]), np.ones(2)
    elif n == 2:
        theta = np.pi * (np.arange(2 * order) + 0.5) / order
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(2 * order, np.pi / order)
    else:
        u, wu = _gegenbauer(order, (n - 2) / 2.0)
        sub, wsub = tensor_rule(n - 1, order)
        ring = np.sqrt(1.0 - u * u)
        nodes = np.column_stack([np.kron(ring[:, None], sub), np.repeat(u, len(sub))])
        weights = np.kron(wu, wsub)
    nodes.setflags(write=False)  # one rule per (n, order) is shared by every caller
    weights.setflags(write=False)
    return nodes, weights


def _partitions(k: int, parts: int, largest: int | None = None):
    """Partitions of k into at most `parts` parts, each non-increasing, in decreasing order."""
    if k == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, parts - 1, first):
            yield (first,) + rest


def _symmetric_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The fully symmetric interpolatory rule on S^{n-1} of degree 2 * order - 1.

    With k = order - 1, each partition p of k into at most n parts gives the
    generator (sqrt(p_1 / k), ..., sqrt(p_r / k), 0, ...), which carries its
    orbit under coordinate permutations and sign changes.  One weight per
    orbit makes the rule exact for x^(2q) for every partition q of k.  That
    is exact to degree 2k + 1: odd monomials vanish by symmetry, and on the
    sphere an even monomial of lower degree times |x|^(2j) is one of degree
    2k.  The square system is nonsingular (the squared nodes are the
    orbits of the step-1/k lattice on the simplex, unisolvent for degree
    k) and rational, so it is solved exactly; in floating point its
    condition number reaches 2e9 at n = 6, order 12.
    Order 1 (k = 0, the order-3 rule's coarse partner) takes the order-2
    rule, the 2n points +-e_i, which is exact to degree 3.
    """
    from fractions import Fraction  # exact weights; only n >= 5 loads it

    k = max(order - 1, 1)
    parts = list(_partitions(k, n))
    padded = [p + (0,) * (n - len(p)) for p in parts]
    # the distinct coordinate arrangements of each generator's squares, times k
    arrangements = [np.array(sorted(set(itertools.permutations(p))), dtype=object) for p in padded]
    # row q: k^k times the orbit sums of x^(2q), in which the sign changes
    # count each arrangement 2^r times; last, k^k times the mean of x^(2q)
    # over S^{n-1}, prod (2 q_i - 1)!! / prod_{j<k} (n + 2j)
    system = [[Fraction(2 ** len(p) * int(np.sum(np.prod(arr ** np.array(q, dtype=object), 1))))
               for p, arr in zip(parts, arrangements)]
              + [Fraction(k ** k * math.prod(math.prod(range(1, 2 * qi, 2)) for qi in q),
                          math.prod(n + 2 * j for j in range(k)))]
              for q in padded]
    area = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    nodes, weights = [], []
    for p, arr, w in zip(parts, arrangements, _solve_exact(system)):
        if w == 0:  # an orbit of weight exactly 0 (n = 6, order 5 has one) adds rays, not value
            continue
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(p))))
        for point in np.sqrt(arr.astype(float) / k):
            orbit = np.tile(point, (len(signs), 1))
            orbit[:, point > 0] *= signs
            nodes.append(orbit)
        weights.append(np.full(len(arr) * len(signs), area * float(w)))
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _solve_exact(rows: list[list]) -> list:
    """Gauss-Jordan elimination on the augmented rows of a nonsingular system of Fractions."""
    size = len(rows)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / head[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], head)]
    return [row[size] / row[i] for i, row in enumerate(rows)]


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
