"""Candidate convex functions f: R^n -> R with exact first and second derivatives.

Three kinds of function are supported: diagonal quadratic forms
sum(a_i^2 x_i^2), the same forms with a quartic or cosh perturbation, and
arbitrary expressions in a small infix language (variables x1..xn, the
operators + - * / ^ and the functions exp, log, cosh, sinh, sqrt).

Derivatives are exact.  Built-in families use closed forms; expression
trees are evaluated by second-order forward-mode automatic
differentiation, propagating (value, gradient, hessian) through each node,
never by finite differences.  All evaluators accept a batch of points at
once and are pure, so specs can be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ParseError

MAX_DIMENSION = 6

__all__ = [
    "Jet2",
    "QuadraticForm",
    "PerturbedQuadratic",
    "ExpressionSpec",
    "FunctionSpec",
    "parse_expression",
    "eval_jet2",
    "eval_value_grad",
]


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and (symmetric) Hessian of f at one point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def _check_dimension(n: int) -> None:
    if not (1 <= n <= MAX_DIMENSION):
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")


def _as_batch(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"expected points of dimension {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise EvaluationError("non-finite input point")
    return x


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise EvaluationError("overflow or invalid value during evaluation")


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = sum_i a_i^2 x_i^2 with all a_i > 0."""

    a: tuple[float, ...]

    def __post_init__(self):
        _check_dimension(len(self.a))
        if any(ai <= 0 for ai in self.a):
            raise ValueError("quadratic coefficients must be positive")
        object.__setattr__(self, "a", tuple(float(ai) for ai in self.a))

    @property
    def n(self) -> int:
        return len(self.a)

    def _eval(self, X: np.ndarray, want_hessian: bool):
        a2 = np.asarray(self.a) ** 2
        vals = X ** 2 @ a2
        grads = 2.0 * a2 * X
        hess = None
        if want_hessian:
            hess = np.broadcast_to(np.diag(2.0 * a2), (X.shape[0], self.n, self.n)).copy()
        return vals, grads, hess


@dataclass(frozen=True)
class PerturbedQuadratic:
    """Quadratic form plus eps * sum x_i^4 (quartic) or eps * sum (cosh x_i - 1)."""

    a: tuple[float, ...]
    epsilon: float
    kind: str = "quartic"

    def __post_init__(self):
        _check_dimension(len(self.a))
        if any(ai <= 0 for ai in self.a):
            raise ValueError("quadratic coefficients must be positive")
        if self.epsilon < 0:
            raise ValueError("perturbation size must be nonnegative")
        if self.kind not in ("quartic", "cosh"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        object.__setattr__(self, "a", tuple(float(ai) for ai in self.a))

    @property
    def n(self) -> int:
        return len(self.a)

    def _eval(self, X: np.ndarray, want_hessian: bool):
        a2 = np.asarray(self.a) ** 2
        eps = self.epsilon
        X2 = X * X
        if self.kind == "quartic":
            vals = X2 @ a2 + eps * np.sum(X2 * X2, axis=1)
            grads = 2.0 * a2 * X + 4.0 * eps * (X2 * X)
            curvature, even = 12.0 * eps, X2  # the perturbation's f'' is curvature * even
        else:
            even = np.cosh(X)
            vals = X2 @ a2 + eps * np.sum(even - 1.0, axis=1)
            grads = 2.0 * a2 * X + eps * np.sinh(X)
            curvature = eps
        hess = None
        if want_hessian:
            m, n = X.shape
            hess = np.zeros((m, n, n))
            idx = np.arange(n)
            hess[:, idx, idx] = 2.0 * a2 + curvature * even
        return vals, grads, hess


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[()+\-*/^]))"
)

_FUNCTIONS = ("exp", "log", "cosh", "sinh", "sqrt")


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace before reporting
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            where = len(source) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", where)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser; ^ binds tightest and associates right."""

    def __init__(self, tokens, n: int, length: int):
        self.tokens = tokens
        self.n = n
        self.i = 0
        self.length = length

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2])

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "+-":
            self.i += 1
            node = BinOp(tok[1], node, self.term())
        return node

    def term(self):
        node = self.unary()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "*/":
            self.i += 1
            node = BinOp(tok[1], node, self.unary())
        return node

    def unary(self):
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.i += 1
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.i += 1
            return BinOp("^", base, self.unary())  # right-associative exponent
        return base

    def atom(self):
        tok = self._next()
        kind, value, pos = tok
        if kind == "num":
            return Const(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        if kind == "ident":
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                j = int(m.group(1))
                if not (1 <= j <= self.n):
                    raise ParseError(f"variable x{j} out of range for dimension {self.n}", pos)
                return Var(j - 1)
            if value in _FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


@dataclass(frozen=True)
class ExpressionSpec:
    """Parsed expression tree over variables x1..xn."""

    n: int
    source: str
    root: object = field(repr=False)

    def _eval(self, X: np.ndarray, want_hessian: bool):
        return _eval_node(self.root, X, want_hessian)


FunctionSpec = QuadraticForm | PerturbedQuadratic | ExpressionSpec


def parse_expression(source: str, n: int) -> ExpressionSpec:
    """Parse an infix expression into a FunctionSpec of dimension n."""
    _check_dimension(n)
    tokens = _tokenize(source)
    if not tokens:
        raise ParseError("empty expression", 0)
    root = _Parser(tokens, n, len(source)).parse()
    return ExpressionSpec(n=n, source=source, root=root)


# ---------------------------------------------------------------------------
# Forward-mode jets for expression trees
# ---------------------------------------------------------------------------

# name -> (phi, phi', phi'', domain guard)
_FN_TABLE = {
    "exp": (np.exp, np.exp, np.exp, None),
    "log": (np.log, lambda u: 1.0 / u, lambda u: -1.0 / u ** 2, "positive"),
    "cosh": (np.cosh, np.sinh, np.cosh, None),
    "sinh": (np.sinh, np.cosh, np.sinh, None),
    "sqrt": (
        np.sqrt,
        lambda u: 0.5 / np.sqrt(u),
        lambda u: -0.25 * u ** -1.5,
        "positive",
    ),
}


def _outer(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    return np.einsum("mi,mj->mij", g1, g2)


def _eval_node(node, X: np.ndarray, want_h: bool):
    """Evaluate (value, gradient, hessian) of a tree node on a batch X.

    Returns arrays of shape (M,), (M, n) and (M, n, n); the hessian is None
    when want_h is false.  Second-order chain/product rules are applied at
    every node, so results are exact up to roundoff.
    """
    m, n = X.shape
    if isinstance(node, Const):
        v = np.full(m, node.value)
        g = np.zeros((m, n))
        h = np.zeros((m, n, n)) if want_h else None
        return v, g, h
    if isinstance(node, Var):
        v = X[:, node.index].copy()
        g = np.zeros((m, n))
        g[:, node.index] = 1.0
        h = np.zeros((m, n, n)) if want_h else None
        return v, g, h
    if isinstance(node, Neg):
        v, g, h = _eval_node(node.arg, X, want_h)
        return -v, -g, (-h if want_h else None)
    if isinstance(node, Call):
        u, gu, hu = _eval_node(node.arg, X, want_h)
        phi, dphi, d2phi, guard = _FN_TABLE[node.fn]
        if guard == "positive" and np.any(u <= 0):
            raise EvaluationError(f"{node.fn} of non-positive argument")
        d1 = dphi(u)
        v = phi(u)
        g = d1[:, None] * gu
        h = None
        if want_h:
            h = d1[:, None, None] * hu + d2phi(u)[:, None, None] * _outer(gu, gu)
        return v, g, h

    # binary operators
    u, gu, hu = _eval_node(node.lhs, X, want_h)
    if node.op == "^" and isinstance(node.rhs, Const):
        c = node.rhs.value
        if c == round(c):
            c = float(round(c))
        elif np.any(u <= 0):
            raise EvaluationError("fractional power of non-positive base")
        with np.errstate(divide="ignore", invalid="ignore"):
            v = u ** c
            d1 = c * u ** (c - 1.0)
            g = d1[:, None] * gu
            h = None
            if want_h:
                d2 = c * (c - 1.0) * u ** (c - 2.0)
                # u == 0 with integer exponent >= 2 has vanishing curvature term
                d2 = np.where((u == 0.0) & (c >= 2.0), 0.0, d2)
                h = d1[:, None, None] * hu + d2[:, None, None] * _outer(gu, gu)
        _check_finite(v, g, h)
        return v, g, h

    w, gw, hw = _eval_node(node.rhs, X, want_h)
    if node.op == "+":
        return u + w, gu + gw, (hu + hw if want_h else None)
    if node.op == "-":
        return u - w, gu - gw, (hu - hw if want_h else None)
    if node.op == "*":
        v = u * w
        g = u[:, None] * gw + w[:, None] * gu
        h = None
        if want_h:
            h = u[:, None, None] * hw + w[:, None, None] * hu
            h += _outer(gu, gw) + _outer(gw, gu)
        return v, g, h
    if node.op == "/":
        if np.any(w == 0):
            raise EvaluationError("division by zero")
        v = u / w
        g = (gu - v[:, None] * gw) / w[:, None]
        h = None
        if want_h:
            h = (hu - v[:, None, None] * hw - _outer(g, gw) - _outer(gw, g)) / w[:, None, None]
        return v, g, h
    if node.op == "^":
        # general exponent: u^w = exp(w log u), requires u > 0
        if np.any(u <= 0):
            raise EvaluationError("power with non-positive base")
        logu = np.log(u)
        v = np.exp(w * logu)
        # gradient of w*log(u)
        ge = logu[:, None] * gw + (w / u)[:, None] * gu
        g = v[:, None] * ge
        h = None
        if want_h:
            he = logu[:, None, None] * hw + (w / u)[:, None, None] * hu
            he += (_outer(gw, gu) + _outer(gu, gw)) / u[:, None, None]
            he -= (w / u ** 2)[:, None, None] * _outer(gu, gu)
            h = v[:, None, None] * (he + _outer(ge, ge))
        return v, g, h
    raise AssertionError(f"unhandled operator {node.op!r}")


# ---------------------------------------------------------------------------
# Public evaluation entry points
# ---------------------------------------------------------------------------


def eval_jet2(spec: FunctionSpec, x: np.ndarray) -> Jet2:
    """Exact value, gradient and Hessian of f at a single point x."""
    X = _as_batch(x, spec.n)
    if X.shape[0] != 1:
        raise ValueError("eval_jet2 expects a single point; use eval_value_grad for batches")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals, grads, hess = spec._eval(X, want_hessian=True)
    _check_finite(vals, grads, hess)
    h = 0.5 * (hess[0] + hess[0].T)  # symmetric by construction; cheap belt and braces
    return Jet2(value=float(vals[0]), gradient=grads[0], hessian=h)


def eval_value_grad(spec: FunctionSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of f on a batch of points, shape (M, n)."""
    X = _as_batch(X, spec.n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals, grads, _ = spec._eval(X, want_hessian=False)
    _check_finite(vals, grads)
    return vals, grads
