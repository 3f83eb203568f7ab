"""Candidate convex functions f: R^n -> R with exact first and second derivatives.

Three kinds of function are supported: diagonal quadratic forms
sum(a_i^2 x_i^2), the same forms with a quartic or cosh perturbation, and
arbitrary expressions in a small infix language (variables x1..xn, the
operators + - * / ^ and the functions exp, log, cosh, sinh, sqrt).

Derivatives are exact, never finite differences.  Every spec kind has one
batch evaluator, forward mode over a tangent of k directions.
eval_value_grad, eval_jets and its one-point call eval_jet2 seed the n
unit directions, so the tangent is the gradient; eval_line seeds one
direction per lane, the derivative along that lane's line, and takes the
points one coordinate row at a time, so none of its arrays is n wide.
Every evaluator works lane by lane, so a point's bits do not depend on
its batch.  The built-in families share one closed form between the two
seeds, summed one coordinate at a time.  An expression parses to a postfix
program, which one loop runs on (value, tangent, hessian) triples, so an
expression may be of any length; nesting deeper than the interpreter's
recursion limit is a ParseError.  The parser folds every subexpression
without a variable into one constant, rewrites a / b as a * b^-1, a
power with a constant exponent (x1^-2, x1^(1+1)) as a constant power,
and any other a ^ b as exp(log(a) * b), so the program needs only the
sum, difference and product rules and one chain rule for its unary ops.
All evaluators are pure, so specs can be shared freely between threads.
"""

from __future__ import annotations

import functools
import operator
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
    "eval_jets",
    "eval_value_grad",
    "eval_line",
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
    if not np.isfinite(x).all():
        raise EvaluationError("non-finite input point")
    return x


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if a is not None and not np.isfinite(a).all():
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

    def _eval(self, seed, want_hessian: bool):
        a2 = np.asarray(self.a) ** 2

        def formula(x, a2):
            terms = x ** 2
            terms *= a2
            return terms, lambda: 2.0 * a2 * x, lambda: 2.0 * a2

        return _separable(seed, a2, formula, want_hessian)


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

    def _eval(self, seed, want_hessian: bool):
        a2 = np.asarray(self.a) ** 2
        eps = self.epsilon
        quartic = self.kind == "quartic"

        def formula(x, a2):
            x2 = x * x
            if quartic:  # x2 a2 + eps x2^2 and 2 a2 x + 4 eps x2 x
                bump = x2 * x2
                curvature, even = 12.0 * eps, x2  # the perturbation's f'' is curvature * even
            else:  # x2 a2 + eps (cosh x - 1) and 2 a2 x + eps sinh x
                even = np.cosh(x)
                bump = even - 1.0
                curvature = eps
            bump *= eps
            terms = x2 * a2
            terms += bump

            def slope():
                grads, extra = 2.0 * a2 * x, (x2 * x if quartic else np.sinh(x))
                extra *= 4.0 * eps if quartic else eps
                grads += extra
                return grads

            return terms, slope, lambda: 2.0 * a2 + curvature * even

        return _separable(seed, a2, formula, want_hessian)


def _separable(seed, a2: np.ndarray, formula, want_hessian: bool):
    """f(x) = sum_i phi_i(x_i), the Hessian diagonal, with one coefficient a2_i per coordinate.

    formula(x, a2) gives the terms phi_i(x_i) and callables for the first
    and the second partial derivatives on coordinates x with coefficients
    a2.  A batch seeded with the unit directions takes every coordinate at
    once, shape (M, n), so the partials are the gradient; a line seed takes
    one coordinate row at a time, each partial times the row's tangent.
    Both add the terms one coordinate at a time, in order, so a lane's
    value has the same bits whichever seed and whichever batch computes it.
    A batch's terms are freed before its gradient is taken, so no two
    (M, n) arrays are live at once.
    """
    if seed.batch is not None:
        terms, slope, curvature = formula(seed.batch, a2)
        vals = terms[:, 0].copy()
        for i in range(1, seed.n):
            vals += terms[:, i]
        del terms
        grads = slope()
        hess = None
        if want_hessian:
            m, n = seed.batch.shape
            hess = np.zeros((m, n * n))
            hess[:, ::n + 1] = curvature()  # the diagonal
            hess = hess.reshape(m, n, n).transpose(1, 2, 0)  # lane-last, as the tangent
        return vals, grads.T, hess
    vals = tangent = None
    for i in range(seed.n):
        x, dx = seed.coord(i)
        v, slope, _ = formula(x, a2[i])
        slope = slope()
        slope *= dx  # the formula's own array
        if vals is None:
            vals, tangent = v, slope
        else:
            vals += v
            tangent += slope
    return vals, tangent, None


# ---------------------------------------------------------------------------
# Expressions: a postfix program
# ---------------------------------------------------------------------------


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[()+\-*/^]))"
)


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
            value = float(m.group("num"))
            if not np.isfinite(value):
                raise ParseError("number out of range", m.start("num"))
            tokens.append(("num", value, m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser to a postfix program; ^ binds tightest and associates right.

    Each instruction is a pair (op, arg).  ("c", value) and ("x", i) push a
    constant and variable i; "+", "-" and "*" replace the top two values by
    their sum, difference or product; every other op replaces the top value
    u by phi(u): a function of _FN_TABLE, negation "neg" among them, or the
    constant power ("^", c).
    """

    def __init__(self, tokens, n: int, length: int):
        self.tokens, self.n, self.length = tokens, n, length
        self.i, self.code = 0, []

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

    def _emit(self, op: str, arg, pos: int):
        """Append (op, arg), or fold it and its operands, the last instructions
        when all are constants, into the ("c", value) the program would compute;
        a domain error or overflow there is a ParseError at pos."""
        arity = 2 if op in _BINARY else 1
        operands = self.code[-arity:]
        if all(o == "c" for o, _ in operands):
            u = [np.float64(a) for _, a in operands]
            try:
                with np.errstate(all="ignore"):
                    value = _BINARY[op](*u) if arity == 2 else _phi(op, arg, *u)[0]
                _check_finite(value)
            except EvaluationError as exc:
                raise ParseError(f"constant {exc}", pos) from None
            del self.code[-arity:]
            op, arg = "c", float(value)
        self.code.append((op, arg))

    def parse(self):
        self.expr()
        if (tok := self._peek()) is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return tuple(self.code)

    def expr(self):
        self.term()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "+-":
            self.i += 1
            self.term()
            self._emit(tok[1], None, tok[2])

    def term(self):
        self.unary()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "*/":
            self.i += 1
            self.unary()
            if tok[1] == "/":
                self._emit("^", -1.0, tok[2])
            self._emit("*", None, tok[2])

    def unary(self):
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.i += 1
            self.unary()
            self._emit("neg", None, tok[2])
        else:
            self.power()

    def power(self):
        self.atom()
        tok = self._peek()
        if not (tok and tok[0] == "op" and tok[1] == "^"):
            return
        self.i += 1
        start = len(self.code)
        self.unary()  # right-associative; a constant one is folded to one ("c", value)
        exponent = self.code[start:]
        del self.code[start:]
        if len(exponent) == 1 and exponent[0][0] == "c":
            self._emit("^", exponent[0][1], tok[2])
        else:  # exp(log(base) * exponent)
            self._emit("log", None, tok[2])
            self.code += exponent
            self._emit("*", None, tok[2])
            self._emit("exp", None, tok[2])

    def atom(self):
        kind, value, pos = self._next()
        var = re.fullmatch(r"x(\d+)", value) if kind == "ident" else None
        if kind == "num":
            self.code.append(("c", value))
        elif kind == "op" and value == "(":
            self.expr()
            self._expect_op(")")
        elif var:
            j = int(var.group(1))
            if not (1 <= j <= self.n):
                raise ParseError(f"variable x{j} out of range for dimension {self.n}", pos)
            self.code.append(("x", j - 1))
        elif kind == "ident" and value in _FN_TABLE and value != "neg":  # negation is "-" in source
            self._expect_op("(")
            self.expr()
            self._expect_op(")")
            self._emit(value, None, pos)
        elif kind == "ident":
            raise ParseError(f"unknown identifier {value!r}", pos)
        else:
            raise ParseError(f"unexpected token {value!r}", pos)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@dataclass(frozen=True)
class ExpressionSpec:
    """Parsed expression over variables x1..xn, as a postfix program (see _Parser)."""

    n: int
    source: str
    code: tuple = field(repr=False)

    def _eval(self, seed, want_hessian: bool):
        # every row is taken once, up front, so one the program never reads is checked too
        rows = [seed.coord(i) for i in range(self.n)]
        return _run(self.code, rows, seed, want_hessian)


FunctionSpec = QuadraticForm | PerturbedQuadratic | ExpressionSpec


def parse_expression(source: str, n: int) -> ExpressionSpec:
    """Parse an infix expression into a FunctionSpec of dimension n."""
    _check_dimension(n)
    tokens = _tokenize(source)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, n, len(source))
    try:
        code = parser.parse()
    except RecursionError:  # the parser recurses once per nesting level
        tok = parser._peek()
        raise ParseError("expression nested too deeply", tok[2] if tok else len(source)) from None
    return ExpressionSpec(n=n, source=source, code=code)


# ---------------------------------------------------------------------------
# Forward-mode jets for expression programs
# ---------------------------------------------------------------------------

# name -> (phi, phi', phi'' or None where it is zero, argument must be positive)
_FN_TABLE = {
    "neg": (np.negative, lambda u: -1.0, None, False),
    "exp": (np.exp, np.exp, np.exp, False),
    "log": (np.log, lambda u: 1.0 / u, lambda u: -1.0 / u ** 2, True),
    "cosh": (np.cosh, np.sinh, np.cosh, False),
    "sinh": (np.sinh, np.cosh, np.sinh, False),
    "sqrt": (np.sqrt, lambda u: 0.5 / np.sqrt(u), lambda u: -0.25 * u ** -1.5, True),
}


def _outer(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    return g1[:, None] * g2[None, :]


def _run(code, rows, seed, want_h: bool):
    """Run a program on (value, tangent, hessian) triples, lane-last; the last one left is f's.

    rows[i] is variable i's row, shape (M,), and its tangent, which
    broadcasts to (k, M); every tangent follows the same shapes and every
    hessian has shape (k, k, M), None when want_h is false.  The program has
    three kinds of instruction: constants and variables; the sum, difference
    and product rules; and one chain rule, g = phi' g_u and
    h = phi' h_u + phi'' g_u g_u^T, for every unary op phi(u).  Each rule
    keeps the hessian exactly symmetric, and results are exact up to roundoff.
    """
    zero_h = seed.zero_hessian if want_h else None
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in code:
        if op == "x":
            push((*rows[arg], zero_h))
        elif op == "c":
            push((np.float64(arg), seed.zero, zero_h))
        elif op in _BINARY:
            w, gw, hw = pop()
            u, gu, hu = stack[-1]
            if op == "+":
                stack[-1] = u + w, gu + gw, (hu + hw if want_h else None)
            elif op == "-":
                stack[-1] = u - w, gu - gw, (hu - hw if want_h else None)
            else:
                h = None
                if want_h:
                    h = u * hw + w * hu
                    h += _outer(gu, gw) + _outer(gw, gu)
                stack[-1] = u * w, u * gw + w * gu, h
                del h
            # free the operands now, as a returning call would: arrays held
            # to the next instruction slowed 5 000 lanes by 10-15%
            del u, gu, hu, w, gw, hw
        else:
            u, gu, hu = stack[-1]
            v, d1, d2 = _phi(op, arg, u)
            g = d1 * gu
            h = None
            if want_h:
                h = d1 * hu if d2 is None else d1 * hu + d2() * _outer(gu, gu)
            _check_finite(v, g, h)
            stack[-1] = v, g, h
            del u, gu, hu, v, d1, d2, g, h
    return stack[-1]


def _phi(op: str, c: float, u):
    """phi(u), phi'(u) and a callable for phi''(u), None where phi'' is zero,
    of a unary op (c the exponent of "^"), once its domain check passes."""
    if op == "^":
        if not c.is_integer() and np.any(u <= 0):
            raise EvaluationError("fractional power of non-positive base")
        if c < 0 and np.any(u == 0):
            raise EvaluationError("division by zero")
        # a zero coefficient gives a zero term, not 0 * inf at u = 0;
        # otherwise 0^0 = 1 and 0^j = 0 are exact, so x^2 has curvature 2 at 0
        d1 = c * u ** (c - 1.0) if c else np.zeros_like(u)
        d2 = (lambda: c * (c - 1.0) * u ** (c - 2.0)) if c * (c - 1.0) else None
        return u ** c, d1, d2
    phi, dphi, d2phi, positive = _FN_TABLE[op]
    if positive and np.any(u <= 0):
        raise EvaluationError(f"{op} of non-positive argument")
    return phi(u), dphi(u), (None if d2phi is None else lambda: d2phi(u))


# ---------------------------------------------------------------------------
# Public evaluation entry points
# ---------------------------------------------------------------------------


class _UnitTangents:
    """A batch X, shape (M, n), seeded with the n unit directions.

    The tangent of f is then its gradient, lane-last (n, M); a variable's
    tangent is its unit column (n, 1), broadcast on first use.
    """

    def __init__(self, X: np.ndarray):
        self.batch = X
        self.n = X.shape[1]
        self._units, self.zero, self.zero_hessian = _unit_seed(self.n)

    def coord(self, i: int):
        return self.batch[:, i], self._units[i]


@functools.lru_cache(maxsize=None)
def _unit_seed(n: int):
    """Read-only unit columns e_i (n, 1), zero tangent (n, 1) and zero Hessian (n, n, 1)."""
    arrays = np.eye(n)[:, :, None], np.zeros((n, 1)), np.zeros((n, n, 1))
    for a in arrays:
        a.setflags(write=False)
    return arrays


class _LineTangents:
    """Rows on demand from row(i) -> (x_i, dx_i / dtau), seeded with one direction.

    Every tangent is one value per lane (or one shared scalar), the
    derivative along that lane's line.
    """

    batch = None
    zero = 0.0

    def __init__(self, row, n: int):
        self._row, self.n = row, n

    def coord(self, i: int):
        x, dx = self._row(i)
        if not np.isfinite(x).all():
            raise EvaluationError("non-finite input point")
        return x, dx


def eval_jet2(spec: FunctionSpec, x: np.ndarray) -> Jet2:
    """Exact value, gradient and Hessian of f at a single point x."""
    X = _as_batch(x, spec.n)
    if X.shape[0] != 1:
        raise ValueError("eval_jet2 expects a single point; use eval_jets for batches")
    vals, grads, hess = _jets(spec, X)
    return Jet2(value=float(vals[0]), gradient=grads[0], hessian=hess[0])


def eval_jets(spec: FunctionSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, gradients and (symmetric) Hessians of f on a batch of points, shape (M, n).

    Returns arrays of shapes (M,), (M, n) and (M, n, n).  Every evaluator
    works lane by lane, so a point's jet has the same bits in any batch.
    """
    return _jets(spec, _as_batch(X, spec.n))


def _jets(spec: FunctionSpec, X: np.ndarray):
    m, n = X.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals, grads, hess = spec._eval(_UnitTangents(X), want_hessian=True)
    vals, grads = _own(vals, (m,)), _gradient(grads, m)
    _check_finite(vals, grads, hess)
    hess = hess.transpose(2, 0, 1)  # lane-first
    if hess.shape[0] != m or not hess.flags.writeable:  # a linear program's shared zero seed
        hess = np.broadcast_to(hess, (m, n, n)).copy()
    return vals, grads, hess


def eval_value_grad(spec: FunctionSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of f on a batch of points, shape (M, n)."""
    X = _as_batch(X, spec.n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals, grads, _ = spec._eval(_UnitTangents(X), want_hessian=False)
    vals, grads = _own(vals, (X.shape[0],)), _gradient(grads, X.shape[0])
    _check_finite(vals, grads)
    return vals, grads


def eval_line(spec: FunctionSpec, row, m: int) -> tuple[np.ndarray, np.ndarray]:
    """f at m points on lines, and its derivative along each line, shape (m,) each.

    row(i) returns coordinate i of the points, shape (m,), and its
    derivative along the lines, shape (m,) or one scalar for all of them.
    Rows are asked for on demand, one at a time, so no array is n wide;
    the result equals eval_value_grad's values and its gradients times the
    line directions, and the same inputs raise the same EvaluationError.
    Both arrays are the caller's own: no input shares them.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals, slopes, _ = spec._eval(_LineTangents(row, spec.n), want_hessian=False)
    vals, slopes = _own(vals, (m,)), _own(slopes, (m,))
    _check_finite(vals, slopes)
    return vals, slopes


def _own(a, shape: tuple) -> np.ndarray:
    """a as an array of the given shape that no input shares: a constant's
    value broadcasts, and a bare variable's row or tangent is copied."""
    if isinstance(a, np.ndarray) and a.shape == shape and a.base is None:
        return a
    return np.broadcast_to(a, shape).copy()


def _gradient(tangent: np.ndarray, m: int) -> np.ndarray:
    """The (m, n) gradients from a unit-seeded tangent, which broadcasts (or
    is a read-only seed column) for a linear program."""
    if tangent.shape[1] != m or not tangent.flags.writeable:
        tangent = np.broadcast_to(tangent, (tangent.shape[0], m)).copy()
    return tangent.T
