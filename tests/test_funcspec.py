import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrix import (
    EvaluationError,
    ExpressionSpec,
    ParseError,
    PerturbedQuadratic,
    QuadraticForm,
    eval_jet2,
    eval_line,
    eval_value_grad,
    parse_expression,
)
from quadrix import funcspec


def test_parse_quadratic_equivalent():
    spec = parse_expression("x1^2 + x2^2", 2)
    assert eval_jet2(spec, np.array([1.0, 2.0])).value == 5.0


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_expression("x1^2 + x3^2", 2)


def test_parse_cosh_jet_at_zero():
    spec = parse_expression("cosh(x1) - 1", 1)
    jet = eval_jet2(spec, np.array([0.0]))
    assert jet.value == 0.0
    assert jet.gradient == pytest.approx(np.array([0.0]))
    assert jet.hessian == pytest.approx(np.array([[1.0]]))


@pytest.mark.parametrize(
    "source, hessian",
    [
        ("x1^2 + cosh(x2) - 1", [[2.0, 0.0], [0.0, 1.0]]),  # x^2 keeps curvature 2 at 0
        ("x1^3 + x2^2", [[0.0, 0.0], [0.0, 2.0]]),
        ("x1^1 + x2^0", [[0.0, 0.0], [0.0, 0.0]]),  # zero coefficients, no 0 * inf
    ],
)
def test_constant_power_jet_at_zero(source, hessian):
    jet = eval_jet2(parse_expression(source, 2), np.zeros(2))
    assert jet.hessian.tolist() == hessian


@pytest.mark.parametrize("source", ["x1^-2", "x1^(-2)", "1/x1^2"])
def test_negative_integer_power_at_negative_base(source):
    # a numeric exponent is a constant power, so an integer one is defined at u < 0
    jet = eval_jet2(parse_expression(source, 1), np.array([-1.0]))
    assert (jet.value, jet.gradient.tolist(), jet.hessian.tolist()) == (1.0, [2.0], [[6.0]])


@pytest.mark.parametrize("source", ["x1^(1+1)", "x1^(2*1)", "x1^--2"])
def test_constant_exponent_subtrees_fold(source):
    # an exponent without a variable folds into one constant, so these are the
    # constant power x1^2, defined at x1 < 0, not exp(log(x1) * 2)
    x = np.array([-1.0])
    got, want = eval_jet2(parse_expression(source, 1), x), eval_jet2(parse_expression("x1^2", 1), x)
    assert (got.value, got.gradient.tolist(), got.hessian.tolist()) == (
        want.value, want.gradient.tolist(), want.hessian.tolist())


@pytest.mark.parametrize(
    "source, x, expected",
    [
        ("2^3^2", [1.0], 512.0),            # right-associative exponent
        ("-x1^2", [2.0], -4.0),             # unary minus binds below ^
        ("1 + 2 * 3", [0.0], 7.0),
        ("(1 + 2) * 3", [0.0], 9.0),
        ("x1^-2", [2.0], 0.25),
        ("6 / 2 / 3", [0.0], 1.0),          # left-associative division
        ("exp(0) + sqrt(4)", [0.0], 3.0),
        ("1.5e2 - 50", [0.0], 100.0),
    ],
)
def test_parse_precedence(source, x, expected):
    spec = parse_expression(source, 1)
    assert eval_jet2(spec, np.array(x)).value == pytest.approx(expected, rel=1e-14)


TOO_DEEP = r"expression nested too deeply \(at position \d+\)"


@pytest.mark.parametrize(
    "source, message",
    [
        ("x1 + ", "unexpected end"),
        ("(x1", "expected"),
        ("x1 @ 2", "unexpected character"),
        ("foo(x1)", "unknown identifier"),
        ("", "empty"),
        ("x1 x1", "unexpected token"),
        # a constant subtree is evaluated at parse time, its domain errors too
        ("x1 + 1/0", "constant division by zero"),
        ("x1 * log(0)", "constant log of non-positive argument"),
        ("x1^(-1)^0.5", "constant fractional power of non-positive base"),
        ("exp(1000) * x1", "constant overflow"),
        # a literal beyond the float range, at the literal's own position
        ("x1^2 + 1e400", r"number out of range \(at position 7\)"),
        ("x1^(1e400)", r"number out of range \(at position 4\)"),
        # nesting past the interpreter's recursion limit, while parsing
        pytest.param("(" * 198 + "x1" + ")" * 198, TOO_DEEP, id="deep parentheses"),
        pytest.param("exp(" * 200 + "x1" + ")" * 200, TOO_DEEP, id="deep exp calls"),
        pytest.param("-" * 1000 + "x1", TOO_DEEP, id="deep unary minus"),
        pytest.param("x1^" * 600 + "2", TOO_DEEP, id="deep chained powers"),
    ],
)
def test_parse_errors_have_position(source, message):
    with pytest.raises(ParseError, match=message):
        parse_expression(source, 1)


def test_moderate_nesting_parses():
    spec = parse_expression("(" * 100 + "x1 + 1" + ")" * 100, 1)
    assert eval_jet2(spec, np.array([2.0])).value == 3.0


def test_opcode_names_are_not_source_identifiers():
    # source text cannot spell an instruction the grammar does not have:
    # negation's "neg", or the "c" and "x" of constants and variables
    ops = set(funcspec._FN_TABLE).union(
        *({op for op, _ in spec.code} for spec in LINE_SPECS if isinstance(spec, ExpressionSpec)))
    names = sorted(op for op in ops if op.isidentifier() and op not in ("exp", "log", "cosh", "sinh", "sqrt"))
    assert {"neg", "c", "x"} <= set(names)
    for name in names:
        with pytest.raises(ParseError, match=f"unknown identifier '{name}'"):
            parse_expression(f"{name}(x1)", 1)


def test_quadratic_form_jet():
    jet = eval_jet2(QuadraticForm((1.0, 2.0)), np.array([1.0, 1.0]))
    assert jet.value == 5.0
    assert jet.gradient == pytest.approx([2.0, 8.0])
    assert jet.hessian == pytest.approx(np.diag([2.0, 8.0]))


@pytest.mark.parametrize("a", [(1.0,), (1.0, 2.0), (0.5, 1.5, 2.5)])
def test_quadratic_hessian_determinant(a):
    n = len(a)
    jet = eval_jet2(QuadraticForm(a), np.linspace(-1, 1, n))
    want = 2.0 ** n * np.prod(np.asarray(a) ** 2)
    assert np.linalg.det(jet.hessian) == pytest.approx(want, rel=1e-12)


def test_perturbed_quartic_jet():
    jet = eval_jet2(PerturbedQuadratic((1.0, 1.0), 0.1, "quartic"), np.array([1.0, 0.0]))
    assert jet.value == pytest.approx(1.1)
    assert jet.gradient == pytest.approx([2.4, 0.0])


def test_perturbed_cosh_jet():
    jet = eval_jet2(PerturbedQuadratic((1.0, 1.0), 0.1, "cosh"), np.array([1.0, 0.0]))
    assert jet.value == pytest.approx(1.0 + 0.1 * (math.cosh(1.0) - 1.0))
    assert jet.gradient == pytest.approx([2.0 + 0.1 * math.sinh(1.0), 0.0])
    assert jet.hessian[0, 0] == pytest.approx(2.0 + 0.1 * math.cosh(1.0))


@pytest.mark.parametrize("kind", ["quartic", "cosh"])
def test_perturbed_batch_matches_jets_and_formulas(kind):
    # the batch path builds no Hessian; it must agree with the jet path and
    # with the closed forms f = sum a^2 x^2 + eps sum p(x), p = x^4 or cosh x - 1
    a, eps = (0.7, 1.3, 2.0, 0.9), 0.3
    spec = PerturbedQuadratic(a, eps, kind)
    xs = np.random.default_rng(11).uniform(-1.5, 1.5, (25, 4))
    vals, grads = eval_value_grad(spec, xs)
    a2 = np.asarray(a) ** 2
    for i, x in enumerate(xs):
        jet = eval_jet2(spec, x)
        assert vals[i] == pytest.approx(jet.value, rel=1e-15)  # a dot product of another shape
        assert np.array_equal(grads[i], jet.gradient)
        if kind == "quartic":
            want = (a2 @ x ** 2 + eps * np.sum(x ** 4), 2 * a2 * x + 4 * eps * x ** 3,
                    2 * a2 + 12 * eps * x ** 2)
        else:
            want = (a2 @ x ** 2 + eps * np.sum(np.cosh(x) - 1), 2 * a2 * x + eps * np.sinh(x),
                    2 * a2 + eps * np.cosh(x))
        assert jet.value == pytest.approx(want[0], rel=1e-15)
        np.testing.assert_allclose(jet.gradient, want[1], rtol=1e-15, atol=0)
        np.testing.assert_allclose(jet.hessian, np.diag(want[2]), rtol=1e-15, atol=0)


def _fd_gradient(spec, x, step=1e-5):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (eval_jet2(spec, x + e).value - eval_jet2(spec, x - e).value) / (2 * step)
    return grad


def _fd_hessian(spec, x, step=1e-5):
    n = len(x)
    hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros_like(x)
        e[i] = step
        hess[:, i] = (eval_jet2(spec, x + e).gradient - eval_jet2(spec, x - e).gradient) / (2 * step)
    return hess


def _assert_close(got, want, rel=1e-6, floor=1e-9):
    tol = np.maximum(rel * np.abs(want), floor)
    assert np.all(np.abs(got - want) <= tol), f"{got} vs {want}"


FD_SPECS = [
    QuadraticForm((1.0, 2.0)),
    PerturbedQuadratic((1.0, 1.5), 0.1, "quartic"),
    PerturbedQuadratic((0.8, 1.2), 0.3, "cosh"),
    parse_expression("exp(x1) * x2 + cosh(x1 - x2)", 2),
    parse_expression("log(x1^2 + 1) + sinh(x2) / (1 + x1^2)", 2),
    parse_expression("sqrt(x1^2 + x2^2 + 1)", 2),
    parse_expression("x1^2 * x2 - x2^3 / 3 + x1^4", 2),
    parse_expression("x1 ^ (x1^2 + 1)", 1),
    parse_expression("(x1 - 3)^-2 + x2^2 / (x1 + 2)", 2),  # a negative base
]


@pytest.mark.parametrize("spec", FD_SPECS, ids=lambda s: getattr(s, "source", type(s).__name__))
def test_derivatives_match_finite_differences(spec):
    rng = np.random.default_rng(20240817)
    for _ in range(8):
        x = rng.uniform(0.1, 1.5, size=spec.n)  # positive keeps every domain valid
        jet = eval_jet2(spec, x)
        _assert_close(jet.gradient, _fd_gradient(spec, x))
        _assert_close(jet.hessian, _fd_hessian(spec, x))


@settings(max_examples=30, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_expression_gradient_property(x1, x2):
    spec = parse_expression("cosh(x1) + x2^2 * x1 - sinh(x2)", 2)
    x = np.array([x1, x2])
    jet = eval_jet2(spec, x)
    _assert_close(jet.gradient, _fd_gradient(spec, x), rel=1e-5, floor=1e-8)
    assert np.array_equal(jet.hessian, jet.hessian.T)


def test_hessian_symmetric_exactly():
    spec = parse_expression("exp(x1 * x2) + x1^3 * x2^2", 2)
    jet = eval_jet2(spec, np.array([0.7, -0.3]))
    assert np.array_equal(jet.hessian, jet.hessian.T)


DOMAIN_ERRORS = [
    ("log(x1)", [-1.0]),
    ("sqrt(x1)", [-4.0]),
    ("1 / x1", [0.0]),
    ("x1 ^ 0.5", [-1.0]),
]
OVERFLOW = ("exp(x1)", [1000.0])


@pytest.mark.parametrize("source, x", DOMAIN_ERRORS)
def test_domain_errors(source, x):
    with pytest.raises(EvaluationError):
        eval_jet2(parse_expression(source, 1), np.array(x))


@pytest.mark.parametrize(
    "source, x, message",
    [
        ("1 / x1", 0.0, "division by zero"),  # x1^-1 at 0
        ("x1 ^ x1", -1.0, "log of non-positive argument"),  # exp(log(x1) * x1)
    ],
)
def test_domain_error_messages(source, x, message):
    spec, X = parse_expression(source, 1), np.array([[x]])
    for evaluate in (lambda: eval_value_grad(spec, X), lambda: eval_line(spec, _rows(X, np.ones(1)), 1)):
        with pytest.raises(EvaluationError, match=message):
            evaluate()


def test_infinite_exponent_is_an_evaluation_error():
    # the parser refuses an infinite literal (test_parse_errors_have_position);
    # a hand-built program (x1, then the power with exponent inf) still
    # reaches the evaluator, where it is no integer
    spec, X = ExpressionSpec(1, "x1 ^ inf", (("x", 0), ("^", math.inf))), np.array([[0.5]])
    for evaluate in (lambda: eval_value_grad(spec, X), lambda: eval_line(spec, _rows(X, np.ones(1)), 1)):
        with pytest.raises(EvaluationError, match="overflow or invalid value"):
            evaluate()


def test_overflow_is_reported():
    with pytest.raises(EvaluationError, match="overflow"):
        eval_jet2(parse_expression(OVERFLOW[0], 1), np.array(OVERFLOW[1]))


def _rows(X, D):
    """eval_line's row(i) for points X, shape (M, n), on lines along D: one
    direction per lane, shape (M, n), or one shared by every lane, shape (n,)."""
    return lambda i: (X[:, i].copy(), D[:, i] if D.ndim == 2 else D[i])


# every spec kind, and every operator, function and constant-exponent case of
# the expression language: neg, +, -, *, /, ^ (integer, zero, fractional and
# general exponents), exp, log, cosh, sinh, sqrt; a linear tree and a constant
# one, whose tangents broadcast; a variable the tree never reads
LINE_SPECS = FD_SPECS + [
    PerturbedQuadratic((0.7, 1.3, 2.0, 0.9, 1.1, 0.6), 0.4, "cosh"),
    parse_expression("-x1 + 2.5 - x2^0.5 * x1^0 + exp(-x2) / 3 - x1^-2", 2),
    parse_expression("x1 + 2 * x2 - x3", 3),
    parse_expression("3", 2),
    parse_expression("x2^2", 2),
    parse_expression("x2", 2),  # a bare variable: its row and tangent are the result
]


@pytest.mark.parametrize("spec", LINE_SPECS, ids=lambda s: getattr(s, "source", type(s).__name__))
def test_line_evaluator_matches_value_grad(spec):
    # f along lines with one forward tangent equals the batch values and the
    # gradient times the direction, for lane directions and a shared one
    rng = np.random.default_rng(20260101)
    for _ in range(40):
        X = rng.uniform(0.1, 1.5, (7, spec.n))  # positive keeps every domain valid
        for D in (rng.standard_normal((7, spec.n)), rng.standard_normal(spec.n)):
            vals, grads = eval_value_grad(spec, X)
            line_vals, slopes = eval_line(spec, _rows(X, D), 7)
            assert line_vals.shape == slopes.shape == (7,)
            np.testing.assert_allclose(line_vals, vals, rtol=1e-13, atol=0)
            want = np.sum(grads * D, axis=1)
            scale = np.sum(np.abs(grads * D), axis=1)
            assert np.all(np.abs(slopes - want) <= 1e-13 * scale), (slopes, want)
            # the results are the caller's own: writing to them leaves the inputs alone
            X0, D0 = X.copy(), D.copy()
            for out in (line_vals, slopes, vals, grads):
                out *= 2.0
            assert np.array_equal(X, X0) and np.array_equal(D, D0)
    # the same EvaluationError on the inputs of test_domain_errors and
    # test_overflow_is_reported, and on non-finite input, read or not
    cases = [(parse_expression(src, 1), [x]) for src, x in DOMAIN_ERRORS + [OVERFLOW]]
    cases += [(parse_expression("x1^2", 1), [[np.nan]]), (parse_expression("x1^2", 2), [[0.5, np.inf]]),
              (QuadraticForm((1.0, 2.0)), [[np.inf, 0.5]])]
    for err_spec, X in cases:
        X = np.asarray(X, dtype=float)
        with pytest.raises(EvaluationError) as batch:
            eval_value_grad(err_spec, X)
        with pytest.raises(EvaluationError) as line:
            eval_line(err_spec, _rows(X, np.ones(err_spec.n)), len(X))
        assert str(line.value) == str(batch.value)


EXPRESSION_LINE_SPECS = [spec for spec in LINE_SPECS if isinstance(spec, ExpressionSpec)]


@pytest.mark.parametrize("spec", EXPRESSION_LINE_SPECS, ids=lambda s: s.source)
def test_evaluators_agree_bit_for_bit(spec):
    # one program serves every seed: the three evaluators give the same
    # values, and the two unit seeds the same gradients, to the last bit
    X = np.random.default_rng(7).uniform(0.1, 1.5, (9, spec.n))
    vals, grads = eval_value_grad(spec, X)
    line_vals, _ = eval_line(spec, _rows(X, np.ones(spec.n)), len(X))
    assert line_vals.tobytes() == vals.tobytes()
    for x, v, g in zip(X, vals, grads):
        jet = eval_jet2(spec, x)
        assert np.float64(jet.value).tobytes() == v.tobytes()
        assert jet.gradient.tobytes() == g.tobytes()


def _monomials(coefs, exps):
    """Source text of sum_j coefs[j] * prod_i x_i^exps[j, i]."""
    return " + ".join(f"{float(c)!r}*" + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(row) if e)
                      for c, row in zip(coefs, exps))


def _check_polynomial(coefs, exps, X):
    """All three evaluators against a direct evaluation of the polynomial at positive X."""
    spec = parse_expression(_monomials(coefs, exps), exps.shape[1])
    terms = coefs * np.prod(X[:, None, :] ** exps, axis=2)  # (M, terms)
    want = terms.sum(axis=1)
    want_grads = (terms @ exps) / X
    vals, grads = eval_value_grad(spec, X)
    np.testing.assert_allclose(vals, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=0)
    D = np.random.default_rng(3).standard_normal(X.shape)
    line_vals, slopes = eval_line(spec, _rows(X, D), len(X))
    np.testing.assert_allclose(line_vals, want, rtol=1e-12, atol=0)
    scale = np.abs(want_grads * D).sum(axis=1)
    assert np.all(np.abs(slopes - (want_grads * D).sum(axis=1)) <= 1e-12 * scale)
    x, t = X[0], terms[0]
    want_hess = (exps.T * t) @ exps - np.diag(t @ exps)
    jet = eval_jet2(spec, x)
    assert jet.value == pytest.approx(want[0], rel=1e-12)
    np.testing.assert_allclose(jet.gradient, want_grads[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(jet.hessian, want_hess / np.outer(x, x), rtol=1e-12, atol=0)


def test_long_sum_evaluates():
    # 3 001 terms: the parser loops over a flat sum, and the program runs
    # in one loop, so its length meets no recursion limit
    j = np.arange(3001)
    exps = np.zeros((3001, 3), dtype=int)
    exps[j, j % 3] = j % 4 + 1
    _check_polynomial((j % 7 + 1) / 8.0, exps, np.random.default_rng(1).uniform(0.5, 1.2, (6, 3)))


def test_dense_polynomial_evaluates():
    # every monomial of degree 1 to 7 in 6 variables, 1 715 terms
    exps = np.array([e for e in itertools.product(range(8), repeat=6) if 1 <= sum(e) <= 7])
    assert len(exps) == 1715
    coefs = np.random.default_rng(2).integers(1, 9, len(exps)) / 4.0
    _check_polynomial(coefs, exps, np.random.default_rng(4).uniform(0.5, 1.2, (4, 6)))


def test_batch_evaluation_matches_pointwise():
    spec = parse_expression("exp(x1) + x1 * x2^2", 2)
    xs = np.array([[0.1, 0.2], [1.0, -1.0], [0.0, 0.0]])
    vals, grads = eval_value_grad(spec, xs)
    for i, x in enumerate(xs):
        jet = eval_jet2(spec, x)
        assert vals[i] == jet.value
        assert np.array_equal(grads[i], jet.gradient)


def test_constructor_validation():
    with pytest.raises(ValueError):
        QuadraticForm((1.0, -2.0))
    with pytest.raises(ValueError):
        QuadraticForm(tuple([1.0] * 7))  # dimension cap
    with pytest.raises(ValueError):
        PerturbedQuadratic((1.0,), -0.1, "quartic")
    with pytest.raises(ValueError):
        PerturbedQuadratic((1.0,), 0.1, "sextic")


def test_builtin_nonnegative_at_origin():
    for spec in (QuadraticForm((1.0, 2.0)), PerturbedQuadratic((1.0, 1.0), 0.2, "cosh")):
        assert eval_jet2(spec, np.zeros(2)).value == 0.0
