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
    eval_value_grad,
    parse_expression,
)


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


@pytest.mark.parametrize(
    "source, message",
    [
        ("x1 + ", "unexpected end"),
        ("(x1", "expected"),
        ("x1 @ 2", "unexpected character"),
        ("foo(x1)", "unknown identifier"),
        ("", "empty"),
        ("x1 x1", "unexpected token"),
    ],
)
def test_parse_errors_have_position(source, message):
    with pytest.raises(ParseError, match=message):
        parse_expression(source, 1)


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


@pytest.mark.parametrize(
    "source, x",
    [
        ("log(x1)", [-1.0]),
        ("sqrt(x1)", [-4.0]),
        ("1 / x1", [0.0]),
        ("x1 ^ 0.5", [-1.0]),
    ],
)
def test_domain_errors(source, x):
    with pytest.raises(EvaluationError):
        eval_jet2(parse_expression(source, 1), np.array(x))


def test_overflow_is_reported():
    with pytest.raises(EvaluationError, match="overflow"):
        eval_jet2(parse_expression("exp(x1)", 1), np.array([1000.0]))


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
