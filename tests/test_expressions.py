import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbosc.expressions import (EvaluationError, ExpressionError,
                               parse_expression)


def resolver_from(mapping):
    def resolve(name):
        return mapping[name]
    return resolve


def test_arithmetic():
    assert parse_expression("1 + 2*3").eval(resolver_from({})) == 7.0
    assert parse_expression("(1 + 2) * 3").eval(resolver_from({})) == 9.0
    assert parse_expression("-2 + 1").eval(resolver_from({})) == -1.0
    assert parse_expression("4 / 2 - 3").eval(resolver_from({})) == -1.0


def test_norm_comparison_three_four_five():
    expr = parse_expression("norm(rightHandPosition.error) < 0.01")
    value = expr.eval(resolver_from(
        {"rightHandPosition.error": np.array([0.3, 0.4, 0.0])}))
    assert value is False
    assert expr.eval(resolver_from(
        {"rightHandPosition.error": np.array([0.001, 0.0, 0.0])})) is True


def test_syntax_error_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("a && (b")
    assert err.value.offset == 8


def test_logical_operators():
    r = resolver_from({"a": 1.0, "b": 0.0, "flag": True})
    assert parse_expression("a && !b").eval(r) is True
    assert parse_expression("b || flag").eval(r) is True
    assert parse_expression("!(a || b)").eval(r) is False
    assert parse_expression("a > 0.5 && b <= 0").eval(r) is True
    assert parse_expression("a != b").eval(r) is True
    assert parse_expression("abs(0 - a) == 1").eval(r) is True


def test_unresolved_name_raises_evaluation_error():
    expr = parse_expression("ghost.value > 0")
    with pytest.raises(EvaluationError):
        expr.eval(resolver_from({}))


def test_vector_outside_norm_rejected_at_eval():
    expr = parse_expression("v + 1")
    with pytest.raises(EvaluationError):
        expr.eval(resolver_from({"v": np.array([1.0, 2.0])}))


def test_variables_reported():
    expr = parse_expression("x.a < y.b && norm(z.c) > 0")
    assert expr.variables == ("x.a", "y.b", "z.c")


def test_unknown_function():
    with pytest.raises(ExpressionError):
        parse_expression("sqrt(4)")


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50))
def test_matches_python_semantics(a, b, c):
    r = resolver_from({"a": float(a), "b": float(b), "c": float(c)})
    cases = [
        ("a + b*c", a + b * c),
        ("(a + b) / c", (a + b) / c),
        ("a - -b", a - -b),
        ("a < b || a == b", a < b or a == b),
        ("abs(a - b) >= c", abs(a - b) >= c),
    ]
    for text, expected in cases:
        got = parse_expression(text).eval(r)
        if isinstance(expected, bool):
            assert got == expected
        else:
            assert got == pytest.approx(float(expected))


# -- norm() ---------------------------------------------------------------------------

def norm_of(value):
    return parse_expression("norm(v)").eval(resolver_from({"v": value}))


def test_norm_is_bit_identical_to_numpy():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(1, 101))
        scale = 10.0 ** rng.uniform(-5, 5)
        v = rng.standard_normal(n) * scale
        assert norm_of(v) == float(np.linalg.norm(v))
    with np.errstate(over="ignore"):
        for value in (np.array([3, 4]), np.array([True, False, True]),
                      [1, 2, 2], 2.5, -7, True, np.float64(-0.0),
                      np.array([1e200, 1e200]), np.array([1e-200, 3e-200]),
                      np.array([np.inf, 1.0]), np.array([-np.inf])):
            assert norm_of(value) == float(
                np.linalg.norm(np.atleast_1d(value)))
    for value in (np.array([np.nan, 1.0]), np.array([np.inf, np.nan])):
        assert np.isnan(norm_of(value))


def test_norm_makes_no_gil_releasing_call(monkeypatch):
    """np.linalg.norm and np.dot call BLAS with the GIL released; an event
    evaluated on the servo thread must not hand the GIL away."""
    calls = []
    for owner, name in ((np.linalg, "norm"), (np, "dot")):
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    expr = parse_expression("norm(a) > 0.002 && norm(b) > 1")
    expr.eval(resolver_from({"a": np.array([0.3, 0.4, 0.0]),
                             "b": np.array([2.0])}))
    assert calls == []
