import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.expr import ExprError, evaluate_expr
from halfspace.grid import GridSpec


@pytest.fixture
def grid():
    return GridSpec(n=1, N=16, L=2 * np.pi)


def test_basic_arithmetic(grid):
    out = evaluate_expr("1+2*3", grid)
    assert np.allclose(out, 7.0)
    assert out.shape == grid.shape


def test_precedence_and_parentheses(grid):
    assert np.allclose(evaluate_expr("(1+2)*3", grid), 9.0)
    assert np.allclose(evaluate_expr("2^3*2", grid), 16.0)
    assert np.allclose(evaluate_expr("0-2^2", grid), -4.0)


def test_imaginary_unit(grid):
    out = evaluate_expr("1+2*i", grid)
    assert np.allclose(out, 1 + 2j)


def test_variables_and_functions(grid):
    x = grid.points()[0]
    assert np.allclose(evaluate_expr("sin(x1)", grid), np.sin(x))
    assert np.allclose(evaluate_expr("cos(2*x1)+exp(0)", grid), np.cos(2 * x) + 1)


def test_x2_requires_two_dimensions(grid):
    with pytest.raises(ExprError):
        evaluate_expr("x2", grid)
    g2 = GridSpec(n=2, N=8, L=2 * np.pi)
    out = evaluate_expr("sin(x1)*cos(x2)", g2)
    x = g2.points()
    assert np.allclose(out, np.sin(x[0]) * np.cos(x[1]))


def test_syntax_error_reports_position(grid):
    with pytest.raises(ExprError) as ei:
        evaluate_expr("1 + $", grid)
    assert ei.value.line == 1
    assert ei.value.col == 5


def test_unknown_name_rejected(grid):
    with pytest.raises(ExprError):
        evaluate_expr("foo(x1)", grid)
    with pytest.raises(ExprError):
        evaluate_expr("y1", grid)


def test_power_requires_integer_exponent(grid):
    with pytest.raises(ExprError):
        evaluate_expr("x1^1.5", grid)


def test_division_by_small_value_rejected(grid):
    with pytest.raises(ExprError):
        evaluate_expr("1/(sin(x1)*0)", grid)


def test_division(grid):
    assert np.allclose(evaluate_expr("3/2", grid), 1.5)


def test_unary_minus(grid):
    x = grid.points()[0]
    assert np.allclose(evaluate_expr("-0.5*cos(x1)", grid), -0.5 * np.cos(x))
    assert np.allclose(evaluate_expr("2*-cos(x1)", grid), -2 * np.cos(x))
    assert np.allclose(evaluate_expr("-2^2", grid), -4.0)  # '^' binds tighter
    assert np.allclose(evaluate_expr("--3", grid), 3.0)
    assert np.allclose(evaluate_expr("1--3", grid), 4.0)
    assert np.allclose(evaluate_expr("-(1+2)*3", grid), -9.0)


def test_dangling_minus_reports_position(grid):
    with pytest.raises(ExprError) as ei:
        evaluate_expr("2*-", grid)
    assert (ei.value.line, ei.value.col) == (1, 4)


_LEAVES = st.sampled_from(["x1", "i", "0.5", "2", "3.25", "(x1^2)"])


def _extend(sub):
    # every composite is parenthesized or a call, so "-" + e negates all of e
    return st.one_of(
        st.builds("({}+{})".format, sub, sub),
        st.builds("({}-{})".format, sub, sub),
        st.builds("({}*{})".format, sub, sub),
        st.builds("sin({})".format, sub),
        st.builds("cos({})".format, sub),
        st.builds("-{}".format, sub),
    )


_EXPRS = st.recursive(_LEAVES, _extend, max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(_EXPRS)
def test_negation_property(e):
    grid = GridSpec(n=1, N=16, L=2 * np.pi)
    value = evaluate_expr(e, grid)
    np.testing.assert_array_equal(evaluate_expr("-" + e, grid), -value)
    np.testing.assert_array_equal(evaluate_expr(f"-({e})", grid), -value)
    np.testing.assert_array_equal(evaluate_expr("2*-" + e, grid), -2 * value)
