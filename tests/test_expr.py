"""Tests for the expression parser and evaluator."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ehresmann import expr as ex
from ehresmann.expr import (
    BinOp, Call, Const, EvalDomainError, Neg, ParseError,
    UnboundVariableError, Var, evaluate, free_vars, parse, to_string,
)
from helpers import random_expression, reference_eval, rel_err


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_zero():
    assert parse("0") == Const(0.0)


def test_parse_function_call():
    assert parse("sin(th)") == Call("sin", Var("th"))


def test_parse_compound_and_evaluate():
    # -G*u1*u2/(1+x^2) at u1=1, u2=2, x=0, G=3 evaluates to -6 by hand
    e = parse("-G*u1*u2/(1+x^2)")
    assert evaluate(e, {"u1": 1.0, "u2": 2.0, "x": 0.0, "G": 3.0}) == -6.0


def test_precedence_structure():
    assert parse("1+2*3") == BinOp("+", Const(1.0),
                                   BinOp("*", Const(2.0), Const(3.0)))
    # ^ is right-associative and tighter than unary minus
    assert parse("2^3^2") == BinOp("^", Const(2.0),
                                   BinOp("^", Const(3.0), Const(2.0)))
    assert parse("-x^2") == Neg(BinOp("^", Var("x"), Const(2.0)))
    # a compound exponent takes the exp/ln route, exact only to round-off
    assert rel_err(evaluate(parse("2^3^2"), {}), 512.0) < 1e-12


def test_parentheses():
    assert evaluate(parse("(1+2)*3"), {}) == 9.0
    assert parse("((x))") == Var("x")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2x")


def test_unknown_function_rejected():
    with pytest.raises(ParseError) as err:
        parse("foo(x)")
    assert "foo" in str(err.value)


def test_parse_error_position_and_found():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4
    assert err.value.found == "'*'"


def test_parse_error_offset_within_input():
    for bad in ["", "1+", "sin(", "(1", "1)"]:
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert 0 <= err.value.offset <= len(bad)


def test_scientific_notation_literal():
    assert parse("1e-3") == Const(0.001)
    assert parse("2.5e2") == Const(250.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_simple_sum():
    assert evaluate(parse("x+y"), {"x": 1.0, "y": 2.0}) == 3.0


def test_eval_cos_at_zero():
    assert evaluate(parse("cos(th)"), {"th": 0.0}) == 1.0


def test_eval_power_times_sin():
    got = evaluate(parse("u^2*sin(x)"), {"u": 2.0, "x": math.pi / 2})
    assert rel_err(got, 4.0) < 1e-15


def test_unbound_variable_names_the_variable():
    with pytest.raises(UnboundVariableError) as err:
        evaluate(parse("x+missing"), {"x": 1.0})
    assert err.value.name == "missing"


def test_division_by_zero_reports_subexpression():
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("1/(x-1)"), {"x": 1.0})
    assert "x-1" in err.value.subexpression


def test_ln_domain_reports_subexpression():
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("ln(x)"), {"x": -1.0})
    assert err.value.operation == "ln"
    assert "ln(x)" == err.value.subexpression


@pytest.mark.parametrize("text", ["exp(1000)", "10^400", "x^2.5"])
def test_overflow_is_a_domain_error(text):
    with pytest.raises(EvalDomainError, match="range"):
        evaluate(parse(text), {"x": 1e200})


def test_nesting_beyond_the_recursion_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="nested less deeply"):
        parse("(" * 3000 + "x" + ")" * 3000)


def test_general_power_requires_positive_base():
    assert rel_err(evaluate(parse("x^y"), {"x": 2.0, "y": 0.5}),
                   math.sqrt(2)) < 1e-15
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^y"), {"x": -2.0, "y": 0.5})
    # integer literal exponents take the direct route, any base
    assert evaluate(parse("x^2"), {"x": -2.0}) == 4.0
    assert evaluate(parse("x^-2"), {"x": 2.0}) == 0.25


def test_free_vars():
    assert free_vars(parse("3.5")) == []
    assert free_vars(parse("x*y+x")) == ["x", "y"]
    assert free_vars(parse("sin(a)*b - a")) == ["a", "b"]


# ---------------------------------------------------------------------------
# printing round-trip (property)
# ---------------------------------------------------------------------------


def ast_strategy():
    leaves = st.one_of(
        st.builds(Const, st.floats(min_value=0.0, max_value=1e6,
                                   allow_nan=False, allow_infinity=False)),
        st.builds(Var, st.sampled_from(["x", "y", "th", "u1", "w2_1"])),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Call, st.sampled_from(list(ex.FUNCTIONS)), children),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]),
                      children, children),
        )

    return st.recursive(leaves, extend, max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(ast_strategy())
def test_print_parse_round_trip(tree):
    assert parse(to_string(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_eval_agrees_with_reference(case):
    rng = random.Random(case)
    names = ("x", "y", "z")
    tree = random_expression(rng, names, max_depth=4)
    env = {n: rng.uniform(-0.9, 0.9) for n in names}
    try:
        want = reference_eval(tree, env)
    except (ZeroDivisionError, ValueError, OverflowError):
        return
    if not math.isfinite(want):
        return
    try:
        got = evaluate(tree, env)
    except EvalDomainError:
        # reference succeeded on a point the checked evaluator rejects
        # (power of a negative base, abs at zero): not a disagreement
        return
    assert rel_err(got, want) < 1e-12


def test_round_trip_spot_checks():
    for text in ["x+y*z", "-(x+y)", "x^2^3", "(-x)^2", "sin(x)^2",
                 "a/(b/c)", "x--y", "1.5e-3*x"]:
        tree = parse(text)
        assert parse(to_string(tree)) == tree
