"""Shared test utilities: random expressions, a reference evaluator,
and central finite differences used as independent oracles."""

from __future__ import annotations

import math
import random

from ehresmann import expr as ex


def random_expression(rng: random.Random, variables, max_depth=4,
                      allow_div=True) -> ex.Expr:
    """A random smooth expression over the given variables.

    Kept within safe numeric ranges: function arguments are damped, divisors
    are bounded away from zero, exponents are small integer literals.
    """
    if max_depth == 0:
        roll = rng.random()
        if roll < 0.45:
            return ex.Var(rng.choice(variables))
        return ex.Const(round(rng.uniform(0.0, 2.5), 3))
    roll = rng.random()
    if roll < 0.18:
        return ex.Var(rng.choice(variables))
    if roll < 0.3:
        return ex.Const(round(rng.uniform(0.0, 2.5), 3))
    if roll < 0.42:
        inner = random_expression(rng, variables, max_depth - 1, allow_div)
        fn = rng.choice(["sin", "cos", "exp"])
        if fn == "exp":
            # keep exp small: exp(0.3*inner) via multiplication
            inner = ex.BinOp("*", ex.Const(0.3), inner)
        return ex.Call(fn, inner)
    if roll < 0.52:
        inner = random_expression(rng, variables, max_depth - 1, allow_div)
        return ex.BinOp("^", ex.BinOp("+", ex.Const(0.0), inner)
                        if isinstance(inner, ex.BinOp) else inner,
                        ex.Const(float(rng.choice([2, 3]))))
    if roll < 0.62:
        return ex.Neg(random_expression(rng, variables, max_depth - 1, allow_div))
    if allow_div and roll < 0.72:
        num = random_expression(rng, variables, max_depth - 1, allow_div)
        den_core = random_expression(rng, variables, max_depth - 1, allow_div)
        # 2 + sin(den) stays in [1, 3]
        den = ex.BinOp("+", ex.Const(2.0), ex.Call("sin", den_core))
        return ex.BinOp("/", num, den)
    op = rng.choice(["+", "-", "*"])
    return ex.BinOp(op,
                    random_expression(rng, variables, max_depth - 1, allow_div),
                    random_expression(rng, variables, max_depth - 1, allow_div))


def reference_eval(node: ex.Expr, env: dict) -> float:
    """Independent evaluator for cross-checking ``expr.evaluate``."""
    t = type(node)
    if t is ex.Const:
        return float(node.value)
    if t is ex.Var:
        return float(env[node.name])
    if t is ex.Neg:
        return -reference_eval(node.operand, env)
    if t is ex.Call:
        arg = reference_eval(node.arg, env)
        return {
            "sin": math.sin, "cos": math.cos, "tan": math.tan,
            "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
            "abs": abs,
        }[node.func](arg)
    left = reference_eval(node.left, env)
    right = reference_eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    if node.op == "^":
        return left ** right
    raise ValueError(node.op)


def central_difference(f, point, orders, h=1e-5):
    """Central finite difference of a multivariate scalar function.

    ``orders`` gives the derivative order per variable (total <= 3 supported).
    Applied one variable at a time, recursively.
    """
    point = list(point)
    for i, k in enumerate(orders):
        if k > 0:
            lowered = list(orders)
            lowered[i] -= 1

            def deriv(p, i=i, lowered=tuple(lowered)):
                up = list(p)
                dn = list(p)
                up[i] += h
                dn[i] -= h
                return (central_difference(f, up, lowered, h)
                        - central_difference(f, dn, lowered, h)) / (2 * h)

            return deriv(point)
    return f(point)


def rel_err(got: float, want: float) -> float:
    scale = max(abs(want), 1.0)
    return abs(got - want) / scale


def raised(fn):
    """``(type, message)`` of the error ``fn()`` raises, or None."""
    try:
        fn()
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)
    return None
