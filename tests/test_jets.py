"""Tests for the nested forward-mode AD kernel."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ehresmann import jets
from ehresmann.jets import (
    Jet, JetBatch, JetConfig, JetDepthError, JetDomainError, JetShapeError,
    constant, depth_of, dot, extract, ipow, seed, truncate, value_of,
)
from helpers import central_difference, random_expression, rel_err

from ehresmann import expr as ex


def jet_env(variables, point, depth):
    cfg = JetConfig(tuple(variables), depth)
    return dict(zip(variables, seed(cfg, point)))


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_seed_depth1_single_variable():
    (x,) = seed(JetConfig(("x",), 1), (2.0,))
    assert x.value == 2.0
    assert x.partials == (1.0,)


def test_seed_mixed_partial_of_coordinate_is_zero():
    x, y = seed(JetConfig(("x", "y"), 2), (0.0, 1.0))
    assert extract(x, (1, 1)) == 0.0
    assert extract(y, (0, 1)) == 1.0
    assert extract(y, (2, 0)) == 0.0


def test_seed_then_square():
    # f(x) = x^2 at x = 3: value 9, f' = 6, f'' = 2
    (x,) = seed(JetConfig(("x",), 2), (3.0,))
    f = x * x
    assert extract(f, (0,)) == 9.0
    assert extract(f, (1,)) == 6.0
    assert extract(f, (2,)) == 2.0


def test_seed_length_mismatch():
    with pytest.raises(JetShapeError):
        seed(JetConfig(("x", "y"), 1), (1.0,))


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_seed_is_kronecker_delta(n, depth):
    names = tuple(f"x{i}" for i in range(n))
    xs = seed(JetConfig(names, depth), [0.5 * i for i in range(n)])
    for i, x in enumerate(xs):
        assert extract(x, (0,) * n) == 0.5 * i
        for j in range(n):
            first = tuple(1 if k == j else 0 for k in range(n))
            assert extract(x, first) == (1.0 if i == j else 0.0)
            if depth > 1:
                assert extract(x, tuple(2 * v for v in first)) == 0.0
    # the unit slots are shared between seeds at the same shape
    again = seed(JetConfig(names, depth), [1.0] * n)
    assert all(a.partials is b.partials for a, b in zip(xs, again))


def test_depth_zero_seed_is_plain():
    vals = seed(JetConfig(("x", "y"), 0), (1.5, -2.0))
    assert vals == [1.5, -2.0]
    assert all(isinstance(v, float) for v in vals)


# ---------------------------------------------------------------------------
# arithmetic and functions
# ---------------------------------------------------------------------------


def test_sin_at_zero():
    (x,) = seed(JetConfig(("x",), 1), (0.0,))
    s = jets.sin(x)
    assert s.value == 0.0
    assert s.partials == (1.0,)


def test_second_derivative_of_exp2x():
    # d2/dx2 exp(2x) at 0 is 4
    (x,) = seed(JetConfig(("x",), 2), (0.0,))
    f = jets.exp(2.0 * x)
    assert rel_err(extract(f, (2,)), 4.0) < 1e-14


def test_mixed_partial_of_product():
    x, y = seed(JetConfig(("x", "y"), 2), (0.7, -0.3))
    f = x * y
    assert extract(f, (1, 1)) == 1.0


def test_extract_constant():
    assert extract(constant(5.0, 2, 2), (0, 0)) == 5.0
    assert extract(5.0, (0, 0)) == 5.0


def test_extract_xy_squared():
    # d2(x*y^2)/dxdy = 2y = 4 at (3, 2)
    x, y = seed(JetConfig(("x", "y"), 2), (3.0, 2.0))
    f = x * (y * y)
    assert rel_err(extract(f, (1, 1)), 4.0) < 1e-14


def test_extract_third_derivative_sin():
    (x,) = seed(JetConfig(("x",), 3), (0.0,))
    f = jets.sin(x)
    assert rel_err(extract(f, (3,)), -1.0) < 1e-14


def test_extract_order_exceeds_depth():
    (x,) = seed(JetConfig(("x",), 2), (1.0,))
    with pytest.raises(JetDepthError):
        extract(x * x, (3,))


def test_depth_mismatch_raises():
    (x1,) = seed(JetConfig(("x",), 1), (1.0,))
    (x2,) = seed(JetConfig(("x",), 2), (1.0,))
    with pytest.raises(JetShapeError):
        _ = x1 + x2


def test_variable_count_mismatch_raises():
    (x,) = seed(JetConfig(("x",), 2), (1.0,))
    a, _ = seed(JetConfig(("a", "b"), 2), (1.0, 2.0))
    with pytest.raises(JetShapeError):
        _ = x * a


def test_division_by_zero_jet():
    x, y = seed(JetConfig(("x", "y"), 1), (1.0, 0.0))
    with pytest.raises(JetDomainError) as err:
        _ = x / y
    assert err.value.operation == "/"


def test_ln_domain_error_names_operation():
    (x,) = seed(JetConfig(("x",), 1), (-2.0,))
    with pytest.raises(JetDomainError) as err:
        jets.ln(x)
    assert err.value.operation == "ln"


def test_sqrt_and_abs_domains():
    (x,) = seed(JetConfig(("x",), 1), (0.0,))
    with pytest.raises(JetDomainError):
        jets.sqrt(x)
    with pytest.raises(JetDomainError):
        abs(x)


def test_integer_pow_negative_exponent():
    (x,) = seed(JetConfig(("x",), 2), (2.0,))
    f = ipow(x, -2)  # x^-2: f' = -2x^-3, f'' = 6x^-4
    assert rel_err(extract(f, (0,)), 0.25) < 1e-14
    assert rel_err(extract(f, (1,)), -0.25) < 1e-14
    assert rel_err(extract(f, (2,)), 6.0 / 16.0) < 1e-14


@pytest.mark.parametrize("depth", [1, 2])
def test_quotient_value_slot_is_the_float_quotient(depth):
    # a jet divides as x * (1/y); its value slot must still be the float
    # x / y, as every value slot is the depth-0 result
    rng = random.Random(20211014)
    draws = [(rng.uniform(-4.0, 4.0), rng.choice((-1, 1))
              * rng.uniform(0.1, 4.0)) for _ in range(2000)]
    cfg = JetConfig(("a", "b"), depth)
    xb, yb = jets.seed_points(2, depth, draws)
    cases = {
        "a/b": (lambda x, y: x / y, lambda a, b: a / b),
        "a/3": (lambda x, y: x / 3, lambda a, b: a / 3),
        "3/b": (lambda x, y: 3.0 / y, lambda a, b: 3.0 / b),
        "b^-2": (lambda x, y: ipow(y, -2), lambda a, b: b ** -2),
    }
    for name, (op, float_op) in cases.items():
        want = [float_op(a, b).hex() for a, b in draws]
        assert [op(*seed(cfg, d)).value.hex() for d in draws] == want, name
        assert [v.hex() for v in op(xb, yb).value.tolist()] == want, name


def test_pow_general_matches_ipow_for_positive_base():
    (x,) = seed(JetConfig(("x",), 3), (1.7,))
    a = ipow(x, 3)
    b = jets.pow_general(x, 3.0)
    for k in range(4):
        assert rel_err(extract(b, (k,)), extract(a, (k,))) < 1e-12


def test_truncate_round_trips_low_orders():
    x, y = seed(JetConfig(("x", "y"), 3), (0.4, 1.2))
    f = jets.sin(x * y) + jets.exp(0.5 * x)
    g = truncate(f, 1)
    assert g.depth == 1
    assert g.value == f.value
    assert value_of(g.partials[0]) == extract(f, (1, 0))


# ---------------------------------------------------------------------------
# ten hand-differentiated functions, exact derivatives through order 3
# ---------------------------------------------------------------------------

# Each entry: (builder over scalars, point, {orders: hand derivative}).
HAND_CASES = [
    ("cubic",
     lambda v: v[0] * v[0] * v[0] + 2.0 * v[0],
     (0.7,),
     {(0,): 0.7 ** 3 + 1.4, (1,): 3 * 0.7 ** 2 + 2.0, (2,): 6 * 0.7, (3,): 6.0}),
    ("exp2x",
     lambda v: jets.exp(2.0 * v[0]),
     (0.3,),
     {(k,): 2.0 ** k * math.exp(0.6) for k in range(4)}),
    ("sine",
     lambda v: jets.sin(v[0]),
     (0.5,),
     {(0,): math.sin(0.5), (1,): math.cos(0.5),
      (2,): -math.sin(0.5), (3,): -math.cos(0.5)}),
    ("reciprocal",
     lambda v: 1.0 / (1.0 + v[0]),
     (0.25,),
     {(1,): -1.25 ** -2, (2,): 2 * 1.25 ** -3, (3,): -6 * 1.25 ** -4}),
    ("log1px2",
     lambda v: jets.ln(1.0 + v[0] * v[0]),
     (0.5,),
     {(1,): 2 * 0.5 / 1.25, (2,): (2 - 2 * 0.25) / 1.25 ** 2,
      (3,): (4 * 0.125 - 12 * 0.5) / 1.25 ** 3}),
    ("x_y_squared",
     lambda v: v[0] * v[1] * v[1],
     (3.0, 2.0),
     {(1, 1): 4.0, (0, 2): 6.0, (1, 2): 2.0}),
    ("sin_xy",
     lambda v: jets.sin(v[0] * v[1]),
     (0.5, 0.25),
     {(1, 1): math.cos(0.125) - 0.125 * math.sin(0.125),
      (1, 2): -2 * 0.5 * math.sin(0.125) - 0.5 ** 2 * 0.25 * math.cos(0.125)}),
    ("exp_cos",
     lambda v: jets.exp(v[0]) * jets.cos(v[1]),
     (0.2, 0.4),
     {(2, 1): -math.exp(0.2) * math.sin(0.4),
      (1, 2): -math.exp(0.2) * math.cos(0.4)}),
    ("xyz",
     lambda v: v[0] * v[1] * v[2],
     (1.5, -0.5, 2.0),
     {(1, 1, 1): 1.0, (1, 1, 0): 2.0, (0, 1, 1): 1.5}),
    ("sqrt1px",
     lambda v: jets.sqrt(1.0 + v[0]),
     (0.44,),
     {(1,): 0.5 * 1.44 ** -0.5, (2,): -0.25 * 1.44 ** -1.5,
      (3,): 0.375 * 1.44 ** -2.5}),
]


@pytest.mark.parametrize("name,fn,point,expected", HAND_CASES,
                         ids=[c[0] for c in HAND_CASES])
def test_hand_differentiated_library(name, fn, point, expected):
    names = tuple("xyz"[: len(point)])
    env = seed(JetConfig(names, 3), point)
    result = fn(env)
    for orders, want in expected.items():
        assert rel_err(extract(result, orders), want) < 1e-12


# ---------------------------------------------------------------------------
# finite-difference cross-check on random compositions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(12))
def test_finite_difference_cross_check(case):
    rng = random.Random(1000 + case)
    nvars = rng.randint(1, 4)
    names = tuple(f"v{i}" for i in range(nvars))
    e = random_expression(rng, names, max_depth=3)
    point = [rng.uniform(-0.8, 0.8) for _ in range(nvars)]

    env = dict(zip(names, seed(JetConfig(names, 3), point)))
    try:
        jet_val = ex.evaluate(e, env)
    except (JetDomainError, ex.EvalError):
        pytest.skip("composition left its domain at this point")

    def plain(p):
        return ex.evaluate(e, dict(zip(names, p)))

    orders = [0] * nvars
    total = rng.randint(1, 3)
    for _ in range(total):
        orders[rng.randrange(nvars)] += 1

    # the stencil step must grow with the order or eps/h^k round-off
    # swamps the difference quotient
    h = {1: 1e-5, 2: 1e-4, 3: 1e-3}[total]
    want = central_difference(plain, point, tuple(orders), h=h)
    got = extract(jet_val, tuple(orders))
    assert rel_err(got, want) < 1e-5


# ---------------------------------------------------------------------------
# invariants: symmetry and linearity
# ---------------------------------------------------------------------------


def test_mixed_partials_symmetric_same_read():
    rng = random.Random(7)
    names = ("x", "y", "z")
    for trial in range(10):
        e = random_expression(rng, names, max_depth=3)
        point = [rng.uniform(-0.7, 0.7) for _ in range(3)]
        env = dict(zip(names, seed(JetConfig(names, 2), point)))
        try:
            val = ex.evaluate(e, env)
        except (JetDomainError, ex.EvalError):
            continue
        # extract() canonicalizes the walk order: identical bits guaranteed
        assert extract(val, (1, 1, 0)) == extract(val, (1, 1, 0))
        if isinstance(val, Jet):
            # raw nested reads in both orders agree exactly for products
            dxy = value_of(val.partials[0].partials[1] if val.depth >= 2
                           and isinstance(val.partials[0], Jet)
                           else 0.0)
            dyx = value_of(val.partials[1].partials[0] if val.depth >= 2
                           and isinstance(val.partials[1], Jet)
                           else 0.0)
            assert rel_err(dxy, dyx) < 1e-12


def test_linearity_of_extract():
    rng = random.Random(99)
    names = ("x", "y")
    for trial in range(10):
        f = random_expression(rng, names, max_depth=3)
        g = random_expression(rng, names, max_depth=3)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        point = [rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)]
        env = dict(zip(names, seed(JetConfig(names, 3), point)))
        try:
            fv = ex.evaluate(f, env)
            gv = ex.evaluate(g, env)
        except (JetDomainError, ex.EvalError):
            continue
        comb = a * fv + b * gv
        for orders in [(1, 0), (1, 1), (2, 1)]:
            want = a * extract(fv, orders) + b * extract(gv, orders)
            assert rel_err(extract(comb, orders), want) < 1e-13


def test_config_validation():
    with pytest.raises(ValueError):
        JetConfig(("x", "x"), 2)
    with pytest.raises(ValueError):
        JetConfig(("x",), -1)


# ---------------------------------------------------------------------------
# fused contraction
# ---------------------------------------------------------------------------


def _fold(xs, ys):
    acc = 0.0
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _bits(s):
    """Every stored float of a scalar, as exact hex (so -0.0 != 0.0)."""
    if isinstance(s, Jet):
        return [(s.depth, s.nvars), s.value.hex(),
                [_bits(p) for p in s.partials]]
    return float(s).hex()


_FLOATS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _scalars(nvars, depth):
    if depth == 0:
        return _FLOATS
    return st.builds(
        lambda v, ps: Jet(v, tuple(ps), depth, nvars), _FLOATS,
        st.lists(_scalars(nvars, depth - 1), min_size=nvars, max_size=nvars))


@st.composite
def _dot_operands(draw):
    nvars = draw(st.integers(1, 4))
    depth = draw(st.integers(0, 3))
    k = draw(st.integers(0, 4))
    scalars = _scalars(nvars, depth)
    xs = draw(st.lists(scalars, min_size=k, max_size=k))
    ys = draw(st.lists(scalars, min_size=k, max_size=k))
    return xs, ys


@settings(max_examples=150, deadline=None)
@given(_dot_operands())
def test_dot_is_bit_equal_to_the_fold(operands):
    # over jets dot is the fold; over the terms stacked as one-point
    # batches it is the batched contraction, held to that fold
    xs, ys = operands
    want = _fold(xs, ys)
    assert _bits(dot(xs, ys)) == _bits(want)
    if xs:
        depth = depth_of(xs[0])
        nvars = xs[0].nvars if depth else 1
        xb, yb = (JetBatch(np.array([_slot_array(s, nvars, depth)
                                     for s in ss])[:, None], depth, nvars)
                  for ss in (xs, ys))
        assert _slot_hexes(dot(xb, yb), nvars, 0) == \
            _slot_hexes(want, nvars)


def test_dot_mixed_numbers_take_the_fold():
    x, y = seed(JetConfig(("x", "y"), 2), (0.3, -0.7))
    xs, ys = [x, 2.0, y], [y, x, -0.0]
    assert _bits(dot(xs, ys)) == _bits(_fold(xs, ys))


def test_dot_shape_mismatch_raises():
    (a,) = seed(JetConfig(("x",), 1), (1.0,))
    b, _ = seed(JetConfig(("x", "y"), 1), (1.0, 2.0))
    (c,) = seed(JetConfig(("x",), 2), (1.0,))
    with pytest.raises(JetShapeError):
        dot([a], [b])
    with pytest.raises(JetShapeError):
        dot([a, c], [a, c])


# ---------------------------------------------------------------------------
# batches: every slot bit-equal to the per-point jets
# ---------------------------------------------------------------------------


def _slot_array(s, nvars, depth):
    """A jet's slots in the batch layout (value at index 0 of each axis)."""
    if depth == 0:
        return float(s)
    a = np.zeros((1 + nvars,) * depth)
    a[(0,) * depth] = s.value
    for i, p in enumerate(s.partials):
        a[1 + i] = _slot_array(p, nvars, depth - 1)
    return a


def _batch(points, nvars, depth):
    return JetBatch(np.array([_slot_array(s, nvars, depth) for s in points]),
                    depth, nvars)


def _orders(nvars, depth):
    return [o for o in itertools.product(range(depth + 1), repeat=nvars)
            if sum(o) <= depth]


def _slot_hexes(result, nvars, k=None):
    """Every slot ``extract`` reads, as hex; ``k`` picks a batch's point
    (a plain number is the same at every point)."""
    depth = depth_of(result)
    out = [depth]
    for o in _orders(nvars, depth):
        v = extract(result, o)
        out.append(float(v if np.ndim(v) == 0 else v[k]).hex())
    return out


# one check at most per operation, on bounded inputs, so the first point
# the per-point loop fails at is the one the batch names
_BATCH_OPS = {
    "add": lambda u, v: u + v,
    "sub": lambda u, v: u - v,
    "mul": lambda u, v: u * v,
    "div": lambda u, v: u / v,
    "neg": lambda u, v: -u,
    "abs": lambda u, v: abs(u),
    "sin": lambda u, v: jets.sin(u),
    "cos": lambda u, v: jets.cos(u),
    "tan": lambda u, v: jets.tan(u),
    "exp": lambda u, v: jets.exp(u),
    "ln": lambda u, v: jets.ln(u),
    "sqrt": lambda u, v: jets.sqrt(u),
    "pow": lambda u, v: jets.pow_general(u * u + 0.25, v),
    "dot": lambda u, v: dot([u, v, u], [v, u, v]),
    # every term -0.0 where u, v are nonzero: the fold starts from 0.0
    "dot-signed-zeros": lambda u, v: dot([-0.0 * u, -0.0 * v], [u, v]),
    "dot-numbers": lambda u, v: dot([u, 2.0, v], [v, u, -0.0]),
    "number-left": lambda u, v: 1.5 - (2.5 + (-0.0 * u)),
    "number-right": lambda u, v: (u - 0.5) * 3.0 / 4.0,
    "number-over": lambda u, v: 3.0 / u,
    "over-zero": lambda u, v: u / 0.0,
    **{f"ipow{n}": (lambda u, v, n=n: ipow(u, n)) for n in range(-3, 5)},
    **{f"truncate{d}": (lambda u, v, d=d: truncate(u, min(d, depth_of(u))))
       for d in range(4)},
    "lowered": lambda u, v: u.lowered() if depth_of(u) else u,
}

_SMALL = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(min_value=-3.0, max_value=3.0))


def _jet_in_tree_order(values, nvars, depth):
    """The jet that takes its next ``1 + nvars + ... + nvars ** depth``
    values from the iterator ``values`` in tree order: its value, then
    each partial in turn."""
    if depth == 0:
        return next(values)
    value = next(values)
    return Jet(value, tuple(_jet_in_tree_order(values, nvars, depth - 1)
                            for _ in range(nvars)), depth, nvars)


@st.composite
def _batch_case(draw):
    nvars = draw(st.integers(1, 4))
    depth = draw(st.integers(0, 3))
    count = draw(st.integers(1, 5))
    size = 2 * count * sum(nvars ** k for k in range(depth + 1))
    values = iter(draw(st.lists(_SMALL, min_size=size, max_size=size)))
    us = [_jet_in_tree_order(values, nvars, depth) for _ in range(count)]
    vs = [_jet_in_tree_order(values, nvars, depth) for _ in range(count)]
    return nvars, depth, us, vs, draw(st.sampled_from(sorted(_BATCH_OPS)))


def _per_point(fn, us, vs):
    """The results at each point, or the first error in point order."""
    try:
        return [fn(u, v) for u, v in zip(us, vs)]
    except Exception as exc:  # the error itself is compared
        return exc


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_batch_case())
def test_batch_is_bit_equal_to_the_per_point_jets(case):
    nvars, depth, us, vs, op = case
    fn = _BATCH_OPS[op]
    want = _per_point(fn, us, vs)
    try:
        with np.errstate(all="ignore"):     # Python floats overflow silently
            got = fn(_batch(us, nvars, depth), _batch(vs, nvars, depth))
    except Exception as exc:
        assert isinstance(want, Exception), f"{op}: batch raised {exc!r}"
        assert (type(exc), str(exc)) == (type(want), str(want))
        return
    assert not isinstance(want, Exception), f"{op}: batch missed {want!r}"
    for k, w in enumerate(want):
        assert _slot_hexes(got, nvars, k) == _slot_hexes(w, nvars), (op, k)


def test_seed_points_matches_seed_at_every_point():
    cfg = JetConfig(("x", "y", "z"), 3)
    points = [(0.5, -0.0, 2.0), (1.0, 3.0, -1.5)]
    batch = jets.seed_points(3, 3, points)
    for k, p in enumerate(points):
        for b, s in zip(batch, seed(cfg, p)):
            assert _slot_hexes(b, 3, k) == _slot_hexes(s, 3)


@pytest.mark.parametrize("op,detail", [
    (jets.ln, "argument -2.0 is not positive"),
    (jets.sqrt, "argument -2.0 is not positive"),
])
def test_batch_domain_error_names_the_first_offending_point(op, detail):
    (x,) = jets.seed_points(1, 1, [(1.0,), (-2.0,), (-3.0,)])
    with pytest.raises(JetDomainError) as info:
        op(x)
    assert info.value.detail == detail


def test_batch_shape_mismatch_raises():
    (a,) = jets.seed_points(1, 1, [(1.0,), (2.0,)])
    (b,) = jets.seed_points(1, 2, [(1.0,), (2.0,)])
    with pytest.raises(JetShapeError):
        a + b
    with pytest.raises(JetShapeError):
        dot([a, b], [a, b])
