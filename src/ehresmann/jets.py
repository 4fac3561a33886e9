"""Nested forward-mode automatic differentiation.

The reference algebra is the scalar :class:`Jet`: a value together with
one first-derivative scalar per active variable, nested ``depth`` levels
deep (a plain float is depth 0).  Evaluating any composition of the
arithmetic below over seeded jets yields every mixed partial derivative of
the composition up to total order ``depth``, with no truncation error beyond
float round-off.

Plain numbers mix freely with jets as constants.  Two jets may only be
combined when they share the same depth and the same active-variable count;
anything else raises :class:`JetShapeError`.

Mixed partials are read out with :func:`extract`, which always walks the
nested derivative slots in ascending variable order.  Requesting
d2/dx dy and d2/dy dx therefore performs the same sequence of memory reads:
symmetry of mixed partials holds by construction (same arithmetic path).
:func:`extract` returns raw derivatives, not Taylor coefficients; no
factorial scaling is applied.

The package itself computes on :class:`JetBatch` alone (one point is a
one-point batch); ``Jet`` is the reference the tests hold it to.  A
``JetBatch`` holds one scalar at P points as one float64 array of
shape ``(P,) + (1 + nvars,) * depth``: along a slot axis, index 0 is the
level's value and ``1 + i`` the partial in variable ``i``, so index 0 on
the last axis is :meth:`Jet.lowered`; a field's n components are one batch
``(n, P) + (1 + nvars,) * depth``, as operations read slots from the end.
Every operation here gives a batch, at each point, the bits it gives that
point's jet (or float, at depth 0): slots combine by elementwise ufuncs,
sums fold left in the same order, transcendental values come from
:mod:`math` point by point, and a domain error names the first offending
point.  At every depth a value slot is the depth-0 float result; a
quotient's value slot is the float quotient, not ``x * (1/y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class JetError(Exception):
    """Base class for jet arithmetic failures."""


class JetShapeError(JetError):
    """Jets with different depth or active-variable count were combined."""


class JetDepthError(JetError):
    """A derivative beyond the stored depth was requested."""


class JetDomainError(JetError):
    """An operation left its numeric domain (ln of a non-positive value, ...)."""

    def __init__(self, operation: str, detail: str = ""):
        self.operation = operation
        self.detail = detail
        message = f"domain error in {operation!r}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


_NUMBER = (int, float)


class Jet:
    """Value plus nested first derivatives over a fixed variable list.

    ``partials[i]`` is the derivative with respect to active variable ``i``,
    itself a jet of depth ``depth - 1`` (a plain float at the bottom).
    Instances are immutable by convention; nothing in this module mutates a
    jet after construction, so subtrees may be shared freely.
    """

    __slots__ = ("value", "partials", "depth", "nvars")

    def __init__(self, value: float, partials: tuple, depth: int, nvars: int):
        self.value = value
        self.partials = partials
        self.depth = depth
        self.nvars = nvars

    def lowered(self):
        """The same function truncated one derivative level down."""
        if self.depth == 1:
            return self.value
        return Jet(self.value, tuple(p.lowered() for p in self.partials),
                   self.depth - 1, self.nvars)

    def _check(self, other: "Jet") -> None:
        if self.depth != other.depth or self.nvars != other.nvars:
            raise JetShapeError(
                f"cannot combine jets of shape (depth={self.depth}, "
                f"nvars={self.nvars}) and (depth={other.depth}, "
                f"nvars={other.nvars})")

    def __repr__(self):
        return f"Jet({self.value!r}, depth={self.depth}, nvars={self.nvars})"

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.value + other.value,
                       tuple(p + q for p, q in zip(self.partials, other.partials)),
                       self.depth, self.nvars)
        if isinstance(other, _NUMBER):
            return Jet(self.value + other, self.partials, self.depth, self.nvars)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, tuple(-p for p in self.partials),
                   self.depth, self.nvars)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.value - other.value,
                       tuple(p - q for p, q in zip(self.partials, other.partials)),
                       self.depth, self.nvars)
        if isinstance(other, _NUMBER):
            return Jet(self.value - other, self.partials, self.depth, self.nvars)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(other - self.value, tuple(-p for p in self.partials),
                       self.depth, self.nvars)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            sl = self.lowered()
            ol = other.lowered()
            return Jet(self.value * other.value,
                       tuple(p * ol + sl * q
                             for p, q in zip(self.partials, other.partials)),
                       self.depth, self.nvars)
        if isinstance(other, _NUMBER):
            return Jet(self.value * other,
                       tuple(p * other for p in self.partials),
                       self.depth, self.nvars)
        return NotImplemented

    __rmul__ = __mul__

    def _with_value(self, value) -> "Jet":
        return Jet(value, self.partials, self.depth, self.nvars)

    # a quotient's value slot is the float quotient, as at depth 0; its
    # partials are those of x * (1/y)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return (self * _reciprocal(other))._with_value(
                self.value / other.value)
        if isinstance(other, _NUMBER):
            if other == 0:
                raise JetDomainError("/", "division by zero")
            return (self * (1.0 / other))._with_value(self.value / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return (_reciprocal(self) * other)._with_value(other / self.value)
        return NotImplemented

    def __pow__(self, exponent):
        if isinstance(exponent, int) and not isinstance(exponent, bool):
            return ipow(self, exponent)
        raise TypeError("jet ** exponent needs an int; use pow_general otherwise")

    def __abs__(self):
        # |x| is sign(x)*x on either side of zero; the derivative tower is
        # just a sign flip.  At zero the derivative does not exist.
        if self.value == 0.0:
            raise JetDomainError("abs", "derivative undefined at zero")
        if self.value > 0:
            return self
        return -self


@lru_cache(maxsize=None)
def _slots(depth: int):
    """Indices over the trailing ``depth`` slot axes: the value slot, the
    partials, and a new axis lining a level-down array up with them."""
    rest = (slice(None),) * (depth - 1)
    return ((Ellipsis,) + (0,) * depth, (Ellipsis, slice(1, None)) + rest,
            (Ellipsis, None) + rest)


def _assemble(value, parts, depth: int):
    """The slot array with value slots ``value`` and partials ``parts``."""
    if depth == 1:
        return np.concatenate((value[..., None], parts), axis=-1)
    head = np.zeros(parts.shape[:-depth] + (1,) + parts.shape[1 - depth:])
    head[_slots(depth)[0]] = value
    return np.concatenate((head, parts), axis=-depth)


def mul_slots(a, b, depth: int):
    """The jet product of slot arrays, as :meth:`Jet.__mul__` forms it."""
    if depth == 0:
        return a * b
    val, part, new = _slots(depth)
    parts = (mul_slots(a[part], b[..., 0][new], depth - 1)
             + mul_slots(a[..., 0][new], b[part], depth - 1))
    return _assemble(a[val] * b[val], parts, depth)


def reciprocal_slots(a, depth: int):
    """The reciprocal of slot arrays, as :func:`_reciprocal` computes it."""
    if depth == 0:
        return 1.0 / a
    val, part, new = _slots(depth)
    rl = reciprocal_slots(a[..., 0], depth - 1)
    neg_sq = -mul_slots(rl, rl, depth - 1)
    return _assemble(1.0 / a[val], mul_slots(neg_sq[new], a[part], depth - 1),
                     depth)


def fold_products(xs, ys, depth: int):
    """``sum(x * y)`` over the first (term) axis of slot arrays, as
    :func:`dot` folds it: the value from ``0.0``, the partials from the
    first product."""
    terms = mul_slots(xs, ys, depth)
    acc = terms[0].copy()
    val = _slots(depth)[0]
    acc[val] = 0.0 + acc[val]
    for t in terms[1:]:
        acc += t
    return acc


def _binary(slots_op, number_op):
    """A batch operator: ``slots_op`` on slot arrays, ``number_op`` on a
    number."""
    def op(self, other):
        if other.__class__ is JetBatch:
            Jet._check(self, other)
            return JetBatch(slots_op(self.a, other.a, self.depth),
                            self.depth, self.nvars)
        if isinstance(other, _NUMBER):
            return number_op(self, other)
        return NotImplemented
    return op


class JetBatch:
    """One scalar at P points, its slots in ``a`` (or stacked scalars, on
    leading axes before the point axis).  At depth 0 a batch acts as P
    floats do, except that numpy warns where floats overflow silently
    unless under ``np.errstate``, as the package's batched evaluations are."""

    __slots__ = ("a", "depth", "nvars")
    __array_ufunc__ = None      # numpy scalars defer to the methods below

    def __init__(self, a, depth: int, nvars: int):
        self.a = a
        self.depth = depth
        self.nvars = nvars

    @property
    def value(self):
        return self.a[_slots(self.depth)[0]]

    @property
    def partials(self) -> tuple:
        parts = np.moveaxis(self.a[_slots(self.depth)[1]], -self.depth, 0)
        return tuple(JetBatch(p, self.depth - 1, self.nvars) for p in parts)

    def lowered(self) -> "JetBatch":
        return JetBatch(self.a[..., 0], self.depth - 1, self.nvars)

    def _new(self, a) -> "JetBatch":
        return JetBatch(a, self.depth, self.nvars)

    def _with_value(self, value) -> "JetBatch":
        # a jet adds a number to its value slot alone
        a = self.a.copy()
        a[_slots(self.depth)[0]] = value
        return self._new(a)

    __add__ = __radd__ = _binary(lambda a, b, d: a + b,
                                 lambda x, c: x._with_value(x.value + c))
    __sub__ = _binary(lambda a, b, d: a - b,
                      lambda x, c: x._with_value(x.value - c))
    __mul__ = __rmul__ = _binary(mul_slots, lambda x, c: x._new(x.a * c))
    __pow__ = Jet.__pow__

    def __neg__(self):
        return self._new(-self.a)

    def __rsub__(self, other):
        if not isinstance(other, _NUMBER):
            return NotImplemented
        return (-self)._with_value(other - self.value)

    _float_div = _binary(lambda a, b, d: a / _nonzero(b),
                         lambda x, c: x._new(x.a / _nonzero(c)))

    def __truediv__(self, other):
        if self.depth == 0:     # as floats divide
            return self._float_div(other)
        if isinstance(other, _NUMBER):
            if other == 0:
                raise JetDomainError("/", "division by zero")
            quotient = self * (1.0 / other)
        else:
            quotient = self * _reciprocal(other)
        return quotient._with_value(self.value / value_of(other))

    def __rtruediv__(self, other):
        if not isinstance(other, _NUMBER):
            return NotImplemented
        if self.depth == 0:
            return self._new(other / _nonzero(self.a))
        return (_reciprocal(self) * other)._with_value(other / self.value)

    def __abs__(self):
        if self.depth == 0:
            return self._new(np.abs(self.a))
        _domain(self, lambda v: v == 0.0, "abs",
                "derivative undefined at zero")
        positive = (self.value > 0)[(Ellipsis,) + (None,) * self.depth]
        return self._new(np.where(positive, self.a, -self.a))


def _nonzero(b):
    """A divisor at depth 0, which divides as floats do."""
    if np.any(np.equal(b, 0.0)):
        raise ZeroDivisionError("float division by zero")
    return b


def _domain(x, bad, operation: str, detail: str) -> None:
    """Raise where ``bad`` holds for the value: over a batch, at the first
    such point (in point order), whose value ``detail`` names."""
    v = x.value if isinstance(x, (Jet, JetBatch)) else x
    if x.__class__ is JetBatch:
        v = np.moveaxis(v, -1, 0).ravel()
        hits = np.flatnonzero(bad(v))
        if hits.size:
            raise JetDomainError(operation, detail.format(float(v[hits[0]])))
    elif bad(v):
        raise JetDomainError(operation, detail.format(v))


def _reciprocal(x):
    if x.__class__ is JetBatch:
        _domain(x, lambda v: v == 0, "/", "division by zero")
        return x._new(reciprocal_slots(x.a, x.depth))
    if isinstance(x, Jet):
        if x.value == 0.0:
            raise JetDomainError("/", "division by zero")
        rl = _reciprocal(x.lowered())
        neg_sq = -(rl * rl)
        return Jet(1.0 / x.value,
                   tuple(neg_sq * p for p in x.partials),
                   x.depth, x.nvars)
    if x == 0:
        raise JetDomainError("/", "division by zero")
    return 1.0 / x


def _map_values(fn, x):
    """``fn`` of a scalar's value; of a batch, of each point's value as a
    Python float."""
    if x.__class__ is not JetBatch:
        return fn(x.value)
    return np.array([fn(v) for v in x.value.ravel().tolist()],
                    dtype=float).reshape(x.value.shape)


def _lift(x, fn, derivative):
    """Chain rule: map ``x`` through f, where ``fn`` gives f of a value (of
    each point's, for a batch) and ``derivative`` computes f' generically
    one level down.  A depth-0 batch takes ``fn`` alone, as floats do."""
    batch = x.__class__ is JetBatch
    value = _map_values(fn, x)
    if batch and x.depth == 0:
        return x._new(value)
    dv = derivative(x.lowered())
    if not batch:
        return Jet(value, tuple(dv * p for p in x.partials), x.depth, x.nvars)
    _, part, new = _slots(x.depth)
    return x._new(_assemble(value, mul_slots(dv.a[new], x.a[part],
                                             x.depth - 1), x.depth))


def sin(x):
    if isinstance(x, (Jet, JetBatch)):
        return _lift(x, math.sin, cos)
    return math.sin(x)


def cos(x):
    if isinstance(x, (Jet, JetBatch)):
        return _lift(x, math.cos, lambda u: -sin(u))
    return math.cos(x)


def tan(x):
    if isinstance(x, (Jet, JetBatch)):
        return _lift(x, math.tan, lambda u: 1.0 + tan(u) * tan(u))
    return math.tan(x)


def exp(x):
    if isinstance(x, (Jet, JetBatch)):
        return _lift(x, math.exp, exp)
    return math.exp(x)


def ln(x):
    _domain(x, lambda v: v <= 0.0, "ln", "argument {} is not positive")
    if isinstance(x, (Jet, JetBatch)):
        return _lift(x, math.log, _reciprocal)
    return math.log(x)


def sqrt(x):
    if depth_of(x):
        _domain(x, lambda v: v <= 0.0, "sqrt", "argument {} is not positive")
        return _lift(x, math.sqrt, lambda u: 0.5 * _reciprocal(sqrt(u)))
    _domain(x, lambda v: v < 0.0, "sqrt", "argument {} is negative")
    return _lift(x, math.sqrt, None) if x.__class__ is JetBatch \
        else math.sqrt(x)


def ipow(x, n: int):
    """``x**n`` for integer n by the chain rule; negative n via reciprocal."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("ipow exponent must be an int")
    if isinstance(x, Jet) or x.__class__ is JetBatch and x.depth:
        if n == 0:
            return 1.0
        if n < 0:     # the value slot is the float power
            return _reciprocal(ipow(x, -n))._with_value(
                _map_values(lambda v: v ** n, x))
        if n == 1:
            return x
        return _lift(x, lambda v: v ** n, lambda u: float(n) * ipow(u, n - 1))
    if n < 0:
        _domain(x, lambda v: v == 0, "^", "zero base with negative exponent")
    if x.__class__ is JetBatch:
        return _lift(x, lambda v: v ** n, None)
    return float(x) ** n


def pow_general(base, exponent):
    """``base**exponent`` as exp(exponent*ln(base)); needs a positive base."""
    return exp(exponent * ln(base))


@dataclass(frozen=True)
class JetConfig:
    """Active variable names (ordered) and the derivative depth to carry."""

    variables: tuple[str, ...]
    depth: int = 3

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("active variable names must be distinct")


def constant(value: float, nvars: int, depth: int, points: int | None = None):
    """Lift a number to a jet with all derivatives zero; with ``points``,
    to a batch holding that jet at every point."""
    if points is not None:
        a = np.zeros((points,) + (1 + nvars,) * depth)
        a[_slots(depth)[0]] = value
        return JetBatch(a, depth, nvars)
    if depth == 0:
        return float(value)
    zero = constant(0.0, nvars, depth - 1)
    return Jet(float(value), (zero,) * nvars, depth, nvars)


@lru_cache(maxsize=None)
def _unit_slots(nvars: int, depth: int) -> tuple:
    """Row i is the first-derivative slots of coordinate i: constants
    delta_ij of depth ``depth``, built once and shared (jets are immutable)."""
    zero = constant(0.0, nvars, depth)
    one = constant(1.0, nvars, depth)
    return tuple(tuple(one if j == i else zero for j in range(nvars))
                 for i in range(nvars))


def seed(config: JetConfig, point) -> list:
    """Coordinate jets at ``point``: variable i carries dx_i/dx_j = delta_ij."""
    n = len(config.variables)
    if len(point) != n:
        raise JetShapeError(
            f"point has {len(point)} coordinates for {n} variables")
    if config.depth == 0:
        return [float(v) for v in point]
    slots = _unit_slots(n, config.depth - 1)
    return [Jet(float(v), parts, config.depth, n)
            for v, parts in zip(point, slots)]


def seed_points(n: int, depth: int, points) -> list:
    """Coordinate batches of ``n`` variables at a sequence of points, each
    point's slots those :func:`seed` gives there."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if any(len(point) != n for point in points):
        raise JetShapeError(f"a point does not have {n} coordinates")
    a = np.zeros((n, len(points)) + (1 + n,) * depth)
    a[_slots(depth)[0]] = np.array(points, dtype=float).reshape(-1, n).T
    if depth:
        a[(np.arange(n), slice(None), np.arange(1, n + 1))
          + (0,) * (depth - 1)] = 1.0
    return [JetBatch(x, depth, n) for x in a]


def dot(xs, ys):
    """``sum(x * y)`` over two sequences of scalars, rounded exactly as the
    left fold ``acc = 0.0; acc = acc + x * y``.  Over two stacked batches
    (the terms on the first axis) the products of all terms are formed at
    once and only the sums fold; other sequences take the fold itself."""
    if xs.__class__ is JetBatch:
        if xs.a.shape != ys.a.shape or xs.depth != ys.depth:
            raise JetShapeError("cannot contract jets of different shapes")
        return xs._new(fold_products(xs.a, ys.a, xs.depth))
    acc = 0.0
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def extract(value, orders) -> float:
    """Mixed partial of a computed jet, per-variable derivative ``orders``.

    ``orders`` aligns with the seeding variable order.  The derivative slots
    are walked in ascending variable order regardless of how the request is
    phrased, so symmetric partials are the identical read.  Returns the raw
    derivative (no factorial normalization).

    A plain number is a constant: every derivative of it is exactly zero.
    Walking past the bottom of a genuine jet still raises
    :class:`JetDepthError`, because there the higher orders were truncated
    rather than known to vanish.  Over a batch: one value per point.
    """
    total = 0
    for k in orders:
        if k < 0:
            raise ValueError("derivative orders must be non-negative")
        total += k
    if not depth_of(value):
        if value.__class__ is JetBatch:
            return value.a * 0.0 if total > 0 else value.a.copy()
        return 0.0 if total > 0 else float(value)
    if len(orders) != value.nvars:
        raise JetShapeError(
            f"{len(orders)} orders given for a jet with {value.nvars} variables")
    if value.__class__ is JetBatch:
        if total > value.depth:
            raise JetDepthError(
                f"total order {total} exceeds the stored derivative depth")
        index = tuple(1 + i for i, k in enumerate(orders) for _ in range(k))
        return value.a[(Ellipsis,) + index + (0,) * (value.depth - total)]
    cur = value
    for i, k in enumerate(orders):
        for _ in range(k):
            if not isinstance(cur, Jet):
                raise JetDepthError(
                    f"total order {total} exceeds the stored derivative depth")
            cur = cur.partials[i]
    return cur.value if isinstance(cur, Jet) else float(cur)


def value_of(s):
    """The plain numeric value of a scalar (jet or number); of a batch, the
    array of its values."""
    return s.value if isinstance(s, (Jet, JetBatch)) else float(s)


def depth_of(s) -> int:
    """The derivative levels a scalar carries: 0 for a plain number."""
    return s.depth if isinstance(s, (Jet, JetBatch)) else 0


def truncate(s, depth: int):
    """Drop derivative information above ``depth`` (plain float at depth 0;
    a batch keeps index 0 on its last slot axes)."""
    if s.__class__ is JetBatch and s.depth > depth:
        return JetBatch(s.a[(Ellipsis,) + (0,) * (s.depth - depth)], depth,
                        s.nvars)
    if not isinstance(s, (Jet, JetBatch)):
        if depth == 0:
            return float(s)
        raise JetShapeError("cannot deepen a plain number; use constant()")
    if s.depth == depth:
        return s
    if s.depth < depth:
        raise JetShapeError(f"jet depth {s.depth} is below requested {depth}")
    if depth == 0:
        return s.value
    return Jet(s.value, tuple(truncate(p, depth - 1) for p in s.partials),
               depth, s.nvars)
