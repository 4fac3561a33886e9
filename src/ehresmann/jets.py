"""Nested forward-mode automatic differentiation.

A scalar in this package is either a plain float (derivative depth 0) or a
:class:`Jet`: a value together with one first-derivative scalar per active
variable, nested ``depth`` levels deep.  Evaluating any composition of the
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


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

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _reciprocal(other)
        if isinstance(other, _NUMBER):
            if other == 0:
                raise JetDomainError("/", "division by zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return _reciprocal(self) * other
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


def _reciprocal(x):
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


def _lift(x: Jet, value: float, derivative) -> Jet:
    """Chain rule: map ``x`` through f where f(x.value) == value and
    ``derivative`` computes f' generically (on a jet one level down)."""
    dv = derivative(x.lowered())
    return Jet(value, tuple(dv * p for p in x.partials), x.depth, x.nvars)


def sin(x):
    if isinstance(x, Jet):
        return _lift(x, math.sin(x.value), cos)
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        return _lift(x, math.cos(x.value), lambda u: -sin(u))
    return math.cos(x)


def tan(x):
    if isinstance(x, Jet):
        return _lift(x, math.tan(x.value), lambda u: 1.0 + tan(u) * tan(u))
    return math.tan(x)


def exp(x):
    if isinstance(x, Jet):
        return _lift(x, math.exp(x.value), exp)
    return math.exp(x)


def ln(x):
    if isinstance(x, Jet):
        if x.value <= 0.0:
            raise JetDomainError("ln", f"argument {x.value} is not positive")
        return _lift(x, math.log(x.value), _reciprocal)
    if x <= 0.0:
        raise JetDomainError("ln", f"argument {x} is not positive")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        if x.value <= 0.0:
            raise JetDomainError("sqrt", f"argument {x.value} is not positive")
        return _lift(x, math.sqrt(x.value), lambda u: 0.5 * _reciprocal(sqrt(u)))
    if x < 0.0:
        raise JetDomainError("sqrt", f"argument {x} is negative")
    return math.sqrt(x)


def ipow(x, n: int):
    """``x**n`` for integer n by the chain rule; negative n via reciprocal."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("ipow exponent must be an int")
    if isinstance(x, Jet):
        if n == 0:
            return 1.0
        if n < 0:
            return _reciprocal(ipow(x, -n))
        if n == 1:
            return x
        return _lift(x, x.value ** n, lambda u: float(n) * ipow(u, n - 1))
    if n < 0 and x == 0:
        raise JetDomainError("^", "zero base with negative exponent")
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


def constant(value: float, nvars: int, depth: int):
    """Lift a number to a jet with all derivatives zero."""
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


def dot(xs, ys):
    """``sum(x * y)`` over two sequences of scalars, rounded exactly as the
    left fold ``acc = 0.0; acc = acc + x * y`` it replaces.

    Over jets of one shape no product or partial sum is built as a jet: the
    value folds ``x.value * y.value`` and slot ``m`` folds the product rule
    ``x.partials[m] * y.lowered() + x.lowered() * y.partials[m]`` from the
    first term on, the same operations in the same order as the fold.  At
    depth 1 the slots are floats.  Sequences holding a plain number take the
    fold itself.
    """
    value = 0.0
    slots = None
    for x, y in zip(xs, ys):
        if x.__class__ is not Jet or y.__class__ is not Jet:
            break
        if slots is None:
            depth, nvars = x.depth, x.nvars
        if (x.depth != depth or x.nvars != nvars or y.depth != depth
                or y.nvars != nvars):
            raise JetShapeError(
                f"cannot contract jets of shape (depth={x.depth}, "
                f"nvars={x.nvars}) and (depth={y.depth}, nvars={y.nvars}) "
                f"into a sum of shape (depth={depth}, nvars={nvars})")
        xl = x.lowered()
        yl = y.lowered()
        value = value + x.value * y.value
        if slots is None:
            slots = [p * yl + xl * q for p, q in zip(x.partials, y.partials)]
        else:
            slots = [s + (p * yl + xl * q)
                     for s, p, q in zip(slots, x.partials, y.partials)]
    else:
        return value if slots is None else Jet(value, tuple(slots), depth,
                                                nvars)
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
    rather than known to vanish.
    """
    total = 0
    for k in orders:
        if k < 0:
            raise ValueError("derivative orders must be non-negative")
        total += k
    if not isinstance(value, Jet):
        return 0.0 if total > 0 else float(value)
    if len(orders) != value.nvars:
        raise JetShapeError(
            f"{len(orders)} orders given for a jet with {value.nvars} variables")
    cur = value
    for i, k in enumerate(orders):
        for _ in range(k):
            if not isinstance(cur, Jet):
                raise JetDepthError(
                    f"total order {total} exceeds the stored derivative depth")
            cur = cur.partials[i]
    return cur.value if isinstance(cur, Jet) else float(cur)


def value_of(s) -> float:
    """The plain numeric value of a scalar (jet or number)."""
    return s.value if isinstance(s, Jet) else float(s)


def truncate(s, depth: int):
    """Drop derivative information above ``depth`` (plain float at depth 0)."""
    if not isinstance(s, Jet):
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
