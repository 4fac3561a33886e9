"""Charted spaces, vector fields, coframes, projectors and (1,1)-tensors.

Everything evaluable here runs on :class:`jets.JetBatch` arrays over a
point set, and a single point is a one-point set: evaluating a field in an
environment of coordinate batches of depth ``k`` yields components that
carry exact derivatives.  Derived objects (Lie brackets, pointwise solves
through constraint gradients, Lie derivatives) consume derivative levels;
each field records that consumption as its ``cost``, and evaluation fails
loudly when the available depth cannot cover it, naming the operation chain.

An environment is an :class:`Env`, the space's coordinate functions seeded
as jets over a point set (``ChartedSpace.seed_env``), so the first-order
slots of any evaluated component are its coordinate derivatives at each
point, which is what brackets and Lie derivatives read.  An ``Env``
carries its seeded ``depth`` and its memo ``key``, ``(point values,
depth)``: equal keys mean bit-equal inputs, so every cache keys on it.  A
field caches its own evaluation under ``env.key`` at depth ``env.depth -
cost`` while reads of it remain in its evaluation, and keeps the entries
of the last point set it stored over (:class:`_Field`).  Frame solves and
frame coefficients are fields too, contracted by the same kernel as every
projector, :func:`_contract`.

A rule receives its operands' values: ``_Field.at`` reads a field's
``operands`` in order and hands their values to its rule, and plain
arithmetic on operands at one depth is built by one constructor,
:func:`_rule`.  Every evaluation counts its reads by one walk over the
fields' ``operands``: a direct one (``values``, an eval query) from the
field it evaluates, a fold of checks from all its roots.  Every deviation
is a :class:`report.Check` value, which evaluates nothing until one
runner, :func:`run_checks`, folds it.  No entry a verification's run stored
outlives it.  A build's validation or a predicate folds its checks at
once, after which only shared fields keep what they stored; a direct
evaluation keeps the entries of its field and of the shared fields it
reads.

A :class:`FieldStack` puts fields of one ``cost`` on a leading member
axis, ``(F, n, P) + slots``: a tree of the field algebra over a stacked
field evaluates every member at once, with the bits each member gets
alone, as a point set does for its points; a check reads that axis
through ``FieldStack.track``.

Embedded spaces (constraint expressions ``c_k = 0``) keep all fields in
ambient coordinates.  Pointwise frame solves append the constraint gradients
as extra columns to square the system, so frame coefficients of tangent
vectors come out of one partial-pivot elimination over the point set.
The scalar jets of :mod:`jets` take no part here: they are the reference
algebra the tests hold these kernels to.
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field as dc_field
from functools import partial, reduce, wraps

import numpy as np

from . import expr as ex
from . import jets
from . import report
from .jets import JetBatch, value_of
from .report import DevTracker, max_abs, per_point

FRAME_DEGENERACY_RATIO = 1e-8


def _left_sum(values) -> float:
    """``(0.0 + a) + b + ...`` in order.  The builtin ``sum`` of floats is
    compensated from Python 3.12 on, so its bits depend on the interpreter."""
    return reduce(operator.add, values, 0.0)


class GeometryError(Exception):
    """Base class for geometric construction and evaluation failures."""


class SpaceMismatchError(GeometryError):
    pass


class DepthBudgetError(GeometryError):
    """An evaluation needed more derivative levels than the environment has."""

    def __init__(self, operation: str, needed: int, available: int):
        self.operation = operation
        self.needed = needed
        self.available = available
        super().__init__(
            f"evaluating {operation!r} needs {needed} derivative level(s) "
            f"but only {available} available; raise the jet depth")


class SingularFrameError(GeometryError):
    def __init__(self, point, ratio: float):
        self.point = tuple(point)
        self.ratio = ratio
        super().__init__(
            f"frame is numerically degenerate at {self.point}: singular-value "
            f"ratio {ratio:.3e} not above {FRAME_DEGENERACY_RATIO:.0e}")


class OffManifoldError(GeometryError):
    pass


@dataclass(frozen=True)
class CheckConfig:
    """Sampling and tolerance knobs shared by every verification run."""

    seed: int = 42
    samples: int = 20
    tolerance: float = 1e-8
    depth: int = 3

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


DEFAULT_CHECK = CheckConfig()


# ---------------------------------------------------------------------------
# spaces and points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartedSpace:
    """A chart (or an ambient chart with constraints, for embedded spaces).

    ``coords`` are chart coordinates, or ambient coordinates when
    ``constraints`` is non-empty.  ``intervals`` drive the deterministic
    sampler; ``sphere`` marks the unit-sphere normalization rule for
    embedded sampling.  ``base_coords`` names the coordinates of the base of
    a fibred chart, used to check verticality of fibre frames.
    """

    name: str
    coords: tuple[str, ...]
    intervals: tuple[tuple[float, float], ...] = ()
    constraints: tuple = ()
    sphere: bool = False
    base_coords: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("coordinate names must be distinct")
        if not self.intervals:
            object.__setattr__(
                self, "intervals", tuple((-1.0, 1.0) for _ in self.coords))
        if len(self.intervals) != len(self.coords):
            raise ValueError("one sampling interval per coordinate")
        for b in self.base_coords:
            if b not in self.coords:
                raise ValueError(f"base coordinate {b!r} not in chart")

    @property
    def ambient_dim(self) -> int:
        return len(self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords) - len(self.constraints)

    def index(self, coord: str) -> int:
        return self.coords.index(coord)

    def seed_env(self, point, depth: int, name: str = "seed_env") -> "Env":
        """Coordinate batches of ``depth`` levels over a point set; one
        point (a :class:`Point` or its values) is a one-point set.  ``name``
        is the operation blamed when a point's depth cap is below
        ``depth``."""
        points = point if is_point_set(point) else (point,)
        for p in points:
            if isinstance(p, Point) and p.depth is not None \
                    and depth > p.depth:
                raise DepthBudgetError(name, depth, p.depth)
        values = PointSetKey(p.values if isinstance(p, Point)
                             else tuple(map(float, p)) for p in points)
        env = Env(zip(self.coords, jets.seed_points(len(self.coords),
                                                    depth, values)))
        env.depth = depth
        env.points = values
        env.key = (values, depth)
        env.live = {}
        return env

    def constraint_residual(self, values) -> float:
        if not self.constraints:
            return 0.0
        env = dict(zip(self.coords, values))
        return max_abs(ex.evaluate(c, env) for c in self.constraints)

    def point(self, values, *, project: bool = False,
              tol: float = 1e-10) -> "Point":
        vals = tuple(float(v) for v in values)
        if len(vals) != self.ambient_dim:
            raise OffManifoldError(
                f"{self.name} needs {self.ambient_dim} coordinates, "
                f"got {len(vals)}")
        if not all(map(math.isfinite, vals)):
            raise OffManifoldError(f"point {vals} of {self.name} is not finite")
        if self.constraints:
            res = self.constraint_residual(vals)
            if not res <= tol:
                if project and self.sphere and res < 1e-8:
                    norm = math.sqrt(_left_sum(v * v for v in vals))
                    vals = tuple(v / norm for v in vals)
                else:
                    raise OffManifoldError(
                        f"point {vals} violates constraints of {self.name} "
                        f"by {res:.3e}")
        return Point(self, vals)

    def sample_points(self, cfg: CheckConfig = DEFAULT_CHECK) -> list["Point"]:
        """Deterministic sample draw; equal config means equal points.  Each
        point is capped at ``cfg.depth`` derivative levels, and a sphere-rule
        draw off the constraints raises :class:`OffManifoldError`."""
        rng = random.Random(cfg.seed)
        points = []
        for _ in range(cfg.samples):
            if self.sphere:
                while True:
                    raw = [rng.uniform(lo, hi) for lo, hi in self.intervals]
                    norm = math.sqrt(_left_sum(v * v for v in raw))
                    if norm >= 0.1:
                        break
                points.append(Point(self, self.point(
                    v / norm for v in raw).values, cfg.depth))
            elif self.constraints:
                raise GeometryError(
                    "sampling on a constrained space needs the sphere rule")
            else:
                points.append(Point(self, tuple(
                    rng.uniform(lo, hi) for lo, hi in self.intervals),
                    cfg.depth))
        return points


@dataclass(frozen=True, slots=True)
class Point:
    """A point of a space.  ``depth``, when set, caps the derivative levels
    an environment seeded at the point may carry (``seed_env`` raises
    :class:`DepthBudgetError` above it); it takes no part in equality."""

    space: ChartedSpace
    values: tuple[float, ...]
    depth: int | None = dc_field(default=None, compare=False)

    def __repr__(self):
        return f"Point({', '.join(f'{v:.6g}' for v in self.values)})"


def is_point_set(point) -> bool:
    """Whether ``point`` is a sequence of points rather than one point."""
    return isinstance(point, (list, tuple)) and bool(point) and isinstance(
        point[0], Point)


class PointSetKey(tuple):
    """The values of a point set, hashed once: a memo lookup under it does
    not hash the set's P x n floats again."""

    def __init__(self, values):
        self.hash = tuple.__hash__(self)

    def __hash__(self):
        return self.hash


class Env(dict):
    """Coordinate batches seeded over a point set: ``env[c]`` is the
    :class:`jets.JetBatch` of coordinate ``c``.

    ``depth`` is the seeded depth, ``points`` the point values and ``key``
    is ``(points, depth)``, the memo key of every evaluation in this
    environment.  ``live`` maps each field to the reads of it that the
    evaluations in this env have still to make: :func:`run_checks` counts
    them for the envs it seeds, and an ``at`` of a field that ``live``
    holds no count of adds the reads from that field on.
    """

    __slots__ = ("depth", "key", "points", "live")


def _as_depth(s, depth: int, env: Env):
    """Normalize a scalar to an exact depth (truncate batches, lift
    numbers)."""
    if s.__class__ is JetBatch:
        if s.depth == depth:
            return s
        if s.depth > depth:
            return jets.truncate(s, depth)
        raise GeometryError(
            f"internal: scalar of depth {s.depth} below target {depth}")
    if depth == 0:
        return float(s)
    return jets.constant(float(s), len(env), depth, len(env.points))


def _comps_as_depth(comps, depth: int, env: Env):
    """Components at an exact depth as one batch, the component axis
    first; a list of components is stacked, numbers lifted as
    :func:`_as_depth` does."""
    if comps.__class__ is JetBatch:
        return jets.truncate(comps, depth)
    out = np.zeros((len(comps), len(env.points)) + (1 + len(env),) * depth)
    for row, c in zip(out, comps):
        if c.__class__ is JetBatch:
            row[...] = _as_depth(c, depth, env).a
        else:
            row[(Ellipsis,) + (0,) * depth] = float(c)
    return JetBatch(out, depth, len(env))


def _value_rows(x):
    """The values of stacked scalars, the point axis first."""
    return np.moveaxis(x.value, -1, 0)


def _gradient(s, depth: int):
    """A scalar's first-order partials at an exact depth, the variable
    axis first."""
    return jets.truncate(JetBatch(np.moveaxis(s.a[:, 1:], 1, 0),
                                  s.depth - 1, s.nvars), depth)


def _contract(rows, xs):
    """``[jets.dot(row, xs) for row in rows]`` over a point set, in one
    fold: ``rows`` indexed (row, term, point, slots...), ``xs`` a batch
    with the term axis first, or after a leading member axis, which the
    result then carries too (``rows``, read off a frame, never does).

    The zero rule: at depth 0, an ``xs`` of ±0.0 against finite ``rows``
    makes every product a signed zero, and a fold from ``0.0`` then gives
    +0.0 everywhere, which is returned without folding.  Deeper results
    stay dense (their partial slots fold from the first product and can
    keep a -0.0), as do ``rows`` holding a NaN or an infinity."""
    if not xs.depth and not xs.a.any() and np.isfinite(rows).all():
        return xs._new(np.zeros(xs.a.shape[:-2] + (len(rows),
                                                   xs.a.shape[-1])))
    if xs.a.ndim - xs.depth == 2:
        return xs._new(jets.fold_products(rows.swapaxes(0, 1), xs.a[:, None],
                                          xs.depth))
    return xs._new(jets.fold_products(rows.swapaxes(0, 1)[:, None],
                                      np.moveaxis(xs.a, 1, 0)[:, :, None],
                                      xs.depth))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


# The cache of every field that has not stored yet, read and never written:
# most fields store nothing, and a dict each would hold memory for nothing.
_NO_ENTRIES = {}


class _Field:
    """A rule ``_fn(env, *values)`` that consumes ``cost`` derivative
    levels.

    ``operands`` are the fields the rule reads, one entry per read, which
    :func:`_count_reads` walks: on a miss, ``at`` reads each of them once,
    in order, and calls the rule with ``env`` and their values.  A rule
    reads no field itself; ``env`` gives it the depth and, where it needs
    them, the coordinates.  The one caching rule: an evaluation is
    normalized to depth ``env.depth - cost`` and memoized under ``env.key``
    while ``env.live`` counts reads of it still to come, and its last read
    drops the entry.  An ``at`` on a field that its env counts no read of,
    such as the first ``at`` in an env that ``seed_env`` made, evaluates it
    directly: it counts the reads from that field on, and the field keeps
    its entry, as does each field marked by :meth:`share` that it reads.
    Storing over another point set first empties ``_cache`` in place.
    ``rows`` and ``values`` serve every field type, a scalar's value as its
    one component; each type binds ``at`` in its own namespace, so a
    profiler can wrap it per type.
    """

    __slots__ = ("space", "name", "cost", "_fn", "_cache", "shared",
                 "operands")
    _normalize = staticmethod(_comps_as_depth)
    _point_rows = staticmethod(lambda comps, env: _value_rows(comps))

    def __init__(self, space, fn, cost, name, operands=()):
        self.space = space
        self._fn = fn
        self.cost = cost
        self.name = name
        self._cache = _NO_ENTRIES
        self.shared = False
        self.operands = tuple(operands)

    def at(self, env):
        live = env.live
        reads = live.pop(self, None)
        if reads is None:   # evaluated directly: counted from here, kept
            _count_reads(live, self, env.key, True)
            del live[self]
            reads = math.inf
        cache = self._cache
        hit = cache.get(env.key)
        if hit is None:
            if env.depth < self.cost:
                raise DepthBudgetError(self.name, self.cost, env.depth)
            hit = self._normalize(self._fn(env, *[
                f.at(env) for f in self.operands]), env.depth - self.cost, env)
            if reads > 1:
                live[self] = reads - 1
                if cache is _NO_ENTRIES:
                    cache = self._cache = {}
                elif cache and next(iter(cache))[0] != env.points:
                    cache.clear()
                cache[env.key] = hit
                if _stored is not None:
                    _stored.append((cache, env.key))
        elif reads == 1:
            del cache[env.key]
        else:
            live[self] = reads - 1
        return hit

    def share(self):
        """Keep every evaluation outside a verification run, however many
        reads remain: a memo output or a frame solve is handed to many
        callers, which may evaluate it directly.  Returns the field."""
        self.shared = True
        return self

    @classmethod
    def from_exprs(cls, space, components, name):
        parsed = tuple(ex.parse(c) if isinstance(c, str) else c
                       for c in components)
        if len(parsed) != space.ambient_dim:
            raise GeometryError(
                f"{name}: {len(parsed)} components for "
                f"{space.ambient_dim}-dimensional {space.name}")
        for e in parsed:
            _check_bound(space, e)

        def fn(env):
            return [ex.evaluate(e, env) for e in parsed]

        return cls(space, fn, 0, name)

    def rows(self, point, env=None):
        """Component values as one array, a row per point of a point set
        (one point is a one-point set), evaluated in ``env`` or in an env
        seeded at ``cost``; a scalar field has one component, its value."""
        if env is None:
            env = self.space.seed_env(point, self.cost, self.name)
        with np.errstate(all="ignore"):
            return self._point_rows(self.at(env), env)

    def values(self, point) -> list:
        """Component values at a point, or one list per point of a set."""
        rows = self.rows(point).tolist()
        return rows if is_point_set(point) else rows[0]


class ScalarField(_Field):
    """A scalar function on a space, evaluable over jets."""

    __slots__ = ()
    _normalize = staticmethod(_as_depth)
    _point_rows = staticmethod(lambda value, env: np.broadcast_to(
        value_of(value), (len(env.points),))[:, None])
    at = _Field.at

    @staticmethod
    def from_expr(space, e, name=None):
        if isinstance(e, str):
            e = ex.parse(e)
        _check_bound(space, e)
        return ScalarField(space, lambda env: ex.evaluate(e, env), 0,
                           name or ex.to_string(e))

    @staticmethod
    def constant(space, c: float):
        return ScalarField(space, lambda env: float(c), 0, repr(float(c)))

    def value_at(self, point) -> float:
        return self.values(point)[0]

    # a field read as a function of a point, as an expected-table entry is
    __call__ = value_at


def _check_bound(space, e):
    unknown = [v for v in ex.free_vars(e) if v not in space.coords]
    if unknown:
        raise GeometryError(
            f"expression {ex.to_string(e)!r} uses {unknown} which are not "
            f"coordinates of {space.name}")


class VectorField(_Field):
    """A vector field given by per-coordinate component functions.

    Components are expressions or machinery-produced closures.  ``cost`` is
    the number of derivative levels one evaluation consumes; expression
    components cost nothing, a Lie bracket costs one more than its operands.
    """

    __slots__ = ()
    at = _Field.at

    def __repr__(self):
        return f"VectorField({self.name!r} on {self.space.name!r})"

    @staticmethod
    def zero(space, name="0"):
        n = space.ambient_dim
        return VectorField(space, lambda env: [0.0] * n, 0, name)

    @staticmethod
    def coordinate(space, coord: str, name=None):
        i = space.index(coord)
        n = space.ambient_dim
        comps = tuple(ex.Const(1.0 if j == i else 0.0) for j in range(n))
        return VectorField.from_exprs(space, comps, name or f"d/d{coord}")


class CovectorField(_Field):
    """A 1-form given by components against the coordinate differentials."""

    __slots__ = ()
    at = _Field.at


def _check_space(a, b):
    if a.space is not b.space:
        raise SpaceMismatchError(
            f"{a.name} lives on {a.space.name}, {b.name} on {b.space.name}")


# ---------------------------------------------------------------------------
# field algebra
# ---------------------------------------------------------------------------


def _rule(cls, operands, op, name, lift=0, space=None):
    """A ``cls`` field on ``space`` (the first operand's by default) whose
    rule truncates the values of ``operands`` to the depth the costliest
    leaves and returns ``op(*values)``, at that operand's cost plus
    ``lift``.  Callers check spaces."""
    operands = tuple(operands)
    base = max(f.cost for f in operands)

    def fn(env, *values):
        t = env.depth - base
        return op(*[jets.truncate(v, t) for v in values])

    return cls(space or operands[0].space, fn, base + lift, name, operands)


def vf_add(X: VectorField, Y: VectorField, name=None) -> VectorField:
    _check_space(X, Y)
    return _rule(VectorField, (X, Y), operator.add,
                 name or f"({X.name}+{Y.name})")


def vf_sub(X: VectorField, Y: VectorField, name=None) -> VectorField:
    _check_space(X, Y)
    return _rule(VectorField, (X, Y), operator.sub,
                 name or f"({X.name}-{Y.name})")


def vf_scale(f, X: VectorField, name=None) -> VectorField:
    """Scale by a number or by a scalar field (function-linear scaling)."""
    if isinstance(f, (int, float)):
        c = float(f)
        return _rule(VectorField, (X,), partial(operator.mul, c),
                     name or f"{c:g}*{X.name}")
    _check_space(f, X)
    return _rule(VectorField, (f, X), operator.mul,
                 name or f"({f.name})*{X.name}")


def pairing(omega: CovectorField, X: VectorField, name=None) -> ScalarField:
    _check_space(omega, X)
    return _rule(ScalarField, (omega, X), jets.dot,
                 name or f"{omega.name}({X.name})")


def directional(X: VectorField, f: ScalarField, name=None) -> ScalarField:
    """The derivative X(f), read from the jet slots of f's evaluation."""
    _check_space(X, f)
    cost = max(X.cost, f.cost + 1)

    def fn(env, fv, xs):
        if jets.depth_of(fv) == 0:
            raise DepthBudgetError(f"{X.name}({f.name})", cost, env.depth)
        t = env.depth - cost
        return jets.dot(jets.truncate(xs, t), _gradient(fv, t))

    return ScalarField(X.space, fn, cost, name or f"{X.name}({f.name})",
                       (f, X))


def _bracket_fold(xs, ys, t: int):
    """The bracket of stacked components at depth ``t + 1``, every product
    of the fold formed at once (indexed component, point, variable,
    slots...), then ``acc = acc + a * p - b * q`` folded over the variables
    in order.  Either operand may carry a leading member axis, which the
    bracket then carries too: the axes are counted from the end.  At
    ``t = 0`` an operand of ±0.0 against a finite one gives +0.0
    everywhere, returned without forming the products (the zero rule of
    :func:`_contract`)."""
    xa, ya = (jets.truncate(cs, t + 1).a for cs in (xs, ys))
    if not t and (not xa.any() and np.isfinite(ya).all()
                  or not ya.any() and np.isfinite(xa).all()):
        return JetBatch(np.zeros((xa if xa.ndim > ya.ndim else ya).shape[:-1]),
                        0, xs.nvars)
    rest = (slice(None),) * t
    part = (Ellipsis, slice(1, None)) + rest
    lift = (Ellipsis, None, slice(None), slice(None)) + rest
    # values (component, point) -> (1, point, variable)
    first = jets.mul_slots(xa[..., 0].swapaxes(-t - 2, -t - 1)[lift],
                           ya[part], t)
    second = jets.mul_slots(ya[..., 0].swapaxes(-t - 2, -t - 1)[lift],
                            xa[part], t)
    # 0.0 + a jet adds to its value slots alone
    acc = first[(Ellipsis, 0) + rest].copy()
    value = (Ellipsis,) + (0,) * t
    acc[value] = 0.0 + acc[value]
    acc -= second[(Ellipsis, 0) + rest]
    for j in range(1, first.shape[-t - 1]):
        acc += first[(Ellipsis, j) + rest]
        acc -= second[(Ellipsis, j) + rest]
    return JetBatch(acc, t, xs.nvars)


def _bracket(xs, ys):
    """The bracket of components one level deeper than the result."""
    return _bracket_fold(xs, ys, xs.depth - 1)


def lie_bracket(X: VectorField, Y: VectorField, name=None) -> VectorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, via the jet slots.

    On embedded spaces the computation happens in ambient coordinates; the
    result of bracketing tangent fields is again tangent (checked by the
    frame and scenario validators, not silently assumed here).
    """
    _check_space(X, Y)
    return _rule(VectorField, (X, Y), _bracket, name or f"[{X.name},{Y.name}]",
                 1)


# ---------------------------------------------------------------------------
# member stacks
# ---------------------------------------------------------------------------


def _stack(*comps):
    return comps[0]._new(np.stack([c.a for c in comps]))


def _stacked(members, cls=VectorField):
    """One field of type ``cls`` whose components are the members' batches
    stacked on a leading member axis, ``(F, n, P) + slots``, each at the
    depth left by the costliest member."""
    for m in members:
        _check_space(members[0], m)
    return _rule(cls, members, _stack,
                 "{" + ",".join(m.name for m in members) + "}")


class FieldStack:
    """Vector fields on a member axis: ``fields`` in the order given, one
    stacked field per cost group (the fields of one ``cost``, in order of
    first appearance).

    Built over a stacked field, a tree of the field algebra above (sums,
    brackets, :class:`Endo11` applications) evaluates all its members at
    once, and member ``i`` of the result has the bits of the same tree
    built over member ``i`` alone: along the member axis every kernel
    broadcasts the same elementwise operations and folds in the same
    order.  Equal costs keep each member at the depth it has alone.
    ``fallbacks`` counts the folds of :meth:`track` that ran per member.
    """

    def __init__(self, fields):
        self.fields = tuple(fields)
        groups: dict = {}
        for f in dict.fromkeys(self.fields):
            groups.setdefault(f.cost, []).append(f)
        self.groups = tuple(_stacked(m) for m in groups.values())
        self._where = {f: (g, i) for g, m in enumerate(groups.values())
                       for i, f in enumerate(m)}
        self.fallbacks = 0

    def track(self, check, points, members, build):
        """Add to ``check`` the fold of ``build(Y)`` for each ``Y`` of
        ``members``, as ``check.track(points, build(Y))`` in that order
        would, from one fresh root per cost group, ``build(group)``, read
        once by the fold; each member reads only its own rows.  When a
        member is not in this stack, that loop is added instead."""
        points = list(points)
        try:
            where = [self._where[Y] for Y in members]
            groups = sorted({g for g, _ in where})
            roots = tuple(build(self.groups[g]) for g in groups)
        except Exception:
            self.fallbacks += 1
            for Y in members:
                check.track(points, build(Y))
            return check
        check.folds.append((points, roots, partial(
            self._fold, members, [(groups.index(g), i) for g, i in where],
            build)))
        return check

    def _fold(self, members, where, build, tracker, points, roots, rows):
        """The reduction of :meth:`track`: member ``i`` of root ``r`` for
        each ``(r, i)`` of ``where``, members outer, each row's deviation
        taken for all of a root's rows at once by :func:`report.row_devs`,
        as :func:`report.fold` takes them.  When an
        evaluation raises, the per-member loop runs, each ``build(Y)``
        folded by :func:`report.fold` in the runner's envs, so the error is
        the loop's."""
        try:
            devs = [report.row_devs(rows(root)) for root in roots]
        except Exception:
            self.fallbacks += 1
            for Y in members:
                report.fold(tracker, points, (build(Y),), rows)
            return
        for r, i in where:
            for p, dev in zip(points, devs[r][:, i].tolist()):
                tracker.update(dev, p.values)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

# While a run collects and folds: the (dict, key) of every cache entry
# stored and every memo entry added, which the run drops when it ends.
_stored = None


def _memoized(memo: dict, key, make, *args):
    """``memo[key]``, on a miss ``make(*args)`` marked by
    :meth:`_Field.share`; an entry added while a run is open goes on
    ``_stored``, so the run drops it when it ends."""
    out = memo.get(key)
    if out is None:
        out = memo[key] = make(*args).share()
        if _stored is not None:
            _stored.append((memo, key))
    return out


def _count_reads(reads: dict, root, key, keep: bool = False):
    """Add to ``reads`` the reads of each field that evaluating ``root`` at
    ``key`` makes when a field read twice stores: a field's operands are
    read once, unless it already holds an entry at ``key``.  With
    ``keep``, a shared field counts as read without end, so its entry
    outlives the evaluation."""
    todo = [root]
    while todo:
        f = todo.pop()
        n = reads.get(f, 0)
        reads[f] = math.inf if keep and f.shared else n + 1
        if not n and key not in f._cache:
            todo += f.operands


def run_checks(checks, at_once: bool = False) -> list:
    """The records of ``checks``, in order: each a :class:`report.Check`,
    folded here, or a finished :class:`report.CheckRecord`, passed on.

    ``checks`` may be a generator that evaluates as it builds (a staged
    first stage): an error it raises comes after the checks it yielded
    before, which fold first.  A walk from every root counts the reads of
    each (field, env depth); each (point set, depth) is seeded once, by
    the first fold that needs it, and in those envs ``_Field.at`` drops an
    entry at its last read.  When the run ends, every cache entry stored
    and every memo entry added since it began is gone.  ``at_once`` folds
    a build's checks or a first stage: it opens no run, and a shared
    field's entries outlive the fold."""
    global _stored
    opened = not at_once and _stored is None
    if opened:
        _stored = []
    try:
        collected = []
        try:
            collected.extend(checks)
        except Exception:
            _fold_checks(collected, at_once)
            raise
        return _fold_checks(collected, at_once)
    finally:
        if opened:
            for store, key in _stored:
                store.pop(key, None)
            _stored = None


def _fold_checks(checks: list, at_once) -> list:
    live = {}
    for i, check in enumerate(checks):
        folds = None if isinstance(check, report.CheckRecord) else [
            (PointSetKey(p.values for p in fold[0]),) + fold
            for fold in check.folds]
        for values, _, roots, _ in folds or ():
            for root in roots:
                key = (values, root.cost)
                _count_reads(live.setdefault(key, {}), root, key, at_once)
        checks[i] = check, folds
    checks.reverse()    # popped in order: a check's roots go once it ran
    envs, records = {}, []
    while checks:
        check, folds = checks.pop()
        if folds is None:
            records.append(check)
            continue
        tracker = DevTracker()
        for values, points, roots, reduction in folds:
            def rows(root):
                key = (values, root.cost)
                env = envs.get(key)
                if env is None:
                    env = envs[key] = root.space.seed_env(points, root.cost,
                                                          root.name)
                    env.live = live[key]
                return root.rows(points, env)

            reduction(tracker, points, roots, rows)
        records.append(check.finish(tracker))
    return records


def family(build):
    """A check family: called, it folds the checks ``build`` gives for its
    arguments by :func:`run_checks` and returns their records, building
    them inside the run, which then drops the memo entries the build added;
    its ``checks`` is ``build``, for a run that folds several families as
    one list."""
    @wraps(build)
    def run(*args, **kwargs):
        def checks():
            yield from build(*args, **kwargs)

        return run_checks(checks())

    run.checks = build
    return run


# ---------------------------------------------------------------------------
# frames and pointwise solves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Frame:
    """An ordered tuple of fields that stay pointwise independent."""

    fields: tuple
    name: str = ""

    @property
    def rank(self) -> int:
        return len(self.fields)

    @property
    def space(self):
        return self.fields[0].space


def frame_ratio(mat) -> float:
    """Smallest over largest singular value; NaN if an entry is not finite."""
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        return math.nan
    sv = np.linalg.svd(mat, compute_uv=False)
    return 0.0 if sv[0] == 0.0 else float(sv[-1] / sv[0])


def gate_frame(mat, point):
    """Raise unless the frame matrix's ratio is above the degeneracy gate.
    A stack of matrices, one per point of ``point``, takes one batched SVD,
    each ratio with the bits of :func:`frame_ratio`'s, and raises at the
    first bad point in order; a one-matrix stack takes that single path."""
    if isinstance(mat, np.ndarray) and mat.ndim == 3:
        if len(mat) > 1:
            finite = np.isfinite(mat).all(axis=(1, 2))
            sv = np.linalg.svd(np.where(finite[:, None, None], mat, 0.0),
                               compute_uv=False)
            ratios = np.divide(sv[:, -1], sv[:, 0], out=np.where(
                finite, 0.0, math.nan), where=finite & (sv[:, 0] != 0.0))
            bad = np.flatnonzero(~(ratios > FRAME_DEGENERACY_RATIO))
            if bad.size:
                raise SingularFrameError(point[bad[0]], float(ratios[bad[0]]))
            return
        mat, point = mat[0], point[0]
    ratio = frame_ratio(mat)
    if not ratio > FRAME_DEGENERACY_RATIO:
        raise SingularFrameError(point, ratio)


def _invert_points(mat, n):
    """Gauss-Jordan with partial pivoting on the value part, of the batch
    ``mat`` indexed (row, column, point, slots...), each step on all points
    and rows at once: the pivot is the first largest value per point, rows
    swap by fancy indexing, and at depth 0 a zero factor leaves its row
    alone.  The inverse is one batch indexed like ``mat``."""
    t, nvars, points = mat.depth, mat.nvars, mat.a.shape[2]
    value = (Ellipsis,) + (0,) * t
    aug = np.zeros((points, n, 2 * n) + (1 + nvars,) * t)
    aug[:, :, :n] = np.moveaxis(mat.a, 2, 0)
    aug[(slice(None), np.arange(n), np.arange(n, 2 * n)) + (0,) * t] = 1.0
    idx = np.arange(points)
    for col in range(n):
        vals = np.abs(aug[value][:, :, col])
        piv = col + vals[:, col:].argmax(axis=1)
        if (vals[idx, piv] == 0.0).any():
            raise GeometryError("exactly singular matrix in frame solve")
        top = aug[idx, piv]
        aug[idx, piv] = aug[idx, col]
        aug[idx, col] = top
        row = aug[:, col]
        inv_p = jets.reciprocal_slots(row[:, col], t) * 1.0
        scaled = jets.mul_slots(row, inv_p[:, None], t)
        if col == 0:    # a number times a jet scales every slot
            ident = row[:, n:][value]
            scaled[:, n:] = inv_p[:, None] * ident.reshape(ident.shape
                                                           + (1,) * t)
        aug[:, col] = scaled
        factor = aug[:, :, col]
        prod = jets.mul_slots(factor[:, :, None], aug[:, None, col], t)
        new = aug - prod
        if col == 0:    # a number minus a jet negates every other slot
            new[:, :, n:] = -prod[:, :, n:]
            new[:, :, n:][value] = aug[:, :, n:][value] - prod[:, :, n:][value]
        if t == 0:
            new = np.where((factor != 0.0)[:, :, None], new, aug)
        new[:, col] = aug[:, col]
        aug = new
    return mat._new(np.ascontiguousarray(np.moveaxis(aug[:, :, n:], 0, 2)))


class FrameSolver(_Field):
    """The frame solve: a field whose value is the pointwise inverse of the
    matrix whose columns are its operands, the frame ``fields``.

    On embedded spaces the constraint gradients are appended as extra
    columns to square the system.  The solve, named ``"frame solve"``, of
    cost :attr:`cost`, gates the frame and inverts it, so it caches the
    inverses of one point set under the one caching rule.  Every read of it
    goes through :meth:`inverse`, which reads the frame fields with float
    warnings off.  Everything built over the frame reads that inverse as an
    operand, and :meth:`coefficients` contracts its values with
    :func:`_contract`, as every projector does.
    """

    def __init__(self, space, fields):
        fields = tuple(fields)
        n = space.ambient_dim
        if len(fields) + len(space.constraints) != n:
            raise GeometryError(
                f"{len(fields)} frame fields plus "
                f"{len(space.constraints)} constraints cannot square a "
                f"{n}-dimensional solve")
        base = max((f.cost for f in fields), default=0)
        cost = max(base, 1) if space.constraints else base
        super().__init__(space, self._invert, cost, "frame solve", fields)
        self.share()
        self._coframe = tuple(self._covector(i, f"{f.name}*")
                              for i, f in enumerate(fields))

    @property
    def fields(self) -> tuple:
        return self.operands

    def _invert(self, env, *comps):
        target = env.depth - self.cost
        cols = [jets.truncate(c, target) for c in comps]
        for c in self.space.constraints:
            cj = ex.evaluate(c, env)
            if jets.depth_of(cj) == 0:
                raise DepthBudgetError("constraint gradient", 1, 0)
            cols.append(_gradient(cj, target))
        mat = cols[0]._new(np.stack([c.a for c in cols], axis=1))
        gate_frame(_value_rows(mat), env.points)
        return _invert_points(mat, self.space.ambient_dim)

    def at(self, env):
        return self.inverse(env)

    def inverse(self, env):
        with np.errstate(all="ignore"):
            return _Field.at(self, env)

    def _covector(self, rows, name) -> CovectorField:
        """The rows ``rows`` of the inverse, an index or a block."""
        return CovectorField(self.space, lambda env, inv: inv._new(
            inv.a[rows]), self.cost, name, (self,))

    def coframe(self) -> tuple:
        """The covectors dual to the solver fields, rows of the inverse."""
        return self._coframe

    def coframe_rows(self, indices) -> CovectorField:
        """The covectors of :meth:`coframe` at ``indices`` as one block,
        ``(R, n, P) + slots``: a view of the inverse, ``inverse.a[lo:hi]``,
        for a contiguous run of rows, else a copy of the rows."""
        indices = list(indices)
        lo, hi = indices[0], indices[0] + len(indices)
        rows = slice(lo, hi) if indices == list(range(lo, hi)) else indices
        return self._covector(rows, "{" + ",".join(
            self._coframe[i].name for i in indices) + "}")

    def coefficient_field(self, X: VectorField) -> VectorField:
        """X's frame coefficients, named after X, at cost ``max(X.cost,
        self.cost)``: the inverse's rows contracted with X's components by
        :func:`_contract`, as in :meth:`coefficients`, member by member."""
        cost = max(X.cost, self.cost)
        return VectorField(self.space, lambda env, inv, xs: _contract(
            jets.truncate(inv, env.depth - cost).a,
            jets.truncate(xs, env.depth - cost)), cost, X.name, (self, X))

    def coefficients(self, env, comps) -> list:
        """Each point's frame coefficients of the vector whose components
        are ``comps``, a depth-0 batch over the points of ``env``: the
        depth-0 rows of the inverse in ``env`` contracted with it."""
        with np.errstate(all="ignore"):
            inv = jets.truncate(self.inverse(env), 0)
            return _value_rows(_contract(inv.a, comps)).tolist()


def dual_coframe(space, frames) -> tuple:
    """Covectors dual to the concatenated frames: w^i(e_j) = delta^i_j."""
    fields = tuple(f for frame in frames for f in frame.fields)
    return FrameSolver(space, fields).coframe()


def frame_coefficients(space, frames, components, point) -> list[float]:
    """Expand a tangent vector (given by components at a point) in frames;
    raises unless the expansion reconstructs the vector."""
    if len(components) != space.ambient_dim:
        raise GeometryError(f"{len(components)} components for "
                            f"{space.ambient_dim}-dimensional {space.name}")
    fields = tuple(f for frame in frames for f in frame.fields)
    solver = FrameSolver(space, fields)
    env = space.seed_env(point, solver.cost, "frame solve")
    comps = JetBatch(np.array(components, dtype=float)[:, None], 0,
                     space.ambient_dim)
    coef = solver.coefficients(env, comps)[0]
    trimmed = coef[:len(fields)]
    recon = [0.0] * space.ambient_dim
    for c, f in zip(trimmed, fields):
        vals = f.values(point)
        recon = [r + c * v for r, v in zip(recon, vals)]
    norm = math.sqrt(_left_sum(v * v for v in components)) or 1.0
    resid = math.sqrt(_left_sum((r - v) ** 2
                                for r, v in zip(recon, components)))
    if not resid <= 1e-10 * max(norm, 1.0):
        raise GeometryError(
            f"vector is not in the span of the frame at {point}: "
            f"residual {resid:.3e}")
    return trimmed


# ---------------------------------------------------------------------------
# (1,1)-tensors
# ---------------------------------------------------------------------------


class Endo11:
    """A (1,1)-tensor as a rule sending vector fields to vector fields.

    Every projector and endomorphism pair is a sum of coframe covectors
    tensored with frame fields, built by :meth:`from_sides`; the other
    constructors combine such tensors.  All of them produce function-linear
    actions; the test suite verifies that property by sampling.
    Applications are memoized per argument instance by :func:`_memoized`,
    so repeated formula assembly over the same fields shares one output
    field (and its warm evaluation cache), until the run that added the
    entry ends; a memo output is marked by :meth:`_Field.share`.
    :meth:`once` applies without the memo, for an argument built for that
    one application, such as the brackets of the derivative engine: no
    memo holds the argument, and the output is not shared, so it stores
    nothing when its evaluation reads it once.  A composite (a sum, a
    scaling, a composition, a Lie derivative) applies its parts through
    :meth:`once`, so its own memo alone holds an application.
    """

    __slots__ = ("space", "name", "_apply", "_memo", "sides")

    def __init__(self, space, apply_fn, name, sides=()):
        self.space = space
        self._apply = apply_fn
        self.name = name
        self._memo = {}
        self.sides = sides

    def __call__(self, X: VectorField) -> VectorField:
        return _memoized(self._memo, X, self.once, X)

    def once(self, X: VectorField) -> VectorField:
        """The application to ``X``, neither memoized nor shared, for an
        argument that no caller can pass again, such as a bracket built
        for this one application."""
        if X.space is not self.space:
            raise SpaceMismatchError(
                f"{self.name} on {self.space.name} applied to {X.name} "
                f"on {X.space.name}")
        return self._apply(X)

    @staticmethod
    def identity(space, name="I"):
        return Endo11(space, lambda X: X, name)

    @staticmethod
    def from_terms(space, terms, name):
        """:meth:`from_sides` over (covector, vector field) pairs."""
        covectors, fields = zip(*terms)
        return Endo11.from_sides(space, _stacked(covectors, CovectorField),
                                 fields, name)

    @staticmethod
    def from_sides(space, coframe: CovectorField, fields, name):
        """Sum of ``w^r ⊗ e_r`` over the rows of the covector block
        ``coframe`` and the ``fields``, stacked in one frame block.  The
        blocks are the tensor's ``sides``, shared (applications are built
        one at a time), so each is evaluated once per (point set, depth).
        An application reads its argument and the sides alone, and folds
        every ``w^r(X)``, then every component of the image (the left fold
        from ``0.0`` of ``w^r(X) * e_r``), in one :func:`_contract` each."""
        coframe.share()
        frames = _stacked(tuple(fields)).share()
        return Endo11(space, lambda X: _rule(
            VectorField, (X, coframe, frames), _apply_sides,
            f"{name}({X.name})"), name, (coframe, frames))


def _apply_sides(xs, ws, es):
    return _contract(es.a.swapaxes(0, 1), _contract(ws.a, xs))


def endo_add(A: Endo11, B: Endo11, name=None) -> Endo11:
    return Endo11(A.space, lambda X: vf_add(A.once(X), B.once(X)),
                  name or f"({A.name}+{B.name})")


def endo_scale(c: float, A: Endo11, name=None) -> Endo11:
    return Endo11(A.space, lambda X: vf_scale(c, A.once(X)),
                  name or f"{c:g}*{A.name}")


def endo_compose(A: Endo11, B: Endo11, name=None) -> Endo11:
    return Endo11(A.space, lambda X: A.once(B.once(X)),
                  name or f"{A.name}∘{B.name}")


def lie_derivative_endo(G: VectorField, T: Endo11, name=None) -> Endo11:
    """(L_G T)(X) = [G, T(X)] - T([G, X])."""
    label = name or f"L_{G.name}{T.name}"
    return Endo11(G.space, lambda X: vf_sub(
        lie_bracket(G, T.once(X)), T.once(lie_bracket(G, X)),
        name=f"{label}({X.name})"), label)


def projector_from_solver(solver: FrameSolver, indices, name) -> Endo11:
    """Projector onto the span of the indexed solver fields, along the rest:
    the sum of ``w^i ⊗ e_i`` over the indices."""
    return Endo11.from_sides(solver.space, solver.coframe_rows(indices),
                             [solver.fields[i] for i in indices], name)


def projector_from_split(target: Frame, rest, name=None) -> Endo11:
    """Projector with image span(target) and kernel span(rest)."""
    fields = tuple(target.fields) + tuple(f for fr in rest for f in fr.fields)
    solver = FrameSolver(target.space, fields)
    return projector_from_solver(solver, range(target.rank),
                                 name or f"P_{target.name or 'target'}")


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def validate_frame(space, fields, cfg: CheckConfig = DEFAULT_CHECK):
    """Each sample point's field values, one list per field, read from one
    evaluation of the fields stacked on a member axis and gated by one
    :func:`gate_frame`; raises at the first sample point where the frame is
    degenerate or not finite (singular-value ratio)."""
    frame = _stacked(tuple(fields))

    def gate(pts):
        rows = frame.rows(pts)
        gate_frame(rows.swapaxes(1, 2), [p.values for p in pts])
        return rows.tolist()

    return per_point(space.sample_points(cfg), gate)


def annihilation(space, exprs, X: VectorField, cfg: CheckConfig,
                 check: report.Check) -> report.Check:
    """``check`` with the fold of every |grad(e) . X| over the sampled
    points and expressions, each ``grad(e) . X`` the directional derivative
    ``X(e)``."""
    return check.track(space.sample_points(cfg), *(
        directional(X, ScalarField.from_expr(space, e)) for e in exprs))


def validate_tangent(space, X, cfg: CheckConfig = DEFAULT_CHECK,
                     tol: float = 1e-10):
    """For embedded spaces: grad(c_k) . X = 0 at sampled points, for a
    field ``X`` or each field of a tuple, one check each, folded at once;
    raises for the first that fails, else returns the largest deviation."""
    if not space.constraints:
        return 0.0
    fields = X if isinstance(X, tuple) else (X,)
    records = run_checks([annihilation(
        space, space.constraints, f, cfg,
        report.Check(f"{f.name}:tangent", "", tol)) for f in fields],
        at_once=True)
    for f, record in zip(fields, records):
        if not record.max_dev <= tol:
            raise GeometryError(
                f"field {f.name} is not tangent to {space.name}: "
                f"max deviation {record.max_dev:.3e}")
    return max(record.max_dev for record in records)


def eval_vector_field(X: VectorField, point, cfg: CheckConfig = DEFAULT_CHECK):
    """Components of X at a point, lifted to jets seeded at that point: one
    batch per component, holding the point's slots alone."""
    with np.errstate(all="ignore"):
        comps = X.at(X.space.seed_env(point, cfg.depth))
    return [comps._new(c[0]) for c in comps.a]
