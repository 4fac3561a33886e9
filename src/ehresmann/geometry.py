"""Charted spaces, vector fields, coframes, projectors and (1,1)-tensors.

Everything evaluable here runs on :class:`jets.JetBatch` arrays over a
point set, and a single point is a one-point set: evaluating a field in an
environment of coordinate batches of depth ``k`` yields components that
carry exact derivatives.  Derived objects (Lie brackets, pointwise solves
through constraint gradients, Lie derivatives) consume derivative levels;
each field records that consumption as its ``cost``, and evaluation fails
loudly when the available depth cannot cover it, naming the operation chain.

The evaluation contract: an environment is an :class:`Env`, the space's
coordinate functions seeded as jets over a point set
(``ChartedSpace.seed_env``).  Under that contract the first-order slots of
any evaluated component are its coordinate derivatives at each point, which
is what brackets and Lie derivatives read.  An ``Env`` carries its seeded
``depth`` and its memo ``key``, ``(point values, depth)``: equal keys mean
bit-equal inputs, so every cache keys on it.  The one caching rule: a
field caches its own evaluation under ``env.key``, at depth ``env.depth -
cost``, and nothing else; a truncation below that depth is a view of that
entry (:func:`jets.truncate` selects slots) and is not stored.  A field
counts the reads of it in the rules of other fields (each constructor
passes the fields its rule reads as ``operands``), and a field read
exactly once stores nothing: it is evaluated only inside its one reader.
Memo outputs and frame solves, handed to many callers, always store.  A
frame solve is a field too, and frame coefficients are contracted by the
same kernel as every projector, :func:`_contract`.

A :class:`FieldStack` puts fields of one ``cost`` on a leading member
axis, ``(F, n, P) + slots``: a tree of the field algebra over a stacked
field evaluates every member at once, with the bits each member gets
alone, as a point set does for its points.

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
from functools import reduce

import numpy as np

from . import expr as ex
from . import jets
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

    def probe(self, samples: int = 3) -> "CheckConfig":
        """A cheaper config for spot checks inside hot paths."""
        return CheckConfig(self.seed, min(self.samples, samples),
                           self.tolerance, self.depth)


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
        point is capped at ``cfg.depth`` derivative levels."""
        rng = random.Random(cfg.seed)
        points = []
        for _ in range(cfg.samples):
            if self.sphere:
                while True:
                    raw = [rng.uniform(lo, hi) for lo, hi in self.intervals]
                    norm = math.sqrt(_left_sum(v * v for v in raw))
                    if norm >= 0.1:
                        break
                points.append(Point(self, tuple(v / norm for v in raw),
                                    cfg.depth))
            elif self.constraints:
                raise GeometryError(
                    "sampling on a constrained space needs the sphere rule")
            else:
                points.append(Point(self, tuple(
                    rng.uniform(lo, hi) for lo, hi in self.intervals),
                    cfg.depth))
        return points


@dataclass(frozen=True)
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
    environment.
    """

    __slots__ = ("depth", "key", "points")


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
    result then carries too (``rows``, read off a frame, never does)."""
    if xs.a.ndim - xs.depth == 2:
        return xs._new(jets.fold_products(rows.swapaxes(0, 1), xs.a[:, None],
                                          xs.depth))
    return xs._new(jets.fold_products(rows.swapaxes(0, 1)[:, None],
                                      np.moveaxis(xs.a, 1, 0)[:, :, None],
                                      xs.depth))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class _Field:
    """A rule ``_fn(env)`` that consumes ``cost`` derivative levels.

    ``operands`` are the fields the rule reads, one entry per read; each
    adds one to that field's ``readers``.  The one caching rule: an
    evaluation is normalized to depth ``env.depth - cost`` and memoized
    under ``env.key``, unless the field has exactly one reader.  Such a
    field is evaluated only inside its reader's evaluation, which stores
    or is itself evaluated once, so storing it would keep a batch that is
    never read again.  A field nothing reads stores (a check, ``values``
    or ``Scenario.coefficients`` evaluates it).  Readers are counted as
    they are built, so a field that callers outside any rule also read
    (a memo output, a frame solve, a coefficient table that oracles read)
    is marked by :meth:`share` and always stores.  ``from_exprs`` serves
    the component fields (vector and covector); ``values`` all three, a
    scalar's value as its one component.  Each field type binds ``at`` in
    its own namespace, so a profiler can wrap it per type.
    """

    __slots__ = ("space", "name", "cost", "_fn", "_cache", "readers",
                 "shared")
    _normalize = staticmethod(_comps_as_depth)
    _point_rows = staticmethod(lambda comps, env: _value_rows(comps))

    def __init__(self, space, fn, cost, name, operands=()):
        self.space = space
        self._fn = fn
        self.cost = cost
        self.name = name
        self._cache = {}
        self.readers = 0
        self.shared = False
        for f in operands:
            f.readers += 1

    def at(self, env):
        hit = self._cache.get(env.key)
        if hit is None:
            if env.depth < self.cost:
                raise DepthBudgetError(self.name, self.cost, env.depth)
            hit = self._normalize(self._fn(env), env.depth - self.cost, env)
            if self.readers != 1 or self.shared:
                self._cache[env.key] = hit
        return hit

    def share(self):
        """Store every evaluation, however many fields read this one: a
        memo output or a frame solve is handed to many callers, which may
        evaluate it directly.  Returns the field."""
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

    def values(self, point) -> list:
        """Component values at a point, or one list per point of a set; a
        scalar field has one component, its value."""
        env = self.space.seed_env(point, self.cost, self.name)
        with np.errstate(all="ignore"):
            rows = self._point_rows(self.at(env), env).tolist()
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


def _comps_at(field, env, target: int):
    """Components of a field truncated to an exact depth: a view of the
    one cached evaluation, stored nowhere."""
    return jets.truncate(field.at(env), target)


def _check_space(a, b):
    if a.space is not b.space:
        raise SpaceMismatchError(
            f"{a.name} lives on {a.space.name}, {b.name} on {b.space.name}")


# ---------------------------------------------------------------------------
# field algebra
# ---------------------------------------------------------------------------


def _binary_field(op, X: VectorField, Y: VectorField, name) -> VectorField:
    _check_space(X, Y)
    cost = max(X.cost, Y.cost)

    def fn(env):
        t = env.depth - cost
        return op(_comps_at(X, env, t), _comps_at(Y, env, t))

    return VectorField(X.space, fn, cost, name, (X, Y))


def vf_add(X: VectorField, Y: VectorField, name=None) -> VectorField:
    return _binary_field(operator.add, X, Y, name or f"({X.name}+{Y.name})")


def vf_sub(X: VectorField, Y: VectorField, name=None) -> VectorField:
    return _binary_field(operator.sub, X, Y, name or f"({X.name}-{Y.name})")


def vf_scale(f, X: VectorField, name=None) -> VectorField:
    """Scale by a number or by a scalar field (function-linear scaling)."""
    if isinstance(f, (int, float)):
        c = float(f)
        return VectorField(X.space, lambda env: c * X.at(env),
                           X.cost, name or f"{c:g}*{X.name}", (X,))
    _check_space(f, X)
    cost = max(f.cost, X.cost)

    def fn(env):
        t = env.depth - cost
        return _as_depth(f.at(env), t, env) * _comps_at(X, env, t)

    return VectorField(X.space, fn, cost, name or f"({f.name})*{X.name}",
                       (f, X))


def pairing(omega: CovectorField, X: VectorField, name=None) -> ScalarField:
    _check_space(omega, X)
    cost = max(omega.cost, X.cost)

    def fn(env):
        t = env.depth - cost
        return jets.dot(_comps_at(omega, env, t), _comps_at(X, env, t))

    return ScalarField(X.space, fn, cost, name or f"{omega.name}({X.name})",
                       (omega, X))


def directional(X: VectorField, f: ScalarField, name=None) -> ScalarField:
    """The derivative X(f), read from the jet slots of f's evaluation."""
    _check_space(X, f)
    cost = max(X.cost, f.cost + 1)

    def fn(env):
        t = env.depth - cost
        fv = f.at(env)
        if jets.depth_of(fv) == 0:
            raise DepthBudgetError(f"{X.name}({f.name})", cost, env.depth)
        return jets.dot(_comps_at(X, env, t), _gradient(fv, t))

    return ScalarField(X.space, fn, cost, name or f"{X.name}({f.name})",
                       (X, f))


def _bracket_fold(xs, ys, t: int):
    """The bracket of stacked components at depth ``t + 1``, every product
    of the fold formed at once (indexed component, point, variable,
    slots...), then ``acc = acc + a * p - b * q`` folded over the variables
    in order.  Either operand may carry a leading member axis, which the
    bracket then carries too: the axes are counted from the end."""
    xa, ya = (jets.truncate(cs, t + 1).a for cs in (xs, ys))
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


def lie_bracket(X: VectorField, Y: VectorField, name=None) -> VectorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, via the jet slots.

    On embedded spaces the computation happens in ambient coordinates; the
    result of bracketing tangent fields is again tangent (checked by the
    frame and scenario validators, not silently assumed here).
    """
    _check_space(X, Y)
    cost = max(X.cost, Y.cost) + 1
    return VectorField(
        X.space, lambda env: _bracket_fold(X.at(env), Y.at(env),
                                           env.depth - cost),
        cost, name or f"[{X.name},{Y.name}]", (X, Y))


# ---------------------------------------------------------------------------
# member stacks
# ---------------------------------------------------------------------------


def _stacked(members) -> VectorField:
    """One field whose components are the members' batches stacked on a
    leading member axis, ``(F, n, P) + slots``; the members share a cost."""
    head = members[0]
    for m in members:
        _check_space(head, m)

    def fn(env):
        comps = [m.at(env) for m in members]
        return comps[0]._new(np.stack([c.a for c in comps]))

    return VectorField(head.space, fn, head.cost,
                       "{" + ",".join(m.name for m in members) + "}",
                       members)


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
    ``fallbacks`` counts the calls of :meth:`track` that ran per member,
    and the expected-table rows (read off one ``op(X, Ys)`` per op, X and
    cost group) that ran per pair.
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

    def track(self, tracker: DevTracker, points, members, build):
        """Fold ``build(Y)`` into ``tracker`` for each ``Y`` of ``members``,
        as ``tracker.track(points, build(Y))`` in that order does, from one
        evaluation of ``build`` per cost group.  When a member is not in
        this stack or a stacked evaluation raises, that loop itself runs,
        so the error is the one the loop raises, at the same member and
        point."""
        points = list(points)
        try:
            where = [self._where[Y] for Y in members]
            rows = [build(g).values(points) for g in self.groups]
        except Exception:
            self.fallbacks += 1
            for Y in members:
                tracker.track(points, build(Y))
            return tracker
        for g, i in where:
            for p, at_point in zip(points, rows[g]):
                tracker.update(max_abs(at_point[i]), p.values)
        return tracker


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

    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)


def frame_ratio(mat) -> float:
    """Smallest over largest singular value; NaN if an entry is not finite."""
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        return math.nan
    sv = np.linalg.svd(mat, compute_uv=False)
    return 0.0 if sv[0] == 0.0 else float(sv[-1] / sv[0])


def gate_frame(mat, point):
    """Raise unless the frame matrix's ratio is above the degeneracy gate;
    a stack of matrices is gated point by point, in order."""
    if isinstance(mat, np.ndarray) and mat.ndim == 3:
        for m, p in zip(mat, point):
            gate_frame(m, p)
        return
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


class FrameSolver:
    """Pointwise inverse of the matrix whose columns are frame fields.

    On embedded spaces the constraint gradients are appended as extra
    columns to square the system.  The solve is a field named ``"frame
    solve"`` of cost :attr:`cost` that gates the frame and inverts it, so
    it caches one inverse per ``env.key`` under the one caching rule;
    ``_cache`` is its cache and :meth:`inverse` its ``at``.  Everything built
    over the frame reads that inverse through the one shared
    :meth:`coframe`, and :meth:`coefficients` contracts its values with
    :func:`_contract`, as every projector does.
    """

    def __init__(self, space, fields):
        self.space = space
        self.fields = tuple(fields)
        n = space.ambient_dim
        if len(self.fields) + len(space.constraints) != n:
            raise GeometryError(
                f"{len(self.fields)} frame fields plus "
                f"{len(space.constraints)} constraints cannot square a "
                f"{n}-dimensional solve")
        base = max((f.cost for f in self.fields), default=0)
        self.cost = max(base, 1) if space.constraints else base
        self._solve = _Field(space, self._invert, self.cost, "frame solve",
                             self.fields).share()
        self._cache = self._solve._cache
        self._coframe = tuple(self._covector(i)
                              for i in range(len(self.fields)))

    def _columns(self, env, target):
        cols = [_comps_at(f, env, target) for f in self.fields]
        for c in self.space.constraints:
            cj = ex.evaluate(c, env)
            if jets.depth_of(cj) == 0:
                raise DepthBudgetError("constraint gradient", 1, 0)
            cols.append(_gradient(cj, target))
        return cols

    def _invert(self, env):
        with np.errstate(all="ignore"):
            cols = self._columns(env, env.depth - self.cost)
            mat = cols[0]._new(np.stack([c.a for c in cols], axis=1))
            gate_frame(_value_rows(mat), env.points)
            return _invert_points(mat, self.space.ambient_dim)

    def inverse(self, env):
        return self._solve.at(env)

    def _covector(self, i) -> CovectorField:
        def fn(env):
            inv = self.inverse(env)
            return inv._new(inv.a[i])

        return CovectorField(self.space, fn, self.cost,
                             f"{self.fields[i].name}*", (self._solve,))

    def coframe(self) -> tuple:
        """The covectors dual to the solver fields, w^i(e_j) = delta^i_j,
        each read off one row of the shared inverse.  Built once, so every
        projector and endomorphism over this solver shares their caches."""
        return self._coframe

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
    tensored with frame fields, built by :meth:`from_terms`; the other
    constructors combine such tensors.  All of them produce function-linear
    actions; the test suite verifies that property by sampling.
    Applications are memoized per argument instance, so repeated formula
    assembly over the same fields shares one output field (and its warm
    evaluation cache); a memo output is marked by :meth:`_Field.share`.
    """

    __slots__ = ("space", "name", "_apply", "_memo")

    def __init__(self, space, apply_fn, name):
        self.space = space
        self._apply = apply_fn
        self.name = name
        self._memo = {}

    def __call__(self, X: VectorField) -> VectorField:
        if X.space is not self.space:
            raise SpaceMismatchError(
                f"{self.name} on {self.space.name} applied to {X.name} "
                f"on {X.space.name}")
        out = self._memo.get(X)
        if out is None:
            out = self._memo[X] = self._apply(X).share()
        return out

    @staticmethod
    def identity(space, name="I"):
        return Endo11(space, lambda X: X, name)

    @staticmethod
    def from_terms(space, terms, name):
        """Sum of (covector ⊗ vector field) terms: each component of the
        image is the left fold from ``0.0`` of ``w(X) * e``.  Every
        pairing, and then every component, folds at once over the point
        set.  Every application reads every term, and applications are
        built one at a time, so the term fields are shared."""
        terms = tuple(terms)
        for term in terms:
            for f in term:
                f.share()

        def apply_fn(X):
            cost = max([X.cost] + [max(w.cost, e.cost) for w, e in terms])

            def fn(env):
                t = env.depth - cost
                xs = _comps_at(X, env, t)
                ws = np.stack([_comps_at(w, env, t).a for w, _ in terms])
                es = np.stack([_comps_at(e, env, t).a for _, e in terms],
                              axis=1)
                return _contract(es, _contract(ws, xs))

            return VectorField(space, fn, cost, f"{name}({X.name})",
                               (X,) + tuple(f for term in terms for f in term))

        return Endo11(space, apply_fn, name)


def endo_add(A: Endo11, B: Endo11, name=None) -> Endo11:
    return Endo11(A.space, lambda X: vf_add(A(X), B(X)),
                  name or f"({A.name}+{B.name})")


def endo_scale(c: float, A: Endo11, name=None) -> Endo11:
    return Endo11(A.space, lambda X: vf_scale(c, A(X)),
                  name or f"{c:g}*{A.name}")


def endo_compose(A: Endo11, B: Endo11, name=None) -> Endo11:
    return Endo11(A.space, lambda X: A(B(X)), name or f"{A.name}∘{B.name}")


def lie_derivative_endo(G: VectorField, T: Endo11, name=None) -> Endo11:
    """(L_G T)(X) = [G, T(X)] - T([G, X])."""
    label = name or f"L_{G.name}{T.name}"

    def apply_fn(X):
        out = vf_sub(lie_bracket(G, T(X)), T(lie_bracket(G, X)),
                     name=f"{label}({X.name})")
        return out

    return Endo11(G.space, apply_fn, label)


def projector_from_solver(solver: FrameSolver, indices, name) -> Endo11:
    """Projector onto the span of the indexed solver fields, along the rest:
    the sum of ``w^i ⊗ e_i`` over the indices."""
    coframe = solver.coframe()
    return Endo11.from_terms(
        solver.space, [(coframe[i], solver.fields[i]) for i in indices], name)


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
    """Each sample point's field values; raises at the first sample point
    where the frame is degenerate or not finite (singular-value ratio)."""
    fields = tuple(fields)

    def gate(p, columns):
        gate_frame(np.array(columns).T, p.values)
        return columns

    return per_point(space.sample_points(cfg),
                     lambda pts: [gate(p, cols) for p, cols in zip(
                         pts, zip(*(f.values(pts) for f in fields)))])


def annihilation(space, exprs, X: VectorField,
                 cfg: CheckConfig = DEFAULT_CHECK) -> DevTracker:
    """The worst |grad(e) . X| over the sampled points and expressions,
    each ``grad(e) . X`` the directional derivative ``X(e)``."""
    return DevTracker().track(space.sample_points(cfg), *(
        directional(X, ScalarField.from_expr(space, e)) for e in exprs))


def validate_tangent(space, X: VectorField, cfg: CheckConfig = DEFAULT_CHECK,
                     tol: float = 1e-10):
    """For embedded spaces: grad(c_k) . X = 0 at sampled points."""
    if not space.constraints:
        return 0.0
    dev = annihilation(space, space.constraints, X, cfg).max_dev
    if not dev <= tol:
        raise GeometryError(
            f"field {X.name} is not tangent to {space.name}: "
            f"max deviation {dev:.3e}")
    return dev


def eval_vector_field(X: VectorField, point, cfg: CheckConfig = DEFAULT_CHECK):
    """Components of X at a point, lifted to jets seeded at that point: one
    batch per component, holding the point's slots alone."""
    with np.errstate(all="ignore"):
        comps = X.at(X.space.seed_env(point, cfg.depth))
    return [comps._new(c[0]) for c in comps.a]
