"""Charted spaces, vector fields, coframes, projectors and (1,1)-tensors.

Everything evaluable here is generic over the jet scalar: evaluating a field
in an environment of coordinate jets of depth ``k`` yields components that
carry exact derivatives.  Derived objects (Lie brackets, pointwise solves
through constraint gradients, Lie derivatives) consume derivative levels;
each field records that consumption as its ``cost``, and evaluation fails
loudly when the available depth cannot cover it, naming the operation chain.

The evaluation contract: an environment always consists of the space's
coordinate functions seeded as jets at a point (``ChartedSpace.seed_env``).
Under that contract the first-order slots of any evaluated component are its
coordinate derivatives at the point, which is what brackets and Lie
derivatives read.

Embedded spaces (constraint expressions ``c_k = 0``) keep all fields in
ambient coordinates.  Pointwise frame solves append the constraint gradients
as extra columns to square the system, so frame coefficients of tangent
vectors come out of one partial-pivot elimination, generic over jets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import jets
from .jets import Jet, JetConfig, value_of
from .report import DevTracker

FRAME_DEGENERACY_RATIO = 1e-8


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
            f"frame is numerically degenerate at {self.point}: "
            f"singular-value ratio {ratio:.3e} <= {FRAME_DEGENERACY_RATIO:.0e}")


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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
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

    def seed_env(self, point, depth: int) -> dict:
        values = point.values if isinstance(point, Point) else tuple(point)
        seeded = jets.seed(JetConfig(self.coords, depth), values)
        return dict(zip(self.coords, seeded))

    def constraint_residual(self, values) -> float:
        if not self.constraints:
            return 0.0
        env = dict(zip(self.coords, values))
        return max(abs(ex.evaluate(c, env)) for c in self.constraints)

    def point(self, values, *, project: bool = False,
              tol: float = 1e-10) -> "Point":
        vals = tuple(float(v) for v in values)
        if len(vals) != self.ambient_dim:
            raise OffManifoldError(
                f"{self.name} needs {self.ambient_dim} coordinates, "
                f"got {len(vals)}")
        if self.constraints:
            res = self.constraint_residual(vals)
            if res > tol:
                if project and self.sphere and res < 1e-8:
                    norm = math.sqrt(sum(v * v for v in vals))
                    vals = tuple(v / norm for v in vals)
                else:
                    raise OffManifoldError(
                        f"point {vals} violates constraints of {self.name} "
                        f"by {res:.3e}")
        return Point(self, vals)

    def sample_points(self, cfg: CheckConfig = DEFAULT_CHECK) -> list["Point"]:
        """Deterministic sample draw; equal config means equal points."""
        rng = random.Random(cfg.seed)
        points = []
        for _ in range(cfg.samples):
            if self.sphere:
                while True:
                    raw = [rng.uniform(lo, hi) for lo, hi in self.intervals]
                    norm = math.sqrt(sum(v * v for v in raw))
                    if norm >= 0.1:
                        break
                points.append(Point(self, tuple(v / norm for v in raw)))
            elif self.constraints:
                raise GeometryError(
                    "sampling on a constrained space needs the sphere rule")
            else:
                points.append(Point(self, tuple(
                    rng.uniform(lo, hi) for lo, hi in self.intervals)))
        return points


@dataclass(frozen=True)
class Point:
    space: ChartedSpace
    values: tuple[float, ...]

    def __repr__(self):
        return f"Point({', '.join(f'{v:.6g}' for v in self.values)})"


def env_depth(env: dict) -> int:
    for v in env.values():
        return v.depth if isinstance(v, Jet) else 0
    raise GeometryError("empty environment")


def _as_depth(s, depth: int, nvars: int):
    """Normalize a scalar to an exact depth (truncate jets, lift numbers)."""
    if isinstance(s, Jet):
        if s.depth == depth:
            return s
        if s.depth > depth:
            return jets.truncate(s, depth)
        raise GeometryError(
            f"internal: scalar of depth {s.depth} below target {depth}")
    if depth == 0:
        return float(s)
    return jets.constant(float(s), nvars, depth)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _env_key(space, env, depth):
    return (tuple(value_of(env[c]) for c in space.coords), depth)


class ScalarField:
    """A scalar function on a space, evaluable over jets.

    Evaluations are memoized per (point, depth): environments are always
    coordinate seeds, so equal keys mean bit-equal inputs.
    """

    __slots__ = ("space", "name", "cost", "_fn", "expr", "_cache")

    def __init__(self, space, fn, cost=0, name="f", expr=None):
        self.space = space
        self._fn = fn
        self.cost = cost
        self.name = name
        self.expr = expr
        self._cache = {}

    @staticmethod
    def from_expr(space, e, name=None):
        if isinstance(e, str):
            e = ex.parse(e)
        _check_bound(space, e)
        return ScalarField(space, lambda env: ex.evaluate(e, env), 0,
                           name or ex.to_string(e), expr=e)

    @staticmethod
    def constant(space, c: float):
        return ScalarField(space, lambda env: float(c), 0, repr(float(c)))

    def at(self, env):
        k = env_depth(env)
        if k < self.cost:
            raise DepthBudgetError(self.name, self.cost, k)
        key = _env_key(self.space, env, k)
        hit = self._cache.get(key)
        if hit is None:
            hit = _as_depth(self._fn(env), k - self.cost,
                            self.space.ambient_dim)
            self._cache[key] = hit
        return hit

    def value_at(self, point) -> float:
        env = self.space.seed_env(point, self.cost)
        return value_of(self.at(env))


def _check_bound(space, e):
    unknown = [v for v in ex.free_vars(e) if v not in space.coords]
    if unknown:
        raise GeometryError(
            f"expression {ex.to_string(e)!r} uses {unknown} which are not "
            f"coordinates of {space.name}")


class VectorField:
    """A vector field given by per-coordinate component functions.

    Components are expressions or machinery-produced closures.  ``cost`` is
    the number of derivative levels one evaluation consumes; expression
    components cost nothing, a Lie bracket costs one more than its operands.
    """

    __slots__ = ("space", "name", "cost", "_fn", "exprs", "_cache")

    def __init__(self, space, fn, cost=0, name="X", exprs=None):
        self.space = space
        self._fn = fn
        self.cost = cost
        self.name = name
        self.exprs = exprs
        self._cache = {}

    def __repr__(self):
        return f"VectorField({self.name!r} on {self.space.name!r})"

    @staticmethod
    def from_exprs(space, components, name):
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

        return VectorField(space, fn, 0, name, exprs=parsed)

    @staticmethod
    def zero(space, name="0"):
        n = space.ambient_dim
        return VectorField(space, lambda env: [0.0] * n, 0, name,
                           exprs=tuple(ex.Const(0.0) for _ in range(n)))

    @staticmethod
    def coordinate(space, coord: str, name=None):
        i = space.index(coord)
        n = space.ambient_dim
        comps = tuple(ex.Const(1.0 if j == i else 0.0) for j in range(n))
        return VectorField.from_exprs(space, comps, name or f"d/d{coord}")

    def at(self, env) -> list:
        k = env_depth(env)
        if k < self.cost:
            raise DepthBudgetError(self.name, self.cost, k)
        key = _env_key(self.space, env, k)
        hit = self._cache.get(key)
        if hit is None:
            target = k - self.cost
            n = self.space.ambient_dim
            hit = [_as_depth(c, target, n) for c in self._fn(env)]
            self._cache[key] = hit
        return hit

    def values(self, point) -> list[float]:
        env = self.space.seed_env(point, self.cost)
        return [value_of(c) for c in self.at(env)]


class CovectorField:
    """A 1-form given by components against the coordinate differentials."""

    __slots__ = ("space", "name", "cost", "_fn", "_cache")

    def __init__(self, space, fn, cost=0, name="w"):
        self.space = space
        self._fn = fn
        self.cost = cost
        self.name = name
        self._cache = {}

    @staticmethod
    def from_exprs(space, components, name):
        parsed = tuple(ex.parse(c) if isinstance(c, str) else c
                       for c in components)
        for e in parsed:
            _check_bound(space, e)

        def fn(env):
            return [ex.evaluate(e, env) for e in parsed]

        return CovectorField(space, fn, 0, name)

    def at(self, env) -> list:
        k = env_depth(env)
        if k < self.cost:
            raise DepthBudgetError(self.name, self.cost, k)
        key = _env_key(self.space, env, k)
        hit = self._cache.get(key)
        if hit is None:
            target = k - self.cost
            n = self.space.ambient_dim
            hit = [_as_depth(c, target, n) for c in self._fn(env)]
            self._cache[key] = hit
        return hit

    def values(self, point) -> list[float]:
        env = self.space.seed_env(point, self.cost)
        return [value_of(c) for c in self.at(env)]


def _comps_at(field, env, target: int) -> list:
    """Components of a field truncated to an exact depth, cached like at()."""
    k = env_depth(env)
    if k - field.cost == target:
        return field.at(env)
    key = (_env_key(field.space, env, k), target)
    hit = field._cache.get(key)
    if hit is None:
        n = field.space.ambient_dim
        hit = [_as_depth(c, target, n) for c in field.at(env)]
        field._cache[key] = hit
    return hit


def _check_space(a, b):
    if a.space is not b.space:
        raise SpaceMismatchError(
            f"{a.name} lives on {a.space.name}, {b.name} on {b.space.name}")


# ---------------------------------------------------------------------------
# field algebra
# ---------------------------------------------------------------------------


def vf_add(X: VectorField, Y: VectorField, name=None) -> VectorField:
    _check_space(X, Y)
    cost = max(X.cost, Y.cost)

    def fn(env):
        t = env_depth(env) - cost
        xs = _comps_at(X, env, t)
        ys = _comps_at(Y, env, t)
        return [a + b for a, b in zip(xs, ys)]

    return VectorField(X.space, fn, cost, name or f"({X.name}+{Y.name})")


def vf_sub(X: VectorField, Y: VectorField, name=None) -> VectorField:
    _check_space(X, Y)
    cost = max(X.cost, Y.cost)

    def fn(env):
        t = env_depth(env) - cost
        xs = _comps_at(X, env, t)
        ys = _comps_at(Y, env, t)
        return [a - b for a, b in zip(xs, ys)]

    return VectorField(X.space, fn, cost, name or f"({X.name}-{Y.name})")


def vf_scale(f, X: VectorField, name=None) -> VectorField:
    """Scale by a number or by a scalar field (function-linear scaling)."""
    if isinstance(f, (int, float)):
        c = float(f)

        def fn(env):
            return [c * comp for comp in X.at(env)]

        return VectorField(X.space, fn, X.cost, name or f"{c:g}*{X.name}")
    _check_space(f, X)
    cost = max(f.cost, X.cost)

    def fn(env):
        t = env_depth(env) - cost
        s = _as_depth(f.at(env), t, X.space.ambient_dim)
        return [s * comp for comp in _comps_at(X, env, t)]

    return VectorField(X.space, fn, cost, name or f"({f.name})*{X.name}")


def pairing(omega: CovectorField, X: VectorField, name=None) -> ScalarField:
    _check_space(omega, X)
    cost = max(omega.cost, X.cost)

    def fn(env):
        t = env_depth(env) - cost
        ws = _comps_at(omega, env, t)
        xs = _comps_at(X, env, t)
        acc = 0.0
        for w, x in zip(ws, xs):
            acc = acc + w * x
        return acc

    return ScalarField(X.space, fn, cost, name or f"{omega.name}({X.name})")


def directional(X: VectorField, f: ScalarField, name=None) -> ScalarField:
    """The derivative X(f), read from the jet slots of f's evaluation."""
    _check_space(X, f)
    cost = max(X.cost, f.cost + 1)
    n = X.space.ambient_dim

    def fn(env):
        t = env_depth(env) - cost
        fv = f.at(env)
        if not isinstance(fv, Jet):
            raise DepthBudgetError(f"{X.name}({f.name})", cost, env_depth(env))
        xs = _comps_at(X, env, t)
        acc = 0.0
        for j in range(n):
            acc = acc + xs[j] * _as_depth(fv.partials[j], t, n)
        return acc

    return ScalarField(X.space, fn, cost, name or f"{X.name}({f.name})")


def lie_bracket(X: VectorField, Y: VectorField, name=None) -> VectorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, via the jet slots.

    On embedded spaces the computation happens in ambient coordinates; the
    result of bracketing tangent fields is again tangent (checked by the
    frame and scenario validators, not silently assumed here).
    """
    _check_space(X, Y)
    cost = max(X.cost, Y.cost) + 1
    n = X.space.ambient_dim
    label = name or f"[{X.name},{Y.name}]"

    def fn(env):
        k = env_depth(env)
        t = k - cost
        xs = X.at(env)
        ys = Y.at(env)
        xt = [_as_depth(c, t, n) for c in xs]
        yt = [_as_depth(c, t, n) for c in ys]
        out = []
        for i in range(n):
            acc = 0.0
            yi = ys[i]
            xi = xs[i]
            for j in range(n):
                acc = acc + xt[j] * _as_depth(yi.partials[j], t, n) \
                          - yt[j] * _as_depth(xi.partials[j], t, n)
            out.append(acc)
        return out

    return VectorField(X.space, fn, cost, label)


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


def _invert(rows, n):
    """Gauss-Jordan with partial pivoting on the value part; generic scalars."""
    aug = [list(rows[i]) + [1.0 if j == i else 0.0 for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value_of(aug[r][col])))
        if abs(value_of(aug[piv][col])) == 0.0:
            raise GeometryError("exactly singular matrix in frame solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1.0 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col:
                factor = aug[r][col]
                if isinstance(factor, Jet) or factor != 0.0:
                    aug[r] = [a - factor * b
                              for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class FrameSolver:
    """Pointwise inverse of the matrix whose columns are frame fields.

    On embedded spaces the constraint gradients are appended as extra
    columns to square the system.  Inverses are cached per (point, depth),
    so projectors, coframes and coefficient extractions built over the same
    frame share one elimination per sample point.
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
        self._cache: dict = {}

    def _columns(self, env, target):
        n = self.space.ambient_dim
        cols = [_comps_at(f, env, target) for f in self.fields]
        for c in self.space.constraints:
            cj = ex.evaluate(c, env)
            if not isinstance(cj, Jet):
                raise DepthBudgetError("constraint gradient", 1, 0)
            cols.append([_as_depth(cj.partials[j], target, n)
                         for j in range(n)])
        return cols

    def inverse(self, env):
        k = env_depth(env)
        if k < self.cost:
            raise DepthBudgetError("frame solve", self.cost, k)
        target = k - self.cost
        point = tuple(value_of(env[c]) for c in self.space.coords)
        key = (point, target)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        n = self.space.ambient_dim
        cols = self._columns(env, target)
        vals = np.array([[value_of(cols[j][i]) for j in range(n)]
                         for i in range(n)])
        sv = np.linalg.svd(vals, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] / sv[0] <= FRAME_DEGENERACY_RATIO:
            raise SingularFrameError(point, 0.0 if sv[0] == 0.0
                                     else float(sv[-1] / sv[0]))
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        inv = _invert(rows, n)
        self._cache[key] = inv
        return inv

    def rows_at(self, env, target: int) -> list:
        """Inverse rows truncated to an exact depth, cached per point."""
        k = env_depth(env)
        if k - self.cost == target:
            return self.inverse(env)
        point = tuple(value_of(env[c]) for c in self.space.coords)
        key = (point, target, "rows")
        hit = self._cache.get(key)
        if hit is None:
            inv = self.inverse(env)
            n = self.space.ambient_dim
            hit = [[_as_depth(e, target, n) for e in row] for row in inv]
            self._cache[key] = hit
        return hit

    def coefficients_for(self, env, X: VectorField) -> list:
        """Coefficients of X against the frame fields (constraint slots
        trail at the end for embedded spaces)."""
        t = env_depth(env) - max(self.cost, X.cost)
        inv = self.rows_at(env, t)
        n = self.space.ambient_dim
        xs = _comps_at(X, env, t)
        out = []
        for i in range(n):
            acc = 0.0
            row = inv[i]
            for j in range(n):
                acc = acc + row[j] * xs[j]
            out.append(acc)
        return out

    def coefficients_at_point(self, point, components) -> list[float]:
        env = self.space.seed_env(point, self.cost)
        inv = self.inverse(env)
        n = self.space.ambient_dim
        flat = [[value_of(e) for e in row] for row in inv]
        return [sum(flat[i][j] * components[j] for j in range(n))
                for i in range(n)]


def dual_coframe(space, frames, name_suffix="*") -> list[CovectorField]:
    """Covectors dual to the concatenated frames: w^i(e_j) = delta^i_j."""
    fields = tuple(f for frame in frames for f in frame.fields)
    solver = FrameSolver(space, fields)
    covs = []
    for i, f in enumerate(fields):
        def fn(env, i=i):
            return list(solver.inverse(env)[i])

        covs.append(CovectorField(space, fn, solver.cost,
                                  name=f"{f.name}{name_suffix}"))
    return covs


def frame_coefficients(space, frames, components, point,
                       check: bool = True) -> list[float]:
    """Expand a tangent vector (given by components at a point) in frames."""
    fields = tuple(f for frame in frames for f in frame.fields)
    solver = FrameSolver(space, fields)
    coef = solver.coefficients_at_point(point, list(components))
    trimmed = coef[:len(fields)]
    if check:
        recon = [0.0] * space.ambient_dim
        for c, f in zip(trimmed, fields):
            vals = f.values(point)
            recon = [r + c * v for r, v in zip(recon, vals)]
        norm = math.sqrt(sum(v * v for v in components)) or 1.0
        resid = math.sqrt(sum((r - v) ** 2
                              for r, v in zip(recon, components)))
        if resid > 1e-10 * max(norm, 1.0):
            raise GeometryError(
                f"vector is not in the span of the frame at {point}: "
                f"residual {resid:.3e}")
    return trimmed


# ---------------------------------------------------------------------------
# (1,1)-tensors
# ---------------------------------------------------------------------------


class Endo11:
    """A (1,1)-tensor as a rule sending vector fields to vector fields.

    All constructors below produce function-linear actions; the test suite
    verifies that property by sampling.  Applications are memoized per
    argument instance, so repeated formula assembly over the same fields
    shares one output field (and its warm evaluation cache).
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
        hit = self._memo.get(id(X))
        if hit is not None and hit[0] is X:
            return hit[1]
        out = self._apply(X)
        self._memo[id(X)] = (X, out)
        return out

    @staticmethod
    def identity(space, name="I"):
        return Endo11(space, lambda X: X, name)

    @staticmethod
    def from_terms(space, terms, name):
        """Sum of (covector ⊗ vector field) terms."""
        terms = tuple(terms)

        def apply_fn(X):
            cost = max([X.cost] + [max(w.cost, e.cost) for w, e in terms]) \
                if terms else X.cost
            n = space.ambient_dim

            def fn(env):
                t = env_depth(env) - cost
                xs = _comps_at(X, env, t)
                out = [0.0] * n
                for w, e in terms:
                    ws = _comps_at(w, env, t)
                    s = 0.0
                    for wc, xc in zip(ws, xs):
                        s = s + wc * xc
                    es = _comps_at(e, env, t)
                    out = [o + s * c for o, c in zip(out, es)]
                return out

            return VectorField(space, fn, cost, f"{name}({X.name})")

        return Endo11(space, apply_fn, name)


def endo_add(A: Endo11, B: Endo11, name=None) -> Endo11:
    return Endo11(A.space, lambda X: vf_add(A(X), B(X)),
                  name or f"({A.name}+{B.name})")


def endo_sub(A: Endo11, B: Endo11, name=None) -> Endo11:
    return Endo11(A.space, lambda X: vf_sub(A(X), B(X)),
                  name or f"({A.name}-{B.name})")


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
    """Projector onto the span of the indexed solver fields, along the rest."""
    indices = tuple(indices)
    space = solver.space

    def apply_fn(X):
        cost = max(solver.cost, X.cost)
        n = space.ambient_dim

        def fn(env):
            t = env_depth(env) - cost
            coef = solver.coefficients_for(env, X)
            out = [0.0] * n
            for i in indices:
                es = _comps_at(solver.fields[i], env, t)
                ci = _as_depth(coef[i], t, n)
                out = [o + ci * c for o, c in zip(out, es)]
            return out

        return VectorField(space, fn, cost, f"{name}({X.name})")

    return Endo11(space, apply_fn, name)


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
    """Pointwise independence via the singular-value ratio; raises with the
    worst point on failure."""
    fields = tuple(fields)
    worst = (math.inf, None)
    for p in space.sample_points(cfg):
        cols = [f.values(p) for f in fields]
        mat = np.array(cols).T
        sv = np.linalg.svd(mat, compute_uv=False)
        ratio = 0.0 if sv[0] == 0.0 else float(sv[-1] / sv[0])
        if ratio < worst[0]:
            worst = (ratio, p)
        if ratio <= FRAME_DEGENERACY_RATIO:
            raise SingularFrameError(p.values, ratio)
    return worst


def validate_tangent(space, X: VectorField, cfg: CheckConfig = DEFAULT_CHECK,
                     tol: float = 1e-10):
    """For embedded spaces: grad(c_k) . X = 0 at sampled points."""
    if not space.constraints:
        return 0.0
    n = space.ambient_dim
    tracker = DevTracker()
    for p in space.sample_points(cfg):
        env = space.seed_env(p, max(X.cost, 1))
        xs = [value_of(c) for c in _comps_at(X, env, 0)]
        for c in space.constraints:
            cj = ex.evaluate(c, env)
            grad = [jets.extract(cj, tuple(1 if j == i else 0
                                           for j in range(n)))
                    for i in range(n)]
            tracker.update(abs(sum(g * x for g, x in zip(grad, xs))))
    if not tracker.max_dev <= tol:
        raise GeometryError(
            f"field {X.name} is not tangent to {space.name}: "
            f"max deviation {tracker.max_dev:.3e}")
    return tracker.max_dev


def eval_vector_field(X: VectorField, point, cfg: CheckConfig = DEFAULT_CHECK):
    """Components of X at a point, lifted to jets seeded at that point."""
    env = X.space.seed_env(point, cfg.depth)
    return X.at(env)
