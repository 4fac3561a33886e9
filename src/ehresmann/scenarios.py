"""The worked example families, packaged as ready-made scenarios.

Each scenario bundles a charted space, a validated connection and split, the
covariant derivative built from them, a named field table, and a table of
expected results (frame-coefficient formulas, bracket tables, torsion
components) together with scenario-specific checks.  Each check family
(the expected tables, the covariant-derivative axiom suite, split
identities, the torsion/curvature relation, parallelism of the structure
tensors, the projector equivalence cross-check, ``sode_sufficiency_check``
and every extra check) builds its checks without evaluating them; called,
it folds them and returns its records.  ``run_scenario_checks`` folds the
checks of all of them as one list.  A metric is a pairing function
``g(X, Y) -> ScalarField``.

Families shipped: the trivial bundle over the plane with a circle fibre, the
Hopf fibration, tangent-bundle connections (affine with torsion, nonlinear,
and second-order-equation induced), and frame bundles with the column
decomposition of the fibre.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import partial, reduce
from itertools import product

import numpy as np

from . import expr as ex
from . import jets
from .connection import (  # noqa: F401  (build_connection is re-exported)
    K_HORIZONTAL, K_VERTICAL, EhresmannConnection, SplitStructure,
    build_connection, split_checks,
)
from .covderiv import (
    CovDeriv, assemble, check_parallelism_equivalence, ehresmann_curvature,
    nabla_of_endo, op_field, torsion,
)
from .geometry import (
    ChartedSpace, CheckConfig, CovectorField, DEFAULT_CHECK, Endo11, Frame,
    GeometryError, Point, ScalarField, VectorField, _Field, _as_depth,
    _comps_as_depth, _rule, annihilation, directional, dual_coframe,
    endo_add, endo_scale, family, is_point_set, lie_derivative_endo,
    pairing, run_checks, vf_add, vf_scale, vf_sub,
)
from .jets import JetBatch, value_of
from .report import Check, CheckRecord, per_point


# ---------------------------------------------------------------------------
# small expression builders (zero/one folding keeps component trees lean)
# ---------------------------------------------------------------------------


def _E(entry):
    if isinstance(entry, str):
        return ex.parse(entry)
    if isinstance(entry, (int, float)):
        return ex.Const(float(entry))
    return entry


def _is_zero(e):
    return isinstance(e, ex.Const) and e.value == 0.0


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return ex.BinOp("+", a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return ex.Const(0.0)
    if isinstance(a, ex.Const) and a.value == 1.0:
        return b
    if isinstance(b, ex.Const) and b.value == 1.0:
        return a
    return ex.BinOp("*", a, b)


def _neg(a):
    if _is_zero(a):
        return a
    return ex.Neg(a)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def validate_positive_definite(g, frame_fields, cfg: CheckConfig) -> float:
    """The smallest eigenvalue of the Gram matrix ``g(a, b)`` over the
    frame at the sample points, which must be positive; a non-finite Gram
    entry names its point."""
    r = len(frame_fields)
    pairs = [g(a, b) for a in frame_fields for b in frame_fields]

    def lowest(p, gram):
        if not np.isfinite(gram).all():
            raise GeometryError(f"metric is not finite at {p.values}")
        return float(np.linalg.eigvalsh(gram)[0])

    worst = min([math.inf] + per_point(
        frame_fields[0].space.sample_points(cfg),
        lambda pts: list(map(lowest, pts, np.reshape(
            [f.values(pts) for f in pairs], (r, r, -1)).transpose(2, 0, 1)))))
    if not worst > 0:
        raise GeometryError(
            f"metric is not positive definite on the frame: smallest "
            f"eigenvalue {worst:.3e}")
    return worst


def ambient_dot_metric(space):
    """The pairing ``g(X, Y) -> ScalarField`` of the ambient dot product."""

    def g(X, Y):
        dual = _rule(CovectorField, (Y,), lambda y: y, Y.name, space=space)
        return pairing(dual, X, f"g({X.name},{Y.name})")

    return g


def metric_compatibility_defect(nabla: CovDeriv, g, X, Y, Z):
    """X(g(Y,Z)) - g(nabla_X Y, Z) - g(Y, nabla_X Z) as one ScalarField."""
    terms = (directional(X, g(Y, Z)), g(nabla(X, Y), Z), g(Y, nabla(X, Z)))
    return _rule(ScalarField, terms, lambda lead, a, b: lead - a - b,
                 f"defect({X.name},{Y.name},{Z.name})")


def symmetrize(nabla: CovDeriv) -> CovDeriv:
    """Subtract half the torsion; the result is torsion-free."""

    def rule(X, Y):
        out = vf_sub(nabla(X, Y), vf_scale(0.5, torsion(nabla, X, Y)))
        out.name = f"∇'_{X.name}({Y.name})"
        return out

    return CovDeriv(nabla.space, rule, "symmetrized", ())


# ---------------------------------------------------------------------------
# scenario container and the generic check suites
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExpectedRow:
    op: str                      # nabla | bracket | torsion | curvature
    args: tuple
    coeffs: dict
    ref: str
    tol: float | None = None


@dataclass(eq=False)
class Scenario:
    name: str
    section: str
    description: str
    space: ChartedSpace
    conn: EhresmannConnection
    split: SplitStructure
    nabla: CovDeriv
    fields: dict
    frame_names: tuple
    expected: list
    metric: object = None       # a pairing g(X, Y) -> ScalarField
    extra_checks: list = dc_field(default_factory=list)
    notes: str = ""
    data: dict = dc_field(default_factory=dict)

    @property
    def solver(self):
        return self.split.solver

    @property
    def construction(self) -> str:
        return "equal-rank" if self.split.n == 1 else "n-block"

    def frame_fields(self) -> list:
        return [self.fields[n] for n in self.frame_names]

    def coefficients(self, vf: VectorField, point) -> dict:
        """Frame coefficients of ``vf`` at a point, by solver field name;
        at a point set, one dict per point.  The inverse comes from the env
        of vf's components if vf's tree reads the frame solve (a field
        built through the solver's projectors) or vf costs what the solver
        does, else from its own seeded at ``solver.cost``.  The expected
        table reads ``solver.coefficient_field``."""
        env = self.space.seed_env(point, vf.cost, vf.name)
        with np.errstate(all="ignore"):
            comps = vf.at(env)
        if vf.cost != self.solver.cost and not _reads(vf, self.solver):
            env = self.space.seed_env(point, self.solver.cost, "frame solve")
        rows = self.solver.coefficients(env, comps)
        named = [self._named(c) for c in rows]
        return named if is_point_set(point) else named[0]

    def _named(self, coefs) -> dict:
        out = {f.name: c for f, c in zip(self.solver.fields, coefs)}
        for j in range(len(self.solver.fields), self.space.ambient_dim):
            out[f"offspan{j}"] = coefs[j]
        return out


def _reads(field, target) -> bool:
    """Whether ``target`` is among the operands of ``field``'s tree."""
    seen, todo = set(), [field]
    while todo and target not in seen:
        f = todo.pop()
        todo += () if f in seen else f.operands
        seen.add(f)
    return target in seen


def _table_row(scen: Scenario, row: ExpectedRow, coef: VectorField,
               cap: int) -> VectorField:
    """The row's deviations at depth 0, named after ``coef``: ``coef``,
    the frame coefficients of the row's op field, minus the row's entries,
    each read in the row's env: a field (an oracle) is an operand, read at
    its value, an expression at depth 0 over the env's coordinates, and a
    plain callable at the env's points, capped at ``cap`` levels as drawn.
    An absent, zero or off-span entry is zeros, unevaluated: the
    coefficient keeps its bits, and a row with no other entry is its
    coefficients."""
    live = [(j, e) for j, e in enumerate(
        row.coeffs.get(f.name) for f in scen.solver.fields)
        if e is not None and not _is_zero(e)]
    oracles = [e for _, e in live if isinstance(e, _Field)]

    def fn(env, got, *values):
        got = jets.truncate(got, 0)
        if not live:
            return got
        values = iter(values)
        want = np.zeros(got.a.shape[-2:])
        env0 = {c: jets.truncate(x, 0) for c, x in env.items()}
        for j, e in live:
            if isinstance(e, _Field):
                want[j] = value_of(next(values))
            elif callable(e):
                want[j] = e([Point(scen.space, v, cap) for v in env.points])
            else:
                want[j] = value_of(ex.evaluate(_E(e), env0))
        return got._new(got.a - want)

    return VectorField(scen.space, fn, max([coef.cost] + [
        e.cost for e in oracles]), coef.name, (coef, *oracles))


@family
def expected_table_checks(scen: Scenario, cfg: CheckConfig) -> list:
    """One check per expected row, the fold of one field root, the row's
    deviations (:func:`_table_row`), by the split's stack over the cost
    group of ``Y``.  The rows of one (op, X, cost group) share one
    coefficient field."""
    pts = scen.space.sample_points(cfg)
    coefficients, checks = {}, []
    for row in scen.expected:
        X, Y = (scen.fields[a] for a in row.args)

        def build(Ys, row=row, X=X):
            key = (row.op, X, Ys)
            if key not in coefficients:
                coefficients[key] = scen.solver.coefficient_field(op_field(
                    scen.conn, scen.nabla, row.op, X, Ys))
            return _table_row(scen, row, coefficients[key], cfg.depth)

        checks.append(scen.split.stack.track(Check(
            f"{scen.name}:{row.op}[{row.args[0]},{row.args[1]}]", row.ref,
            row.tol if row.tol is not None else cfg.tolerance),
            pts, [Y], build))
    return checks


def _suite_rng(cfg: CheckConfig, scen: Scenario, label: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{scen.name}:{label}")


def _random_scalar(rng, space) -> ScalarField:
    coords = space.coords
    a = rng.choice(coords)
    b = rng.choice(coords)
    c0 = rng.randint(1, 3)
    c1 = rng.randint(-2, 2)
    c2 = rng.randint(-2, 2)
    e = _add(ex.Const(float(c0)),
             _add(_mul(ex.Const(float(c1)), ex.Var(a)),
                  _mul(ex.Const(float(c2)), _mul(ex.Var(a), ex.Var(b)))))
    return ScalarField.from_expr(space, e)


def _random_combo(rng, fields, name) -> VectorField:
    out = None
    for f in fields:
        c = rng.choice([-1.0, 0.0, 1.0, 2.0])
        if c == 0.0:
            continue
        term = vf_scale(c, f)
        out = term if out is None else vf_add(out, term)
    if out is None:
        return fields[0]  # under its own name: it is the scenario's field
    out.name = name
    return out


@family
def axiom_suite_checks(scen: Scenario, cfg: CheckConfig) -> list:
    """Function-linearity, the Leibniz rule, and both additivities, over
    three random functions and frame fields."""
    rng = _suite_rng(cfg, scen, "axioms")
    pts = scen.space.sample_points(cfg)
    frame = scen.frame_fields()
    nabla = scen.nabla
    checks = {k: Check(f"{scen.name}:axiom:{k}",
                       "covariant-derivative axioms", cfg.tolerance)
              for k in ("function-linearity", "leibniz",
                        "additivity-direction", "additivity-argument")}
    for _ in range(3):
        f = _random_scalar(rng, scen.space)
        X = rng.choice(frame)
        Y = rng.choice(frame)
        Z = rng.choice(frame)
        d1 = vf_sub(nabla(vf_scale(f, X), Y), vf_scale(f, nabla(X, Y)))
        d2 = vf_sub(nabla(X, vf_scale(f, Y)),
                    vf_add(vf_scale(directional(X, f), Y),
                           vf_scale(f, nabla(X, Y))))
        d3 = vf_sub(nabla(vf_add(X, Z), Y),
                    vf_add(nabla(X, Y), nabla(Z, Y)))
        d4 = vf_sub(nabla(X, vf_add(Y, Z)),
                    vf_add(nabla(X, Y), nabla(X, Z)))
        for key, dev_field in (("function-linearity", d1), ("leibniz", d2),
                               ("additivity-direction", d3),
                               ("additivity-argument", d4)):
            checks[key].track(pts, dev_field)
    return list(checks.values())


@family
def torsion_curvature_checks(scen: Scenario, cfg: CheckConfig) -> list:
    """The vertical torsion of horizontal arguments carries the curvature,
    over three random pairs of frame combinations.

    With the conventions used here (T = nabla_X Y - nabla_Y X - [X, Y] and
    R(X, Y) = P_V([P_H X, P_H Y])), the derivative of horizontal arguments
    is horizontal-valued, so P_V(T(P_H X, P_H Y)) = -R(X, Y) exactly; the
    check asserts that signed identity.
    """
    rng = _suite_rng(cfg, scen, "torsion-curvature")
    pts = scen.space.sample_points(cfg)
    conn = scen.conn
    frame = scen.frame_fields()
    check = Check(f"{scen.name}:torsion-carries-curvature",
                  "vertical torsion is the connection curvature with "
                  "opposite sign", cfg.tolerance)
    for _ in range(3):
        X = _random_combo(rng, frame, "X")
        Y = _random_combo(rng, frame, "Y")
        t = torsion(scen.nabla, conn.p_h(X), conn.p_h(Y))
        check.track(pts, vf_add(conn.p_v(t),
                                ehresmann_curvature(conn, X, Y)))
    return [check]


@family
def torsion_property_checks(scen: Scenario, cfg: CheckConfig) -> list:
    """Antisymmetry and function-bilinearity of the torsion, over two
    random draws."""
    rng = _suite_rng(cfg, scen, "torsion-props")
    pts = scen.space.sample_points(cfg)
    frame = scen.frame_fields()
    anti = Check(f"{scen.name}:torsion-antisymmetry",
                 "torsion is antisymmetric", cfg.tolerance)
    flin = Check(f"{scen.name}:torsion-function-bilinearity",
                 "torsion is function-linear in both slots", cfg.tolerance)
    for _ in range(2):
        X = rng.choice(frame)
        Y = rng.choice(frame)
        f = _random_scalar(rng, scen.space)
        t_xy = torsion(scen.nabla, X, Y)
        d_anti = vf_add(t_xy, torsion(scen.nabla, Y, X))
        t_scaled = vf_scale(f, t_xy)
        d_left = vf_sub(torsion(scen.nabla, vf_scale(f, X), Y), t_scaled)
        d_right = vf_sub(torsion(scen.nabla, X, vf_scale(f, Y)), t_scaled)
        anti.track(pts, d_anti)
        flin.track(pts, d_left, d_right)
    return [anti, flin]


@family
def parallel_tensor_checks(scen: Scenario, cfg: CheckConfig) -> list:
    """Equal-rank case: the endomorphism pair is parallel.  N-fold case:
    every projector is parallel (the aggregate endomorphism is not)."""
    pts = scen.space.sample_points(cfg)
    frame = scen.frame_fields()
    checks = []
    if scen.construction == "equal-rank":
        tensors = [scen.split.s_total, scen.split.q_total]
        label = "parallel-endomorphisms"
    else:
        tensors = [scen.split.p_k, *scen.split.p_blocks]
        label = "parallel-projectors"
    for T in tensors:
        check = Check(f"{scen.name}:{label}:{T.name}",
                      "structure tensors are parallel", cfg.tolerance)
        for X in frame:
            scen.split.stack.track(check, pts, frame,
                                   partial(nabla_of_endo, scen.nabla, T, X))
        checks.append(check)
    return checks


def _prefixed(scen: Scenario, checks):
    """The checks, as they come, under ids prefixed by the scenario."""
    for c in checks:
        c.check_id = f"{scen.name}:{c.check_id}"
        yield c


@family
def split_identity_checks(scen: Scenario, cfg: CheckConfig):
    return _prefixed(scen, split_checks(scen.split, cfg))


@family
def parallelism_equivalence_checks(scen: Scenario, cfg: CheckConfig):
    for b in range(len(scen.nabla.parts)):
        yield from _prefixed(scen, check_parallelism_equivalence.checks(
            scen.nabla, b, scen.split.stack, cfg))


def run_scenario_checks(scen: Scenario, cfg: CheckConfig = DEFAULT_CHECK) -> list:
    """Every record a verification run asserts, in deterministic order:
    the checks of every family, then of every extra check, folded as one
    list by :func:`run_checks`, which frees each cache entry at its last
    read."""
    def checks():
        for fam in (expected_table_checks, axiom_suite_checks,
                    split_identity_checks, torsion_curvature_checks,
                    torsion_property_checks, parallel_tensor_checks,
                    parallelism_equivalence_checks):
            yield from fam.checks(scen, cfg)
        for extra in scen.extra_checks:
            yield from extra.checks(cfg)

    return run_checks(checks())


# ---------------------------------------------------------------------------
# general examples: a one-field vertical K against one-field blocks
# ---------------------------------------------------------------------------


def _general_scenario(name, hs, v, cfg, table, ref, description,
                      extra_rows=(), fields=(), **kw) -> Scenario:
    """K is the vertical field ``v`` and each field of ``hs`` is a block
    H1, H2, ... of its own.  The expected table holds nabla over the frame
    (*hs, v), with the nonzero coefficients from ``table``, then
    ``extra_rows``; ``fields`` join the field table and ``kw`` goes to the
    Scenario."""
    space = v.space
    conn, split, nabla = assemble(
        space, Frame((v,), "V"),
        [Frame((h,), f"H{i}") for i, h in enumerate(hs, 1)], K_VERTICAL, cfg)
    names = tuple(f.name for f in (*hs, v))
    expected = [ExpectedRow("nabla", (x, y), {k: _E(e) for k, e in table.get(
        (x, y), {}).items()}, ref) for x in names for y in names]
    return Scenario(
        name=name, section="general examples", description=description,
        space=space, conn=conn, split=split, nabla=nabla,
        fields={f.name: f for f in (*fields, *hs, v)}, frame_names=names,
        expected=expected + list(extra_rows), **kw)


# the covector dual to V annihilates both lifts: dth - cos(th) dx - sin(th) dy
TRIVIAL_R3_COFRAME = ("-cos(th)", "-sin(th)", "1")


def trivial_r3(cfg: CheckConfig = DEFAULT_CHECK) -> Scenario:
    """R^3 -> R^2 with a circle-angle fibre coordinate and tilted lifts."""
    space = ChartedSpace("trivial-r3", ("x", "y", "th"),
                         base_coords=("x", "y"))
    h1 = VectorField.from_exprs(space, ["1", "0", "cos(th)"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "sin(th)"], "H2")
    v = VectorField.from_exprs(space, ["0", "0", "1"], "V")

    @family
    def coframe_check(cfg_run: CheckConfig) -> list:
        psi = dual_coframe(space, [Frame((h1, h2, v), "full")])[2]
        return [Check("trivial-r3:fibre-coframe",
                      "dual coframe of the lifted frame",
                      cfg_run.tolerance).track(
            space.sample_points(cfg_run), vf_sub(psi, CovectorField.from_exprs(
                space, TRIVIAL_R3_COFRAME, "dth")))]

    return _general_scenario(
        "trivial-r3", (h1, h2), v, cfg,
        {("H1", "H1"): {"H1": "sin(th)"},
         ("H2", "H2"): {"H2": "-cos(th)"},
         ("H1", "V"): {"V": "sin(th)"},
         ("H2", "V"): {"V": "-cos(th)"}},
        "trivial bundle: component table",
        "trivial bundle over the plane, circle-angle fibre, two-block "
        "vertical-core split",
        extra_checks=[coframe_check],
        notes=("The covector dual to V against {H1, H2, V} solves to "
               "dth - cos(th) dx - sin(th) dy: the dy term carries a minus "
               "sign, which is what annihilating H2 = d/dy + sin(th) d/dth "
               "forces."))


HOPF_PROJECTION = ("x^2+y^2-z^2-w^2", "2*(x*w+y*z)", "2*(y*w-x*z)")


def hopf(cfg: CheckConfig = DEFAULT_CHECK) -> Scenario:
    """The 3-sphere fibred over the 2-sphere, with the rotation frame."""
    space = ChartedSpace("hopf", ("x", "y", "z", "w"),
                         constraints=(ex.parse("x^2+y^2+z^2+w^2-1"),),
                         sphere=True)
    rotations = {
        "theta": ("y", "-x", "0", "0"),
        "phi": ("z", "0", "-x", "0"),
        "psi": ("w", "0", "0", "-x"),
        "xi": ("0", "0", "w", "-z"),
        "eta": ("0", "-w", "0", "y"),
        "zeta": ("0", "z", "-y", "0"),
    }
    named = [VectorField.from_exprs(space, comps, k)
             for k, comps in rotations.items()]
    lam = VectorField.from_exprs(space, ["z", "w", "-x", "-y"], "Lambda")
    sig = VectorField.from_exprs(space, ["w", "-z", "y", "-x"], "Sigma")
    v = VectorField.from_exprs(space, ["y", "-x", "-w", "z"], "V")
    pi_exprs = tuple(ex.parse(s) for s in HOPF_PROJECTION)

    @family
    def projection_check(cfg_run: CheckConfig) -> list:
        # push V through the Jacobian of the bundle projection
        return [annihilation(space, pi_exprs, v, cfg_run, Check(
            "hopf:projection-verticality",
            "fibre field is vertical for the projection", 1e-9))]

    @family
    def levi_civita_check(cfg_run: CheckConfig) -> list:
        sym = symmetrize(scen.nabla)
        frame = [lam, sig, v]
        pts = space.sample_points(cfg_run)
        torsion_free = Check("hopf:symmetrized-torsion",
                             "symmetrized operator is torsion-free",
                             cfg_run.tolerance)
        compatible = Check("hopf:levi-civita-compatibility",
                           "symmetrized operator preserves the round metric",
                           cfg_run.tolerance)
        for X, Y in product(frame, repeat=2):
            torsion_free.track(pts, torsion(sym, X, Y))
        for X, Y, Z in product(frame, repeat=3):
            compatible.track(pts, metric_compatibility_defect(
                sym, scen.metric, X, Y, Z))
        return [torsion_free, compatible]

    scen = _general_scenario(
        "hopf", (lam, sig), v, cfg, {}, "Hopf: zero component table",
        "Hopf fibration of the 3-sphere with the rotation frame; the "
        "derivative kills the frame and its symmetrization is the round "
        "Levi-Civita operator",
        # the brackets cycle: [Sigma, Lambda] = 2V and its two rotations
        extra_rows=[ExpectedRow("bracket", (x, y), {z: 2.0},
                                "Hopf bracket table", tol=1e-10)
                    for x, y, z in (("Sigma", "Lambda", "V"),
                                    ("Lambda", "V", "Sigma"),
                                    ("V", "Sigma", "Lambda"))],
        fields=named, metric=ambient_dot_metric(space),
        extra_checks=[projection_check, levi_civita_check],
        notes="All computation happens in ambient coordinates; sampling "
              "normalizes ambient draws onto the unit sphere.")
    return scen


# ---------------------------------------------------------------------------
# tangent bundle: the shared scaffold
# ---------------------------------------------------------------------------


def _tm_space(n: int, name: str) -> ChartedSpace:
    if n < 1:
        raise ValueError("n must be at least 1")
    coords = tuple(f"x{i}" for i in range(1, n + 1)) + \
        tuple(f"u{i}" for i in range(1, n + 1))
    return ChartedSpace(name, coords,
                        base_coords=tuple(f"x{i}" for i in range(1, n + 1)))


# An oracle is an expected-table entry computed by a scalar field over the
# scenario's coefficient or force fields, independently of the path it
# checks: a table row reads it in the row's env, as an operand.
def _combined(op, *fields) -> ScalarField:
    """``op`` of the fields' values, at the depth the costliest leaves."""
    names = ",".join(f.name for f in fields)
    return _rule(ScalarField, fields, op, f"{op.__name__}({names})")


_negated = partial(_combined, operator.neg)
_difference = partial(_combined, operator.sub)


def _slope(sf: ScalarField, coord: str) -> ScalarField:
    """d(sf)/d(coord) as an oracle, via one jet level."""
    i = sf.space.index(coord)
    return _rule(ScalarField, (sf,), lambda v: v.partials[i],
                 f"d{coord}({sf.name})", 1)


def _tangent_scenario(name, n, hs, cfg, tag, family, coeff, description,
                      extra_rows, fields=(), **kw) -> Scenario:
    """A tangent-bundle scenario over the horizontal frame ``hs``.

    The vertical frame is V_c = d/du^c and the split is the equal-rank one.
    Each (a, b) gets four rows: nabla_{V_a} V_b and nabla_{V_a} H_b vanish,
    nabla_{H_a} V_b and nabla_{H_a} H_b have coefficients ``coeff(c, a, b)``
    on V_c and H_c; ``extra_rows(a, b)`` follow them.  ``fields`` join the
    field table under their own names; ``kw`` goes to the Scenario.
    """
    space = hs[0].space
    vs = [VectorField.coordinate(space, f"u{c}", f"V{c}")
          for c in range(1, n + 1)]
    conn, split, nabla = assemble(space, Frame(tuple(vs), "V"),
                                  [Frame(tuple(hs), "H")], K_VERTICAL, cfg)
    flat = f"{tag}: flat families"
    own = f"{tag}: {family} families"
    idx = range(1, n + 1)
    expected = []
    for a in idx:
        for b in idx:
            expected += [
                ExpectedRow("nabla", (f"V{a}", f"V{b}"), {}, flat),
                ExpectedRow("nabla", (f"V{a}", f"H{b}"), {}, flat),
                ExpectedRow("nabla", (f"H{a}", f"V{b}"),
                            {f"V{c}": coeff(c, a, b) for c in idx}, own),
                ExpectedRow("nabla", (f"H{a}", f"H{b}"),
                            {f"H{c}": coeff(c, a, b) for c in idx}, own),
                *extra_rows(a, b)]
    table = {f.name: f for f in (*hs, *vs, *fields)}
    return Scenario(
        name=name, section="tangent bundle", description=description,
        space=space, conn=conn, split=split, nabla=nabla, fields=table,
        frame_names=tuple(f.name for f in (*hs, *vs)), expected=expected,
        **kw)


# ---------------------------------------------------------------------------
# tangent bundle: affine connection with torsion
# ---------------------------------------------------------------------------


def _gamma_table(n: int, gamma: dict, space: ChartedSpace):
    """Normalize base coefficients G^c_ab, keyed by 1-indexed triples
    (c, a, b), into an expression table; returns the table and its lookup
    ``g_expr(c, a, b)``, zero for a missing entry."""
    table = {}
    for key, entry in gamma.items():
        if len(key) != 3:
            raise ValueError(f"coefficient key {key} needs 3 indices")
        if not all(1 <= i <= n for i in key):
            raise ValueError(f"coefficient key {key} out of range 1..{n}")
        e = _E(entry)
        bad = [vname for vname in ex.free_vars(e)
               if vname not in space.base_coords]
        if bad:
            raise ValueError(
                f"coefficient {key} uses {bad}; these coefficients "
                f"live on the base")
        table[key] = e
    return table, lambda c, a, b: table.get((c, a, b), ex.Const(0.0))


def _torsion_row(n: int, a: int, b: int, g_expr, fibres, ref) -> ExpectedRow:
    """T(H_a, H_b) of lifted frames: G^c_ab - G^c_ba on H_c, then for each
    ``(prefix, oracle)`` of ``fibres``, a fibre group, minus its curvature
    bracket coefficient on the field ``prefix + c``."""
    idx = range(1, n + 1)
    coeffs = {f"H{c}": ex.BinOp("-", g_expr(c, a, b), g_expr(c, b, a))
              for c in idx}
    for prefix, oracle in fibres:
        coeffs.update({f"{prefix}{c}": _negated(oracle(c, a, b))
                       for c in idx})
    return ExpectedRow("torsion", (f"H{a}", f"H{b}"), coeffs, ref)


def _affine_lift(space, n: int, a: int, g_expr, weights) -> VectorField:
    """H_a = d/dx^a - G^c_ab w_b d/dw_c, one fibre group per entry of
    ``weights``; each group names its n fibre coordinates w_1..w_n."""
    comps = [ex.Const(1.0 if i == a else 0.0) for i in range(1, n + 1)]
    for group in weights:
        for c in range(1, n + 1):
            comps.append(_neg(reduce(
                _add, (_mul(g_expr(c, a, b), ex.Var(group[b - 1]))
                       for b in range(1, n + 1)), ex.Const(0.0))))
    return VectorField.from_exprs(space, comps, f"H{a}")


def affine_tangent(n: int, gamma: dict,
                   cfg: CheckConfig = DEFAULT_CHECK,
                   name: str = "affine-tangent") -> Scenario:
    """Tangent-bundle scenario for base connection coefficients G^c_ab.

    ``gamma`` maps 1-indexed triples (c, a, b) to expressions in the base
    coordinates.  Missing entries are zero.
    """
    space = _tm_space(n, name)
    table, g_expr = _gamma_table(n, gamma, space)
    fibre = tuple(f"u{b}" for b in range(1, n + 1))
    hs = [_affine_lift(space, n, a, g_expr, [fibre]) for a in range(1, n + 1)]
    oracle = _curvature_bracket_oracle(space, g_expr, n, fibre)
    idx = range(1, n + 1)

    def extra_rows(a, b):
        rows = [ExpectedRow("bracket", (f"H{a}", f"V{b}"),
                            {f"V{c}": g_expr(c, a, b) for c in idx},
                            "affine: bracket table")]
        if a != b:
            rows += [
                ExpectedRow("bracket", (f"H{a}", f"H{b}"),
                            {f"V{c}": oracle(c, a, b) for c in idx},
                            "affine: lift bracket vs direct curvature "
                            "formula"),
                _torsion_row(n, a, b, g_expr, [("V", oracle)],
                             "affine: torsion components"),
                ExpectedRow("curvature", (f"H{a}", f"H{b}"),
                            {f"V{c}": oracle(c, a, b) for c in idx},
                            "affine: curvature vs direct formula")]
        return rows

    return _tangent_scenario(
        name, n, hs, cfg, "affine", "coefficient", g_expr,
        "tangent-bundle lift of an affine base connection with torsion",
        extra_rows, data={"n": n, "gamma": table})


def _curvature_bracket_oracle(space, g_expr, n, weights):
    """Direct evaluation of the bracket coefficient for lifted frames:
    K^c_dab = d_b G^c_ad - d_a G^c_bd + G^e_ad G^c_be - G^e_bd G^c_ae,
    contracted against the fibre coordinates ``weights`` (w_1..w_n), as
    an oracle of cost 1.  The coefficients are differentiated by jets,
    independently of the bracket path.
    """

    def coefficient(c, a, b):
        def fn(env):
            t = env.depth - 1
            low = {k: jets.truncate(x, t) for k, x in env.items()}

            def g(cc, aa, bb):
                return ex.evaluate(g_expr(cc, aa, bb), low)

            def dg(cc, aa, bb, wrt):
                s = ex.evaluate(g_expr(cc, aa, bb), env)
                return s.partials[space.index(f"x{wrt}")] \
                    if s.__class__ is JetBatch else 0.0

            total = 0.0
            for d in range(1, n + 1):
                k = dg(c, a, d, b) - dg(c, b, d, a)
                for e in range(1, n + 1):
                    k = k + (g(e, a, d) * g(c, b, e)
                             - g(e, b, d) * g(c, a, e))
                total = total + k * low[weights[d - 1]]
            return total

        return ScalarField(space, fn, 1, f"K{c}_{a}{b}")

    return coefficient


# ---------------------------------------------------------------------------
# tangent bundle: general nonlinear connection
# ---------------------------------------------------------------------------


def _lookup(space, table):
    """G(b, a) from a sparse table of scalar fields; missing entries are
    the zero field."""
    zero = ScalarField.constant(space, 0.0)
    return lambda b, a: table.get((b, a), zero)


def _entry_scalar(space, entry, name) -> ScalarField:
    if isinstance(entry, ScalarField):
        return entry
    return ScalarField.from_expr(space, _E(entry), name)


def _lifts(space, n: int, table) -> list:
    """H_a = d/dx^a - G^b_a d/du^b, G^b_a the field ``table[(b, a)]``."""
    g_sf = _lookup(space, table)
    cost = max((sf.cost for sf in table.values()), default=0)

    def lift(a):
        coefs = [g_sf(b, a) for b in range(1, n + 1)]
        return _rule(VectorField, coefs, lambda *gs: [
            1.0 if i == a else 0.0 for i in range(1, n + 1)] + [
            -g for g in gs], f"H{a}", cost - max(g.cost for g in coefs), space)

    return [lift(a) for a in range(1, n + 1)]


def nonlinear_tangent(n: int, gamma: dict,
                      cfg: CheckConfig = DEFAULT_CHECK,
                      name: str = "nonlinear-tangent") -> Scenario:
    """Tangent-bundle scenario for connection coefficients G^b_a(x, u).

    ``gamma`` maps 1-indexed pairs (b, a) to expressions or scalar fields on
    the whole chart; missing entries are zero.
    """
    space = _tm_space(n, name)
    table = {}
    for (b, a), entry in gamma.items():
        if not (1 <= b <= n and 1 <= a <= n):
            raise ValueError(f"coefficient key {(b, a)} out of range 1..{n}")
        table[(b, a)] = _entry_scalar(space, entry, f"G{b}_{a}")

    g_sf = _lookup(space, table)
    hs = _lifts(space, n, table)

    def dg(c, a, b):
        # V_b(G^c_a), jet-differentiated
        return _slope(g_sf(c, a), f"u{b}")

    def h_applied(a, sf: ScalarField) -> ScalarField:
        """H_a(sf) as an oracle: d/dx^a - G^e_a d/du^e applied."""
        coefs = [g_sf(e, a) for e in range(1, n + 1)]
        cost = max([sf.cost + 1] + [g.cost for g in coefs])

        def fn(env, sv, *gs):
            t = env.depth - cost
            slopes = sv.partials
            out = _as_depth(slopes[space.index(f"x{a}")], t, env)
            for e, g in enumerate(gs, 1):
                out = out - _as_depth(g, t, env) * _as_depth(
                    slopes[space.index(f"u{e}")], t, env)
            return out

        return ScalarField(space, fn, cost, f"H{a}({sf.name})",
                           (sf, *coefs))

    def extra_rows(a, b):
        if a == b:
            return ()
        idx = range(1, n + 1)
        t_h = {f"H{c}": _difference(dg(c, a, b), dg(c, b, a)) for c in idx}
        t_v = {f"V{c}": _difference(h_applied(a, g_sf(c, b)),
                                    h_applied(b, g_sf(c, a))) for c in idx}
        return (
            ExpectedRow("torsion", (f"H{a}", f"H{b}"), dict(t_h, **t_v),
                        "nonlinear: torsion components"),
            ExpectedRow("curvature", (f"H{a}", f"H{b}"),
                        {f"V{c}": _difference(h_applied(b, g_sf(c, a)),
                                              h_applied(a, g_sf(c, b)))
                         for c in idx},
                        "nonlinear: curvature vs direct formula"))

    return _tangent_scenario(
        name, n, hs, cfg, "nonlinear", "fibre-derivative", dg,
        "tangent-bundle scenario for a general (possibly nonlinear) "
        "connection", extra_rows, data={"n": n, "gamma_sf": table})


def potential_connection(n: int, forces, space=None) -> dict:
    """Coefficients G^c_a = -(1/2) d f^c / du^a built from force terms.

    Returns a table of scalar fields, one per entry, suitable for
    ``nonlinear_tangent``; its horizontal torsion vanishes identically.
    """
    space = space or _tm_space(n, "potential")
    table = {}
    for c in range(1, n + 1):
        sf = _entry_scalar(space, forces[c - 1], f"f{c}")
        for a in range(1, n + 1):
            table[(c, a)] = _rule(
                ScalarField, (sf,), lambda v, i=space.index(f"u{a}"):
                -0.5 * v.partials[i], f"-0.5*d({sf.name})/du{a}", 1, space)
    return table


# ---------------------------------------------------------------------------
# second-order equation fields and their connections
# ---------------------------------------------------------------------------


def _vertical_endo(space, n: int) -> Endo11:
    terms = []
    for a in range(1, n + 1):
        comps = [ex.Const(1.0 if space.coords[i] == f"x{a}" else 0.0)
                 for i in range(space.ambient_dim)]
        dx = CovectorField.from_exprs(space, comps, f"dx{a}")
        va = VectorField.coordinate(space, f"u{a}", f"V{a}")
        terms.append((dx, va))
    return Endo11.from_terms(space, terms, "S")


def dilation_field(space, n: int) -> VectorField:
    comps = [ex.Const(0.0)] * n + [ex.Var(f"u{a}") for a in range(1, n + 1)]
    return VectorField.from_exprs(space, comps, "Delta")


def sode_field(space, n: int, forces) -> VectorField:
    """u^a d/dx^a + f^a d/du^a for the given force entries."""
    sfs = [_entry_scalar(space, f, f"f{b + 1}") for b, f in enumerate(forces)]
    cost = max(sf.cost for sf in sfs)

    def fn(env, *fs):
        return [env[f"u{a}"] for a in range(1, n + 1)] + list(fs)

    return VectorField(space, fn, cost, "Gamma", sfs)


def _induced_projector(space, n: int, forces):
    """The second-order field Gamma of the forces, the vertical
    endomorphism S, and the horizontal projector (I - L_Gamma S)/2."""
    gamma_field = sode_field(space, n, forces)
    s_endo = _vertical_endo(space, n)
    p_h = endo_scale(0.5, endo_add(
        Endo11.identity(space),
        endo_scale(-1.0, lie_derivative_endo(gamma_field, s_endo))),
        name="P_H")
    return gamma_field, s_endo, p_h


def _lift_check(check: Check, space, lifts, table, pts) -> Check:
    """``check`` of each lift H_a against ``_lifts(space, n, table)``."""
    for h, want in zip(lifts, _lifts(space, len(lifts), table)):
        check.track(pts, vf_sub(h, want))
    return check


def sode_projector(n: int, forces, cfg: CheckConfig = DEFAULT_CHECK,
                   name: str = "sode-tangent"):
    """The connection induced by a second-order field.

    Returns (Gamma, P_H, scenario): the field u^a d/dx^a + f^a d/du^a, the
    horizontal projector (I - L_Gamma S)/2, and a full scenario whose
    horizontal frame is P_H applied to the coordinate lifts.
    """
    space = _tm_space(n, name)
    # the forces and Gamma are read by the frame fields' trees, in the
    # build's folds and in its checks
    force_sf = [_entry_scalar(space, f, f"f{b + 1}").share()
                for b, f in enumerate(forces)]
    gamma_field, s_endo, p_h = _induced_projector(space, n, force_sf)
    gamma_field.share()

    hs = []
    for a in range(1, n + 1):
        h = p_h(VectorField.coordinate(space, f"x{a}"))
        h.name = f"H{a}"
        hs.append(h)
    gamma_sf = potential_connection(n, force_sf, space)

    def d2f(c, a, b) -> ScalarField:
        # V_b(Y^c_a) = -(1/2) d2 f^c / du^a du^b, the lower variable first
        i, j = sorted(space.index(f"u{k}") for k in (a, b))
        return _rule(ScalarField, (force_sf[c - 1],),
                     lambda v: -0.5 * v.partials[i].partials[j],
                     f"d2f{c}_{a}{b}", 2, space)

    delta = dilation_field(space, n)

    @family
    def projector_checks(cfg_run: CheckConfig) -> list:
        pts = space.sample_points(cfg_run)
        # S(Gamma) = Delta
        dilation = Check(f"{name}:s-gamma-is-dilation",
                         "second-order condition", 1e-10).track(
            pts, vf_sub(s_endo(gamma_field), delta))
        # projector coefficients match the force derivatives
        coefficients = _lift_check(Check(
            f"{name}:projector-coefficients",
            "horizontal coefficients are the half force slopes", 1e-10),
            space, hs, gamma_sf, pts)
        # idempotence and the vertical complement
        laws = Check(f"{name}:projector-laws", "idempotence and verticality",
                     cfg_run.tolerance)
        for a in range(1, n + 1):
            dx = VectorField.coordinate(space, f"x{a}")
            du = VectorField.coordinate(space, f"u{a}")
            once = p_h(dx)
            laws.track(pts, vf_sub(p_h(once), once), p_h(du))
        # the default forces are quadratic in the fibre: a genuine spray
        return [dilation, coefficients, laws, _spray_check(
            f"{name}:spray", "force terms are fibre-quadratic", space,
            force_sf, cfg_run)]

    scenario = _tangent_scenario(
        name, n, hs, cfg, "sode", "force-Hessian", d2f,
        "connection induced by a second-order equation field through the "
        "vertical endomorphism", lambda a, b: (),
        fields=(gamma_field, delta),
        extra_checks=[projector_checks, family(
            lambda cfg_run: sode_sufficiency_check.checks(scenario,
                                                          cfg_run))],
        data={"n": n, "forces": force_sf, "gamma_sf": gamma_sf})
    return gamma_field, p_h, scenario


def _euler_defect(space, scalars, degree: float, cfg: CheckConfig,
                  check: Check) -> Check:
    """``check`` with the fold of |Delta(f) - degree * f| over sampled
    points: zero when every scalar is fibre-homogeneous of that degree
    (Euler's relation).  The dilation Delta(f) folds over the fibre
    coordinates alone."""
    fibre = [f"u{a}" for a in range(1, space.dim // 2 + 1)]

    def defect(sf):
        def fn(env, val):
            t = env.depth - sf.cost - 1
            dil = jets.dot(
                _comps_as_depth([env[u] for u in fibre], t, env),
                _comps_as_depth([val.partials[space.index(u)]
                                 for u in fibre], t, env))
            return dil - degree * _as_depth(val, t, env)

        return ScalarField(space, fn, sf.cost + 1, f"euler({sf.name})",
                           (sf,))

    return check.track(space.sample_points(cfg), *map(defect, scalars))


def is_spray(gamma_field: VectorField, forces,
             cfg: CheckConfig = DEFAULT_CHECK,
             tol: float | None = None) -> bool:
    """Degree-2 fibre homogeneity of the force terms."""
    space = gamma_field.space
    sfs = [_entry_scalar(space, f, f"f{b + 1}") for b, f in enumerate(forces)]
    cfg = cfg if tol is None else replace(cfg, tolerance=tol)
    return run_checks([_spray_check("spray", "", space, sfs, cfg)],
                      at_once=True)[0].passed


def _spray_check(check_id, reference, space, forces, cfg) -> Check:
    """Degree-2 fibre homogeneity of the force terms, as a check that names
    its worst point when it fails."""
    return _euler_defect(space, forces, 2.0, cfg, Check(
        check_id, reference, cfg.tolerance, quiet=True))


def homogeneity_check(space, gamma_sf: dict,
                      cfg: CheckConfig = DEFAULT_CHECK,
                      tol: float | None = None) -> bool:
    """Degree-1 fibre homogeneity: Delta(G^b_a) = G^b_a at sampled points."""
    cfg = cfg if tol is None else replace(cfg, tolerance=tol)
    return run_checks([_euler_defect(space, gamma_sf.values(), 1.0, cfg, Check(
        "homogeneity", "", cfg.tolerance))], at_once=True)[0].passed


def _reconstructed_forces(space, n: int, gamma_sf: dict) -> list:
    """The force terms f^b = -u^a G^b_a of a coefficient table.  Each is
    read by the induced projector and then by the spray record, so it is
    shared."""
    g_sf = _lookup(space, gamma_sf)
    force_cost = max(sf.cost for sf in gamma_sf.values()) if gamma_sf else 0
    forces = []
    for b in range(1, n + 1):
        coefs = [g_sf(b, a) for a in range(1, n + 1)]

        def fn(env, *gs):
            t = env.depth - force_cost
            acc = 0.0
            for a, g in enumerate(gs, 1):
                ua = _as_depth(env[f"u{a}"], t, env)
                ga = _as_depth(g, t, env)
                acc = acc + ua * ga
            return -acc

        forces.append(ScalarField(space, fn, force_cost, f"f{b}",
                                  coefs).share())
    return forces


@family
def sode_sufficiency_check(scen: Scenario, cfg: CheckConfig = DEFAULT_CHECK):
    """If the dilation field is horizontally parallel and the horizontal
    torsion vanishes, the connection comes from a second-order field.  One
    record per condition; when both pass, the reconstruction is performed
    and compared, and the reconstructed field must be a spray: two checks
    more.  Both verdicts decide what follows, so they fold at once."""
    if "gamma_sf" not in scen.data:
        raise ValueError("scenario carries no fibre coefficient table")
    n = scen.data["n"]
    gamma_sf = scen.data["gamma_sf"]
    space = scen.space
    pts = space.sample_points(cfg)
    delta = scen.fields.get("Delta") or dilation_field(space, n)
    hs = [scen.fields[f"H{a}"] for a in range(1, n + 1)]

    tol = cfg.tolerance
    parallel = Check(f"{scen.name}:sufficiency:dilation-parallel",
                     "horizontal derivative of the dilation field", tol)
    for h in hs:
        parallel.track(pts, scen.nabla(h, delta))
    symmetric = Check(f"{scen.name}:sufficiency:horizontal-torsion",
                      "horizontal torsion of the connection", tol)
    for i in range(n):
        for j in range(i + 1, n):
            symmetric.track(pts, scen.conn.p_h(
                torsion(scen.nabla, hs[i], hs[j])))
    records = run_checks([parallel, symmetric], at_once=True)
    yield from records
    if not all(r.passed for r in records):
        return

    # reconstruct the force terms, then the induced projector
    forces = _reconstructed_forces(space, n, gamma_sf)
    p_h = _induced_projector(space, n, forces)[2]
    yield _lift_check(
        Check(f"{scen.name}:sufficiency:reconstruction",
              "induced connection coincides with the input", tol),
        space, [p_h(VectorField.coordinate(space, f"x{c}"))
                for c in range(1, n + 1)], gamma_sf, pts)
    yield _spray_check(f"{scen.name}:sufficiency:reconstructed-spray",
                       "reconstructed field is a spray", space, forces, cfg)


# ---------------------------------------------------------------------------
# frame bundle and the column decomposition of n x n matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceBasis:
    """Column subspaces of n x n matrices, invariant under the permutation.

    ``bases[k][a]`` is an integer matrix (tuple of row tuples) whose only
    nonzero entry sits in column k.  The n^2 matrices jointly span, exactly.
    """

    n: int
    cycle: tuple
    bases: tuple

    def permutation_matrix(self) -> tuple:
        return tuple(tuple(1 if j == self.cycle[i] else 0
                           for j in range(self.n))
                     for i in range(self.n))


def _validate_cycle(n: int, cycle) -> tuple:
    cycle = tuple(int(c) for c in cycle)
    if sorted(cycle) != list(range(n)):
        raise ValueError(f"{cycle} is not a permutation of 0..{n - 1}")
    seen = {0}
    cur = cycle[0]
    while cur not in seen:
        seen.add(cur)
        cur = cycle[cur]
    if len(seen) != n:
        raise ValueError(f"{cycle} does not have a single orbit")
    return cycle


def _mat_mul_int(A, B, n):
    return tuple(tuple(sum(A[i][m] * B[m][j] for m in range(n))
                       for j in range(n)) for i in range(n))


def _exact_rank(vectors):
    rows = [[Fraction(x) for x in vec] for vec in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def cycle_decomposition(n: int, cycle) -> SubspaceBasis:
    """Split n x n matrices into the n column subspaces and verify that the
    single-orbit permutation acts invariantly on each, with exact integer
    arithmetic throughout."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cycle = _validate_cycle(n, cycle)
    bases = tuple(
        tuple(tuple(tuple(1 if (i == a and j == k) else 0
                          for j in range(n)) for i in range(n))
              for a in range(n))
        for k in range(n))
    basis = SubspaceBasis(n, cycle, bases)
    A = basis.permutation_matrix()
    for k in range(n):
        for mat in bases[k]:
            prod = _mat_mul_int(A, mat, n)
            for i in range(n):
                for j in range(n):
                    if j != k and prod[i][j] != 0:
                        raise GeometryError(
                            f"column subspace {k} is not invariant under "
                            f"the permutation action")
    flat = [tuple(x for row in mat for x in row)
            for k in range(n) for mat in bases[k]]
    if _exact_rank(flat) != n * n:
        raise GeometryError("column subspaces do not span the matrix space")
    return basis


def frame_bundle(n: int, cycle, gamma: dict,
                 cfg: CheckConfig = DEFAULT_CHECK,
                 name: str = "frame-bundle") -> Scenario:
    """Frame-bundle scenario: base coordinates plus one fibre coordinate per
    matrix slot, horizontal lifts of an affine base connection, and the
    flipped split whose blocks are the column subspaces of the fibre."""
    basis = cycle_decomposition(n, cycle)
    x_names = tuple(f"x{i}" for i in range(1, n + 1))
    w_groups = [tuple(f"w{b}_{A}" for b in range(1, n + 1))
                for A in range(1, n + 1)]
    w_names = sum(w_groups, ())
    space = ChartedSpace(
        name, x_names + w_names,
        intervals=tuple((-1.0, 1.0) for _ in x_names)
        + tuple((0.5, 1.5) for _ in w_names),
        base_coords=x_names)
    table, g_expr = _gamma_table(n, gamma, space)
    hs = [_affine_lift(space, n, i, g_expr, w_groups)
          for i in range(1, n + 1)]
    v_blocks = [Frame(tuple(VectorField.coordinate(space, w, f"V{A}_{b}")
                            for b, w in enumerate(group, 1)), f"V{A}")
                for A, group in enumerate(w_groups, 1)]
    conn, split, nabla = assemble(space, Frame(tuple(hs), "H"), v_blocks,
                                  K_HORIZONTAL, cfg)

    names = tuple(f.name for f in split.solver.fields)
    fields = {f.name: f for f in split.solver.fields}
    fibres = [(f"V{A}_", _curvature_bracket_oracle(space, g_expr, n, group))
              for A, group in enumerate(w_groups, 1)]

    expected = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            expected.append(ExpectedRow(
                "nabla", (f"H{a}", f"H{b}"),
                {f"H{c}": g_expr(c, a, b) for c in range(1, n + 1)},
                "frame bundle: horizontal family"))
            for A in range(1, n + 1):
                expected.append(ExpectedRow(
                    "nabla", (f"H{a}", f"V{A}_{b}"),
                    {f"V{A}_{c}": g_expr(c, a, b)
                     for c in range(1, n + 1)},
                    "frame bundle: fibre family"))
                expected.append(ExpectedRow(
                    "nabla", (f"V{A}_{a}", f"H{b}"), {},
                    "frame bundle: flat families"))
                expected.append(ExpectedRow(
                    "bracket", (f"H{a}", f"V{A}_{b}"),
                    {f"V{A}_{c}": g_expr(c, a, b)
                     for c in range(1, n + 1)},
                    "frame bundle: bracket table"))
                for B in range(1, n + 1):
                    expected.append(ExpectedRow(
                        "nabla", (f"V{A}_{a}", f"V{B}_{b}"), {},
                        "frame bundle: flat families"))
            if a != b:
                expected.append(_torsion_row(
                    n, a, b, g_expr, fibres,
                    "frame bundle: torsion with fibre weights"))

    @family
    def decomposition_check(cfg_run: CheckConfig) -> list:
        try:
            cycle_decomposition(n, cycle)
            ok = True
        except (GeometryError, ValueError):
            ok = False
        return [CheckRecord(f"{name}:cycle-decomposition",
                            "column subspaces: invariance, dimension, "
                            "direct sum", 0.0 if ok else 1.0, 0.5, ok)]

    return Scenario(
        name=name,
        section="frame bundle",
        description="frame bundle with fibre coordinates split into "
                    "column subspaces, horizontal lifts of an affine base "
                    "connection",
        space=space, conn=conn, split=split, nabla=nabla,
        fields=fields,
        frame_names=names,
        expected=expected,
        extra_checks=[decomposition_check],
        data={"n": n, "basis": basis, "gamma": table},
    )


# ---------------------------------------------------------------------------
# built-in registry
# ---------------------------------------------------------------------------


DEFAULT_AFFINE_GAMMA = {(1, 1, 2): "x1", (2, 2, 1): "x2", (1, 1, 1): "0.5"}
DEFAULT_NONLINEAR_GAMMA = {(1, 1): "u1^2", (1, 2): "u2", (2, 2): "x1*u1"}
DEFAULT_SODE_FORCES = ("-(u1^2)-u1*u2", "x1*u1^2-u2^2")
DEFAULT_FRAME_GAMMA = {(1, 1, 2): "x1", (2, 2, 1): "x2", (2, 1, 1): "1"}


BUILTIN_BUILDERS = {
    "trivial-r3": trivial_r3,
    "hopf": hopf,
    "affine-tangent": partial(affine_tangent, 2, DEFAULT_AFFINE_GAMMA),
    "nonlinear-tangent": partial(nonlinear_tangent, 2,
                                 DEFAULT_NONLINEAR_GAMMA),
    "sode-tangent": lambda cfg=DEFAULT_CHECK: sode_projector(
        2, DEFAULT_SODE_FORCES, cfg)[2],
    "frame-bundle": partial(frame_bundle, 2, (1, 0), DEFAULT_FRAME_GAMMA),
}


def build_scenario(name: str, cfg: CheckConfig = DEFAULT_CHECK) -> Scenario:
    try:
        builder = BUILTIN_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_BUILDERS))
        raise KeyError(f"unknown scenario {name!r}; built-ins: {known}") \
            from None
    return builder(cfg)


CATALOG = {
    "trivial-r3": "trivial bundle over the plane, circle-angle fibre",
    "hopf": "Hopf fibration of the 3-sphere, rotation frame",
    "affine-tangent": "lift of an affine base connection with torsion",
    "nonlinear-tangent": "general nonlinear tangent-bundle connection",
    "sode-tangent": "connection induced by a second-order equation field",
    "frame-bundle": "frame bundle with column-split fibre coordinates",
}
