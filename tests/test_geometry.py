"""Tests for charted spaces, brackets, coframes, projectors and tensors."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest

from ehresmann import expr as ex
from ehresmann import geometry as geo
from ehresmann import jets
from ehresmann import report
from ehresmann.geometry import (
    ChartedSpace, CheckConfig, CovectorField, DepthBudgetError, Endo11,
    Frame, FrameSolver, GeometryError, OffManifoldError, ScalarField,
    SingularFrameError, VectorField, directional, dual_coframe,
    endo_add, endo_compose, endo_scale, frame_coefficients, lie_bracket,
    lie_derivative_endo, pairing, projector_from_split, vf_add, vf_scale,
    vf_sub,
)
from ehresmann.jets import Jet, JetBatch, JetDomainError
from ehresmann.report import DevTracker
from helpers import fold_now, random_expression

CFG = CheckConfig(samples=8)


# ---------------------------------------------------------------------------
# fixture spaces
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def plane_circle():
    """Fibred chart (x, y, th) with the tilted horizontal frame."""
    space = ChartedSpace("plane-circle", ("x", "y", "th"),
                         base_coords=("x", "y"))
    h1 = VectorField.from_exprs(space, ["1", "0", "cos(th)"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "sin(th)"], "H2")
    v = VectorField.from_exprs(space, ["0", "0", "1"], "V")
    return space, h1, h2, v


@pytest.fixture(scope="module")
def tangent_affine():
    """TM chart (x1,x2,u1,u2) with one nonzero coefficient G^1_12 = x1."""
    space = ChartedSpace("tm", ("x1", "x2", "u1", "u2"),
                         base_coords=("x1", "x2"))
    h1 = VectorField.from_exprs(space, ["1", "0", "-(x1*u2)", "0"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "0", "0"], "H2")
    v1 = VectorField.coordinate(space, "u1", "V1")
    v2 = VectorField.coordinate(space, "u2", "V2")
    return space, h1, h2, v1, v2


@pytest.fixture(scope="module")
def sphere3():
    """S^3 embedded in R^4 with the parallelizing frame."""
    space = ChartedSpace("s3", ("x", "y", "z", "w"),
                         constraints=(ex.parse("x^2+y^2+z^2+w^2-1"),),
                         sphere=True)
    lam = VectorField.from_exprs(space, ["z", "w", "-x", "-y"], "Lambda")
    sig = VectorField.from_exprs(space, ["w", "-z", "y", "-x"], "Sigma")
    v = VectorField.from_exprs(space, ["y", "-x", "-w", "z"], "V")
    return space, lam, sig, v


# ---------------------------------------------------------------------------
# spaces, points, sampling
# ---------------------------------------------------------------------------


def test_sampler_is_deterministic(plane_circle):
    space = plane_circle[0]
    a = space.sample_points(CFG)
    b = space.sample_points(CFG)
    assert [p.values for p in a] == [p.values for p in b]


def test_sphere_sampler_lands_on_constraint(sphere3):
    space = sphere3[0]
    for p in space.sample_points(CFG):
        assert space.constraint_residual(p.values) < 1e-12


def test_point_validation(sphere3):
    space = sphere3[0]
    with pytest.raises(OffManifoldError):
        space.point((1.0, 1.0, 0.0, 0.0))
    p = space.point((1.0 + 3e-9, 0.0, 0.0, 0.0), project=True)
    assert space.constraint_residual(p.values) < 1e-15
    with pytest.raises(OffManifoldError):
        space.point((1.0, 0.0, 0.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(OffManifoldError, match="not finite"):
            space.point((bad, 0.0, 0.0, 0.0))


def test_dimension_accounting(sphere3, plane_circle):
    assert sphere3[0].dim == 3
    assert sphere3[0].ambient_dim == 4
    assert plane_circle[0].dim == 3


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------


def test_eval_zero_field(plane_circle):
    space = plane_circle[0]
    z = VectorField.zero(space)
    p = space.point((0.3, -0.2, 1.0))
    assert z.values(p) == [0.0, 0.0, 0.0]


def test_eval_h1_at_theta_zero(plane_circle):
    space, h1, _, _ = plane_circle
    p = space.point((0.0, 0.0, 0.0))
    assert h1.values(p) == [1.0, 0.0, 1.0]


def test_eval_v_on_sphere(sphere3):
    space, _, _, v = sphere3
    p = space.point((1.0, 0.0, 0.0, 0.0))
    assert v.values(p) == [0.0, -1.0, 0.0, 0.0]


def test_expression_components_must_be_bound(plane_circle):
    space = plane_circle[0]
    with pytest.raises(GeometryError):
        VectorField.from_exprs(space, ["q", "0", "0"], "bad")


def test_covector_components_are_counted(plane_circle):
    space = plane_circle[0]
    with pytest.raises(GeometryError, match="2 components"):
        CovectorField.from_exprs(space, ["1", "0"], "short")


def test_separately_seeded_envs_share_one_cache_entry(plane_circle):
    space, h1, h2, v = plane_circle
    p = space.point((0.1, -0.2, 0.3))
    e1, e2 = space.seed_env(p, 2), space.seed_env(p.values, 2)
    assert e1 is not e2 and e1.key == e2.key and e1.depth == 2
    fields = [ScalarField.from_expr(space, "x*sin(th)"), lie_bracket(h1, h2),
              CovectorField.from_exprs(space, ["y", "x", "1"], "w")]
    for f in fields:
        first = f.at(e1)
        assert f.at(e2) is first
        assert len(f._cache) == 1, f.name
    # a truncation is a view of the one entry, stored nowhere
    bracket = fields[1]
    low = jets.truncate(bracket.at(e2), 0)
    assert low.depth == 0 and low.a.base is bracket.at(e1).a
    assert len(bracket._cache) == 1
    solver = FrameSolver(space, (v, h1, h2))
    inv = solver.inverse(e1)
    assert solver.inverse(e2) is inv
    w = solver.coframe()[0]
    assert jets.truncate(w.at(e2), 0).a.base is w.at(e1).a.base is inv.a
    assert len(w._cache) == 1
    # the solve caches one inverse per key
    e3 = space.seed_env(p, 1)
    solver.inverse(e3)
    assert list(solver._cache) == [e1.key, e3.key]
    assert dual_coframe(space, [Frame((v, h1, h2))])[0].name == "V*"


# ---------------------------------------------------------------------------
# Lie brackets
# ---------------------------------------------------------------------------


def test_float_sums_do_not_depend_on_the_interpreter(sphere3, plane_circle,
                                                     monkeypatch):
    # the builtin sum of floats is compensated from Python 3.12 on, as
    # math.fsum is: [1e16, 1.0, -1e16] sums to 1.0 there, 0.0 left to right
    space = sphere3[0]
    cfg = CheckConfig(seed=11, samples=20)
    points = space.sample_points(cfg)
    near = (0.6, 0.8 + 1e-9, 1e-17, -1e-17)
    projected = space.point(near, project=True)
    rows = [[1e16, 1.0, -1e16], [1.0, 1e16, -1e16], [-1e16, 1e16, 1.0]]
    inverse = JetBatch(np.array(rows)[:, :, None], 0, 3)
    ones = JetBatch(np.ones((3, 1)), 0, 3)
    _, h1, h2, v = plane_circle
    solver = FrameSolver(plane_circle[0], (v, h1, h2))
    monkeypatch.setattr(solver, "inverse", lambda env: inverse)

    def coefficients():
        return geo._contract(inverse.a, ones).a[:, 0].tolist(), \
            solver.coefficients(None, ones)

    assert coefficients() == ([0.0, 0.0, 1.0], [[0.0, 0.0, 1.0]])
    monkeypatch.setattr(geo, "sum", math.fsum, raising=False)
    assert [p.values for p in space.sample_points(cfg)] == \
        [p.values for p in points]
    assert space.point(near, project=True).values == projected.values
    assert coefficients() == ([0.0, 0.0, 1.0], [[0.0, 0.0, 1.0]])


def test_bracket_with_itself_vanishes(tangent_affine):
    space, h1 = tangent_affine[0], tangent_affine[1]
    b = lie_bracket(h1, h1)
    for p in space.sample_points(CFG):
        assert max(abs(c) for c in b.values(p)) < 1e-14


def test_sphere_bracket_table(sphere3):
    space, lam, sig, v = sphere3
    cases = [
        (lie_bracket(sig, lam), v, 2.0),
        (lie_bracket(lam, v), sig, 2.0),
        (lie_bracket(v, sig), lam, 2.0),
    ]
    cfg = CheckConfig(samples=20)
    for got, want, scale in cases:
        for p in space.sample_points(cfg):
            gv = got.values(p)
            wv = want.values(p)
            assert max(abs(g - scale * w) for g, w in zip(gv, wv)) < 1e-10


def test_bracket_h_v_reproduces_coefficients(tangent_affine):
    # [H1, V2] has u1-component G^1_12 = x1 (the only nonzero coefficient)
    space, h1, _, _, v2 = tangent_affine
    b = lie_bracket(h1, v2)
    for p in space.sample_points(CFG):
        vals = b.values(p)
        assert abs(vals[2] - p.values[0]) < 1e-12
        assert abs(vals[0]) < 1e-14 and abs(vals[1]) < 1e-14
        assert abs(vals[3]) < 1e-14


_ON_TWO = "H1 lives on plane-circle, Lambda on s3"


def test_bracket_space_mismatch(plane_circle, sphere3):
    with pytest.raises(geo.SpaceMismatchError) as err:
        lie_bracket(plane_circle[1], sphere3[1])
    assert str(err.value) == _ON_TWO


def _ambient_pair(a, b):
    from ehresmann.scenarios import ambient_dot_metric
    return ambient_dot_metric(a[0])(b[1], b[2])


@pytest.mark.parametrize("build, message", [
    (lambda a, b: vf_add(a[1], b[1]), _ON_TWO),
    (lambda a, b: vf_sub(b[1], a[1]), "Lambda lives on s3, H1 on plane-circle"),
    (lambda a, b: vf_scale(ScalarField.constant(b[0], 2.0), a[1]),
     "2.0 lives on s3, H1 on plane-circle"),
    (lambda a, b: pairing(CovectorField.from_exprs(a[0], ["1", "0", "0"],
                                                   "dx"), b[1]),
     "dx lives on plane-circle, Lambda on s3"),
    (lambda a, b: geo._stacked((a[1], a[2], b[1])), _ON_TWO),
    # the metric's covector lives on the metric's space, whatever Y's is
    (_ambient_pair, "Sigma lives on plane-circle, Lambda on s3"),
    (lambda a, b: endo_scale(2.0, Endo11.identity(a[0]))(b[1]),
     "2*I on plane-circle applied to Lambda on s3"),
])
def test_space_mismatch_names_the_operands(plane_circle, sphere3, build,
                                           message):
    """Each other rule that checks spaces raises on fields over two
    spaces, with the message that names both; the ambient metric's covector
    is on the metric's space, so a pair over another space raises too."""
    with pytest.raises(geo.SpaceMismatchError) as err:
        build(plane_circle, sphere3)
    assert str(err.value) == message


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(5)
    space = ChartedSpace("r3", ("a", "b", "c"))
    pts = space.sample_points(CheckConfig(samples=5))
    for trial in range(3):
        fields = []
        for i in range(3):
            comps = [random_expression(rng, space.coords, max_depth=2,
                                       allow_div=False) for _ in range(3)]
            fields.append(VectorField.from_exprs(space, comps, f"X{i}"))
        X, Y, Z = fields
        anti = vf_add(lie_bracket(X, Y), lie_bracket(Y, X))
        jac = vf_add(vf_add(lie_bracket(X, lie_bracket(Y, Z)),
                            lie_bracket(Y, lie_bracket(Z, X))),
                     lie_bracket(Z, lie_bracket(X, Y)))
        for p in pts:
            assert max(abs(v) for v in anti.values(p)) < 1e-9
            assert max(abs(v) for v in jac.values(p)) < 1e-9


def test_bracket_leibniz_rule():
    rng = random.Random(11)
    space = ChartedSpace("r2", ("a", "b"))
    pts = space.sample_points(CheckConfig(samples=6))
    for trial in range(3):
        X = VectorField.from_exprs(
            space, [random_expression(rng, space.coords, 2, allow_div=False)
                    for _ in range(2)], "X")
        Y = VectorField.from_exprs(
            space, [random_expression(rng, space.coords, 2, allow_div=False)
                    for _ in range(2)], "Y")
        f = ScalarField.from_expr(
            space, random_expression(rng, space.coords, 2, allow_div=False))
        lhs = lie_bracket(X, vf_scale(f, Y))
        rhs = vf_add(vf_scale(directional(X, f), Y),
                     vf_scale(f, lie_bracket(X, Y)))
        for p in pts:
            lv, rv = lhs.values(p), rhs.values(p)
            assert max(abs(a - b) for a, b in zip(lv, rv)) < 1e-9


def test_bracket_of_tangent_fields_stays_tangent(sphere3):
    space, lam, sig, _ = sphere3
    b = lie_bracket(lam, sig)
    assert geo.validate_tangent(space, b, CFG, tol=1e-9) < 1e-9


def test_validate_tangent_rejects_a_normal_field(sphere3):
    # grad(|x|^2 - 1) . (x, y, z, w) = 2 on the unit sphere
    space = sphere3[0]
    radial = VectorField.from_exprs(space, ["x", "y", "z", "w"], "radial")
    with pytest.raises(GeometryError, match="not tangent") as err:
        geo.validate_tangent(space, radial, CFG)
    assert "2.000e+00" in str(err.value)


# ---------------------------------------------------------------------------
# dual coframes and coefficients
# ---------------------------------------------------------------------------


def test_dual_of_coordinate_frame_is_identity():
    space = ChartedSpace("r2", ("a", "b"))
    frame = Frame((VectorField.coordinate(space, "a"),
                   VectorField.coordinate(space, "b")))
    covs = dual_coframe(space, [frame])
    p = space.point((0.4, -0.7))
    assert covs[0].values(p) == [1.0, 0.0]
    assert covs[1].values(p) == [0.0, 1.0]


def test_dual_coframe_of_adapted_tm_frame(tangent_affine):
    # dual of {H_a, V_b} is {dx^a, phi^b} with phi^b = du^b + G^b_cd u^d dx^c
    space, h1, h2, v1, v2 = tangent_affine
    covs = dual_coframe(space, [Frame((h1, h2)), Frame((v1, v2))])
    for p in space.sample_points(CFG):
        x1, _, _, u2 = p.values
        assert covs[0].values(p) == pytest.approx([1, 0, 0, 0], abs=1e-12)
        assert covs[1].values(p) == pytest.approx([0, 1, 0, 0], abs=1e-12)
        # phi^1 = du^1 + x1*u2 dx^1
        assert covs[2].values(p) == pytest.approx([x1 * u2, 0, 1, 0],
                                                  abs=1e-12)
        assert covs[3].values(p) == pytest.approx([0, 0, 0, 1], abs=1e-12)


def test_dual_coframe_duality_property(sphere3):
    space, lam, sig, v = sphere3
    fields = (lam, sig, v)
    covs = dual_coframe(space, [Frame(fields)])
    for p in space.sample_points(CheckConfig(samples=6)):
        for i, w in enumerate(covs):
            wv = w.values(p)
            for j, f in enumerate(fields):
                fv = f.values(p)
                got = sum(a * b for a, b in zip(wv, fv))
                assert abs(got - (1.0 if i == j else 0.0)) < 1e-10


def test_frame_coefficients_examples(sphere3):
    space, lam, sig, v = sphere3
    frame = Frame((lam, sig, v))
    p = space.point((0.5, 0.5, 0.5, 0.5))
    lv, vv = lam.values(p), v.values(p)
    target = [3 * a + 2 * b for a, b in zip(lv, vv)]
    coef = frame_coefficients(space, [frame], target, p)
    assert coef == pytest.approx([3.0, 0.0, 2.0], abs=1e-10)
    # coefficients of a frame field itself, and of zero
    coef = frame_coefficients(space, [frame], lam.values(p), p)
    assert coef == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)
    assert frame_coefficients(space, [frame], [0.0] * 4, p) == \
        pytest.approx([0.0, 0.0, 0.0], abs=1e-14)


def test_frame_coefficients_rejects_nontangent(sphere3):
    space, lam, sig, v = sphere3
    p = space.point((1.0, 0.0, 0.0, 0.0))
    with pytest.raises(GeometryError):
        frame_coefficients(space, [Frame((lam, sig, v))], [1.0, 0, 0, 0], p)


def test_frame_coefficients_rejects_nan_components(sphere3):
    # a NaN residual compares false against the gate: it must still raise
    space, lam, sig, v = sphere3
    p = space.point((1.0, 0.0, 0.0, 0.0))
    with pytest.raises(GeometryError, match="not in the span"):
        frame_coefficients(space, [Frame((lam, sig, v))],
                           [math.nan, 0.0, 0.0, 0.0], p)


@pytest.mark.parametrize("count", [2, 4])
def test_frame_coefficients_checks_the_component_count(count):
    space = ChartedSpace("r3", ("x", "y", "z"))
    frame = Frame(tuple(VectorField.coordinate(space, c) for c in "xyz"))
    with pytest.raises(GeometryError,
                       match=f"^{count} components for 3-dimensional r3$"):
        frame_coefficients(space, [frame], [1.0, 2.0, 3.0, 4.0][:count],
                           space.point((0.5, 0.25, 1.0)))


def test_non_finite_frame_is_degenerate_at_a_point():
    space = ChartedSpace("r2", ("a", "b"))
    x1 = VectorField.coordinate(space, "a")
    x2 = VectorField.from_exprs(space, ["0", "b*1e300*1e300"], "X2")
    with pytest.raises(SingularFrameError) as err:
        geo.validate_frame(space, (x1, x2), CFG)
    assert math.isnan(err.value.ratio)
    p = space.point((0.5, 0.25))
    with pytest.raises(SingularFrameError) as err:
        FrameSolver(space, (x1, x2)).inverse(space.seed_env(p, 1))
    assert err.value.point == p.values and math.isnan(err.value.ratio)


def test_frame_solve_runs_quietly():
    """A direct frame solve, as the kernel benchmark makes one, lets floats
    overflow silently: no numpy warning escapes, here raised as an error,
    and the degenerate point is still named."""
    space = ChartedSpace("r2", ("a", "b"))
    x1 = VectorField.coordinate(space, "a")
    x2 = VectorField.from_exprs(space, ["0", "b*1e300*1e300"], "X2")
    p = space.point((0.5, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFrameError) as err:
            FrameSolver(space, (x1, x2)).inverse(space.seed_env(p, 1))
    assert err.value.point == p.values and math.isnan(err.value.ratio)


def test_singular_frame_reports_point():
    space = ChartedSpace("r2", ("a", "b"))
    x1 = VectorField.from_exprs(space, ["1", "a"], "X1")
    x2 = VectorField.from_exprs(space, ["2", "2*a"], "X2")
    with pytest.raises(SingularFrameError):
        geo.validate_frame(space, (x1, x2), CFG)


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------


def test_projector_single_frame_is_identity():
    space = ChartedSpace("r2", ("a", "b"))
    frame = Frame((VectorField.coordinate(space, "a"),
                   VectorField.coordinate(space, "b")))
    proj = projector_from_split(frame, [], "P")
    X = VectorField.from_exprs(space, ["a*b", "1+b"], "X")
    px = proj(X)
    for p in space.sample_points(CFG):
        assert px.values(p) == pytest.approx(X.values(p), abs=1e-12)


def test_vertical_horizontal_projectors(plane_circle):
    space, h1, h2, v = plane_circle
    pv = projector_from_split(Frame((v,), "V"), [Frame((h1, h2), "H")], "P_V")
    ph = projector_from_split(Frame((h1, h2), "H"), [Frame((v,), "V")], "P_H")
    dth = VectorField.coordinate(space, "th")
    pts = space.sample_points(CFG)
    for p in pts:
        assert max(abs(c) for c in pv(h1).values(p)) < 1e-12
        assert pv(v).values(p) == pytest.approx(v.values(p), abs=1e-12)
        # d/dth is vertical, so its horizontal part vanishes
        assert max(abs(c) for c in ph(dth).values(p)) < 1e-12


def test_projector_laws_idempotent_and_partition(tangent_affine):
    space, h1, h2, v1, v2 = tangent_affine
    hf, vf = Frame((h1, h2), "H"), Frame((v1, v2), "V")
    ph = projector_from_split(hf, [vf], "P_H")
    pv = projector_from_split(vf, [hf], "P_V")
    X = VectorField.from_exprs(space, ["u1", "x2*x1", "1", "u2*u2"], "X")
    for p in space.sample_points(CFG):
        once = ph(X).values(p)
        twice = ph(ph(X)).values(p)
        assert max(abs(a - b) for a, b in zip(once, twice)) < 1e-10
        total = vf_add(ph(X), pv(X)).values(p)
        assert max(abs(a - b) for a, b in zip(total, X.values(p))) < 1e-10


def test_an_application_reads_its_argument_and_the_two_side_fields(
        tangent_affine, monkeypatch):
    """P_H(X) reads X, P_H's covector block and its frame block, nothing
    else.  The covector block of a run of coframe rows is a view of the
    solver's inverse, of any other rows a copy; once the blocks are held,
    a further application over the same points stacks nothing."""
    space, h1, h2, v1, v2 = tangent_affine
    solver = FrameSolver(space, (v1, v2, h1, h2))
    ph = geo.projector_from_solver(solver, (2, 3), "P_H")
    X = VectorField.from_exprs(space, ["u1", "x2*x1", "1", "u2*u2"], "X")
    Y = VectorField.from_exprs(space, ["x1", "u2", "0", "x2"], "Y")
    coframe, frames = ph.sides
    assert ph(X).operands == (X, coframe, frames)
    assert type(coframe) is CovectorField and type(frames) is VectorField
    assert frames.operands == (h1, h2)
    env = space.seed_env(space.sample_points(CFG), 2)
    ph(X).at(env)
    inv = solver.inverse(env)
    assert np.shares_memory(coframe.at(env).a, inv.a)
    assert coframe.at(env).a.tobytes() == inv.a[2:4].tobytes()
    rows = solver.coframe_rows((1, 0, 1)).at(env)
    assert not np.shares_memory(rows.a, inv.a)
    assert rows.a.tobytes() == inv.a[[1, 0, 1]].tobytes()
    stacks = []
    monkeypatch.setattr(np, "stack", lambda *a, **k: stacks.append(a))
    ph(Y).at(env)
    assert stacks == []


# ---------------------------------------------------------------------------
# endomorphism algebra
# ---------------------------------------------------------------------------


def test_identity_endo(plane_circle):
    space, h1, _, _ = plane_circle
    I = Endo11.identity(space)
    p = space.point((0.1, 0.2, 0.3))
    assert I(h1).values(p) == h1.values(p)


def test_endo_from_terms_vertical_endomorphism(tangent_affine):
    # S = dx^a (x) V_a maps H_a to V_a and kills V_b
    space, h1, h2, v1, v2 = tangent_affine
    dx1 = CovectorField.from_exprs(space, ["1", "0", "0", "0"], "dx1")
    dx2 = CovectorField.from_exprs(space, ["0", "1", "0", "0"], "dx2")
    S = Endo11.from_terms(space, [(dx1, v1), (dx2, v2)], "S")
    for p in space.sample_points(CFG):
        assert S(h1).values(p) == pytest.approx(v1.values(p), abs=1e-12)
        assert max(abs(c) for c in S(v2).values(p)) < 1e-14


def test_endo_function_linearity(tangent_affine):
    space, h1, h2, v1, v2 = tangent_affine
    dx1 = CovectorField.from_exprs(space, ["1", "0", "0", "0"], "dx1")
    S = Endo11.from_terms(space, [(dx1, v1)], "S")
    f = ScalarField.from_expr(space, "x1*u2+1")
    lhs = S(vf_scale(f, h1))
    rhs = vf_scale(f, S(h1))
    for p in space.sample_points(CFG):
        assert lhs.values(p) == pytest.approx(rhs.values(p), abs=1e-12)


def test_endo_compose_add_scale(tangent_affine):
    space, h1, h2, v1, v2 = tangent_affine
    hf, vf = Frame((h1, h2), "H"), Frame((v1, v2), "V")
    ph = projector_from_split(hf, [vf], "P_H")
    pv = projector_from_split(vf, [hf], "P_V")
    comp = endo_compose(pv, ph)          # = 0
    ssum = endo_add(ph, pv)              # = I
    half = endo_scale(0.5, ssum)
    X = VectorField.from_exprs(space, ["u2", "1", "x1", "0"], "X")
    for p in space.sample_points(CFG):
        assert max(abs(c) for c in comp(X).values(p)) < 1e-10
        assert ssum(X).values(p) == pytest.approx(X.values(p), abs=1e-10)
        assert half(X).values(p) == pytest.approx(
            [0.5 * c for c in X.values(p)], abs=1e-10)


# ---------------------------------------------------------------------------
# Lie derivative of an endomorphism
# ---------------------------------------------------------------------------


def test_lie_derivative_of_identity_vanishes(tangent_affine):
    space, h1 = tangent_affine[0], tangent_affine[1]
    G = VectorField.from_exprs(space, ["u1", "u2", "0", "0"], "G")
    LI = lie_derivative_endo(G, Endo11.identity(space))
    for p in space.sample_points(CFG):
        assert max(abs(c) for c in LI(h1).values(p)) < 1e-12


def test_sode_projector_flat_case():
    # flat second-order field (no force): P_H = (I - L_G S)/2 fixes d/dx
    space = ChartedSpace("tm1", ("x", "u"), base_coords=("x",))
    v = VectorField.coordinate(space, "u", "V1")
    dx = CovectorField.from_exprs(space, ["1", "0"], "dx")
    S = Endo11.from_terms(space, [(dx, v)], "S")
    G = VectorField.from_exprs(space, ["u", "0"], "G")
    LS = lie_derivative_endo(G, S)
    ph = endo_scale(0.5, endo_add(Endo11.identity(space),
                                  endo_scale(-1.0, LS)))
    ddx = VectorField.coordinate(space, "x")
    ddu = VectorField.coordinate(space, "u")
    for p in space.sample_points(CFG):
        assert ph(ddx).values(p) == pytest.approx([1.0, 0.0], abs=1e-12)
        assert max(abs(c) for c in ph(ddu).values(p)) < 1e-12


def test_sode_projector_flat_two_dim():
    # n = 2, zero force: horizontal lift of d/dx^a is itself
    space = ChartedSpace("tm2", ("x1", "x2", "u1", "u2"),
                         base_coords=("x1", "x2"))
    v1 = VectorField.coordinate(space, "u1", "V1")
    v2 = VectorField.coordinate(space, "u2", "V2")
    dx1 = CovectorField.from_exprs(space, ["1", "0", "0", "0"], "dx1")
    dx2 = CovectorField.from_exprs(space, ["0", "1", "0", "0"], "dx2")
    S = Endo11.from_terms(space, [(dx1, v1), (dx2, v2)], "S")
    G = VectorField.from_exprs(space, ["u1", "u2", "0", "0"], "G")
    ph = endo_scale(0.5, endo_add(
        Endo11.identity(space),
        endo_scale(-1.0, lie_derivative_endo(G, S))))
    d1 = VectorField.coordinate(space, "x1")
    for p in space.sample_points(CFG):
        assert ph(d1).values(p) == pytest.approx([1, 0, 0, 0], abs=1e-12)


# ---------------------------------------------------------------------------
# depth budget
# ---------------------------------------------------------------------------


def test_depth_budget_error_names_operation(plane_circle):
    space, h1, h2, _ = plane_circle
    b = lie_bracket(h1, h2)
    bb = lie_bracket(b, h1)          # cost 2
    bbb = lie_bracket(bb, h2)        # cost 3
    p = space.point((0.0, 0.0, 0.5))
    env = space.seed_env(p, 2)
    with pytest.raises(DepthBudgetError) as err:
        bb.values(p)  # fine: seeds at its own cost
        bbb.at(env)
    assert "[" in str(err.value)


def test_nested_bracket_within_budget(plane_circle):
    space, h1, h2, v = plane_circle
    bb = lie_bracket(lie_bracket(h1, h2), v)
    p = space.point((0.1, -0.4, 0.8))
    vals = bb.values(p)
    assert len(vals) == 3


def test_eval_vector_field_lifts_to_jets(plane_circle):
    space, h1, _, _ = plane_circle
    p = space.point((0.2, -0.1, 0.4))
    comps = geo.eval_vector_field(h1, p, CheckConfig(depth=2))
    assert len(comps) == 3
    # third component is cos(th): derivative along th is -sin(th)
    from ehresmann.jets import extract
    assert abs(extract(comps[2], (0, 0, 1)) + math.sin(0.4)) < 1e-14


def test_eval_vector_field_depth_budget(plane_circle):
    space, h1, h2, v = plane_circle
    deep = lie_bracket(lie_bracket(lie_bracket(h1, h2), v), h1)
    p = space.point((0.0, 0.0, 0.1))
    with pytest.raises(DepthBudgetError):
        geo.eval_vector_field(deep, p, CheckConfig(depth=2))


def test_sampled_points_cap_the_depth(plane_circle):
    space, h1, h2, v = plane_circle
    bb = lie_bracket(lie_bracket(h1, h2), v)  # cost 2
    capped = space.sample_points(CheckConfig(samples=2, depth=1))
    assert capped == space.sample_points(CheckConfig(samples=2, depth=3))
    assert len(lie_bracket(h1, v).values(capped[0])) == 3
    with pytest.raises(DepthBudgetError) as err:
        bb.values(capped[0])
    assert err.value.operation == bb.name
    assert (err.value.needed, err.value.available) == (2, 1)


# ---------------------------------------------------------------------------
# contraction kernels against the plain folds
# ---------------------------------------------------------------------------


def _bits(s):
    """Every stored float of a scalar or a list of scalars, as exact hex
    (so -0.0 != 0.0)."""
    if isinstance(s, list):
        return [_bits(c) for c in s]
    if isinstance(s, Jet):
        return [(s.depth, s.nvars), s.value.hex(),
                [_bits(p) for p in s.partials]]
    return float(s).hex()


def _jets_at(field, env, target=None):
    """A field's components in a one-point ``env`` as ``Jet`` s, truncated
    to ``target`` when given."""
    comps = field.at(env) if target is None else \
        jets.truncate(field.at(env), target)
    return _at_point(comps, 0)


def _jet_inverse(solver, env):
    """The frame solve at one point of a chart without constraints as
    plain Gauss-Jordan over ``Jet`` s (the scalar reference of the batched
    elimination): the columns are the frame fields, the solve's operands,
    at the depth it leaves; partial pivoting on the values, the first
    largest value wins, and a factor that is the float 0.0 leaves its row
    alone."""
    assert not solver.space.constraints
    n = solver.space.ambient_dim
    cols = [_jets_at(f, env, env.depth - solver.cost) for f in solver.operands]
    aug = [[cols[j][i] for j in range(n)]
           + [1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n),
                  key=lambda r: abs(jets.value_of(aug[r][col])))
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1.0 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col and (isinstance(factor, Jet) or factor != 0.0):
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _projector_reference(solver, indices, X, env):
    """A projector as the full solve gives it at one point, over ``Jet`` s:
    the rows of the whole inverse, truncated to the output depth, each
    left-folded against X, then combined with the frame fields, each
    component from 0.0."""
    t = env.depth - max(solver.cost, X.cost)
    inv = _at_point(solver.inverse(env), 0)
    xs = _jets_at(X, env, t)
    coef = []
    for i in indices:
        acc = 0.0
        for w, x in zip(inv[i], xs):
            acc = acc + jets.truncate(w, t) * x
        coef.append(acc)
    out = []
    for k in range(solver.space.ambient_dim):
        acc = 0.0
        for c, i in zip(coef, indices):
            acc = acc + c * _jets_at(solver.fields[i], env, t)[k]
        out.append(acc)
    return out


def _check_projectors(solver, fields, points):
    """Every projector of ``solver`` on index sets (0,), (2, 0) and all
    fields, applied to each field, against the reference at each point,
    alone and as part of the point set, at two depths."""
    for indices in ((0,), (2, 0), tuple(range(len(solver.fields)))):
        for X in fields:
            field = geo.projector_from_solver(solver, indices, "P")(X)
            assert field.cost == max(solver.cost, X.cost)
            for depth in (field.cost, field.cost + 1):
                batch = field.at(solver.space.seed_env(points, depth))
                for k, p in enumerate(points):
                    env = solver.space.seed_env(p, depth)
                    want = _bits(_projector_reference(solver, indices, X, env))
                    assert _bits(_jets_at(field, env)) == want, \
                        (indices, X.name)
                    assert _bits(_at_point(batch, k)) == want, (indices, k)


def test_coefficient_rows_match_the_full_solve(sphere3):
    # the Hopf solve squares its system with a constraint column
    space, lam, sig, v = sphere3
    solver = FrameSolver(space, (lam, sig, v))
    assert solver.cost == 1 and len(solver.fields) < space.ambient_dim
    bracket = lie_bracket(sig, v)
    fields = [vf_add(vf_scale(ScalarField.from_expr(space, "x*y+2"), lam), v),
              bracket, lie_bracket(lam, bracket)]
    assert [X.cost for X in fields] == [0, 1, 2]
    _check_projectors(solver, fields,
                      space.sample_points(CheckConfig(samples=3)))


def test_projectors_match_the_full_solve_on_permuted_frames():
    from ehresmann.scenarios import build_scenario

    scen = build_scenario("frame-bundle", CheckConfig(samples=2))
    conn, split = scen.conn, scen.split
    # the split's solver orders the connection's fields as H + V blocks
    assert split.solver is not conn.solver
    assert sorted(map(id, split.solver.fields)) == \
        sorted(map(id, conn.solver.fields))
    h1, v1 = conn.horizontal.fields[0], conn.vertical.fields[0]
    bracket = lie_bracket(h1, v1)
    fields = [vf_add(h1, v1), bracket, lie_bracket(h1, bracket)]
    assert [X.cost for X in fields] == [0, 1, 2]
    points = scen.space.sample_points(CheckConfig(seed=4, samples=2))
    for solver in (conn.solver, split.solver):
        _check_projectors(solver, fields, points)


def _bracket_before_hoisting(X, Y, env):
    """The bracket kernel at one point as it was written over ``Jet`` s
    before its slots were hoisted: every entry truncated on its own."""
    n = X.space.ambient_dim
    t = env.depth - (max(X.cost, Y.cost) + 1)
    xs = _jets_at(X, env)
    ys = _jets_at(Y, env)
    out = []
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc = acc + jets.truncate(xs[j], t) * jets.truncate(
                ys[i].partials[j], t) - jets.truncate(ys[j], t) * \
                jets.truncate(xs[i].partials[j], t)
        out.append(acc)
    return out


@pytest.mark.parametrize("depth", [2, 3])
def test_bracket_of_unequal_costs_matches_the_unhoisted_kernel(
        tangent_affine, depth):
    space, h1, h2, v1, v2 = tangent_affine
    cheap = VectorField.from_exprs(
        space, ["sin(x2)", "u1*cos(x1)", "exp(u2/3)", "x1*x2-u1"], "A")
    dear = lie_bracket(h1, VectorField.from_exprs(
        space, ["u2^2", "sin(u1)", "x1/3", "cos(x2*u2)"], "B"))
    for X, Y in ((cheap, dear), (dear, cheap), (dear, dear)):
        field = lie_bracket(X, Y)
        for p in space.sample_points(CheckConfig(samples=3)):
            env = space.seed_env(p, depth)
            assert _bits(_jets_at(field, env)) == \
                _bits(_bracket_before_hoisting(X, Y, env))


# ---------------------------------------------------------------------------
# batched evaluation over a point set
# ---------------------------------------------------------------------------


def _unflatten(a, depth, nvars):
    if depth == 0:
        return float(a)
    return Jet(float(a[(0,) * depth]),
               tuple(_unflatten(a[1 + i], depth - 1, nvars)
                     for i in range(nvars)), depth, nvars)


def _at_point(s, k):
    """What a batch (or a list of them) holds at point ``k``, as jets; a
    batch with axes before its point axis (stacked components, or an
    inverse's rows and columns) as nested lists along those axes."""
    if isinstance(s, list):
        return [_at_point(c, k) for c in s]
    if isinstance(s, JetBatch):
        if s.a.ndim > s.depth + 1:
            return [_at_point(JetBatch(c, s.depth, s.nvars), k) for c in s.a]
        return _unflatten(s.a[k], s.depth, s.nvars)
    return s


_FRAMES = {
    # pivot rows that differ from point to point
    "pivoting": (["x", "1", "y*y"], ["sin(y)", "x*y", "1"],
                 ["z", "cos(x)", "x-z"]),
    # constant entries, so exact zeros in the inverse keep their signs
    "sparse": (["x", "1", "0"], ["0", "1", "y"], ["1", "0", "2"]),
}


def _pivoting_frame(kind="pivoting"):
    space = ChartedSpace("r3", ("x", "y", "z"), ((-2.0, 2.0),) * 3)
    return space, tuple(VectorField.from_exprs(space, c, f"E{i + 1}")
                        for i, c in enumerate(_FRAMES[kind]))


@pytest.mark.parametrize("kind", sorted(_FRAMES))
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_batched_frame_solve_is_bit_equal_per_point(kind, depth):
    space, fields = _pivoting_frame(kind)
    points = space.sample_points(CheckConfig(seed=3, samples=6))
    solver = FrameSolver(space, fields)
    batch = solver.inverse(space.seed_env(points, depth))
    for k, p in enumerate(points):
        env = space.seed_env(p, depth)
        want = _bits(_jet_inverse(solver, env))
        assert _bits(_at_point(solver.inverse(env), 0)) == want
        assert _bits(_at_point(batch, k)) == want


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_batched_fields_are_bit_equal_per_point(tangent_affine, depth):
    space, h1, h2, v1, v2 = tangent_affine
    proj = projector_from_split(Frame((h1, h2)), [Frame((v1, v2))])
    dear = lie_bracket(h1, VectorField.from_exprs(
        space, ["u2^2", "sin(u1)", "x1/3", "cos(x2*u2)"], "B"))
    coef = pairing(dual_coframe(space, [Frame((h1, h2, v1, v2))])[2], dear)
    fields = [proj(lie_bracket(dear, v2)), lie_bracket(proj(dear), h2),
              vf_scale(coef, vf_sub(dear, proj(dear)))]
    points = space.sample_points(CheckConfig(seed=5, samples=4))
    for field in fields:
        if field.cost > depth:
            continue
        batch = field.at(space.seed_env(points, depth))
        for k, p in enumerate(points):
            want = _jets_at(field, space.seed_env(p, depth))
            assert _bits(_at_point(batch, k)) == _bits(want)
        assert field.values(points) == [field.values(p) for p in points]


def test_batched_frame_gate_names_the_first_degenerate_point():
    space = ChartedSpace("r2", ("a", "b"))
    x1 = VectorField.from_exprs(space, ["1", "a"], "X1")
    x2 = VectorField.from_exprs(space, ["1", "a+b*b"], "X2")
    points = [space.point(v) for v in [(0.3, 0.5), (0.2, 0.0), (0.1, 0.0)]]
    with pytest.raises(SingularFrameError) as err:
        FrameSolver(space, (x1, x2)).inverse(space.seed_env(points, 0))
    assert err.value.point == (0.2, 0.0)


def test_point_set_keys_name_the_point_values():
    space, _ = _pivoting_frame()
    points = space.sample_points(CheckConfig(seed=3, samples=3))
    again = space.sample_points(CheckConfig(seed=3, samples=3))
    key = space.seed_env(points, 1).key
    assert key == space.seed_env(again, 1).key
    assert hash(key) == hash(space.seed_env(again, 1).key)
    assert key != space.seed_env(points, 2).key
    assert key != space.seed_env(points[:2], 1).key
    assert key != space.seed_env(points[0], 1).key


def _mapped(X, fn, name):
    """``fn`` on each component of X, once on the stacked components."""
    return VectorField(X.space, lambda env: fn(X.at(env)), X.cost, name)


def _algebra_fields():
    space, frame = _pivoting_frame("sparse")
    a = VectorField.from_exprs(space, ["x*y", "sin(z)", ex.Const(0.0)], "A")
    b = VectorField.from_exprs(space, [ex.Const(-0.0), "exp(x/2)", "y-z"],
                               "B")
    zero = VectorField.zero(space)
    # numbers beside a coordinate batch, lifted only where they meet it
    mixed = VectorField(space, lambda env: [0.0, env["x"], -0.0], 0, "M")
    f = ScalarField.from_expr(space, "x*z+1")
    w = CovectorField.from_exprs(space, ["y", ex.Const(-0.0), "x*x"], "w")
    solver = FrameSolver(space, frame)
    ab = lie_bracket(a, b)
    return space, {
        "add": vf_add(a, b), "add-zero": vf_add(mixed, zero),
        "sub": vf_sub(b, zero), "sub-mixed": vf_sub(mixed, a),
        "scale-number": vf_scale(-2.0, b),
        "scale-signed-zero": vf_scale(-0.0, mixed),
        "scale-field": vf_scale(f, mixed), "scale-field-jets": vf_scale(f, b),
        "pairing": pairing(w, mixed), "pairing-jets": pairing(w, a),
        "directional": directional(mixed, f),
        "directional-jets": directional(b, f),
        "bracket": ab, "bracket-zero": lie_bracket(zero, a),
        "bracket-cost-2": lie_bracket(mixed, ab),
        "projector": geo.projector_from_solver(solver, (0, 2), "P")(mixed),
        "projector-bracket": geo.projector_from_solver(solver, (1,), "Q")(ab),
        "terms": Endo11.from_terms(
            space, [(w, a), (solver.coframe()[1], mixed)], "T")(b),
        "inverse-row": solver.coframe()[0],
        "lifted": _mapped(a, lambda c: jets.sqrt(c * c + 1.0), "sqrt(A*A+1)"),
    }


@pytest.mark.parametrize("name", sorted(_algebra_fields()[1]))
def test_stacked_field_algebra_is_bit_equal_per_point(name):
    space, fields = _algebra_fields()
    field = fields[name]
    points = space.sample_points(CheckConfig(seed=7, samples=5, depth=4))
    assert _bits(field.values(points)) == \
        _bits([field.values(p) for p in points])
    for depth in range(field.cost, field.cost + 3):
        batch = field.at(space.seed_env(points, depth))
        for k, p in enumerate(points):
            want = _jets_at(field, space.seed_env(p, depth))
            assert _bits(_at_point(batch, k)) == _bits(want), (depth, k)


def _member_trees():
    """Trees with a member on either side of a bracket and as the argument
    of a coframe sum, as functions of the member."""
    space, fields = _algebra_fields()
    a, b = fields["add"], fields["scale-field-jets"]
    solver = FrameSolver(space, _pivoting_frame("sparse")[1])
    proj = geo.projector_from_solver(solver, (0, 2), "P")
    return space, (a, b, fields["bracket"], fields["sub-mixed"]), {
        "bracket-left": lambda Y: lie_bracket(Y, b),
        "bracket-right": lambda Y: lie_bracket(a, Y),
        "bracket-both": lambda Y: lie_bracket(Y, vf_scale(-2.0, Y)),
        "projector": lambda Y: proj(lie_bracket(a, proj(Y))),
        "sum": lambda Y: vf_sub(vf_add(Y, a), proj(Y)),
    }


@pytest.mark.parametrize("tree", sorted(_member_trees()[2]))
def test_member_axis_trees_are_bit_equal_per_member(tree):
    space, members, trees = _member_trees()
    build = trees[tree]
    stack = geo.FieldStack(members)
    assert [stack._where[Y] for Y in members] == [(0, 0), (0, 1), (1, 0),
                                                  (0, 2)]
    points = space.sample_points(CheckConfig(seed=5, samples=4, depth=4))
    for Y in members:
        g, i = stack._where[Y]
        stacked, alone = build(stack.groups[g]), build(Y)
        assert stacked.cost == alone.cost
        for depth in range(alone.cost, alone.cost + 2):
            env = space.seed_env(points, depth)
            got, want = stacked.at(env), alone.at(env)
            assert got.a[i].shape == want.a.shape
            assert got.a[i].tobytes() == want.a.tobytes(), (Y.name, depth)


@pytest.mark.parametrize("op", [jets.ln, jets.sqrt])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_stacked_domain_error_is_the_per_point_loops_first(op, depth):
    space = ChartedSpace("r2", ("a", "b"))
    # the second component goes bad at point 3 of 5, the first at point 4
    points = [space.point(v) for v in [(0.5, 0.25), (0.75, 0.5),
                                       (0.25, -0.5), (-0.75, -0.25),
                                       (0.5, 0.5)]]
    field = _mapped(VectorField.from_exprs(space, ["a", "b"], "X"), op,
                    "op(X)")

    def first_error(run):
        with pytest.raises(JetDomainError) as err:
            run()
        return type(err.value), err.value.operation, err.value.detail

    want = first_error(lambda: [field.at(space.seed_env(p, depth))
                                for p in points])
    assert want[2].startswith("argument -0.5 ")
    assert first_error(
        lambda: field.at(space.seed_env(points, depth))) == want
    if depth == 0:
        assert first_error(lambda: field.values(points)) == want
        assert first_error(lambda: fold_now(points, field)) == want


# ---------------------------------------------------------------------------
# the zero rule of the contraction and bracket kernels
# ---------------------------------------------------------------------------


def _signed_zeros(shape, rng):
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


def _contract_by_jets(rows, xs):
    """``jets.dot(row, xs)`` over ``Jet`` s at each (member, row, point)."""
    d, n = xs.depth, xs.nvars
    terms, points = rows.shape[1:3]
    return {m + (r, k): jets.dot(
        [_unflatten(rows[r, t, k], d, n) for t in range(terms)],
        [_unflatten(xs.a[m + (t, k)], d, n) for t in range(terms)])
        for m in np.ndindex(xs.a.shape[:-2 - d])
        for r in range(len(rows)) for k in range(points)}


def _bracket_by_jets(xs, ys, t):
    """``acc = acc + x^j d_j y^i - y^j d_j x^i`` over ``Jet`` s at each
    (member, component, point), either operand's member axis broadcast."""
    n = xs.nvars
    lead = max(xs.a.shape[:-2 - xs.depth], ys.a.shape[:-2 - ys.depth],
               key=len)
    out = {}
    for m in np.ndindex(lead):
        for k in range(xs.a.shape[-1 - xs.depth]):
            x, y = ([_unflatten(s.a[m[:s.a.ndim - 2 - s.depth] + (j, k)],
                                s.depth, n) for j in range(n)]
                    for s in (xs, ys))
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc = acc + jets.truncate(x[j], t) * jets.truncate(
                        y[i].partials[j], t) - jets.truncate(y[j], t) * \
                        jets.truncate(x[i].partials[j], t)
                out[m + (i, k)] = acc
    return out


def _is_the_jet_fold(got, want):
    for at, jet in want.items():
        assert _bits(_unflatten(got.a[at], got.depth, got.nvars)) == \
            _bits(jet), at


@pytest.mark.parametrize("members", [0, 2], ids=["neither", "member"])
@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("depth", [0, 1])
def test_contract_of_a_signed_zero_operand_is_the_jet_fold(members, points,
                                                           depth):
    """An ``xs`` of ±0.0 (``rows`` never carries a member axis) gives every
    bit of the ``Jet`` fold: +0.0 everywhere at depth 0, where the kernel
    skips the products, and the dense fold's -0.0 partials at depth 1."""
    rng = np.random.default_rng(10 * points + depth + members)
    slots = (4,) * depth
    rows = rng.standard_normal((4, 3, points) + slots)
    lead = (members,) if members else ()
    xs = JetBatch(_signed_zeros(lead + (3, points) + slots, rng), depth, 3)
    got = geo._contract(rows, xs)
    assert got.a.shape == lead + (4, points) + slots
    assert got.depth == depth
    _is_the_jet_fold(got, _contract_by_jets(rows, xs))
    negative = geo._contract(np.abs(rows), xs._new(np.full(xs.a.shape, -0.0)))
    assert np.signbit(negative.a).any() == (depth > 0)


@pytest.mark.parametrize("member", ["neither", "x", "y"])
@pytest.mark.parametrize("zero", ["x", "y"])
@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("t", [0, 1])
def test_bracket_of_a_signed_zero_operand_is_the_jet_fold(member, zero,
                                                          points, t):
    """A bracket with one operand ±0.0 gives every bit of the ``Jet`` fold,
    with a member axis on either side or on neither: +0.0 everywhere at
    ``t = 0``, where the kernel skips the products, and the dense fold
    above it."""
    rng = np.random.default_rng(points + 10 * t)
    n = 3
    operands = {}
    for side in "xy":
        shape = ((2,) if member == side else ()) + (n, points) + \
            (1 + n,) * (t + 1)
        a = _signed_zeros(shape, rng) if side == zero else \
            rng.standard_normal(shape)
        operands[side] = JetBatch(a, t + 1, n)
    xs, ys = operands["x"], operands["y"]
    got = geo._bracket_fold(xs, ys, t)
    lead = (2,) if member != "neither" else ()
    assert got.a.shape == lead + (n, points) + (1 + n,) * t
    assert got.depth == t
    _is_the_jet_fold(got, _bracket_by_jets(xs, ys, t))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("points", [1, 3])
def test_a_zero_operand_keeps_the_nan_of_the_other_at_its_point(bad, points):
    """A NaN or an infinity in the operand a zero one meets is multiplied,
    as the dense fold does, and the result is NaN at its point."""
    rng = np.random.default_rng(points)
    k = points - 1
    rows = rng.standard_normal((4, 3, points))
    rows[2, 1, k] = bad
    xs = JetBatch(_signed_zeros((2, 3, points), rng), 0, 3)
    with np.errstate(invalid="ignore"):
        got = geo._contract(rows, xs)
    assert np.isnan(got.a[:, 2, k]).all()
    _is_the_jet_fold(got, _contract_by_jets(rows, xs))
    zero = JetBatch(_signed_zeros((3, points, 4), rng), 1, 3)
    for slot in (0, 2):
        other = rng.standard_normal((2, 3, points, 4))
        other[1, 0, k, slot] = bad
        other = JetBatch(other, 1, 3)
        for xs, ys in ((zero, other), (other, zero)):
            with np.errstate(invalid="ignore"):
                got = geo._bracket_fold(xs, ys, 0)
            assert np.isnan(got.a[1, :, k]).any()
            _is_the_jet_fold(got, _bracket_by_jets(xs, ys, 0))


# ---------------------------------------------------------------------------
# points, and the array reductions of stacked folds and the frame gate
# ---------------------------------------------------------------------------


def test_a_point_has_slots_and_its_depth_takes_no_part_in_equality():
    space = ChartedSpace("r2", ("a", "b"))
    capped, free = geo.Point(space, (0.5, 0.25), 3), geo.Point(
        space, (0.5, 0.25))
    assert not hasattr(capped, "__dict__")
    assert (capped.depth, free.depth) == (3, None)
    assert capped == free and hash(capped) == hash(free)
    assert capped != geo.Point(space, (0.5, -0.25), 3)
    with pytest.raises(AttributeError):
        capped.depth = 4


def _float_bits(x) -> bytes:
    return np.float64(x).tobytes()


class _Devs(DevTracker):
    """A tracker that also keeps every deviation it is handed, in order."""

    def __init__(self):
        super().__init__()
        self.devs = []

    def update(self, dev, point=None):
        self.devs.append(dev)
        super().update(dev, point)


@pytest.mark.parametrize("with_nan", [True, False])
def test_a_stacked_fold_takes_each_rows_max_abs_bit_for_bit(with_nan):
    """``FieldStack._fold`` and ``report.fold`` reduce a root's rows with
    one array operation; on rows holding NaN, ±inf, -0.0 and only zeros
    each deviation has the bits of ``report.max_abs`` of the row, and the
    tracker ends with the per-row loop's worst deviation and point, members
    outer in a stack and points outer in ``report.fold``."""
    nan, inf = math.nan, math.inf
    rows = [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0],
            [1.0, -inf, 2.0], [-2.5, 2.5, -0.0], [-3.0, 0.5, -inf],
            [nan, -1.0, inf], [-0.5, 0.25, -0.75], [nan, nan, nan]]
    if not with_nan:
        rows = [[0.0 if v != v else v for v in row] for row in rows]
    array = np.array(rows).reshape(3, 3, 3)     # (point, member, component)
    space = ChartedSpace("r3", ("a", "b", "c"))
    members = [VectorField.coordinate(space, c) for c in space.coords]
    points = [space.point((k, -k, 0.5)) for k in (0.25, 0.5, 0.75)]
    stack = geo.FieldStack(members)
    where = [stack._where[Y] for Y in members]
    got = _Devs()
    stack._fold(members, where, None, got, points, ("root",),
                lambda root: array)
    want, devs = DevTracker(), []
    for _, i in where:
        for p, at_point in zip(points, array[:, i].tolist()):
            devs.append(geo.max_abs(at_point))
            want.update(devs[-1], p.values)
    assert [_float_bits(d) for d in got.devs] == [_float_bits(d) for d in devs]
    assert all(type(d) is float for d in got.devs)
    assert _float_bits(got.max_dev) == _float_bits(want.max_dev)
    assert got.worst_point == want.worst_point
    assert stack.fallbacks == 0
    got, want, devs = _Devs(), DevTracker(), []
    report.fold(got, points, range(3), lambda i: array[:, i])
    for p, at_point in zip(points, array.tolist()):
        for row in at_point:
            devs.append(geo.max_abs(row))
            want.update(devs[-1], p.values)
    assert [_float_bits(d) for d in got.devs] == [_float_bits(d) for d in devs]
    assert all(type(d) is float for d in got.devs)
    assert _float_bits(got.max_dev) == _float_bits(want.max_dev)
    assert got.worst_point == want.worst_point


def _frame_stacks():
    """Four random stacks of 6x6 frames, and Hopf's 4x3 frames at 8
    sample points."""
    from ehresmann.scenarios import build_scenario
    rng = np.random.default_rng(31)
    stacks = [rng.standard_normal((5, 6, 6)) * rng.uniform(0.1, 10.0)
              for _ in range(4)]
    hopf = build_scenario("hopf", CFG)
    pts = hopf.space.sample_points(CFG)
    frame = geo._stacked(hopf.conn.all_fields).rows(pts).swapaxes(1, 2)
    assert frame.shape == (8, 4, 3)
    return stacks + [np.ascontiguousarray(frame)]


def _gate_error(run):
    with pytest.raises(SingularFrameError) as err:
        run()
    return err.value.point, _float_bits(err.value.ratio), str(err.value)


def test_a_batched_frame_gate_has_each_frames_own_singular_values(
        monkeypatch):
    """One batched SVD gives every frame of a stack the singular values of
    its own ``np.linalg.svd``; with the gate raised to infinity, the stack
    from frame ``k`` on fails at frame ``k``, with ``frame_ratio``'s bits."""
    stacks = _frame_stacks()
    monkeypatch.setattr(geo, "FRAME_DEGENERACY_RATIO", math.inf)
    for mats in stacks:
        batched = np.linalg.svd(mats, compute_uv=False)
        for m, sv in zip(mats, batched):
            assert sv.tobytes() == np.linalg.svd(
                m, compute_uv=False).tobytes()
        points = [(float(k), 0.0) for k in range(len(mats))]
        for k in range(len(mats) - 1):
            point, ratio, _ = _gate_error(
                lambda: geo.gate_frame(mats[k:], points[k:]))
            assert point == points[k]
            assert ratio == _float_bits(geo.frame_ratio(mats[k]))


def _per_point_gate(mats, points):
    for m, p in zip(mats, points):
        geo.gate_frame(m, p)


@pytest.mark.parametrize("bad", ["degenerate", "zero", "nan", "inf"])
def test_a_batched_frame_gate_raises_the_per_point_loops_error(bad):
    """A bad frame at the third of five points, and a degenerate one at
    the fourth, raise the per-point loop's error: the third point, with
    the same ratio and message; a stack of good frames passes both."""
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((5, 4, 4))
    points = [(0.5 * k, -0.25 * k) for k in range(5)]
    _per_point_gate(mats, points)
    geo.gate_frame(mats, points)
    mats[3, :, 1] = 2.0 * mats[3, :, 0]
    if bad == "degenerate":
        mats[2, :, 3] = mats[2, :, 0] - 3.0 * mats[2, :, 2]
    elif bad == "zero":
        mats[2] = 0.0
    else:
        mats[2, 1, 2] = math.nan if bad == "nan" else -math.inf
    want = _gate_error(lambda: _per_point_gate(mats, points))
    assert want[0] == points[2]
    assert _gate_error(lambda: geo.gate_frame(mats, points)) == want


def test_a_one_point_frame_gate_takes_the_single_matrix_path(monkeypatch):
    """Every eval query gates a one-point solve: a one-frame stack is gated
    as one matrix by ``frame_ratio``, a longer stack by the batched SVD."""
    seen = []

    def ratio(mat, _ratio=geo.frame_ratio):
        seen.append(np.shape(mat))
        return _ratio(mat)

    monkeypatch.setattr(geo, "frame_ratio", ratio)
    mats = np.random.default_rng(3).standard_normal((2, 6, 6))
    geo.gate_frame(mats[:1], [(0.0,)])
    assert seen == [(6, 6)]
    geo.gate_frame(mats, [(0.0,), (1.0,)])
    assert seen == [(6, 6)]
