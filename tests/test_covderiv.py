"""Tests for the covariant-derivative engine and derived operators."""

from __future__ import annotations

import math

import pytest

from ehresmann.connection import (
    K_HORIZONTAL, K_VERTICAL, build_connection, canonical_endos,
)
from ehresmann.covderiv import (
    CovDerivError, MembershipError, SubmoduleDeriv,
    check_parallelism_equivalence, ehresmann_curvature, extend_derivative,
    glue_derivatives, nabla_of_endo, torsion, total_derivative,
)
from ehresmann.geometry import (
    ChartedSpace, CheckConfig, CovectorField, Endo11, FieldStack, Frame,
    ScalarField, VectorField, directional, lie_bracket, pairing, vf_add,
    vf_scale, vf_sub,
)
from ehresmann.jets import JetDomainError, JetShapeError, ln
from helpers import fold_now, raised

CFG = CheckConfig(samples=8)


@pytest.fixture(scope="module")
def tilted():
    """Circle-fibre bundle over the plane with the two-block vertical split."""
    space = ChartedSpace("tilted", ("x", "y", "th"), base_coords=("x", "y"))
    h1 = VectorField.from_exprs(space, ["1", "0", "cos(th)"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "sin(th)"], "H2")
    v = VectorField.from_exprs(space, ["0", "0", "1"], "V")
    conn = build_connection(space, Frame((v,), "V"), Frame((h1, h2), "H"), CFG)
    split = canonical_endos(conn, [Frame((h1,), "H1"), Frame((h2,), "H2")],
                            K_VERTICAL, CFG)
    nabla = total_derivative(split, CFG)
    return space, h1, h2, v, conn, split, nabla


@pytest.fixture(scope="module")
def affine():
    """Tangent-bundle frame for G^1_12 = x1 and G^2_21 = x2 (nonzero
    curvature), all other coefficients zero."""
    space = ChartedSpace("affine", ("x1", "x2", "u1", "u2"),
                         base_coords=("x1", "x2"))
    h1 = VectorField.from_exprs(space, ["1", "0", "-(x1*u2)", "0"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "0", "-(x2*u1)"], "H2")
    v1 = VectorField.coordinate(space, "u1", "V1")
    v2 = VectorField.coordinate(space, "u2", "V2")
    conn = build_connection(space, Frame((v1, v2), "V"),
                            Frame((h1, h2), "H"), CFG)
    split = canonical_endos(conn, [Frame((h1, h2), "H")], K_VERTICAL, CFG)
    nabla = total_derivative(split, CFG)
    return space, (h1, h2), (v1, v2), conn, split, nabla


def k_rule(split):
    """The K rule S([X, Q(Y)]) written out by hand."""
    def rule(X, Y):
        return split.s_total(lie_bracket(X, split.q_total(Y)))

    return SubmoduleDeriv(split.p_k, rule, "K")


def max_dev(field, points):
    return max(max(abs(v) for v in field.values(p)) for p in points)


def gamma(c, a, b, p):
    """Nonzero coefficients of the affine fixture: G^1_12 = x1, G^2_21 = x2."""
    if (c, a, b) == (1, 1, 2):
        return p.values[0]
    if (c, a, b) == (2, 2, 1):
        return p.values[1]
    return 0.0


# ---------------------------------------------------------------------------
# extension of a distribution derivative
# ---------------------------------------------------------------------------


def test_extension_reduces_on_image_arguments(affine):
    space, (h1, h2), (v1, v2), conn, split, nabla = affine
    _, ext = nabla.parts[0]
    rule = k_rule(split).rule
    pts = space.sample_points(CFG)
    for X, Y in [(v1, v2), (v2, v1)]:
        diff = vf_sub(ext(X, Y), rule(X, Y))
        assert max_dev(diff, pts) < 1e-10


def test_extension_flat_vertical_direction():
    # flat one-dimensional case: direction d/du, argument H = d/dx
    space = ChartedSpace("flat1", ("x", "u"), base_coords=("x",))
    h = VectorField.coordinate(space, "x", "H1")
    v = VectorField.coordinate(space, "u", "V1")
    conn = build_connection(space, Frame((v,), "V"), Frame((h,), "H"), CFG)
    split = canonical_endos(conn, [Frame((h,), "H")], K_VERTICAL, CFG)
    _, ext = total_derivative(split, CFG).parts[1]
    out = ext(v, h)
    assert max_dev(out, space.sample_points(CFG)) < 1e-12


def test_extension_affine_vertical_of_horizontal_vanishes(affine):
    space, (h1, h2), (v1, v2), conn, split, nabla = affine
    _, ext = nabla.parts[1]
    pts = space.sample_points(CFG)
    for va in (v1, v2):
        for hb in (h1, h2):
            assert max_dev(ext(va, hb), pts) < 1e-10


def test_membership_check_rejects_outside_argument(affine):
    space, (h1, h2), (v1, v2), conn, split, _ = affine
    ext = extend_derivative(k_rule(split), CFG, check_membership=True)
    with pytest.raises(MembershipError):
        ext(v1, h1)  # h1 is not vertical


# ---------------------------------------------------------------------------
# glue
# ---------------------------------------------------------------------------


def test_glue_single_identity_part_returns_rule(affine):
    space = affine[0]
    ident = Endo11.identity(space)
    base = VectorField.from_exprs(space, ["u1", "0", "x1", "0"], "B")

    def toy_rule(X, Y):
        return base

    part = (ident, extend_derivative(SubmoduleDeriv(ident, toy_rule, "all"),
                                     CFG, check_membership=False))
    glued = glue_derivatives([part], CFG, provenance="toy")
    X = VectorField.from_exprs(space, ["1", "x2", "0", "0"], "X")
    Y = VectorField.from_exprs(space, ["0", "1", "u2", "0"], "Y")
    diff = vf_sub(glued(X, Y), base)
    assert max_dev(diff, space.sample_points(CFG)) < 1e-10


def test_glue_rejects_non_partition(affine):
    space, (h1, h2), (v1, v2), conn, split, nabla = affine
    with pytest.raises(CovDerivError):
        glue_derivatives([nabla.parts[0]], CFG, probe_fields=split.all_fields,
                         provenance="broken")


def test_glue_is_additive_over_argument_decomposition(affine):
    space, (h1, h2), (v1, v2), conn, split, nabla = affine
    pts = space.sample_points(CFG)
    X = h1
    Y = vf_add(h2, v1, name="Y")
    direct = nabla(X, Y)
    pieces = vf_add(nabla(X, h2), nabla(X, v1))
    assert max_dev(vf_sub(direct, pieces), pts) < 1e-9


# ---------------------------------------------------------------------------
# total operators
# ---------------------------------------------------------------------------


def test_total_affine_component_families(affine):
    space, hs, vs, conn, split, nabla = affine
    pts = space.sample_points(CFG)
    for a in range(2):
        for b in range(2):
            # del_{V_a} V_b = 0 and del_{V_a} H_b = 0
            assert max_dev(nabla(vs[a], vs[b]), pts) < 1e-9
            assert max_dev(nabla(vs[a], hs[b]), pts) < 1e-9
            # del_{H_a} V_b = G^c_ab V_c, del_{H_a} H_b = G^c_ab H_c
            got_v = nabla(hs[a], vs[b])
            got_h = nabla(hs[a], hs[b])
            for p in pts:
                g1, g2 = gamma(1, a + 1, b + 1, p), gamma(2, a + 1, b + 1, p)
                want_v = [g1 * c1 + g2 * c2 for c1, c2 in
                          zip(vs[0].values(p), vs[1].values(p))]
                want_h = [g1 * c1 + g2 * c2 for c1, c2 in
                          zip(hs[0].values(p), hs[1].values(p))]
                assert got_v.values(p) == pytest.approx(want_v, abs=1e-9)
                assert got_h.values(p) == pytest.approx(want_h, abs=1e-9)


def test_total_flat_everything_vanishes():
    space = ChartedSpace("flat2", ("x1", "x2", "u1", "u2"),
                         base_coords=("x1", "x2"))
    hs = Frame((VectorField.coordinate(space, "x1", "H1"),
                VectorField.coordinate(space, "x2", "H2")), "H")
    vs = Frame((VectorField.coordinate(space, "u1", "V1"),
                VectorField.coordinate(space, "u2", "V2")), "V")
    conn = build_connection(space, vs, hs, CFG)
    split = canonical_endos(conn, [hs], K_VERTICAL, CFG)
    nabla = total_derivative(split, CFG)
    pts = space.sample_points(CFG)
    for X in split.all_fields:
        for Y in split.all_fields:
            assert max_dev(nabla(X, Y), pts) < 1e-12


def test_total_tilted_component_table(tilted):
    space, h1, h2, v, conn, split, nabla = tilted
    pts = space.sample_points(CFG)

    def coeff(p, fn):
        return fn(p.values[2])

    expected = {
        ("H1", "H1"): ("H1", math.sin),
        ("H2", "H2"): ("H2", lambda t: -math.cos(t)),
        ("H1", "V"): ("V", math.sin),
        ("H2", "V"): ("V", lambda t: -math.cos(t)),
    }
    fields = {"H1": h1, "H2": h2, "V": v}
    for xn in fields:
        for yn in fields:
            out = nabla(fields[xn], fields[yn])
            for p in pts:
                got = out.values(p)
                if (xn, yn) in expected:
                    tgt, fn = expected[(xn, yn)]
                    want = [coeff(p, fn) * c for c in fields[tgt].values(p)]
                else:
                    want = [0.0, 0.0, 0.0]
                assert got == pytest.approx(want, abs=1e-9)


def test_flipped_total_operator():
    # one-dimensional frame-bundle pattern: coordinates (x, w), K = H
    space = ChartedSpace("fb1", ("x", "w"), base_coords=("x",),
                         intervals=((-1.0, 1.0), (0.5, 1.5)))
    h = VectorField.from_exprs(space, ["1", "-(x*w)"], "H")  # G^1_11 = x
    v = VectorField.coordinate(space, "w", "V1")
    conn = build_connection(space, Frame((v,), "V"), Frame((h,), "H"), CFG)
    split = canonical_endos(conn, [Frame((v,), "V1")], K_HORIZONTAL, CFG)
    nabla = total_derivative(split, CFG)
    # one flipped block is the equal-rank case with K horizontal
    assert nabla.provenance == "equal-rank"
    pts = space.sample_points(CFG)
    for p in pts:
        # del_H H = G H = x * H, del_H V = x * V, del_V . = 0
        x = p.values[0]
        assert nabla(h, h).values(p) == pytest.approx(
            [x * c for c in h.values(p)], abs=1e-10)
        assert nabla(h, v).values(p) == pytest.approx(
            [x * c for c in v.values(p)], abs=1e-10)
        assert max(abs(c) for c in nabla(v, h).values(p)) < 1e-10
        assert max(abs(c) for c in nabla(v, v).values(p)) < 1e-10


# ---------------------------------------------------------------------------
# torsion, curvature, derivative of tensors
# ---------------------------------------------------------------------------


def test_torsion_antisymmetric_diagonal_zero(affine):
    space, hs, vs, conn, split, nabla = affine
    pts = space.sample_points(CFG)
    assert max_dev(torsion(nabla, hs[0], hs[0]), pts) < 1e-12
    t12 = torsion(nabla, hs[0], hs[1])
    t21 = torsion(nabla, hs[1], hs[0])
    assert max_dev(vf_add(t12, t21), pts) < 1e-9


def test_torsion_affine_horizontal_part(affine):
    # T(H_1, H_2) horizontal part is (G^c_12 - G^c_21) H_c = x1 H_1 - x2 H_2
    space, hs, vs, conn, split, nabla = affine
    t = torsion(nabla, hs[0], hs[1])
    ph = conn.p_h
    pts = space.sample_points(CFG)
    for p in pts:
        got = ph(t).values(p)
        want = [p.values[0] * c1 - p.values[1] * c2
                for c1, c2 in zip(hs[0].values(p), hs[1].values(p))]
        assert got == pytest.approx(want, abs=1e-9)


def test_torsion_vertical_part_is_minus_curvature(affine):
    # with T = del_X Y - del_Y X - [X,Y] and R = P_V([P_H., P_H.]), the
    # vertical torsion of horizontal lifts is exactly -R (and nonzero here)
    space, hs, vs, conn, split, nabla = affine
    pts = space.sample_points(CFG)
    seen_nonzero = False
    for (X, Y) in [(hs[0], hs[1]), (hs[1], hs[0])]:
        t = torsion(nabla, X, Y)
        r = ehresmann_curvature(conn, X, Y)
        diff = vf_add(conn.p_v(t), r)
        assert max_dev(diff, pts) < 1e-9
        seen_nonzero = seen_nonzero or max_dev(r, pts) > 1e-3
    assert seen_nonzero


def test_curvature_flat_vanishes():
    space = ChartedSpace("flat3", ("x", "u"), base_coords=("x",))
    h = VectorField.coordinate(space, "x", "H")
    v = VectorField.coordinate(space, "u", "V")
    conn = build_connection(space, Frame((v,), "V"), Frame((h,), "H"), CFG)
    r = ehresmann_curvature(conn, h, v)
    assert max_dev(r, space.sample_points(CFG)) < 1e-12


def test_curvature_is_vertical_valued(affine):
    space, hs, vs, conn, split, nabla = affine
    X = vf_add(hs[0], vs[1], name="X")
    Y = vf_add(hs[1], vs[0], name="Y")
    r = ehresmann_curvature(conn, X, Y)
    diff = vf_sub(conn.p_v(r), r)
    assert max_dev(diff, space.sample_points(CFG)) < 1e-9


def test_nabla_of_identity_endo_vanishes(affine):
    space, hs, vs, conn, split, nabla = affine
    ident = Endo11.identity(space)
    pts = space.sample_points(CFG)
    for X, Y in [(hs[0], vs[1]), (vs[0], hs[1])]:
        assert max_dev(nabla_of_endo(nabla, ident, X, Y), pts) < 1e-9


def test_equal_rank_parallel_endomorphisms(affine):
    # equal-rank case: del S = del Q = 0 on frame arguments
    space, hs, vs, conn, split, nabla = affine
    pts = space.sample_points(CFG)
    for T in (split.s_total, split.q_total):
        for X in split.all_fields:
            for Y in split.all_fields:
                assert max_dev(nabla_of_endo(nabla, T, X, Y), pts) < 1e-8


def test_nfold_parallel_projectors_but_not_s(tilted):
    space, h1, h2, v, conn, split, nabla = tilted
    pts = space.sample_points(CFG)
    for P in (split.p_k, *split.p_blocks):
        for X in split.all_fields:
            for Y in split.all_fields:
                assert max_dev(nabla_of_endo(nabla, P, X, Y), pts) < 1e-8
    # the aggregate S is parallel only in the equal-rank construction:
    # here (del_{H2} S)(H1) = -cos(th)/sqrt(2) V, nonzero at th = 0
    p = space.point((0.0, 0.0, 0.0))
    dev = nabla_of_endo(nabla, split.s_total, h2, h1).values(p)
    assert abs(dev[2]) > 0.5


# ---------------------------------------------------------------------------
# the projector-parallelism equivalence
# ---------------------------------------------------------------------------


def test_parallelism_equivalence_passes_on_canonical_operators(affine, tilted):
    for pack in (affine, tilted):
        split, nabla = pack[-2], pack[-1]
        for b in range(len(nabla.parts)):
            nabla_p, image, agree = check_parallelism_equivalence(
                nabla, b, split.stack, CFG)
            assert nabla_p.passed and image.passed and agree.passed


def test_parallelism_equivalence_returns_three_records(affine):
    split, nabla = affine[-2], affine[-1]
    p_b = nabla.parts[1][0]
    records = check_parallelism_equivalence(nabla, 1, split.stack, CFG)
    assert [r.check_id for r in records] == [
        f"parallelism:{p_b.name}:{side}"
        for side in ("nabla-p", "image-stability", "equivalence")]
    assert [r.threshold for r in records] == [CFG.tolerance] * 2 + [0.5]
    assert records[2].max_dev == 0.0
    assert all(r.worst_point is None for r in records)


def test_parallelism_equivalence_single_part_trivially_passes(affine):
    space = affine[0]
    ident = Endo11.identity(space)

    def rule(X, Y):
        return lie_bracket(X, Y)

    part = (ident, extend_derivative(SubmoduleDeriv(ident, rule, "all"),
                                     CFG, check_membership=False))
    glued = glue_derivatives([part], CFG, provenance="toy")
    probes = tuple(VectorField.coordinate(space, c) for c in space.coords)
    nabla_p, image, _ = check_parallelism_equivalence(
        glued, 0, FieldStack(probes), CFG)
    assert nabla_p.passed and image.passed


def test_parallelism_equivalence_corrupted_rule_fails_both_sides(affine):
    space, hs, vs, conn, split, nabla = affine
    leak = vs[0]  # vertical leak out of the horizontal image
    b = 1         # the horizontal part of the glue

    p_b, ext_b = nabla.parts[b]

    def corrupted_ext(X, Y, _orig=ext_b):
        return vf_add(_orig(X, Y), leak)

    parts = list(nabla.parts)
    parts[b] = (p_b, corrupted_ext)
    bad = glue_derivatives(parts, CFG, probe_fields=split.all_fields,
                    provenance="corrupted")
    nabla_p, image, agree = check_parallelism_equivalence(
        bad, b, FieldStack(split.all_fields), CFG)
    assert not nabla_p.passed
    assert not image.passed
    assert agree.passed


def test_parallelism_side_a_raises_the_per_pair_error(affine):
    # the corrupted block rule takes ln(x2 * dx1(Y)), which the stacked
    # probes cannot evaluate (a pairing does not broadcast a member axis)
    # and the first pair in loop order fails at the first point with
    # x2 <= 0: the check must raise that pair's error
    space, hs, vs, conn, split, nabla = affine
    w = CovectorField.from_exprs(space, ["x2", "0", "0", "0"], "x2dx1")
    b = 1
    p_b, ext_b = nabla.parts[b]

    def corrupted_ext(X, Y, _orig=ext_b):
        paired = pairing(w, Y)
        log = ScalarField(space, lambda env: ln(paired.at(env)),
                          paired.cost, f"ln({paired.name})")
        return vf_add(_orig(X, Y), vf_scale(log, vs[0]))

    parts = list(nabla.parts)
    parts[b] = (p_b, corrupted_ext)
    bad = glue_derivatives(parts, CFG, probe_fields=split.all_fields,
                           provenance="corrupted")
    probes = (*hs, *vs)
    pts = space.sample_points(CFG)

    def loop():
        for X in probes:
            for Y in probes:
                fold_now(pts, nabla_of_endo(bad, p_b, X, Y))

    want = raised(loop)
    assert want[0] is JetDomainError and "argument -" in want[1]
    ys = FieldStack(probes).groups[0]
    assert raised(lambda: nabla_of_endo(bad, p_b, hs[0], ys).values(
        pts))[0] is JetShapeError
    stack = FieldStack(probes)
    assert raised(lambda: check_parallelism_equivalence(
        bad, b, stack, CFG)) == want
    assert stack.fallbacks == 1


def test_parallelism_image_set_sees_every_sample_point(affine):
    # F = (x1 - x0) H1 vanishes at the first sample point only; the
    # corrupted block rule leaks (dx1 . Y) V1, so it leaks for F and not
    # for H2.  Both sides must see the leak.
    space, hs, vs, conn, split, nabla = affine
    x0 = space.sample_points(CFG)[0].values[0]
    f = vf_scale(ScalarField.from_expr(space, f"x1-({x0!r})"), hs[0],
                 name="F")
    dx1 = CovectorField.from_exprs(space, ["1", "0", "0", "0"], "dx1")
    b = 1
    p_b, ext_b = nabla.parts[b]

    def corrupted_ext(X, Y, _orig=ext_b):
        return vf_add(_orig(X, Y), vf_scale(pairing(dx1, Y), vs[0]))

    parts = list(nabla.parts)
    parts[b] = (p_b, corrupted_ext)
    bad = glue_derivatives(parts, CFG, probe_fields=split.all_fields,
                           provenance="corrupted")
    probes = (vs[0], vs[1], hs[1], f)
    nabla_p, image, agree = check_parallelism_equivalence(
        bad, b, FieldStack(probes), CFG)
    assert not nabla_p.passed
    assert not image.passed
    assert agree.passed


# ---------------------------------------------------------------------------
# covariant-derivative axioms on a constructed operator
# ---------------------------------------------------------------------------


def test_axioms_function_linearity_and_leibniz(affine):
    space, hs, vs, conn, split, nabla = affine
    f = ScalarField.from_expr(space, "1+x1*u2")
    X, Y = hs[0], vs[1]
    pts = space.sample_points(CFG)
    lhs = nabla(vf_scale(f, X), Y)
    rhs = vf_scale(f, nabla(X, Y))
    assert max_dev(vf_sub(lhs, rhs), pts) < 1e-8
    lhs2 = nabla(X, vf_scale(f, Y))
    rhs2 = vf_add(vf_scale(directional(X, f), Y),
                  vf_scale(f, nabla(X, Y)))
    assert max_dev(vf_sub(lhs2, rhs2), pts) < 1e-8
