"""Tests for the shipped scenario families and their analysis operations."""

from __future__ import annotations

import collections
import gc
import json
import math
import random

import numpy as np
import pytest

from ehresmann import expr as ex
from ehresmann import scenarios as sc
from ehresmann.cli import load_scenario_file, main
from ehresmann.covderiv import CovDeriv, nabla_of_endo, op_field, torsion
from ehresmann.geometry import (
    CheckConfig, CovectorField, Endo11, FieldStack, FrameSolver,
    GeometryError, PointSetKey, ScalarField, VectorField, _Field,
    annihilation, directional, lie_bracket, pairing, vf_add, vf_scale,
    vf_sub,
)
from ehresmann.scenarios import (
    Metric, affine_tangent, ambient_dot_metric,
    cycle_decomposition, frame_bundle, homogeneity_check, is_spray,
    metric_compatibility_defect, nonlinear_tangent, potential_connection,
    sode_projector, sode_sufficiency_check, symmetrize, trivial_r3,
)
from ehresmann.jets import value_of
from ehresmann.report import DevTracker, per_point
from helpers import raised
from test_cli import TRIVIAL_DOC

CFG = CheckConfig(samples=8)
SMALL = CheckConfig(samples=5)


def coeffs_close(scen, field, point, want, tol=1e-9):
    got = scen.coefficients(field, point)
    for name, value in got.items():
        assert abs(value - want.get(name, 0.0)) < tol, \
            f"{name}: {value} vs {want.get(name, 0.0)}"


# ---------------------------------------------------------------------------
# trivial bundle
# ---------------------------------------------------------------------------


def test_trivial_bundle_printed_coefficients():
    scen = trivial_r3(CFG)
    h1, v = scen.fields["H1"], scen.fields["V"]
    p = scen.space.point((0.0, 0.0, math.pi / 6))
    coeffs_close(scen, scen.nabla(h1, h1), p, {"H1": 0.5})
    p0 = scen.space.point((0.3, -0.2, 0.0))
    coeffs_close(scen, scen.nabla(scen.fields["H2"], v), p0, {"V": -1.0})
    coeffs_close(scen, scen.nabla(v, h1), p0, {})


def test_trivial_bundle_table_passes():
    scen = trivial_r3(CFG)
    recs = sc.expected_table_checks(scen, CFG)
    assert all(r.passed for r in recs)
    assert len(recs) == 9


def test_repeated_runs_keep_the_frame_names():
    # at seed 1 every coefficient of one torsion-curvature draw is zero;
    # the draw must not rename the frame field it falls back to
    cfg = CheckConfig(seed=1, samples=3)
    scen = trivial_r3(cfg)
    first = sc.run_scenario_checks(scen, cfg)
    assert [f.name for f in scen.frame_fields()] == ["H1", "H2", "V"]
    assert sc.run_scenario_checks(scen, cfg) == first
    assert set(scen.coefficients(scen.fields["V"],
                                 scen.space.sample_points(cfg)[0])) == \
        {"H1", "H2", "V"}


# ---------------------------------------------------------------------------
# Hopf
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hopf_scen():
    return sc.hopf(CFG)


def test_hopf_brackets_and_zero_table(hopf_scen):
    recs = sc.expected_table_checks(hopf_scen, CFG)
    assert all(r.passed for r in recs)
    bracket_recs = [r for r in recs if "bracket" in r.check_id]
    assert len(bracket_recs) == 3
    assert all(r.max_dev < 1e-10 for r in bracket_recs)


def test_hopf_symmetrized_derivative(hopf_scen):
    # the symmetrized operator sends (Sigma, Lambda) to V
    scen = hopf_scen
    sym = symmetrize(scen.nabla)
    sig, lam, v = scen.fields["Sigma"], scen.fields["Lambda"], scen.fields["V"]
    for p in scen.space.sample_points(SMALL):
        got = sym(sig, lam).values(p)
        want = v.values(p)
        assert got == pytest.approx(want, abs=1e-9)


def test_hopf_symmetrized_is_torsion_free(hopf_scen):
    scen = hopf_scen
    sym = symmetrize(scen.nabla)
    fields = [scen.fields[n] for n in scen.frame_names]
    for X in fields:
        for Y in fields:
            t = torsion(sym, X, Y)
            for p in scen.space.sample_points(SMALL):
                assert max(abs(c) for c in t.values(p)) < 1e-9


def test_hopf_metric_compatibility(hopf_scen):
    scen = hopf_scen
    sym = symmetrize(scen.nabla)
    lam, v = scen.fields["Lambda"], scen.fields["V"]
    sig = scen.fields["Sigma"]
    pts = scen.space.sample_points(SMALL)
    for p in pts:
        for (X, Y, Z) in [(sig, lam, v), (lam, sig, sig), (v, lam, sig)]:
            assert abs(metric_compatibility_defect(
                sym, scen.metric, X, Y, Z).value_at(p)) < 1e-8
        # the unsymmetrized operator also has zero defect on (Lambda,
        # Lambda, V): it kills the frame and the pairing is constant
        assert abs(metric_compatibility_defect(
            scen.nabla, scen.metric, lam, lam, v).value_at(p)) < 1e-8


def test_flat_euclidean_metric_compatibility():
    # coordinate operator on the plane with the dot metric: defect 0
    scen = affine_tangent(1, {}, CFG, name="flat-line")
    g = ambient_dot_metric(scen.space)
    h, v = scen.fields["H1"], scen.fields["V1"]
    for p in scen.space.sample_points(SMALL):
        assert abs(metric_compatibility_defect(
            scen.nabla, g, h, h, v).value_at(p)) < 1e-12


def test_hopf_projection_kills_fibre_field(hopf_scen):
    recs = [r for extra in hopf_scen.extra_checks for r in extra(SMALL)]
    proj = [r for r in recs if "projection-verticality" in r.check_id]
    assert proj and proj[0].passed and proj[0].max_dev < 1e-9


def test_metric_positive_definite(hopf_scen):
    scen = hopf_scen
    frame = [scen.fields[n] for n in scen.frame_names]
    low = scen.metric.validate_positive_definite(frame, SMALL)
    assert low > 0.5  # the rotation frame is orthonormal on the sphere


def test_metric_with_nan_values_names_the_point(hopf_scen):
    scen = hopf_scen
    frame = [scen.fields[n] for n in scen.frame_names]
    nan = ScalarField.constant(scen.space, math.nan)
    g = Metric(scen.space, "nan-metric", lambda X, Y: nan)
    first = scen.space.sample_points(SMALL)[0]
    with pytest.raises(GeometryError) as err:
        g.validate_positive_definite(frame, SMALL)
    assert "not finite" in str(err.value)
    assert str(first.values) in str(err.value)


def test_metric_validation_seeds_no_single_point(hopf_scen, monkeypatch):
    frame = [hopf_scen.fields[n] for n in hopf_scen.frame_names]
    seeded = _spy_single_point_seeds(monkeypatch)
    low = hopf_scen.metric.validate_positive_definite(frame, SMALL)
    assert seeded == []
    assert low > 0.5


# ---------------------------------------------------------------------------
# affine tangent bundle
# ---------------------------------------------------------------------------


def test_affine_flat_input_gives_flat_operator():
    scen = affine_tangent(1, {}, CFG, name="flat-1d")
    fields = [scen.fields[n] for n in scen.frame_names]
    for X in fields:
        for Y in fields:
            out = scen.nabla(X, Y)
            for p in scen.space.sample_points(SMALL):
                assert max(abs(c) for c in out.values(p)) < 1e-12


def test_affine_single_coefficient_families():
    # G^1_12 = x1 only: del_{H1}H2 = x1 H1 and del_{H2}H1 = 0
    scen = affine_tangent(2, {(1, 1, 2): "x1"}, CFG, name="affine-x1")
    h1, h2 = scen.fields["H1"], scen.fields["H2"]
    for p in scen.space.sample_points(SMALL):
        coeffs_close(scen, scen.nabla(h1, h2), p, {"H1": p.values[0]})
        coeffs_close(scen, scen.nabla(h2, h1), p, {})
        t = torsion(scen.nabla, h1, h2)
        got = scen.coefficients(t, p)
        assert abs(got["H1"] - p.values[0]) < 1e-9
        assert abs(got["H2"]) < 1e-9


def test_affine_rejects_fibre_coordinates():
    with pytest.raises(ValueError):
        affine_tangent(2, {(1, 1, 2): "u1"}, CFG, name="bad-affine")


def test_affine_expected_table_with_curvature():
    scen = affine_tangent(2, sc.DEFAULT_AFFINE_GAMMA, CFG,
                          name="affine-default")
    recs = sc.expected_table_checks(scen, CFG)
    assert all(r.passed for r in recs), \
        [r.check_id for r in recs if not r.passed]
    # the torsion rows exercise the jet-differentiated curvature oracle
    assert any("torsion" in r.check_id for r in recs)


# ---------------------------------------------------------------------------
# nonlinear tangent bundle
# ---------------------------------------------------------------------------


def test_nonlinear_quadratic_coefficient():
    # G^1_1 = u1^2 on one dimension: del_{H1}H1 = 2 u1 H1
    scen = nonlinear_tangent(1, {(1, 1): "u1^2"}, CFG, name="nl-1d")
    h1 = scen.fields["H1"]
    for p in scen.space.sample_points(SMALL):
        u1 = p.values[1]
        coeffs_close(scen, scen.nabla(h1, h1), p, {"H1": 2.0 * u1})


def test_nonlinear_reduces_to_affine():
    rng = random.Random(17)
    for trial in range(3):
        gamma_affine = {}
        for c in range(1, 3):
            for a in range(1, 3):
                for b in range(1, 3):
                    if rng.random() < 0.4:
                        coef = rng.randint(1, 2)
                        gamma_affine[(c, a, b)] = \
                            f"{coef}*x{rng.randint(1, 2)}"
        aff = affine_tangent(2, gamma_affine, SMALL,
                             name=f"aff-{trial}")
        gamma_nl = {}
        for b in range(1, 3):
            for a in range(1, 3):
                terms = None
                for cc in range(1, 3):
                    e = gamma_affine.get((b, a, cc))
                    if e is None:
                        continue
                    term = ex.BinOp("*", ex.parse(e), ex.Var(f"u{cc}"))
                    terms = term if terms is None \
                        else ex.BinOp("+", terms, term)
                if terms is not None:
                    gamma_nl[(b, a)] = terms
        nl = nonlinear_tangent(2, gamma_nl, SMALL, name=f"nl-{trial}")
        for xn in aff.frame_names:
            for yn in aff.frame_names:
                a_out = aff.nabla(aff.fields[xn], aff.fields[yn])
                n_out = nl.nabla(nl.fields[xn], nl.fields[yn])
                for pa, pn in zip(aff.space.sample_points(SMALL),
                                  nl.space.sample_points(SMALL)):
                    av = a_out.values(pa)
                    nv = n_out.values(pn)
                    assert max(abs(x - y) for x, y in zip(av, nv)) < 1e-10


def test_nonlinear_potential_input_kills_horizontal_torsion():
    # coefficients derived from a force potential: symmetric by symmetry
    # of second derivatives
    gamma = potential_connection(2, ["u1^3", "u1*u2^2"])
    space = next(iter(gamma.values())).space
    scen = nonlinear_tangent(2, gamma, CFG, name="potential")
    h1, h2 = scen.fields["H1"], scen.fields["H2"]
    t = torsion(scen.nabla, h1, h2)
    ph_t = scen.conn.p_h(t)
    for p in scen.space.sample_points(SMALL):
        assert max(abs(c) for c in ph_t.values(p)) < 1e-8


def test_nonlinear_generic_input_has_horizontal_torsion():
    scen = nonlinear_tangent(2, {(1, 2): "u1"}, CFG, name="nonpotential")
    h1, h2 = scen.fields["H1"], scen.fields["H2"]
    ph_t = scen.conn.p_h(torsion(scen.nabla, h1, h2))
    worst = 0.0
    for p in scen.space.sample_points(SMALL):
        worst = max(worst, max(abs(c) for c in ph_t.values(p)))
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# second-order equation connections
# ---------------------------------------------------------------------------


def test_sode_flat_forces_fix_coordinate_lifts():
    gamma_field, p_h, scen = sode_projector(1, ["0"], CFG, name="sode-flat")
    dx = VectorField.coordinate(scen.space, "x1")
    for p in scen.space.sample_points(SMALL):
        assert p_h(dx).values(p) == pytest.approx([1.0, 0.0], abs=1e-12)


def test_sode_quadratic_force_coefficients():
    # f = -(u^2): the slope is u, so H = d/dx - u d/du
    gamma_field, p_h, scen = sode_projector(1, ["-(u1^2)"], CFG,
                                            name="sode-q")
    h1 = scen.fields["H1"]
    for p in scen.space.sample_points(SMALL):
        u = p.values[1]
        assert h1.values(p) == pytest.approx([1.0, -u], abs=1e-10)


def test_sode_spray_predicates():
    space_scen = sode_projector(1, ["u1^2"], SMALL, name="spray-y")[2]
    assert is_spray(space_scen.fields["Gamma"], ["u1^2"], SMALL)
    # degree-1 forces are not sprays
    lin = sode_projector(1, ["u1"], SMALL, name="spray-n")
    assert not is_spray(lin[2].fields["Gamma"], ["u1"], SMALL)


def test_homogeneity_check():
    scen = nonlinear_tangent(1, {(1, 1): "u1"}, SMALL, name="hom-y")
    assert homogeneity_check(scen.space, scen.data["gamma_sf"], SMALL)
    scen2 = nonlinear_tangent(1, {(1, 1): "1"}, SMALL, name="hom-n")
    assert not homogeneity_check(scen2.space, scen2.data["gamma_sf"], SMALL)


def test_sode_vertical_derivative_of_dilation():
    # del_{V_a} Delta = V_a for the equal-rank tangent operator
    scen = sode_projector(2, sc.DEFAULT_SODE_FORCES, CFG)[2]
    delta = scen.fields["Delta"]
    for a in (1, 2):
        va = scen.fields[f"V{a}"]
        out = scen.nabla(va, delta)
        for p in scen.space.sample_points(SMALL):
            assert out.values(p) == pytest.approx(va.values(p), abs=1e-9)


def test_sufficiency_positive_case():
    gamma = potential_connection(2, ["-(u1^2)-u1*u2", "x1*u1^2-u2^2"])
    scen = nonlinear_tangent(2, gamma, CFG, name="suff-pos")
    rep = sode_sufficiency_check(scen, CFG)
    assert rep.conditions_met
    assert rep.reconstruction_dev is not None
    assert rep.reconstruction_dev < 1e-8
    assert rep.reconstructed_spray


def test_sufficiency_rejects_inhomogeneous():
    scen = nonlinear_tangent(1, {(1, 1): "1"}, CFG, name="suff-neg")
    rep = sode_sufficiency_check(scen, CFG)
    assert rep.nabla_delta_dev > 1e-3
    assert not rep.conditions_met
    assert rep.reconstruction_dev is None


def test_sufficiency_rejects_asymmetric():
    # torsionful affine coefficients break the horizontal-torsion condition
    aff = affine_tangent(2, {(1, 1, 2): "1"}, CFG, name="suff-tors")
    gamma_nl = {(1, 1): ex.parse("u2")}
    scen = nonlinear_tangent(2, gamma_nl, CFG, name="suff-tors-nl")
    rep = sode_sufficiency_check(scen, CFG)
    assert rep.horizontal_torsion_dev > 1e-3
    assert not rep.conditions_met


def test_sode_feeds_back_through_nonlinear():
    # the induced horizontal coefficients define the same operator
    gamma_field, p_h, scen = sode_projector(2, sc.DEFAULT_SODE_FORCES, CFG)
    nl = nonlinear_tangent(2, scen.data["gamma_sf"], CFG, name="sode-nl")
    for xn in scen.frame_names:
        for yn in scen.frame_names:
            a_out = scen.nabla(scen.fields[xn], scen.fields[yn])
            b_out = nl.nabla(nl.fields[xn], nl.fields[yn])
            for ps, pn in zip(scen.space.sample_points(SMALL),
                              nl.space.sample_points(SMALL)):
                av = a_out.values(ps)
                bv = b_out.values(pn)
                assert max(abs(x - y) for x, y in zip(av, bv)) < 1e-10


# ---------------------------------------------------------------------------
# cycle decomposition and frame bundles
# ---------------------------------------------------------------------------


def test_cycle_decomposition_one_dimensional():
    basis = cycle_decomposition(1, (0,))
    assert basis.bases == (((((1,),),)),)


def test_cycle_decomposition_two_dimensional():
    basis = cycle_decomposition(2, (1, 0))
    w1, w2 = basis.bases
    assert w1 == (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    assert w2 == (((0, 1), (0, 0)), ((0, 0), (0, 1)))
    # left multiplication by the permutation matrix swaps the rows
    A = basis.permutation_matrix()
    assert A == ((0, 1), (1, 0))


def test_cycle_decomposition_three_dimensional():
    for cycle in [(1, 2, 0), (2, 0, 1)]:
        basis = cycle_decomposition(3, cycle)
        assert len(basis.bases) == 3
        assert all(len(b) == 3 for b in basis.bases)


def test_cycle_decomposition_rejects_non_cycles():
    with pytest.raises(ValueError):
        cycle_decomposition(2, (0, 1))  # identity has two orbits
    with pytest.raises(ValueError):
        cycle_decomposition(3, (1, 0, 2))  # transposition + fixed point
    with pytest.raises(ValueError):
        cycle_decomposition(2, (1, 1))  # not a permutation


def test_frame_bundle_one_dimensional():
    scen = frame_bundle(1, (0,), {(1, 1, 1): "x1"}, CFG, name="fb-1")
    h, v = scen.fields["H1"], scen.fields["V1_1"]
    for p in scen.space.sample_points(SMALL):
        x = p.values[0]
        coeffs_close(scen, scen.nabla(h, h), p, {"H1": x})
        coeffs_close(scen, scen.nabla(h, v), p, {"V1_1": x})
        coeffs_close(scen, scen.nabla(v, h), p, {})


def test_construction_and_provenance_follow_block_count():
    cases = (
        (trivial_r3(SMALL), "n-block", "n-block"),
        (affine_tangent(1, {(1, 1, 1): "x1"}, SMALL), "equal-rank",
         "equal-rank"),
        (frame_bundle(1, (0,), {(1, 1, 1): "x1"}, SMALL, name="fb-1"),
         "equal-rank", "equal-rank"),
        (frame_bundle(2, (1, 0), {(1, 1, 2): "x1"}, SMALL, name="fb-2"),
         "n-block", "n-block-flipped"),
    )
    for scen, construction, provenance in cases:
        assert (scen.split.n == 1) == (construction == "equal-rank")
        assert scen.construction == construction
        assert scen.nabla.provenance == provenance


def test_frame_bundle_fibre_families():
    scen = frame_bundle(2, (1, 0), {(1, 1, 2): "x1"}, CFG, name="fb-x1")
    h1 = scen.fields["H1"]
    for A in (1, 2):
        vb = scen.fields[f"V{A}_2"]
        out = scen.nabla(h1, vb)
        for p in scen.space.sample_points(SMALL):
            coeffs_close(scen, out, p, {f"V{A}_1": p.values[0]})


def test_frame_bundle_expected_table():
    scen = frame_bundle(2, (1, 0), sc.DEFAULT_FRAME_GAMMA, SMALL)
    recs = sc.expected_table_checks(scen, SMALL)
    assert all(r.passed for r in recs), \
        [r.check_id for r in recs if not r.passed]


def test_frame_bundle_rejects_fibre_gamma():
    with pytest.raises(ValueError):
        frame_bundle(2, (1, 0), {(1, 1, 2): "w1_1"}, CFG, name="fb-bad")


# ---------------------------------------------------------------------------
# whole-suite smoke for every built-in
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS))
def test_builtin_suites_pass(name, built):
    scen = built(name)
    recs = sc.run_scenario_checks(scen, CheckConfig(samples=6))
    assert recs
    failed = [r.check_id for r in recs if not r.passed]
    assert not failed, failed


def test_every_field_caches_under_env_keys_alone(built):
    """The one caching rule: after every built-in's checks, each live field,
    the frame solves among them, holds its entries under ``env.key``,
    ``(point-set key, depth)``, and under nothing else."""
    cfg = CheckConfig(samples=3)
    for name in sorted(sc.BUILTIN_BUILDERS):
        sc.run_scenario_checks(built(name), cfg)
    gc.collect()
    fields = [o for o in gc.get_objects() if isinstance(o, _Field)]
    stray = [(f.name, key) for f in fields for key in f._cache
             if not (key.__class__ is tuple and len(key) == 2
                     and key[0].__class__ is PointSetKey
                     and key[1].__class__ is int)]
    assert stray == []
    assert any(f.name == "frame solve" and f._cache for f in fields)


def test_catalog_matches_built_scenarios():
    # section and dimension come from the built scenarios themselves
    assert set(sc.CATALOG) == set(sc.BUILTIN_BUILDERS)
    for name, desc in sc.CATALOG.items():
        assert isinstance(desc, str) and desc, name


def test_unexpected_nonzero_component_fails_the_table():
    # dropping a known-nonzero row from the expected coefficients must
    # turn that record red: silence is not compliance
    scen = trivial_r3(CFG)
    for row in scen.expected:
        if row.args == ("H1", "H1"):
            row.coeffs.clear()
    recs = sc.expected_table_checks(scen, CFG)
    bad = [r for r in recs if not r.passed]
    assert [r.check_id for r in bad] == ["trivial-r3:nabla[H1,H1]"]


def test_builtins_check_each_point_set_in_one_batch(monkeypatch):
    """Every batched evaluation of a build and its checks completes: none
    falls back to one-point sets."""
    from ehresmann import geometry, report

    def strict(points, batched):
        return batched(list(points))

    for module in (report, geometry, sc):
        monkeypatch.setattr(module, "per_point", strict)
    cfg = CheckConfig(samples=3)
    for name in sc.BUILTIN_BUILDERS:
        records = sc.run_scenario_checks(sc.build_scenario(name, cfg), cfg)
        assert all(r.passed for r in records), name


# ---------------------------------------------------------------------------
# builds and extra checks fold whole point sets
# ---------------------------------------------------------------------------


def _spy_single_point_seeds(monkeypatch) -> list:
    """Record every ``seed_env`` call at one point rather than a set."""
    from ehresmann import geometry

    seeded = []
    original = geometry.ChartedSpace.seed_env

    def spy(self, point, *args, **kwargs):
        if not geometry.is_point_set(point):
            seeded.append(point)
        return original(self, point, *args, **kwargs)

    monkeypatch.setattr(geometry.ChartedSpace, "seed_env", spy)
    return seeded


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS))
def test_builds_and_extra_checks_seed_no_single_point(name, monkeypatch):
    seeded = _spy_single_point_seeds(monkeypatch)
    cfg = CheckConfig(samples=3)
    scen = sc.build_scenario(name, cfg)
    assert seeded == [], "build"
    records = [r for extra in scen.extra_checks for r in extra(cfg)]
    assert all(r.passed for r in records)
    assert seeded == [], "extra checks"


@pytest.mark.parametrize("name", ["trivial-r3", "hopf"])
def test_full_runs_seed_no_single_point(name, monkeypatch):
    # neither family has a per-point oracle in its expected table; one
    # sample point is checked as a one-point set
    seeded = _spy_single_point_seeds(monkeypatch)
    for samples in (3, 1):
        cfg = CheckConfig(samples=samples)
        records = sc.run_scenario_checks(sc.build_scenario(name, cfg), cfg)
        assert records and all(r.passed for r in records)
        assert seeded == [], samples


def test_coframe_check_fails_against_a_sign_flipped_form(monkeypatch):
    check = trivial_r3(SMALL).extra_checks[0]
    assert check(SMALL)[0].passed
    monkeypatch.setattr(sc, "TRIVIAL_R3_COFRAME",
                        ("-cos(th)", "sin(th)", "1"))
    rec = check(SMALL)[0]
    assert rec.check_id == "trivial-r3:fibre-coframe"
    assert not rec.passed and rec.max_dev > 1e-2


def test_hopf_projection_check_fails_on_a_non_vertical_field(hopf_scen):
    space = hopf_scen.space
    exprs = tuple(ex.parse(s) for s in sc.HOPF_PROJECTION)
    assert annihilation(space, exprs, hopf_scen.fields["V"],
                        SMALL).max_dev < 1e-9
    tracker = annihilation(space, exprs, hopf_scen.fields["Lambda"], SMALL)
    assert tracker.max_dev > 0.1
    assert tracker.worst_point in [p.values
                                   for p in space.sample_points(SMALL)]


def test_sode_lift_check_fails_against_a_perturbed_table():
    scen = sode_projector(2, sc.DEFAULT_SODE_FORCES, SMALL)[2]
    check = scen.extra_checks[0]
    assert all(r.passed for r in check(SMALL))
    table = scen.data["gamma_sf"]
    g = table[(2, 1)]
    table[(2, 1)] = ScalarField(scen.space, lambda env: g.at(env) + 1e-6,
                                g.cost, "perturbed")
    recs = {r.check_id: r for r in check(SMALL)}
    rec = recs["sode-tangent:projector-coefficients"]
    assert not rec.passed and 5e-7 < rec.max_dev < 2e-6


def test_metric_defect_of_an_incompatible_operator(hopf_scen, monkeypatch):
    # the rule (X, Y) -> Y: X(g(L, L)) = 0 on the unit sphere, so the
    # defect is -2 g(L, L) = -2
    scen = hopf_scen
    lam = scen.fields["Lambda"]
    shift = CovDeriv(scen.space, lambda X, Y: Y, "shift", ())
    defect = metric_compatibility_defect(shift, scen.metric, lam, lam, lam)
    for p in scen.space.sample_points(SMALL):
        assert defect.value_at(p) == pytest.approx(-2.0, abs=1e-12)
    check = scen.extra_checks[1]
    monkeypatch.setattr(sc, "symmetrize", lambda nabla: shift)
    recs = {r.check_id: r for r in check(SMALL)}
    rec = recs["hopf:levi-civita-compatibility"]
    assert not rec.passed and rec.max_dev == pytest.approx(2.0)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_homogeneity_predicates_reject_a_bad_tol(tol, built):
    scen = built("sode-tangent")
    gamma = scen.fields["Gamma"]
    with pytest.raises(ValueError, match="positive and finite"):
        is_spray(gamma, sc.DEFAULT_SODE_FORCES, SMALL, tol=tol)
    with pytest.raises(ValueError, match="positive and finite"):
        homogeneity_check(scen.space, scen.data["gamma_sf"], SMALL, tol=tol)


def test_homogeneity_predicates_take_a_given_tol(built):
    scen = built("sode-tangent")
    gamma = scen.fields["Gamma"]
    assert is_spray(gamma, sc.DEFAULT_SODE_FORCES, SMALL)
    assert not is_spray(gamma, sc.DEFAULT_SODE_FORCES, SMALL, tol=1e-300)
    assert homogeneity_check(scen.space, scen.data["gamma_sf"], SMALL)
    assert homogeneity_check(scen.space, scen.data["gamma_sf"], SMALL,
                             tol=1e-3)


def test_expected_entries_are_parsed_once(monkeypatch):
    scen = trivial_r3(SMALL)
    assert all(isinstance(e, ex.Expr) for row in scen.expected
               for e in row.coeffs.values())
    calls = []
    original = ex.parse
    monkeypatch.setattr(ex, "parse", lambda text: calls.append(text)
                        or original(text))
    assert all(r.passed for r in sc.expected_table_checks(scen, SMALL))
    assert calls == []


# ---------------------------------------------------------------------------
# the frame on a member axis
# ---------------------------------------------------------------------------


STACK_CFG = CheckConfig(samples=3)


def _stack_scenario(name):
    if name == "frame3":
        return frame_bundle(3, (1, 2, 0), sc.DEFAULT_FRAME_GAMMA, STACK_CFG)
    return sc.build_scenario(name, STACK_CFG)


def _stacked_tensors(scen) -> list:
    """The tensors the parallel-tensor family and side A of the
    parallelism family differentiate, each once."""
    split = scen.split
    tensors = [split.s_total, split.q_total, split.p_k, *split.p_blocks]
    tensors += [p for p, _ in scen.nabla.parts]
    return list(dict.fromkeys(tensors))


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_stacked_members_are_bit_equal_to_the_per_pair_fields(name):
    """Each member of ``(nabla_X T)(Ys)`` over a cost group has the bits of
    ``(nabla_X T)(Y)`` built over that member alone, for every tensor both
    stacked families differentiate.  sode-tangent's frame has two cost
    groups; the tangent scenarios are equal-rank (S and Q)."""
    scen = _stack_scenario(name)
    pts = scen.space.sample_points(STACK_CFG)
    stack = scen.split.stack
    costs = [f.cost for f in scen.frame_fields()]
    assert len(stack.groups) == len(set(costs)) == (
        2 if name == "sode-tangent" else 1)
    compared = 0
    for T in _stacked_tensors(scen):
        for X in scen.frame_fields():
            stacked = [nabla_of_endo(scen.nabla, T, X, g).values(pts)
                       for g in stack.groups]
            for Y in scen.frame_fields():
                g, i = stack._where[Y]
                got = [[v.hex() for v in row[i]] for row in stacked[g]]
                want = [[v.hex() for v in row] for row in
                        nabla_of_endo(scen.nabla, T, X, Y).values(pts)]
                assert got == want, (T.name, X.name, Y.name)
                compared += 1
    assert compared == len(_stacked_tensors(scen)) * len(
        scen.frame_fields()) ** 2
    # both families run stacked: no (T, X) falls back to the per-pair loop
    sc.parallel_tensor_checks(scen, STACK_CFG)
    sc.parallelism_equivalence_checks(scen, STACK_CFG)
    assert stack.fallbacks == 0


def _per_pair_parallel(scen, cfg):
    """The parallel-tensor family as a loop over frame pairs."""
    pts = scen.space.sample_points(cfg)
    frame = scen.frame_fields()
    if scen.construction == "equal-rank":
        tensors = [scen.split.s_total, scen.split.q_total]
    else:
        tensors = [scen.split.p_k, *scen.split.p_blocks]
    out = []
    for T in tensors:
        tracker = DevTracker()
        for X in frame:
            for Y in frame:
                tracker.track(pts, nabla_of_endo(scen.nabla, T, X, Y))
        out.append((tracker.max_dev, tracker.worst_point))
    return out


def _per_row_table(scen, cfg):
    """The expected table as a loop over its rows, each row's field built
    on its own and every entry evaluated, zeros too."""
    pts = scen.space.sample_points(cfg)
    out = []

    def entry_values(entry, ps, env0):
        with np.errstate(all="ignore"):
            vals = entry(ps) if callable(entry) else value_of(
                ex.evaluate(sc._E(entry), env0))
        return np.broadcast_to(vals, (len(ps),)).tolist()

    for row in scen.expected:
        field = op_field(scen.conn, scen.nabla, row.op,
                         *(scen.fields[a] for a in row.args))

        def devs(ps):
            coefs = scen.coefficients(field, ps)
            env0 = scen.space.seed_env(ps, 0)
            want = {name: [0.0] * len(ps) if name.startswith("offspan")
                    else entry_values(row.coeffs.get(name, ex.Const(0.0)),
                                      ps, env0)
                    for name in coefs[0]}
            return [[abs(got - want[name][k]) for name, got in c.items()]
                    for k, c in enumerate(coefs)]

        tracker = DevTracker()
        for p, row_devs in zip(pts, per_point(pts, devs)):
            for dev in row_devs:
                tracker.update(dev, p.values)
        out.append((tracker.max_dev, tracker.worst_point))
    return out


@pytest.mark.parametrize("name", ["sode-tangent", "hopf", "affine-tangent"])
def test_stacked_families_fold_as_the_per_pair_loops(name):
    """Same worst deviation and worst point, with the members read in loop
    order (the frame order differs from the stack's); the expected table's
    records are the per-row loop's."""
    scen = _stack_scenario(name)
    got = [(r.max_dev, r.worst_point)
           for r in sc.parallel_tensor_checks(scen, STACK_CFG)]
    assert got == _per_pair_parallel(_stack_scenario(name), STACK_CFG)
    got = [(r.max_dev, r.worst_point)
           for r in sc.expected_table_checks(scen, STACK_CFG)]
    assert got == _per_row_table(_stack_scenario(name), STACK_CFG)


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_stacked_table_rows_are_bit_equal_to_the_per_pair_coefficients(name):
    """Member ``i`` of the coefficients of ``op(X, Ys)``, one stacked field
    per (op, X, cost group), has the bits of ``op(X, Y_i)``'s own, for
    every expected row; the table reads every row so, none per pair."""
    scen = _stack_scenario(name)
    pts = scen.space.sample_points(STACK_CFG)
    stack, groups = scen.split.stack, {}
    for row in scen.expected:
        X, Y = (scen.fields[a] for a in row.args)
        g, i = stack._where[Y]
        if (row.op, X, g) not in groups:
            groups[row.op, X, g] = scen.coefficients(op_field(
                scen.conn, scen.nabla, row.op, X, stack.groups[g]), pts)
        want = scen.coefficients(op_field(scen.conn, scen.nabla, row.op, X,
                                          Y), pts)
        assert [[(k, v.hex()) for k, v in c[i].items()]
                for c in groups[row.op, X, g]] == \
            [[(k, v.hex()) for k, v in c.items()] for c in want], \
            (row.op, row.args)
    fresh = _stack_scenario(name)
    sc.expected_table_checks(fresh, STACK_CFG)
    assert fresh.split.stack.fallbacks == 0


def test_parallel_families_evaluate_one_tree_per_direction(monkeypatch):
    """Both families differentiate along the stacked frame, never along a
    single frame field."""
    from ehresmann import covderiv

    scen = _stack_scenario("trivial-r3")
    seen = []
    original = covderiv.nabla_of_endo

    def spy(nabla, T, X, Y):
        seen.append(Y)
        return original(nabla, T, X, Y)

    monkeypatch.setattr(covderiv, "nabla_of_endo", spy)
    monkeypatch.setattr(sc, "nabla_of_endo", spy)
    sc.parallel_tensor_checks(scen, STACK_CFG)
    sc.parallelism_equivalence_checks(scen, STACK_CFG)
    frame, parts = scen.frame_fields(), len(scen.nabla.parts)
    assert set(seen) == set(scen.split.stack.groups)
    assert len(seen) == (1 + len(scen.split.p_blocks) + parts) * len(frame)


def _bad_point_doc(tmp_path):
    """The trivial bundle with ``sqrt((x - c)^2)`` in H1, where ``c`` is the
    x of the second sample point: every value is fine, and at that point
    alone the derivative is undefined."""
    doc = json.loads(json.dumps(TRIVIAL_DOC))
    c = trivial_r3(STACK_CFG).space.sample_points(STACK_CFG)[1].values[0]
    doc["fields"]["H1"] = ["1", "0", f"cos(th)+sqrt((x-({c!r}))^2)"]
    path = tmp_path / "bad-point.json"
    path.write_text(json.dumps(doc))
    return str(path), c, lambda: load_scenario_file(str(path), STACK_CFG)


def test_stacked_families_raise_the_per_pair_error(tmp_path):
    _, _, load = _bad_point_doc(tmp_path)

    def side_a_loop():
        scen = load()
        pts = scen.space.sample_points(STACK_CFG)
        probes = scen.split.all_fields
        for p, _ in scen.nabla.parts:
            for X in probes:
                for Y in probes:
                    DevTracker().track(pts, nabla_of_endo(scen.nabla, p, X, Y))

    want = raised(lambda: _per_pair_parallel(load(), STACK_CFG))
    assert want is not None and "not positive" in want[1]
    assert raised(lambda: sc.parallel_tensor_checks(load(), STACK_CFG)) \
        == want
    assert raised(side_a_loop) == want
    assert raised(lambda: sc.parallelism_equivalence_checks(
        load(), STACK_CFG)) == want
    table = raised(lambda: _per_row_table(load(), STACK_CFG))
    assert table is not None and "not positive" in table[1]
    scen = load()
    assert raised(lambda: sc.expected_table_checks(scen, STACK_CFG)) == table
    assert scen.split.stack.fallbacks == 1


def test_verify_of_a_bad_point_file_ends_as_before(tmp_path, capsys):
    path, c, _ = _bad_point_doc(tmp_path)
    assert main(["verify", path, "--samples", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: domain error in 'sqrt' at 'sqrt((x-{c!r})"
                       f"^2.0)': argument 0.0 is not positive\n")


# ---------------------------------------------------------------------------
# store only what is read twice
# ---------------------------------------------------------------------------


def _wrap_at(monkeypatch, before, after=lambda field: None):
    """Wrap ``at`` of every field type (each binds its own): ``before(field,
    env)`` runs ahead of the original, ``after(field)`` once it returns."""
    for cls in (_Field, ScalarField, VectorField, CovectorField):
        def at(field, env, _at=cls.__dict__["at"]):
            before(field, env)
            try:
                return _at(field, env)
            finally:
                after(field)

        monkeypatch.setattr(cls, "at", at)


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_nothing_is_computed_twice_and_one_reader_fields_store_nothing(
        name, monkeypatch):
    """Over a build and its checks, no (field, ``env.key``) pair is computed
    twice, and no field with exactly one reader, other than a shared one
    (a memo output, a frame solve), keeps an entry.  The computed fields
    are held, so that no id is reused."""
    held, computed = {}, collections.Counter()

    def count(field, env):
        if env.key not in field._cache:
            held[id(field)] = field
            computed[id(field), env.key] += 1

    _wrap_at(monkeypatch, count)
    sc.run_scenario_checks(_stack_scenario(name), STACK_CFG)
    assert computed
    twice = [(held[i].name, n) for (i, _), n in computed.items() if n > 1]
    assert twice == []
    stored = [f.name for f in held.values()
              if f.readers == 1 and not f.shared and f._cache]
    assert stored == []


def _fresh_fields():
    """Fields on a tangent-bundle chart of dimension 2 that nothing reads
    yet; X, Y, Z, W are a frame."""
    space = sc._tm_space(2, "fresh")

    def vf(name, *comps):
        return VectorField.from_exprs(space, comps, name)

    return dict(
        space=space,
        X=vf("X", "1", "0", "x1", "0"), Y=vf("Y", "0", "1", "0", "u1"),
        Z=vf("Z", "0", "0", "1", "0"), W=vf("W", "0", "0", "x2", "1"),
        f=ScalarField.from_expr(space, "x1*u1+2"),
        g=ScalarField.from_expr(space, "u2*u2-x2"),
        w=CovectorField.from_exprs(space, ["1", "0", "x1", "0"], "w"),
        v=CovectorField.from_exprs(space, ["0", "u2", "0", "1"], "v"))


def _metric_defect(d):
    nabla = CovDeriv(d["space"], lie_bracket, "bracket")
    return [sc.metric_compatibility_defect(
        nabla, ambient_dot_metric(d["space"]), d["X"], d["Y"], d["Z"])]


def _euler_defect(d):
    """Builds the defect fields and evaluates them itself."""
    sc._euler_defect(d["space"], [d["f"], d["g"]], 2.0,
                     CheckConfig(samples=2))
    return []


# case -> (build the fields to evaluate from fresh ones, the reads of the
# fresh fields their rules make)
_READ_CASES = {
    "vf_add": (lambda d: [vf_add(d["X"], d["Y"])], {"X": 1, "Y": 1}),
    "vf_sub": (lambda d: [vf_sub(d["X"], d["X"])], {"X": 2}),
    "vf_scale-number": (lambda d: [vf_scale(2.0, d["X"])], {"X": 1}),
    "vf_scale-field": (lambda d: [vf_scale(d["f"], d["X"])],
                       {"f": 1, "X": 1}),
    "pairing": (lambda d: [pairing(d["w"], d["X"])], {"w": 1, "X": 1}),
    "directional": (lambda d: [directional(d["X"], d["f"])],
                    {"X": 1, "f": 1}),
    "lie_bracket": (lambda d: [lie_bracket(d["X"], d["Y"])],
                    {"X": 1, "Y": 1}),
    "from_terms": (lambda d: [Endo11.from_terms(
        d["space"], [(d["w"], d["Y"]), (d["v"], d["Z"])], "E")(d["X"])],
        {"X": 1, "w": 1, "Y": 1, "v": 1, "Z": 1}),
    "field-stack": (lambda d: list(FieldStack(
        [d["X"], d["Y"], d["X"]]).groups), {"X": 1, "Y": 1}),
    "coframe-rows": (lambda d: list(FrameSolver(
        d["space"], [d[k] for k in "XYZW"]).coframe()),
        {"X": 1, "Y": 1, "Z": 1, "W": 1}),
    "ambient-dot-pair": (lambda d: [ambient_dot_metric(d["space"]).pair(
        d["X"], d["Y"])], {"X": 1, "Y": 1}),
    "metric-defect": (_metric_defect, {"X": 3, "Y": 3, "Z": 3}),
    "lifts": (lambda d: sc._lifts(d["space"], 2, {
        (1, 1): d["f"], (2, 1): d["g"], (2, 2): d["f"]}),
        {"f": 2, "g": 1}),
    "potential-connection": (lambda d: list(sc.potential_connection(
        2, [d["f"], d["g"]], d["space"]).values()), {"f": 2, "g": 2}),
    "sode-field": (lambda d: [sc.sode_field(d["space"], 2,
                                            [d["f"], d["g"]])],
                   {"f": 1, "g": 1}),
    "euler-defect": (_euler_defect, {"f": 1, "g": 1}),
    "reconstructed-forces": (lambda d: sc._reconstructed_forces(
        d["space"], 2, {(1, 1): d["f"], (1, 2): d["g"], (2, 1): d["g"]}),
        {"f": 1, "g": 2}),
}


@pytest.mark.parametrize("case", sorted(_READ_CASES))
def test_constructors_count_what_their_rules_read(case, monkeypatch):
    """Each constructor adds one reader per read its rule makes: evaluated
    once, every field's ``readers`` equals the ``at`` calls that other
    fields' rules made on it, and each fresh operand's count rose by its
    reads.  A missed registration never changes a value, it silently
    recomputes, so only a count can catch it."""
    d = _fresh_fields()
    build, want = _READ_CASES[case]
    reads, rules = collections.Counter(), [None]

    def enter(field, env):
        if rules[-1] is not None:
            reads[field] += 1
        rules.append(field)

    _wrap_at(monkeypatch, enter, lambda field: rules.pop())
    built = build(d)
    if built:
        env = d["space"].seed_env(d["space"].sample_points(
            CheckConfig(samples=2)), max(f.cost for f in built))
        for f in built:
            f.at(env)
    assert {k: d[k].readers for k in want} == want
    assert {k: reads[d[k]] for k in want} == want
    wrong = [(f.name, f.readers, n) for f, n in reads.items()
             if f.readers != n]
    assert wrong == []
