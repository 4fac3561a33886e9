"""Tests for the shipped scenario families and their analysis operations."""

from __future__ import annotations

import collections
import gc
import json
import math
import os
import random
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ehresmann import covderiv
from ehresmann import expr as ex
from ehresmann import geometry as geo
from ehresmann import jets
from ehresmann import report
from ehresmann import scenarios as sc
from ehresmann.cli import Report, load_scenario_file, main
from ehresmann.covderiv import CovDeriv, nabla_of_endo, op_field, torsion
from ehresmann.geometry import (
    CheckConfig, CovectorField, DepthBudgetError, Endo11, FieldStack,
    FrameSolver, GeometryError, PointSetKey, ScalarField,
    VectorField, _Field,
    annihilation, directional, lie_bracket, pairing, vf_add, vf_scale,
    vf_sub,
)
from ehresmann.scenarios import (
    affine_tangent, ambient_dot_metric, cycle_decomposition, frame_bundle,
    homogeneity_check, is_spray, metric_compatibility_defect,
    nonlinear_tangent, potential_connection, sode_projector,
    sode_sufficiency_check, symmetrize, trivial_r3,
    validate_positive_definite,
)
from ehresmann.jets import value_of
from ehresmann.report import Check, DevTracker, per_point
from helpers import fold_now, folded, raised
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
    low = validate_positive_definite(scen.metric, frame, SMALL)
    assert low > 0.5  # the rotation frame is orthonormal on the sphere


def test_metric_with_nan_values_names_the_point(hopf_scen):
    scen = hopf_scen
    frame = [scen.fields[n] for n in scen.frame_names]
    nan = ScalarField.constant(scen.space, math.nan)
    first = scen.space.sample_points(SMALL)[0]
    with pytest.raises(GeometryError) as err:
        validate_positive_definite(lambda X, Y: nan, frame, SMALL)
    assert "not finite" in str(err.value)
    assert str(first.values) in str(err.value)


def test_metric_validation_seeds_no_single_point(hopf_scen, monkeypatch):
    frame = [hopf_scen.fields[n] for n in hopf_scen.frame_names]
    seeded = _spy_single_point_seeds(monkeypatch)
    low = validate_positive_definite(hopf_scen.metric, frame, SMALL)
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


def _sufficiency(scen) -> dict:
    """The sufficiency records of ``scen``, by the last part of their id."""
    return {r.check_id.rsplit(":", 1)[1]: r
            for r in sode_sufficiency_check(scen, CFG)}


def test_sufficiency_positive_case():
    gamma = potential_connection(2, ["-(u1^2)-u1*u2", "x1*u1^2-u2^2"])
    scen = nonlinear_tangent(2, gamma, CFG, name="suff-pos")
    recs = _sufficiency(scen)
    assert recs["dilation-parallel"].passed
    assert recs["horizontal-torsion"].passed
    assert "reconstruction" in recs
    assert recs["reconstruction"].max_dev < 1e-8
    assert recs["reconstructed-spray"].passed


def test_sufficiency_rejects_inhomogeneous():
    scen = nonlinear_tangent(1, {(1, 1): "1"}, CFG, name="suff-neg")
    recs = _sufficiency(scen)
    assert recs["dilation-parallel"].max_dev > 1e-3
    assert not (recs["dilation-parallel"].passed
                and recs["horizontal-torsion"].passed)
    assert "reconstruction" not in recs


def test_sufficiency_rejects_asymmetric():
    # torsionful affine coefficients break the horizontal-torsion condition
    aff = affine_tangent(2, {(1, 1, 2): "1"}, CFG, name="suff-tors")
    gamma_nl = {(1, 1): ex.parse("u2")}
    scen = nonlinear_tangent(2, gamma_nl, CFG, name="suff-tors-nl")
    recs = _sufficiency(scen)
    assert recs["horizontal-torsion"].max_dev > 1e-3
    assert not (recs["dilation-parallel"].passed
                and recs["horizontal-torsion"].passed)


def test_sode_reconstruction_demo_runs(capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / \
        "sode_reconstruction_demo.py"
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 0
    assert "demo ok" in capsys.readouterr().out


def test_verify_all_script_runs_clean():
    """The summary script runs every built-in in a fresh process, and each
    scenario holds as many memo entries after its run as after its build,
    and no more cache entries."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "verify_all.py"),
         "--samples", "3"], capture_output=True, text=True, env=env,
        timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "all scenarios clean"
    memos = [re.search(r" memo +(\d+) -> +(\d+) ", line).groups()
             for line in lines[:-1]]
    assert len(memos) == len(sc.BUILTIN_BUILDERS)
    assert all(built == after for built, after in memos), memos
    entries = [re.search(r" entries +(\d+) -> +(\d+) ", line).groups()
               for line in lines[:-1]]
    assert all(int(after) <= int(built) for built, after in entries), entries


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
    """The one caching rule: after every built-in's checks and one eval
    query, each live field, the frame solves among them, holds its entries
    under ``env.key``, ``(point-set key, depth)``, and under nothing else.
    A run frees what it stores, so the query stores the frame solve."""
    cfg = CheckConfig(samples=3)
    for name in sorted(sc.BUILTIN_BUILDERS):
        scen = built(name)
        sc.run_scenario_checks(scen, cfg)
        scen.coefficients(scen.frame_fields()[0],
                          scen.space.sample_points(cfg)[0])
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

    def verticality(field):
        return folded(annihilation(space, exprs, field, SMALL,
                                   Check(field.name, "", 1e-9)))

    assert verticality(hopf_scen.fields["V"]).max_dev < 1e-9
    rec = verticality(hopf_scen.fields["Lambda"])
    assert rec.max_dev > 0.1
    assert rec.worst_point in [p.values for p in space.sample_points(SMALL)]


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


def _stack_scenario(name, cfg=STACK_CFG):
    if name == "frame3":
        return frame_bundle(3, (1, 2, 0), sc.DEFAULT_FRAME_GAMMA, cfg)
    return sc.build_scenario(name, cfg)


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
        check = Check(T.name, "", cfg.tolerance)
        for X in frame:
            for Y in frame:
                check.track(pts, nabla_of_endo(scen.nabla, T, X, Y))
        rec = folded(check)
        out.append((rec.max_dev, rec.worst_point))
    return out


def _per_row_table(scen, cfg):
    """The expected table as a loop over its rows, each row's field built
    on its own and every entry evaluated, zeros too."""
    pts = scen.space.sample_points(cfg)
    out = []

    def entry_values(entry, ps, env0):
        if isinstance(entry, _Field):   # an oracle, read over the points
            return [v for v, in entry.values(ps)]
        with np.errstate(all="ignore"):
            vals = value_of(ex.evaluate(sc._E(entry), env0))
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


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
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
    """Member ``i`` of the coefficient field of ``op(X, Ys)``, one stacked
    field per (op, X, cost group), has the bits of ``op(X, Y_i)``'s own
    coefficients, for every expected row; the table reads every row so,
    none per pair."""
    scen = _stack_scenario(name)
    pts = scen.space.sample_points(STACK_CFG)
    stack, groups = scen.split.stack, {}
    for row in scen.expected:
        X, Y = (scen.fields[a] for a in row.args)
        g, i = stack._where[Y]
        if (row.op, X, g) not in groups:
            groups[row.op, X, g] = scen.solver.coefficient_field(op_field(
                scen.conn, scen.nabla, row.op, X, stack.groups[g])).values(
                    pts)
        want = scen.coefficients(op_field(scen.conn, scen.nabla, row.op, X,
                                          Y), pts)
        assert [[v.hex() for v in c[i]] for c in groups[row.op, X, g]] == \
            [[v.hex() for v in c.values()] for c in want], \
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
                    fold_now(pts, nabla_of_endo(scen.nabla, p, X, Y))

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


def _verify_json(doc, tmp_path, capsys):
    """Exit code, records and stderr of ``verify --samples 3`` of ``doc``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path), "--samples", "3", "--format", "json"])
    out = capsys.readouterr()
    return code, out.out and json.loads(out.out)["records"], out.err


@pytest.mark.parametrize("entry", ["ln", "abs"])
def test_an_expected_entry_that_fails_at_one_sample_point(
        entry, tmp_path, capsys):
    """With ``c`` the x of the second sample point, ``ln(x-c)`` in an entry
    fails there alone, with the per-row loop's error; ``abs(x-c)`` has a
    kink there, which an entry, read at depth 0, never differentiates: its
    row deviates by the rounding of ``(sin(th)+a)-a`` alone."""
    c = trivial_r3(STACK_CFG).space.sample_points(STACK_CFG)[1].values[0]
    doc = json.loads(json.dumps(TRIVIAL_DOC))
    row = next(r for r in doc["expected"] if r["args"] == ["H1", "H1"])
    row["coeffs"]["H1"] = {
        "ln": f"sin(th)+ln(x-({c!r}))",
        "abs": f"sin(th)+abs(x-({c!r}))-abs(x-({c!r}))"}[entry]
    got = _verify_json(doc, tmp_path, capsys)
    if entry == "ln":
        assert got == (2, "", f"error: domain error in 'ln' at "
                              f"'ln(x-{c!r})': argument 0.0 is not "
                              f"positive\n")
    else:
        code, records, err = _verify_json(TRIVIAL_DOC, tmp_path, capsys)
        records[0].update(max_dev=2.0 ** -54, worst_point=[
            0.7843591354096908, -0.8261223347411677, -0.15615636062945915])
        assert got == (0, records, "") == (code, records, err)


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
    twice, and no field that each evaluation reads once keeps an entry,
    other than a shared one (a memo output, a frame solve) or one that was
    evaluated directly, outside any count of its env.  The computed fields
    and the envs are held, so that no id is reused."""
    held, computed, envs = {}, collections.Counter(), {}
    reads, direct = collections.Counter(), set()

    def count(field, env):
        held[id(field)] = field
        envs[id(env)] = env
        reads[id(field), id(env)] += 1
        if field not in env.live:
            direct.add(id(field))
        if env.key not in field._cache:
            computed[id(field), env.key] += 1

    _wrap_at(monkeypatch, count)
    sc.run_scenario_checks(_stack_scenario(name), STACK_CFG)
    assert computed
    twice = [(held[i].name, n) for (i, _), n in computed.items() if n > 1]
    assert twice == []
    most = collections.Counter()
    for (i, _), n in reads.items():
        most[i] = max(most[i], n)
    assert set(most.values()) > {1}
    stored = [f.name for i, f in held.items() if most[i] == 1
              and not f.shared and i not in direct and f._cache]
    assert stored == []


def _endos(scen) -> list:
    """Every ``Endo11`` that the split or the connection holds, alone or in
    a tuple, once."""
    endos = []
    for obj in (scen.split, scen.conn):
        for v in vars(obj).values():
            endos += [e for e in (v if isinstance(v, tuple) else (v,))
                      if isinstance(e, Endo11)]
    return list(dict.fromkeys(endos))


def _memos(scen) -> list:
    """The memo of every ``Endo11`` that the split or the connection
    holds."""
    return [e._memo for e in _endos(scen)]


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_side_fields_are_computed_once_and_freed_by_the_run(
        name, monkeypatch):
    """Every tensor of the split and the connection has two side fields,
    its covector block and its frame block.  Over a build and its checks
    no side field is computed twice for one ``env.key``, and when
    ``run_scenario_checks`` returns no side field keeps an entry that the
    run stored."""
    computed, envs, stored = collections.Counter(), [], []

    def before(field, env):
        had = env.key in field._cache
        computed[field, env.key] += not had
        envs.append((env.key, had))

    def after(field):
        key, had = envs.pop()
        if not had and key in field._cache:
            stored.append((field, key))

    _wrap_at(monkeypatch, before, after)
    scen = _stack_scenario(name)
    endos = _endos(scen)
    assert endos and all(len(e.sides) == 2 for e in endos)
    sides = {f for e in endos for f in e.sides}
    stored.clear()
    sc.run_scenario_checks(scen, STACK_CFG)
    assert any(f in sides for f, _ in computed)
    twice = [(f.name, n) for (f, _), n in computed.items()
             if f in sides and n > 1]
    assert twice == []
    left = [f.name for f, key in stored if f in sides and key in f._cache]
    assert left == []


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_engine_brackets_and_stacked_roots_are_held_by_no_cache(
        name, monkeypatch):
    """The engine applies S, Q_a and the projectors to brackets it builds
    itself, through ``Endo11.once``, so no memo of the split or the
    connection is keyed by one of those brackets, after the build nor after
    any fold of the run, before the run drops the memo entries it added.
    Each root that ``FieldStack.track`` builds over a cost group is read
    once, in one env, and keeps no entry, and no root that ``report.fold``
    folds, in the build's validations or in the run, keeps one unless it
    is shared."""
    brackets, roots, fold_roots = [], [], []

    def bracket(X, Y, _bracket=covderiv.lie_bracket):
        brackets.append(_bracket(X, Y))
        return brackets[-1]

    def track(stack, tracker, points, members, build,
              _track=FieldStack.track):
        def recorded(Ys):
            out = build(Ys)
            if Ys in stack.groups:
                roots.append(out)
            return out

        return _track(stack, tracker, points, members, recorded)

    def fold(tracker, points, fields, rows, _fold=report.fold):
        fold_roots.extend(fields)
        return _fold(tracker, points, fields, rows)

    envs, reads = {}, collections.Counter()

    def count(field, env):
        envs[id(env)] = env
        reads[field, id(env)] += 1

    monkeypatch.setattr(covderiv, "lie_bracket", bracket)
    monkeypatch.setattr(FieldStack, "track", track)
    monkeypatch.setattr(report, "fold", fold)
    _wrap_at(monkeypatch, count)
    scen = _stack_scenario(name)
    memos, keys = _memos(scen), set()

    def fold_checks(checks, at_once, _fold_checks=geo._fold_checks):
        try:
            return _fold_checks(checks, at_once)
        finally:
            keys.update(k for m in memos for k in m)

    monkeypatch.setattr(geo, "_fold_checks", fold_checks)
    sc.run_scenario_checks(scen, STACK_CFG)
    assert brackets and roots and fold_roots
    assert scen.split.stack.fallbacks == 0
    keyed = [b.name for b in brackets if b in keys]
    assert keyed == []
    read = collections.defaultdict(list)
    for (f, _), n in reads.items():
        read[f].append(n)
    kept = [(r.name, read[r]) for r in roots if r._cache or read[r] != [1]]
    assert kept == []
    kept = [f.name for f in fold_roots if f._cache and not f.shared]
    assert kept == []


def test_once_applies_without_the_memo():
    """``E.once(X)`` has the bits of ``E(X)`` and adds no memo entry; only
    the memo output is shared."""
    d = _fresh_fields()
    E = Endo11.from_terms(d["space"], [(d["w"], d["Y"]), (d["v"], d["Z"])],
                          "E")
    X = lie_bracket(d["X"], d["W"])
    once = E.once(X)
    assert E._memo == {} and not once.shared
    pts = d["space"].sample_points(CheckConfig(samples=3))

    def hexes(field):
        return [[float.hex(c) for c in row] for row in field.values(pts)]

    assert hexes(once) == hexes(E(X))
    assert list(E._memo) == [X] and E(X).shared


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
    """Builds the defect fields, whose check folds them at once."""
    folded(sc._euler_defect(d["space"], [d["f"], d["g"]], 2.0,
                            CheckConfig(samples=2), Check("euler", "", 1.0)))
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
    "ambient-dot-pair": (lambda d: [ambient_dot_metric(d["space"])(
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
    """Each constructor passes the reads its rule makes as ``operands``,
    one entry per read: evaluated once, each rule that ran made the ``at``
    calls of ``collections.Counter(field.operands)``, and each fresh
    operand was read, and listed by the fields that ran, as many times as
    the case says.  A missed operand never changes a value: the walk that
    counts an evaluation's reads misses its read, so it silently keeps an
    entry or is computed again, and only a count can catch it."""
    d = _fresh_fields()
    build, want = _READ_CASES[case]
    reads, rules, ran = collections.Counter(), [], []

    def enter(field, env):
        if rules:
            rules[-1][1][field] += 1
            reads[field] += 1
        rules.append((field, collections.Counter(),
                      env.key not in field._cache))

    def leave(field):
        field, calls, computed = rules.pop()
        if computed:
            ran.append((field, calls))

    _wrap_at(monkeypatch, enter, leave)
    built = build(d)
    if built:
        env = d["space"].seed_env(d["space"].sample_points(
            CheckConfig(samples=2)), max(f.cost for f in built))
        for f in built:
            f.at(env)
    assert {k: reads[d[k]] for k in want} == want
    assert {k: sum(f.operands.count(d[k]) for f, _ in ran)
            for k in want} == want
    wrong = [(f.name, dict(calls)) for f, calls in ran
             if calls != collections.Counter(f.operands)]
    assert wrong == []


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_every_computation_reads_its_operands(name, monkeypatch):
    """Over a build and its checks, each computation of a field makes its
    direct ``at`` calls on other fields exactly on its ``operands``, as a
    multiset: a rule that reads a field it does not list, or lists one it
    does not read, miscounts the reads that decide what is stored."""
    rules, computed, wrong = [], collections.Counter(), []

    def enter(field, env):
        if rules:
            rules[-1][1][field] += 1
        rules.append((field, collections.Counter(),
                      env.key not in field._cache))

    def leave(field):
        field, calls, fresh = rules.pop()
        if fresh:
            computed[type(field).__name__] += 1
            if calls != collections.Counter(field.operands):
                wrong.append((field.name, sorted(f.name for f in calls),
                              sorted(f.name for f in field.operands)))

    _wrap_at(monkeypatch, enter, leave)
    sc.run_scenario_checks(_stack_scenario(name), STACK_CFG)
    assert {"FrameSolver", "ScalarField", "VectorField", "CovectorField"} \
        <= set(computed) and not rules
    assert wrong == []


def test_a_discarded_tree_changes_nothing_its_operands_store():
    """``F = X + Y``, read once by ``G = [F, Z]``, keeps no entry when ``G``
    is evaluated, and still none after two trees over ``F`` were built and
    discarded: what a field stores depends on the evaluation that reads
    it, not on the trees ever built over it."""
    d = _fresh_fields()
    F = vf_add(d["X"], d["Y"])
    G = lie_bracket(F, d["Z"])
    p, q = d["space"].sample_points(CheckConfig(samples=2))
    G.values(p)
    assert len(F._cache) == 0
    for _ in range(2):
        vf_sub(F, F)
    G.values(q)
    assert len(F._cache) == 0


# ---------------------------------------------------------------------------
# one point set per field
# ---------------------------------------------------------------------------


def _fresh_points(scen, cfg, count) -> list:
    """``count`` points of the scenario's space that its build did not
    evaluate: the seeded draw continued past the build's samples."""
    return scen.space.sample_points(CheckConfig(
        seed=cfg.seed, samples=cfg.samples + count))[cfg.samples:]


def _answer(scen, row, p):
    """An ``eval`` query: the row's op field, its components at ``p``,
    then its frame coefficients there."""
    out = op_field(scen.conn, scen.nabla, row.op, scen.fields[row.args[0]],
                   scen.fields[row.args[1]])
    return out, out.values(p), scen.coefficients(out, p)


def _hexes(comps, coeffs):
    return ([float.hex(c) for c in comps],
            {k: float.hex(c) for k, c in coeffs.items()})


def test_eval_sessions_hold_one_point_set_per_field():
    """A session that answers every expected-table row of the built-ins at
    a fresh point, sweep after sweep, holds as many live cache entries after
    its third sweep as after its first: each field keeps only the last
    point set it was evaluated over.  A query answered again at a point
    whose entries are gone gives the same bits."""
    cfg, sweeps = CheckConfig(), 3
    scens = [sc.build_scenario(n, cfg) for n in sorted(sc.BUILTIN_BUILDERS)]
    streams = [iter(_fresh_points(s, cfg, sweeps * len(s.expected)))
               for s in scens]
    first, counts = [], []
    for sweep in range(sweeps):
        for scen, stream in zip(scens, streams):
            for row in scen.expected:
                p = next(stream)
                _, comps, coeffs = _answer(scen, row, p)
                if sweep == 0 and row is scen.expected[0]:
                    first.append((scen, row, p, _hexes(comps, coeffs)))
        gc.collect()
        fields = [o for o in gc.get_objects() if isinstance(o, _Field)]
        counts.append(sum(len(f._cache) for f in fields))
        mixed = [f.name for f in fields
                 if len({key[0] for key in f._cache}) > 1]
        assert mixed == []
    assert counts[-1] == counts[0]
    for scen, row, p, want in first:
        _, comps, coeffs = _answer(scen, row, p)
        assert _hexes(comps, coeffs) == want, (scen.name, row.args)


def _point_set(space, cfg):
    return PointSetKey(p.values for p in space.sample_points(cfg))


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_verify_recomputes_only_what_the_probe_displaced(name, monkeypatch):
    """At the default config (frame3 at 10 samples), a build and its checks
    evaluate one point set, the sample set: the build's own checks
    (``glue_derivatives``, ``assert_in_image``) draw no probe set of their
    own, so no evaluation displaces another's entries and no (field,
    ``env.key``) pair is computed twice."""
    held, computed, sets = {}, collections.Counter(), set()

    def count(field, env):
        if env.key not in field._cache:
            held[id(field)] = field
            computed[id(field), env.key] += 1
            sets.add(env.points)

    cfg = CheckConfig(samples=10) if name == "frame3" else CheckConfig()
    _wrap_at(monkeypatch, count)
    scen = _stack_scenario(name, cfg)
    sc.run_scenario_checks(scen, cfg)
    assert sets == {_point_set(scen.space, cfg)}
    twice = [(held[i].name, n) for (i, _), n in computed.items() if n > 1]
    assert twice == []


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS))
def test_eval_query_reads_its_point_twice_and_the_solver_keeps_one(
        name, monkeypatch):
    """``Scenario.coefficients(out, p)`` after ``out.values(p)`` recomputes
    nothing of the query: a row whose field reads the frame solve (every
    op but a bracket) computes nothing more, and a bracket computes only
    the solve and the frame fields it reads.  After queries at two points,
    the solver's ``_cache`` is still the one dict it first stored in,
    holding the second point's entries alone."""
    computed = []

    def count(field, env):
        if env.key not in field._cache:
            computed.append(field)

    _wrap_at(monkeypatch, count)
    cfg = CheckConfig()
    scen = sc.build_scenario(name, cfg)
    solver = scen.solver
    allowed = {solver, *solver.fields}
    points = _fresh_points(scen, cfg, len(scen.expected))
    for row, p in zip(scen.expected, points):
        out = op_field(scen.conn, scen.nabla, row.op,
                       scen.fields[row.args[0]], scen.fields[row.args[1]])
        out.values(p)
        del computed[:]
        scen.coefficients(out, p)
        if row.op == "bracket":
            assert out not in computed and set(computed) <= allowed
        else:
            assert computed == [], (row.op, row.args)
    row = next(r for r in scen.expected if r.op == "nabla")
    _answer(scen, row, points[0])
    cache = solver._cache
    _answer(scen, row, points[1])
    assert solver._cache is cache
    assert solver._cache
    assert {key[0] for key in solver._cache} == {
        PointSetKey([points[1].values])}


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS))
def test_every_eval_computation_reads_its_operands(name, monkeypatch):
    """An eval query for every expected row, ``out.values(p)`` and then
    ``scen.coefficients(out, p)`` at a fresh point: each computation of a
    field makes its direct ``at`` calls on other fields exactly on its
    ``operands``, as a multiset, and the frame solve is read only from
    inside ``FrameSolver.inverse``, the hook a profiler wraps."""
    scen = sc.build_scenario(name, STACK_CFG)
    frames, wrong, outside = [], [], []   # None: inside ``inverse``
    computed = collections.Counter()

    def enter(field, env):
        if field.name == "frame solve" and frames[-1:] != [None]:
            outside.append(frames[-1][0].name if frames else "a query")
        reader = next((f for f in reversed(frames) if f is not None), None)
        if reader is not None:
            reader[1][field] += 1
        frames.append((field, collections.Counter(),
                       env.key not in field._cache))

    def leave(field):
        field, calls, fresh = frames.pop()
        if fresh:
            computed[field.name == "frame solve"] += 1
            if calls != collections.Counter(field.operands):
                wrong.append((field.name, sorted(f.name for f in calls),
                              sorted(f.name for f in field.operands)))

    def inverse(solver, env, _inverse=FrameSolver.inverse):
        frames.append(None)
        try:
            return _inverse(solver, env)
        finally:
            frames.pop()

    _wrap_at(monkeypatch, enter, leave)
    monkeypatch.setattr(FrameSolver, "inverse", inverse)
    points = _fresh_points(scen, STACK_CFG, len(scen.expected))
    for row, p in zip(scen.expected, points):
        _answer(scen, row, p)
    assert computed[True] and computed[False] and not frames
    assert wrong == []
    assert outside == []


# ---------------------------------------------------------------------------
# a verification plans its folds and frees each entry at its last read
# ---------------------------------------------------------------------------


def _nbytes(hit) -> int:
    return np.asarray(getattr(hit, "a", hit)).nbytes


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_a_run_frees_what_it_stores(name, monkeypatch):
    """When ``run_scenario_checks`` returns, no entry that the run itself
    stored is left; on frame3 at 10 samples, the live bytes of those
    entries peak at no more than half of all the bytes the run stores."""
    cfg = CheckConfig(samples=10) if name == "frame3" else CheckConfig()
    scen = _stack_scenario(name, cfg)
    envs, stored = [], {}     # id(cache) -> (cache, {key: bytes})
    tally = {"live": 0, "peak": 0, "total": 0}

    def before(field, env):
        envs.append((env.key, env.key in field._cache))

    def after(field):
        key, had = envs.pop()
        cache = field._cache
        mine = stored.setdefault(id(cache), (cache, {}))[1]
        for k in [k for k in mine if k not in cache]:
            tally["live"] -= mine.pop(k)
        if not had and key in cache and key not in mine:
            mine[key] = _nbytes(cache[key])
            tally["live"] += mine[key]
            tally["total"] += mine[key]
            tally["peak"] = max(tally["peak"], tally["live"])

    _wrap_at(monkeypatch, before, after)
    sc.run_scenario_checks(scen, cfg)
    assert tally["total"]
    left = [k for cache, mine in stored.values() for k in mine if k in cache]
    assert left == []
    if name == "frame3":
        assert tally["peak"] <= tally["total"] / 2, tally


def _memo_sizes(scen) -> list:
    return [len(scen.nabla._memo)] + [len(m) for m in _memos(scen)]


def _live_fields() -> int:
    gc.collect()
    return sum(isinstance(o, _Field) for o in gc.get_objects())


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_a_verification_leaves_its_build_as_it_found_it(name):
    """A run drops the memo entries it adds: after each of three
    verifications of one build, ``nabla`` and every ``Endo11`` of the split
    and the connection hold as many entries as right after the build, and
    the third leaves as many live fields as the first."""
    scen = _stack_scenario(name)
    built, live = _memo_sizes(scen), []
    for _ in range(3):
        sc.run_scenario_checks(scen, STACK_CFG)
        assert _memo_sizes(scen) == built
        live.append(_live_fields())
    assert live[2] == live[0], live


_FAMILIES = (sc.expected_table_checks, sc.axiom_suite_checks,
             sc.split_identity_checks, sc.torsion_curvature_checks,
             sc.torsion_property_checks, sc.parallel_tensor_checks,
             sc.parallelism_equivalence_checks)


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_a_family_called_directly_leaves_every_memo_as_built(name):
    """Each check family and extra check, called on its own, builds its
    checks inside the run it opens, so the run drops the memo entries the
    construction adds: every ``Endo11`` and ``CovDeriv`` memo alive after
    the build holds as many entries after all the calls, and no memo
    created by them keeps one."""
    scen = _stack_scenario(name)

    def memos():
        gc.collect()
        return [o._memo for o in gc.get_objects()
                if isinstance(o, (Endo11, CovDeriv))]

    held = memos()
    built = [len(m) for m in held]
    for fam in _FAMILIES:
        fam(scen, STACK_CFG)
    for extra in scen.extra_checks:
        extra(STACK_CFG)
    assert [len(m) for m in held] == built
    assert sum(map(len, memos())) == sum(built)


# sode-tangent builds its horizontal frame fields as P_H(d/dx^a) through
# the memo of its induced projector, which the connection does not hold;
# P_H applies its parts through ``once``, so their memos add nothing
_FRAME_MEMO_ENTRIES = {"sode-tangent": 2}


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_a_build_folds_its_validations_on_the_member_axis(name, monkeypatch):
    """The projector identities, the split identities and the projector sum
    of the glue each fold one root per cost group of a stack of their own:
    the only roots that ``report.fold`` receives in a build are Hopf's
    tangency roots, one per frame field; no stack of the build falls back
    to its per-member loop; and the build adds no ``Endo11`` memo entry,
    but for sode-tangent's frame fields."""
    fold_roots, stacks, added = [], [], {}

    def fold(tracker, points, fields, rows, _fold=report.fold):
        fold_roots.extend(fields)
        return _fold(tracker, points, fields, rows)

    def init(stack, fields, _init=FieldStack.__init__):
        stacks.append(stack)
        _init(stack, fields)

    def call(endo, X, _call=Endo11.__call__):
        out = _call(endo, X)
        if X in endo._memo:
            added[id(endo), id(X)] = endo, X
        return out

    monkeypatch.setattr(report, "fold", fold)
    monkeypatch.setattr(FieldStack, "__init__", init)
    monkeypatch.setattr(Endo11, "__call__", call)
    scen = _stack_scenario(name)
    tangency = [f"{f.name}({ex.to_string(c)})" for f in scen.conn.all_fields
                for c in scen.space.constraints]
    assert [f.name for f in fold_roots] == tangency
    assert len(tangency) == (3 if name == "hopf" else 0)
    assert len(stacks) == 3 and all(s.fallbacks == 0 for s in stacks)
    assert [m for m in _memos(scen) if m] == []
    assert len(added) == _FRAME_MEMO_ENTRIES.get(name, 0)


def _report_json(scen) -> str:
    echo = {"scenario": scen.name, "seed": STACK_CFG.seed,
            "samples": STACK_CFG.samples, "tolerance": STACK_CFG.tolerance,
            "depth": STACK_CFG.depth}
    return Report(echo, sc.run_scenario_checks(scen, STACK_CFG)).to_json()


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_repeated_verification_is_byte_identical(name):
    """Two consecutive verifications of one build, and one of a fresh
    build, give the same report JSON."""
    scen = _stack_scenario(name)
    first = _report_json(scen)
    assert _report_json(scen) == first
    assert _report_json(_stack_scenario(name)) == first


def _poison(field, target, slot: bool):
    """Make ``field``'s first component NaN at the point ``target``: its
    value, or with ``slot`` its first first-order slot, where it has one."""
    fn = field._fn

    def poisoned(env, *values):
        comps = geo._comps_as_depth(fn(env, *values), env.depth - field.cost,
                                    env)
        if target not in env.points or slot and not comps.depth:
            return comps
        a = comps.a.copy()
        at = (0, env.points.index(target))
        if slot:
            at += (1,) + (0,) * (comps.depth - 1)
        a[at] = math.nan
        return comps._new(a)

    field._fn = poisoned


@pytest.mark.parametrize("slot", [False, True], ids=["value", "slot"])
@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_a_nan_frame_component_at_one_point_never_passes(name, slot):
    """A NaN in one component of a frame field at one sample point ends as
    a ``GeometryError`` that names the point (``verify`` exits 2) or as a
    failing record whose worst point is that point, never as a pass: no
    record with a NaN deviation passes, and every failing record with a
    NaN deviation names a point.  The run draws points the build did not
    evaluate."""
    scen = _stack_scenario(name)
    cfg = CheckConfig(seed=11, samples=3)
    target = scen.space.sample_points(cfg)[1].values
    _poison(scen.frame_fields()[0], target, slot)
    try:
        records = sc.run_scenario_checks(scen, cfg)
    except GeometryError as err:
        assert str(target) in str(err)
        return
    assert any(not r.passed and r.worst_point == target for r in records)
    assert not [r.check_id for r in records
                if r.passed and not r.max_dev == r.max_dev]
    assert not [r.check_id for r in records
                if not r.max_dev == r.max_dev and r.worst_point is None]


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_a_nan_that_only_a_zero_operand_meets_never_passes(name,
                                                           monkeypatch):
    """The zero rule of the kernels skips the products of an all-zero
    operand at depth 0.  Here every such call gets a NaN at one sample
    point in a component of its other operand, which the products would
    have multiplied by a zero: the run still ends as a failing record
    whose worst point is that point, or as a ``GeometryError`` that names
    it (``verify`` exits 2), as a NaN frame component does."""
    scen = _stack_scenario(name)
    cfg = CheckConfig(seed=11, samples=3)
    target = scen.space.sample_points(cfg)[1].values
    contract, bracket = geo._contract, geo._bracket_fold
    poisoned = collections.Counter()

    def nan_at_target(a, at):
        a = a.copy()
        a[at] = math.nan
        return a

    def contract_(rows, xs):
        if not xs.depth and not xs.a.any() and rows.shape[2] == 3:
            poisoned["contract"] += 1
            rows = nan_at_target(rows, (0, 0, 1))
        return contract(rows, xs)

    def bracket_(xs, ys, t):
        if not t and xs.a.shape[-1 - xs.depth] == 3:
            zero = [not jets.truncate(s, 1).a.any() for s in (xs, ys)]
            if any(zero):
                poisoned["bracket"] += 1
                other = ys if zero[0] else xs
                other = other._new(nan_at_target(
                    other.a, (Ellipsis, 0, 1) + (0,) * other.depth))
                xs, ys = (xs, other) if zero[0] else (other, ys)
        return bracket(xs, ys, t)

    monkeypatch.setattr(geo, "_contract", contract_)
    monkeypatch.setattr(geo, "_bracket_fold", bracket_)
    try:
        records = sc.run_scenario_checks(scen, cfg)
    except GeometryError as err:
        assert str(target) in str(err)
        assert poisoned
        return
    assert poisoned
    assert any(not r.passed and r.worst_point == target for r in records)
    assert not [r.check_id for r in records
                if r.passed and not r.max_dev == r.max_dev]


def test_the_zero_rule_skips_a_third_of_the_frame3_folds(monkeypatch):
    """A frame3 verification (seed 42, 10 samples) calls
    ``jets.fold_products`` 2,505 times without the zero rule of
    ``_contract`` and ``_bracket_fold``, and 1,539 times with it."""
    cfg = CheckConfig(seed=42, samples=10)
    scen = _stack_scenario("frame3", cfg)
    fold, calls = jets.fold_products, []

    def counted(*args):
        calls.append(1)
        return fold(*args)

    monkeypatch.setattr(jets, "fold_products", counted)
    assert all(r.passed for r in sc.run_scenario_checks(scen, cfg))
    assert 0 < len(calls) <= 1700, len(calls)


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_each_check_on_its_own_gives_the_records_of_the_plan(name):
    """The families, then the extra checks, each called on its own (each
    folds at once), give the records that ``run_scenario_checks`` (one
    plan) gives, on fresh builds."""
    families = (sc.expected_table_checks, sc.axiom_suite_checks,
                sc.split_identity_checks, sc.torsion_curvature_checks,
                sc.torsion_property_checks, sc.parallel_tensor_checks,
                sc.parallelism_equivalence_checks)
    scen = _stack_scenario(name)
    alone = [r for fam in families for r in fam(scen, STACK_CFG)]
    alone += [r for extra in scen.extra_checks for r in extra(STACK_CFG)]
    planned = sc.run_scenario_checks(_stack_scenario(name), STACK_CFG)
    assert [r.as_dict() for r in alone] == [r.as_dict() for r in planned]


def test_an_error_while_collecting_comes_after_the_folds_before_it():
    """The sufficiency check of sode-tangent folds its two conditions at
    once, while the plan collects; at depth 1 that evaluation raises, but
    the expected table, registered before it, raises first, as checks run
    in order do."""
    cfg = CheckConfig(samples=4, depth=1)
    want = raised(lambda: sc.expected_table_checks(
        sc.build_scenario("sode-tangent", cfg), cfg))
    assert want == (DepthBudgetError, str(DepthBudgetError("∇_V1(V1)", 2, 1)))
    assert raised(lambda: sc.run_scenario_checks(
        sc.build_scenario("sode-tangent", cfg), cfg)) == want


_FAMILIES = (sc.expected_table_checks, sc.axiom_suite_checks,
             sc.split_identity_checks, sc.torsion_curvature_checks,
             sc.torsion_property_checks, sc.parallel_tensor_checks,
             sc.parallelism_equivalence_checks)


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_collecting_evaluates_nothing_but_the_staged_first_stages(
        name, monkeypatch):
    """Building the checks of every family and extra check calls no
    field's ``at``, except inside the staged first stages, which fold at
    once (``run_checks(..., at_once=True)``): the image selection of the
    parallelism check and the two conditions of
    ``sode_sufficiency_check``."""
    want = len(sc.run_scenario_checks(_stack_scenario(name), STACK_CFG))
    scen = _stack_scenario(name)
    staged, outside = [], []

    def staged_run(checks, at_once=False, _run=geo.run_checks):
        assert at_once
        staged.append(True)
        try:
            return _run(checks, at_once)
        finally:
            staged.pop()

    monkeypatch.setattr(covderiv, "run_checks", staged_run)
    monkeypatch.setattr(sc, "run_checks", staged_run)
    _wrap_at(monkeypatch, lambda field, env: staged or outside.append(
        field.name))
    checks = [c for fam in _FAMILIES for c in fam.checks(scen, STACK_CFG)]
    checks += [c for extra in scen.extra_checks
               for c in extra.checks(STACK_CFG)]
    assert len(checks) == want
    assert outside == []


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_every_env_of_a_verification_is_seeded_by_the_runner(
        name, monkeypatch):
    """A verification seeds one env per (point set, depth) of its run and
    of each staged first stage, and none per oracle or per probe: at most
    10 on each built-in at the defaults and on frame3 at seed 4721 and 10
    samples (11 to 82, and 158, when the oracles and the image selection
    seeded their own).  Its build reads the frame in one stacked
    evaluation and folds each validation at once, one env per (point set,
    depth): at most 4 on frame3 (61 when every root seeded its own) and on
    each built-in (16 to 31), but 5 on Hopf, whose tangency checks of all
    frame fields fold in one run of their own (7 when each field folded
    alone)."""
    cfg = CheckConfig(seed=4721, samples=10) if name == "frame3" \
        else CheckConfig()
    seeded = []
    original = geo.ChartedSpace.seed_env

    def spy(self, *args, **kwargs):
        seeded.append(args[1])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(geo.ChartedSpace, "seed_env", spy)
    scen = _stack_scenario(name, cfg)
    assert 0 < len(seeded) <= (5 if name == "hopf" else 4), seeded
    del seeded[:]
    sc.run_scenario_checks(scen, cfg)
    assert 0 < len(seeded) <= 10, seeded


@pytest.mark.parametrize("name", sorted(sc.BUILTIN_BUILDERS) + ["frame3"])
def test_every_fold_runs_under_the_runner(name, monkeypatch):
    """One fold path: over a build and its verification, and the spray and
    homogeneity predicates of sode-tangent, every call of ``report.fold``
    runs under ``geometry._fold_checks``."""
    depth, calls = [0], []

    def fold_checks(checks, at_once, _fold_checks=geo._fold_checks):
        depth[0] += 1
        try:
            return _fold_checks(checks, at_once)
        finally:
            depth[0] -= 1

    def fold(tracker, points, roots, rows, _fold=report.fold):
        calls.append(depth[0])
        return _fold(tracker, points, roots, rows)

    monkeypatch.setattr(geo, "_fold_checks", fold_checks)
    monkeypatch.setattr(report, "fold", fold)
    cfg = CheckConfig(seed=4721, samples=10) if name == "frame3" \
        else CheckConfig()
    scen = _stack_scenario(name, cfg)
    sc.run_scenario_checks(scen, cfg)
    if name == "sode-tangent":
        assert is_spray(scen.fields["Gamma"], sc.DEFAULT_SODE_FORCES, cfg)
        assert homogeneity_check(scen.space, scen.data["gamma_sf"], cfg)
    assert calls
    assert calls.count(0) == 0, f"{calls.count(0)} of {len(calls)} folds"
