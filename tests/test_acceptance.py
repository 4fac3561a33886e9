"""Acceptance gate: one test per criterion, pinned tolerances, one printed
pass/fail line each.  Default configuration throughout: 20 sample points,
seed 42, tolerance 1e-8, derivative depth 3."""

from __future__ import annotations

import random

from ehresmann import expr as ex
from ehresmann import scenarios as sc
from ehresmann.covderiv import (
    check_parallelism_equivalence, glue_derivatives, torsion,
)
from ehresmann.geometry import CheckConfig, DEFAULT_CHECK, FieldStack, vf_add
from ehresmann.jets import JetConfig, extract, seed
from ehresmann.scenarios import (
    affine_tangent, cycle_decomposition, frame_bundle, is_spray,
    nonlinear_tangent, potential_connection, sode_projector,
    sode_sufficiency_check,
)

from helpers import central_difference, random_expression, rel_err
from test_jets import HAND_CASES

TOL = DEFAULT_CHECK.tolerance


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def worst(records) -> float:
    return max((r.max_dev for r in records), default=0.0)


def test_criterion_01_trivial_bundle_components(built):
    scen = built("trivial-r3")
    recs = sc.expected_table_checks(scen, DEFAULT_CHECK)
    assert len(recs) == 9
    nonzero = {"trivial-r3:nabla[H1,H1]", "trivial-r3:nabla[H2,H2]",
               "trivial-r3:nabla[H1,V]", "trivial-r3:nabla[H2,V]"}
    assert nonzero <= {r.check_id for r in recs}
    ok = all(r.passed for r in recs)
    report(1, "trivial-bundle-component-table", ok,
           f"max dev {worst(recs):.2e}, tol {TOL:.0e}, "
           f"4 nonzero + 5 vanishing families")


def test_criterion_02_hopf(built):
    scen = built("hopf")
    table = sc.expected_table_checks(scen, DEFAULT_CHECK)
    brackets = [r for r in table if "bracket" in r.check_id]
    zeros = [r for r in table if "nabla" in r.check_id]
    assert len(brackets) == 3 and len(zeros) == 9
    extras = [r for extra in scen.extra_checks for r in extra(DEFAULT_CHECK)]
    by_id = {r.check_id: r for r in extras}
    proj = by_id["hopf:projection-verticality"]
    tors = by_id["hopf:symmetrized-torsion"]
    lc = by_id["hopf:levi-civita-compatibility"]
    ok = (all(r.passed and r.max_dev < 1e-10 for r in brackets)
          and all(r.passed for r in zeros)
          and proj.passed and proj.max_dev < 1e-9
          and tors.passed and lc.passed)
    report(2, "hopf-bundle", ok,
           f"brackets {worst(brackets):.2e} (tol 1e-10), frame derivative "
           f"{worst(zeros):.2e}, torsion-free {tors.max_dev:.2e}, "
           f"metric defect {lc.max_dev:.2e}, projection {proj.max_dev:.2e}")


def _random_affine_gamma(rng) -> dict:
    gamma = {}
    for c in (1, 2):
        for a in (1, 2):
            for b in (1, 2):
                roll = rng.random()
                if roll < 0.3:
                    continue
                coef = rng.randint(1, 3)
                base = rng.choice(["x1", "x2", "1"])
                gamma[(c, a, b)] = f"{coef}*{base}" if base != "1" \
                    else f"{coef}"
    return gamma


def test_criterion_03_affine_tangent():
    rng = random.Random(420)
    devs = []
    ok = True
    for trial in range(3):
        gamma = _random_affine_gamma(rng)
        scen = affine_tangent(2, gamma, DEFAULT_CHECK,
                              name=f"affine-r{trial}")
        recs = sc.expected_table_checks(scen, DEFAULT_CHECK)
        recs += sc.torsion_curvature_checks(scen, DEFAULT_CHECK)
        ok = ok and all(r.passed for r in recs)
        devs.append(worst(recs))
    report(3, "affine-tangent-three-random-inputs", ok,
           f"families+torsion+curvature oracle, max dev {max(devs):.2e}, "
           f"tol {TOL:.0e}")


def test_criterion_04_nonlinear_tangent():
    # families for the shipped coefficients
    scen = nonlinear_tangent(2, sc.DEFAULT_NONLINEAR_GAMMA, DEFAULT_CHECK,
                             name="nonlinear-acc")
    recs = sc.expected_table_checks(scen, DEFAULT_CHECK)
    families_ok = all(r.passed for r in recs)

    # potential-derived coefficients kill the horizontal torsion
    pot_devs = []
    for forces in (["u1^3", "u1*u2^2"], ["-(u1^2)-u1*u2", "u2^2"]):
        gamma = potential_connection(2, forces)
        pscen = nonlinear_tangent(2, gamma, DEFAULT_CHECK,
                                  name=f"potential-{len(pot_devs)}")
        h1, h2 = pscen.fields["H1"], pscen.fields["H2"]
        ph_t = pscen.conn.p_h(torsion(pscen.nabla, h1, h2))
        dev = max(max(abs(c) for c in ph_t.values(p))
                  for p in pscen.space.sample_points(DEFAULT_CHECK))
        pot_devs.append(dev)

    # a generic non-potential input keeps it visibly nonzero
    gscen = nonlinear_tangent(2, {(1, 2): "u1"}, DEFAULT_CHECK,
                              name="generic-acc")
    gh_t = gscen.conn.p_h(torsion(gscen.nabla, gscen.fields["H1"],
                                  gscen.fields["H2"]))
    generic_dev = max(max(abs(c) for c in gh_t.values(p))
                      for p in gscen.space.sample_points(DEFAULT_CHECK))

    ok = (families_ok and max(pot_devs) < TOL and generic_dev > 1e-3)
    report(4, "nonlinear-tangent", ok,
           f"families {worst(recs):.2e}, potential torsion "
           f"{max(pot_devs):.2e} < {TOL:.0e}, generic torsion "
           f"{generic_dev:.2e} > 1e-3")


def test_criterion_05_sode():
    rng = random.Random(777)
    coeff_dev = 0.0
    for trial in range(3):
        # random polynomial forces (not necessarily sprays)
        terms1 = f"{rng.randint(1, 3)}*u1^2 - {rng.randint(1, 2)}*u2^3"
        terms2 = f"x{rng.randint(1, 2)}*u1*u2 + {rng.randint(1, 2)}*u1"
        gamma_field, p_h, scen = sode_projector(
            2, [terms1, terms2], CheckConfig(samples=10),
            name=f"sode-r{trial}")
        extras = [r for extra in scen.extra_checks[:1]
                  for r in extra(CheckConfig(samples=10))]
        coeff_rec = next(r for r in extras
                         if "projector-coefficients" in r.check_id)
        assert coeff_rec.threshold == 1e-10
        coeff_dev = max(coeff_dev, coeff_rec.max_dev)
        if not coeff_rec.passed:
            report(5, "sode-connection", False, "coefficient mismatch")

    # spray predicate: quadratic force yes, linear control no
    q = sode_projector(1, ["u1^2"], CheckConfig(samples=8), name="sp-q")
    spray_true = is_spray(q[2].fields["Gamma"], ["u1^2"],
                          CheckConfig(samples=8))
    l = sode_projector(1, ["u1"], CheckConfig(samples=8), name="sp-l")
    spray_false = is_spray(l[2].fields["Gamma"], ["u1"],
                           CheckConfig(samples=8))

    # sufficiency on a homogeneous symmetric instance
    gamma = potential_connection(2, ["-(u1^2)-u1*u2", "x1*u1^2-u2^2"])
    pscen = nonlinear_tangent(2, gamma, DEFAULT_CHECK, name="suff-acc")
    suff = {r.check_id.rsplit(":", 1)[1]: r
            for r in sode_sufficiency_check(pscen, DEFAULT_CHECK)}
    rebuilt = suff["reconstruction"]

    ok = (coeff_dev < 1e-10 and spray_true and not spray_false
          and suff["dilation-parallel"].passed
          and suff["horizontal-torsion"].passed and rebuilt.max_dev < TOL
          and suff["reconstructed-spray"].passed)
    report(5, "sode-connection", ok,
           f"coefficients {coeff_dev:.2e} < 1e-10, spray predicate "
           f"{spray_true}/{not spray_false}, reconstruction "
           f"{rebuilt.max_dev:.2e}")


def test_criterion_06_frame_bundle():
    # exact decomposition checks for n = 2 and 3 (constructors raise on
    # any failed invariance/dimension/span property)
    for n, cycle in ((2, (1, 0)), (3, (1, 2, 0)), (3, (2, 0, 1))):
        basis = cycle_decomposition(n, cycle)
        assert len(basis.bases) == n
        for k in range(n):
            for mat in basis.bases[k]:
                for i in range(n):
                    for j in range(n):
                        assert (mat[i][j] == 0) or (j == k)

    # flipped construction reproduces the printed families, n = 2
    scen = frame_bundle(2, (1, 0), sc.DEFAULT_FRAME_GAMMA, DEFAULT_CHECK,
                        name="fb-acc")
    recs = sc.expected_table_checks(scen, DEFAULT_CHECK)
    table_ok = all(r.passed for r in recs)

    # two distinct 3-cycles produce identical frame components
    cfg3 = CheckConfig(samples=4)
    s_a = frame_bundle(3, (1, 2, 0), {(1, 1, 2): "x1", (2, 3, 1): "x3"},
                       cfg3, name="fb3-a")
    s_b = frame_bundle(3, (2, 0, 1), {(1, 1, 2): "x1", (2, 3, 1): "x3"},
                       cfg3, name="fb3-b")
    pairs = [(f"H{a}", f"H{b}") for a in (1, 2, 3) for b in (1, 2, 3)]
    pairs += [(f"H{a}", f"V{A}_{b}") for a in (1, 2)
              for A in (1, 2, 3) for b in (1, 2)]
    pairs += [(f"V{A}_1", f"H{1}") for A in (1, 2, 3)]
    pairs += [("V1_1", "V2_2"), ("V3_1", "V3_2")]
    meta_dev = 0.0
    for xn, yn in pairs:
        fa = s_a.nabla(s_a.fields[xn], s_a.fields[yn])
        fb = s_b.nabla(s_b.fields[xn], s_b.fields[yn])
        for pa, pb in zip(s_a.space.sample_points(cfg3),
                          s_b.space.sample_points(cfg3)):
            va, vb = fa.values(pa), fb.values(pb)
            meta_dev = max(meta_dev,
                           max(abs(x - y) for x, y in zip(va, vb)))

    ok = table_ok and meta_dev < 1e-10
    report(6, "frame-bundle", ok,
           f"decomposition exact for n=2,3; families {worst(recs):.2e}; "
           f"cycle metamorphic {meta_dev:.2e} < 1e-10")


ALL_SCENARIOS = ("trivial-r3", "hopf", "affine-tangent",
                 "nonlinear-tangent", "sode-tangent", "frame-bundle")


def test_criterion_07_axiom_suite(built):
    devs = {}
    ok = True
    for name in ALL_SCENARIOS:
        scen = built(name)
        recs = sc.axiom_suite_checks(scen, DEFAULT_CHECK)
        ok = ok and all(r.passed for r in recs)
        devs[name] = worst(recs)
    report(7, "covariant-derivative-axioms-all-scenarios", ok,
           "max dev " + ", ".join(f"{k}={v:.1e}" for k, v in devs.items()))


def test_criterion_08_projector_equivalence(built):
    ok = True
    for name in ALL_SCENARIOS:
        scen = built(name)
        recs = sc.parallelism_equivalence_checks(scen, DEFAULT_CHECK)
        ok = ok and all(r.passed for r in recs)

    # negative control: a corrupted block rule fails both sides together
    scen = built("affine-tangent")
    leak = scen.fields["V1"]
    b = 1
    p_b, ext_b = scen.nabla.parts[b]

    def corrupted(X, Y, _orig=ext_b):
        return vf_add(_orig(X, Y), leak)

    parts = list(scen.nabla.parts)
    parts[b] = (p_b, corrupted)
    bad = glue_derivatives(parts, DEFAULT_CHECK,
                    probe_fields=scen.split.all_fields,
                    provenance="corrupted")
    nabla_p, image, agree = check_parallelism_equivalence(
        bad, b, FieldStack(scen.split.all_fields), DEFAULT_CHECK)
    control_ok = (not nabla_p.passed) and (not image.passed) \
        and agree.passed
    report(8, "projector-parallelism-equivalence", ok and control_ok,
           f"all scenarios pass; corrupted control fails both sides "
           f"(devs {nabla_p.max_dev:.2e}/{image.max_dev:.2e})")


def test_criterion_09_parallel_structure_tensors(built):
    ok = True
    detail = []
    for name in ALL_SCENARIOS:
        scen = built(name)
        recs = sc.parallel_tensor_checks(scen, DEFAULT_CHECK)
        ok = ok and all(r.passed for r in recs)
        kind = "S,Q" if scen.construction == "equal-rank" else "projectors"
        detail.append(f"{name}({kind})={worst(recs):.1e}")
    report(9, "parallel-structure-tensors", ok, ", ".join(detail))


def test_criterion_10_ad_kernel():
    # ten hand-differentiated functions through order 3, relative 1e-12
    hand_worst = 0.0
    for name, fn, point, expected in HAND_CASES:
        names = tuple("xyz"[: len(point)])
        env = seed(JetConfig(names, 3), point)
        result = fn(env)
        for orders, want in expected.items():
            hand_worst = max(hand_worst,
                             rel_err(extract(result, orders), want))

    # finite-difference cross-check, relative 1e-5
    fd_worst = 0.0
    rng = random.Random(4242)
    checked = 0
    while checked < 12:
        nvars = rng.randint(1, 4)
        names = tuple(f"v{i}" for i in range(nvars))
        e = random_expression(rng, names, max_depth=3)
        point = [rng.uniform(-0.8, 0.8) for _ in range(nvars)]
        env = dict(zip(names, seed(JetConfig(names, 3), point)))
        try:
            val = ex.evaluate(e, env)
        except ex.EvalError:
            continue
        except Exception:
            continue
        orders = [0] * nvars
        total = rng.randint(1, 3)
        for _ in range(total):
            orders[rng.randrange(nvars)] += 1
        h = {1: 1e-5, 2: 1e-4, 3: 1e-3}[total]

        def plain(p, e=e, names=names):
            return ex.evaluate(e, dict(zip(names, p)))

        want = central_difference(plain, point, tuple(orders), h=h)
        fd_worst = max(fd_worst, rel_err(extract(val, tuple(orders)), want))
        checked += 1

    ok = hand_worst < 1e-12 and fd_worst < 1e-5
    report(10, "ad-kernel", ok,
           f"hand library rel {hand_worst:.2e} < 1e-12, finite differences "
           f"rel {fd_worst:.2e} < 1e-5")
