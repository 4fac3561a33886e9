"""Tests for the command-line front end and scenario files."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ehresmann import cli
from ehresmann import scenarios as sc
from ehresmann.cli import (
    ScenarioFileError, cmd_eval, cmd_list, cmd_verify,
    load_scenario_file, main,
)
from ehresmann.geometry import CheckConfig

CFG = CheckConfig(samples=6)


TRIVIAL_DOC = {
    "name": "trivial-r3",
    "space": {"coords": ["x", "y", "th"], "base": ["x", "y"]},
    "fields": {
        "H1": ["1", "0", "cos(th)"],
        "H2": ["0", "1", "sin(th)"],
        "V": ["0", "0", "1"],
    },
    "split": {"k": ["V"], "blocks": [["H1"], ["H2"]],
              "orientation": "k-vertical"},
    "expected": [
        {"op": "nabla", "args": [xn, yn],
         "coeffs": ({("H1", "H1"): {"H1": "sin(th)"},
                     ("H2", "H2"): {"H2": "-cos(th)"},
                     ("H1", "V"): {"V": "sin(th)"},
                     ("H2", "V"): {"V": "-cos(th)"}}
                    .get((xn, yn), {})),
         "ref": "trivial bundle: component table"}
        for xn in ("H1", "H2", "V") for yn in ("H1", "H2", "V")
    ],
}


HOPF_DOC = {
    "name": "hopf",
    "space": {"coords": ["x", "y", "z", "w"],
              "constraints": ["x^2+y^2+z^2+w^2-1"], "sphere": True},
    "fields": {
        "Lambda": ["z", "w", "-x", "-y"],
        "Sigma": ["w", "-z", "y", "-x"],
        "V": ["y", "-x", "-w", "z"],
    },
    "split": {"k": ["V"], "blocks": [["Lambda"], ["Sigma"]]},
    "metric": "ambient-dot",
    "expected": [
        {"op": "nabla", "args": ["Lambda", "Sigma"], "coeffs": {}},
        {"op": "bracket", "args": ["Sigma", "Lambda"], "coeffs": {"V": 2.0},
         "ref": "Hopf bracket table", "tol": 1e-10},
    ],
}


def _set(doc, path, value):
    """``doc`` with the entry at ``path`` replaced, or deleted when
    ``value`` is ``_DELETE``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


_DELETE = object()


# ---------------------------------------------------------------------------
# list / describe
# ---------------------------------------------------------------------------


def test_list_contains_all_builtins():
    out = cmd_list()
    for name in ("hopf", "trivial-r3", "affine-tangent",
                 "nonlinear-tangent", "sode-tangent", "frame-bundle"):
        assert name in out


def test_list_is_deterministic():
    assert cmd_list() == cmd_list()


def test_list_json_schema():
    rows = json.loads(cmd_list("json"))
    assert {"name", "section", "dim"} == set(rows[0])
    assert any(r["name"] == "hopf" and r["dim"] == 3 for r in rows)


def test_describe_smoke(capsys):
    assert main(["describe", "trivial-r3"]) == 0
    out = capsys.readouterr().out
    assert "trivial-r3" in out and "H1" in out


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_trivial_nabla_at_right_angle():
    out = json.loads(cmd_eval("trivial-r3", "nabla", ["H1", "H1"],
                              [0.0, 0.0, math.pi / 2], "json"))
    assert abs(out["frame_coefficients"]["H1"] - 1.0) < 1e-12
    assert abs(out["frame_coefficients"]["H2"]) < 1e-12


def test_eval_hopf_bracket_components():
    out = json.loads(cmd_eval("hopf", "bracket", ["Sigma", "Lambda"],
                              [1.0, 0.0, 0.0, 0.0], "json"))
    comps = out["components"]
    assert [comps[c] for c in ("x", "y", "z", "w")] == \
        pytest.approx([0.0, -2.0, 0.0, 0.0], abs=1e-12)
    assert abs(out["frame_coefficients"]["V"] - 2.0) < 1e-10


def test_eval_unknown_field_lists_names():
    with pytest.raises(KeyError) as err:
        cmd_eval("trivial-r3", "nabla", ["H1", "nosuch"], [0.0, 0.0, 0.0])
    assert "H2" in str(err.value)


def test_eval_off_manifold_point_rejected(capsys):
    code = main(["eval", "hopf", "field", "V", "--at", "2,0,0,0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_eval_accepts_a_negative_first_coordinate(capsys):
    assert main(["eval", "hopf", "field", "V", "--at=-1,0,0,0"]) == 0
    joined = capsys.readouterr().out
    assert main(["eval", "hopf", "field", "V", "--at", "-1,0,0,0"]) == 0
    assert capsys.readouterr().out == joined
    assert "at Point(-1, 0, 0, 0)" in joined


@pytest.mark.parametrize("name,args,at", [
    ("trivial-r3", ["H1", "H2"], [0.3, -0.2, 0.7]),
    ("hopf", ["Lambda", "Sigma"], [0.5, 0.5, -0.5, 0.5]),
    ("affine-tangent", ["H1", "H2"], [0.1, -0.4, 0.6, 0.2]),
])
def test_one_nabla_query_makes_one_frame_solve(name, args, at, built,
                                               monkeypatch):
    # the projectors inside nabla invert the frame in the env that the
    # coefficients read, so the query inverts it once
    from ehresmann import geometry

    scen = built(name)
    solves = []
    inverse = geometry.FrameSolver.inverse

    def counted(solver, env):
        if env.key not in solver._cache:
            solves.append(env.depth - solver.cost)
        return inverse(solver, env)

    monkeypatch.setattr(geometry.FrameSolver, "inverse", counted)
    monkeypatch.setattr(cli, "_get_scenario", lambda *args: scen)
    cmd_eval(name, "nabla", args, at)
    assert len(solves) == 1, solves


def test_eval_reads_a_cheap_field_at_depth_zero(tmp_path, capsys):
    # Hopf's solve needs one jet level for its constraint column; the
    # field's components stay at depth 0, where abs(x) at x = 0 is defined
    doc = copy.deepcopy(HOPF_DOC)
    doc["fields"]["W"] = ["abs(x)", "0", "0", "0"]
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", str(path), "field", "W", "--at", "0,1,0,0"]) == 0
    assert "components: x=0, y=0, z=0, w=0" in capsys.readouterr().out


def test_eval_non_finite_point_rejected(capsys):
    code = main(["eval", "trivial-r3", "nabla", "H1", "H1",
                 "--at", "nan,0,1"])
    assert code == 2
    assert "not finite" in capsys.readouterr().err


def test_eval_apply_projector(capsys):
    code = main(["eval", "trivial-r3", "apply", "P_V", "V",
                 "--at", "0,0,0.5", "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["frame_coefficients"]["V"] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_trivial_passes_exit_zero(capsys):
    assert main(["verify", "trivial-r3", "--samples", "6"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAILED" not in out


def test_verify_hopf_has_levi_civita_record():
    report = cmd_verify("hopf", CheckConfig(samples=6))
    ids = {r.check_id for r in report.records}
    assert "hopf:levi-civita-compatibility" in ids
    assert report.ok


def test_verify_tight_tolerance_fails(capsys):
    code = main(["verify", "hopf", "--samples", "6", "--tol", "1e-15"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_json_is_byte_stable():
    cfg = CheckConfig(samples=5)
    a = cmd_verify("affine-tangent", cfg).to_json()
    b = cmd_verify("affine-tangent", cfg).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["summary"]["failed"] == 0
    assert payload["config"]["seed"] == 42


def test_verify_csv_columns():
    out = cmd_verify("trivial-r3", CheckConfig(samples=5)).to_csv()
    header = out.splitlines()[0]
    assert header == "check_id,reference,max_dev,threshold,pass,worst_point"


def test_exit_status_matches_record_tallies():
    report = cmd_verify("trivial-r3", CheckConfig(samples=5))
    assert report.ok == (report.summary["failed"] == 0)
    assert report.summary["total"] == len(report.records)


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["verify", "nosuch-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_config_validation(capsys):
    for flag, value in (("--samples", "0"), ("--tol", "0"), ("--depth", "0"),
                        ("--tol", "nan"), ("--tol", "inf")):
        assert main(["verify", "hopf", flag, value]) == 2
        assert "error" in capsys.readouterr().err


def test_verify_depth_below_need_is_usage_error(capsys):
    # the hopf operator's fields need two derivative levels
    assert main(["verify", "hopf", "--samples", "4", "--depth", "1"]) == 2
    err = capsys.readouterr().err
    assert "needs 2 derivative level(s) but only 1 available" in err
    assert "∇_" in err


def test_verify_depth_cap_keeps_records(capsys):
    def records(depth):
        assert main(["verify", "hopf", "--samples", "4", "--depth",
                     str(depth), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["records"]

    assert records(2) == records(3)


def test_verify_nan_expected_coefficient_fails(tmp_path, capsys):
    doc = json.loads(json.dumps(TRIVIAL_DOC))
    row = next(r for r in doc["expected"] if r["args"] == ["H1", "H1"])
    row["coeffs"]["H1"] = "1e300*1e300-1e300*1e300"
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--samples", "5",
                 "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    rec = next(r for r in records
               if r["check_id"] == "trivial-r3:nabla[H1,H1]")
    assert math.isnan(rec["max_dev"])
    assert rec["pass"] is False


@pytest.mark.parametrize("component", [
    "cos(th)+tan(x)*1e300*1e300",
    "cos(th)+(1e300*1e300-1e300*1e300)",
], ids=["inf", "nan"])
def test_verify_nan_frame_is_construction_error(component, tmp_path, capsys):
    doc = json.loads(json.dumps(TRIVIAL_DOC))
    doc["fields"]["H1"] = ["1", "0", component]
    path = tmp_path / "nan-frame.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--samples", "5"]) == 2
    assert "degenerate at (" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


def test_scenario_file_round_trips_builtin(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_DOC))
    loaded = load_scenario_file(str(path), CFG)
    builtin = sc.trivial_r3(CFG)
    got = {r.check_id: r for r in sc.run_scenario_checks(loaded, CFG)}
    want = {r.check_id: r for r in sc.run_scenario_checks(builtin, CFG)}
    # identical records wherever the ids coincide; the built-in only adds
    # its extra coframe check
    missing = set(want) - set(got)
    assert missing == {"trivial-r3:fibre-coframe"}
    for cid, rec in got.items():
        assert rec.passed == want[cid].passed
        assert abs(rec.max_dev - want[cid].max_dev) < 1e-12


def test_scenario_file_verify_through_cli(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_DOC))
    assert main(["verify", str(path), "--samples", "5"]) == 0


def test_scenario_file_rank_mismatch_reports_context(tmp_path):
    doc = json.loads(json.dumps(TRIVIAL_DOC))
    doc["split"]["blocks"] = [["H1", "H2"]]  # block rank 2 vs K rank 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFileError) as err:
        load_scenario_file(str(path), CFG)
    assert "split" in str(err.value)
    assert str(path) in str(err.value)


def test_scenario_file_parse_error_has_position(tmp_path):
    doc = json.loads(json.dumps(TRIVIAL_DOC))
    doc["fields"]["H1"] = ["1", "0", "cos(th"]
    path = tmp_path / "syntax.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFileError) as err:
        load_scenario_file(str(path), CFG)
    assert "offset" in str(err.value)


def test_scenario_file_nonlinear_coefficient(tmp_path):
    doc = {
        "name": "file-nonlinear",
        "space": {"coords": ["x1", "u1"], "base": ["x1"]},
        "fields": {"H1": ["1", "-(u1^2)"], "V1": ["0", "1"]},
        "split": {"k": ["V1"], "blocks": [["H1"]],
                  "orientation": "k-vertical"},
    }
    path = tmp_path / "nl.json"
    path.write_text(json.dumps(doc))
    scen = load_scenario_file(str(path), CFG)
    assert scen.construction == "equal-rank"
    h1 = scen.fields["H1"]
    for p in scen.space.sample_points(CheckConfig(samples=4)):
        u1 = p.values[1]
        got = scen.coefficients(scen.nabla(h1, h1), p)
        assert abs(got["H1"] - 2.0 * u1) < 1e-9
        assert abs(got["V1"]) < 1e-9


def test_scenario_file_missing_key(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "nothing"}))
    with pytest.raises(ScenarioFileError) as err:
        load_scenario_file(str(path), CFG)
    assert "space" in str(err.value)


def test_scenario_file_with_pairing_override(tmp_path):
    doc = {
        "name": "paired",
        "space": {"coords": ["x1", "x2", "u1", "u2"], "base": ["x1", "x2"]},
        "fields": {
            "H1": ["1", "0", "0", "0"], "H2": ["0", "1", "0", "0"],
            "V1": ["0", "0", "1", "0"], "V2": ["0", "0", "0", "1"],
        },
        "split": {"k": ["V1", "V2"], "blocks": [["H1", "H2"]],
                  "orientation": "k-vertical",
                  "pairings": [[[0.0, 1.0], [1.0, 0.0]]]},
    }
    path = tmp_path / "paired.json"
    path.write_text(json.dumps(doc))
    scen = load_scenario_file(str(path), CFG)
    # the override pairs H1 with V2 instead of V1
    p = scen.space.point((0.1, 0.2, 0.3, 0.4))
    s = scen.split.s_endos[0]
    assert s(scen.fields["H1"]).values(p) == \
        pytest.approx(scen.fields["V2"].values(p), abs=1e-10)


def test_eval_wrong_argument_count(capsys):
    assert main(["eval", "trivial-r3", "nabla", "H1", "--at", "0,0,0"]) == 2
    assert "argument" in capsys.readouterr().err


def test_describe_accepts_scenario_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(TRIVIAL_DOC))
    assert main(["describe", str(path)]) == 0
    assert "trivial-r3" in capsys.readouterr().out


def test_report_table_marks_failures():
    report = cmd_verify("hopf", CheckConfig(samples=5, tolerance=1e-16))
    text = report.to_table()
    assert "FAILED" in text.splitlines()[-1]
    assert any(line.split()[1] == "FAIL" for line in text.splitlines()[:-1])


# ---------------------------------------------------------------------------
# malformed scenario files: exit 2 with the key named, never a traceback
# ---------------------------------------------------------------------------


MALFORMED = [
    (("expected", 0, "coeffs"), ["H1"], "expected[0].coeffs"),
    (("expected", 0, "args"), ["H1"], "expected[0].args"),
    (("space", "intervals"), [[-1.0, 1.0]], "space.intervals"),
    (("fields", "H1", 2), None, "fields.H1[2]"),
    (("split", "pairings"), 3, "split.pairings"),
    (("expected", 0, "tol"), "1e-8", "expected[0].tol"),
    (("expected", 0, "op"), "divergence", "expected[0].op"),
]


@pytest.mark.parametrize("path,value,key", MALFORMED,
                         ids=[m[2] for m in MALFORMED])
def test_malformed_scenario_file_names_the_key(path, value, key, tmp_path,
                                               capsys):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(_set(TRIVIAL_DOC, path, value)))
    with pytest.raises(ScenarioFileError) as err:
        load_scenario_file(str(target), CFG)
    assert f": {key}: " in str(err.value)
    assert main(["verify", str(target), "--samples", "2"]) == 2
    assert key in capsys.readouterr().err


def _paths(node, prefix=()):
    """Every key path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


FUZZ_VALUES = [
    _DELETE, None, True, 0, -1, 2.5, 1e300, math.nan, math.inf, 10 ** 400,
    "", "x", "th", "cos(", "1/0", "exp(1000)", "nabla", "k-horizontal",
    [], ["H1"], ["H1", "H2"], [[0.0, 1.0]], {}, {"H1": "1"},
]
FUZZ_CASES = [(doc, path) for doc in (TRIVIAL_DOC, HOPF_DOC)
              for path in _paths(doc)]


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(FUZZ_CASES),
                          st.sampled_from(FUZZ_VALUES)),
                min_size=1, max_size=2))
def test_fuzzed_scenario_files_end_in_an_exit_code(tmp_path_factory,
                                                   mutations):
    doc = mutations[0][0][0]
    for (_, path), value in mutations:
        try:
            doc = _set(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced the path
    target = tmp_path_factory.mktemp("fuzz") / "doc.json"
    target.write_text(json.dumps(doc))
    code, out, err = _run_main(["verify", str(target), "--samples", "2",
                                "--format", "json"])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and len(err.strip()) > 7
        return
    records = json.loads(out)["records"]
    assert (code == 0) == all(r["pass"] for r in records)
    if code == 0:
        assert all(math.isfinite(r["max_dev"]) for r in records)
