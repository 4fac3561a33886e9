"""Byte-exact CLI output of the built-ins.

Each file under ``tests/golden`` is the output of one command:

    verify-<name>.json          ehresmann verify <name> --samples 4 --format json
    verify-<name>-s3-seed7-d2.json
                                ehresmann verify <name> --samples 3 --seed 7
                                    --depth 2 --format json
    describe-<name>.txt         ehresmann describe <name>
    list.json                   ehresmann list --format json
    eval-<scenario>-<op>.json   ehresmann eval <scenario> <op> <args>
                                    --at <point> --format json
                                (the arguments and points are in EVALS below)
    verify-frame3.json          the report of the frame bundle at n=3 (12
                                coordinates), seed 1, 2 samples, as
                                ``frame3_report`` below builds it

Equal configuration must give byte-identical output, so a change that moves
any reported bit (a deviation, a worst point, a record's order, a frame
coefficient) fails here.  Regenerate a file with its command only when the
change is meant to move the output, and say so in the changelog.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ehresmann.cli import Report, main
from ehresmann.geometry import CheckConfig
from ehresmann.scenarios import (
    BUILTIN_BUILDERS, DEFAULT_FRAME_GAMMA, frame_bundle, run_scenario_checks,
)

GOLDEN = Path(__file__).parent / "golden"

EVAL_POINTS = {"hopf": "1,0,0,0", "frame-bundle": "0.3,-0.2,0.9,1.1,0.7,1.3",
               "trivial-r3": "0.3,-0.2,0.9",
               "affine-tangent": "0.3,-0.2,0.9,1.1",
               "nonlinear-tangent": "0.3,-0.2,0.9,1.1",
               "sode-tangent": "0.3,-0.2,0.9,1.1"}
# ``apply P_V H1`` on trivial-r3 is exactly zero in every component: the
# answer a kernel that skips the products of an all-zero operand returns.
EVAL_ARGS = {
    "hopf": {"field": ["V"], "apply": ["P_H", "V"],
             "binary": ["Lambda", "Sigma"]},
    "frame-bundle": {"field": ["V2_1"], "apply": ["S", "H1"],
                     "binary": ["H1", "V1_2"]},
    "trivial-r3": {"field": ["H2"], "apply": ["P_V", "H1"],
                   "binary": ["H2", "V"]},
    "affine-tangent": {"field": ["V1"], "apply": ["S", "H1"],
                       "binary": ["H1", "V2"]},
    "nonlinear-tangent": {"field": ["H2"], "apply": ["P_V", "H2"],
                          "binary": ["H2", "V1"]},
    "sode-tangent": {"field": ["Gamma"], "apply": ["S", "Gamma"],
                     "binary": ["H1", "H2"]},
}
EVALS = [(scen, op) for scen in EVAL_POINTS
         for op in ("nabla", "bracket", "torsion", "curvature", "field",
                    "apply")]


def _output(argv, capsys) -> bytes:
    assert main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
def test_verify_json_matches_golden(name, capsys):
    out = _output(["verify", name, "--samples", "4", "--format", "json"],
                  capsys)
    assert out == (GOLDEN / f"verify-{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
def test_verify_json_second_config_matches_golden(name, capsys):
    out = _output(["verify", name, "--samples", "3", "--seed", "7",
                   "--depth", "2", "--format", "json"], capsys)
    assert out == (GOLDEN / f"verify-{name}-s3-seed7-d2.json").read_bytes()


@pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
def test_describe_matches_golden(name, capsys):
    out = _output(["describe", name], capsys)
    assert out == (GOLDEN / f"describe-{name}.txt").read_bytes()


def test_list_json_matches_golden(capsys):
    out = _output(["list", "--format", "json"], capsys)
    assert out == (GOLDEN / "list.json").read_bytes()


@pytest.mark.parametrize("scen,op", EVALS,
                         ids=[f"{s}-{o}" for s, o in EVALS])
def test_eval_json_matches_golden(scen, op, capsys):
    args = EVAL_ARGS[scen].get(op, EVAL_ARGS[scen]["binary"])
    out = _output(["eval", scen, op, *args, "--at", EVAL_POINTS[scen],
                   "--format", "json"], capsys)
    assert out == (GOLDEN / f"eval-{scen}-{op}.json").read_bytes()


def frame3_report() -> str:
    """The verify report of the 12-coordinate frame bundle, the shape whose
    kernels carry the most derivative slots."""
    cfg = CheckConfig(seed=1, samples=2)
    scen = frame_bundle(3, (1, 2, 0), DEFAULT_FRAME_GAMMA, cfg)
    echo = {"scenario": scen.name, "seed": cfg.seed, "samples": cfg.samples,
            "tolerance": cfg.tolerance, "depth": cfg.depth}
    return Report(echo, run_scenario_checks(scen, cfg)).to_json() + "\n"


def test_frame3_report_matches_golden():
    out = frame3_report().encode("utf-8")
    assert out == (GOLDEN / "verify-frame3.json").read_bytes()
