"""Byte-exact CLI output of the built-ins.

Each file under ``tests/golden`` is the output of one command:

    verify-<name>.json          ehresmann verify <name> --samples 4 --format json
    describe-<name>.txt         ehresmann describe <name>
    list.json                   ehresmann list --format json
    eval-<scenario>-<op>.json   ehresmann eval <scenario> <op> <args>
                                    --at <point> --format json
                                (the arguments and points are in EVALS below)

Equal configuration must give byte-identical output, so a change that moves
any reported bit (a deviation, a worst point, a record's order, a frame
coefficient) fails here.  Regenerate a file with its command only when the
change is meant to move the output, and say so in the changelog.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ehresmann.cli import main
from ehresmann.scenarios import BUILTIN_BUILDERS

GOLDEN = Path(__file__).parent / "golden"

EVAL_POINTS = {"hopf": "1,0,0,0", "frame-bundle": "0.3,-0.2,0.9,1.1,0.7,1.3"}
EVAL_ARGS = {
    "hopf": {"field": ["V"], "apply": ["P_H", "V"],
             "binary": ["Lambda", "Sigma"]},
    "frame-bundle": {"field": ["V2_1"], "apply": ["S", "H1"],
                     "binary": ["H1", "V1_2"]},
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
