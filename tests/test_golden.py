"""Byte-exact verify reports of the built-ins.

Each file under ``tests/golden`` is the output of

    ehresmann verify <name> --samples 4 --format json

Equal configuration must give byte-identical JSON, so a change that moves
any reported bit (a deviation, a worst point, a record's order) fails here.
Regenerate a file with that command only when the change is meant to move
the numbers, and say so in the changelog.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ehresmann.cli import main
from ehresmann.scenarios import BUILTIN_BUILDERS

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
def test_verify_json_matches_golden(name, capsys):
    assert main(["verify", name, "--samples", "4", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"verify-{name}.json").read_bytes()
