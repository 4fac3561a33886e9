"""The entry points the benchmark's tracer wraps stay in place.

``perfbench/tracer.py`` counts calls by patching ``at`` on each field type
and ``FrameSolver.inverse``, and sizes the caches by reading ``_cache`` and
``_memo`` off live objects.  A refactor that drops one of these hooks makes
a traced run read zeros; this check shows it in tier-1.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from ehresmann import cli, geometry, jets
from ehresmann.geometry import CheckConfig
from ehresmann.scenarios import run_scenario_checks, trivial_r3

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name a package module or a wrapped class binds."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ehresmann" or name.startswith("ehresmann."):
            out.update(((name, k), v) for k, v in vars(mod).items())
    for cls in (geometry.ScalarField, geometry.VectorField,
                geometry.CovectorField, geometry.FrameSolver, jets.Jet,
                cli.Report):
        out.update(((cls, k), v) for k, v in vars(cls).items())
    return out


def test_the_tracer_hooks_count_and_come_off():
    tracer = _load_tracer()
    before = _bindings()
    t = tracer.install()
    try:
        cfg = CheckConfig(samples=2)
        scen = trivial_r3(cfg)
        assert all(r.passed for r in run_scenario_checks(scen, cfg))
        # the run drops what it added; a direct evaluation outside a run
        # keeps its memo and cache entries, so every size is read non-zero
        X, Y = scen.frame_fields()[:2]
        scen.nabla(X, Y).values(scen.space.sample_points(cfg)[0])
        entries = tracer.cache_entries()
    finally:
        t.uninstall()
    assert t.counts["geometry.field_at.calls"] > 0
    assert t.counts["geometry.frame_solve.calls"] > 0
    assert entries and all(entries.values()), entries
    assert _bindings() == before
