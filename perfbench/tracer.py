"""Spans and counters recorded from outside the package.

The tracer wraps layer entry points of ``ehresmann`` at run time, in every
module namespace that binds them, and restores the originals afterwards;
nothing inside ``src/`` is instrumented.  Coarse boundaries (scenario build,
verification, check family, report, query) become spans kept in memory.
Hot entry points (field evaluation, frame solves, jet arithmetic, expression
evaluation) would produce millions of spans, so they only bump counters;
frame solves also accumulate their own self time.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from ehresmann import cli, connection, covderiv, expr, geometry, jets
from ehresmann import scenarios

perf = time.perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: str
    parent: int | None
    start: float
    end: float = 0.0


def self_times(spans) -> dict:
    """Self time per span id: the duration minus the part of the span's
    interval covered by its children (overlapping children count once)."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo = max(c.start, cursor, s.start)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def maybe_span(tracer, name: str, trace_id: str | None = None):
    """A span when tracing, nothing otherwise."""
    return nullcontext() if tracer is None else tracer.span(name, trace_id)


def totals_by_name(spans, self_only: bool) -> dict:
    selfs = self_times(spans) if self_only else None
    out: dict = {}
    for s in spans:
        d = selfs[s.span_id] if self_only else s.end - s.start
        out[s.name] = out.get(s.name, 0.0) + d
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = {}
        self._stack: list[Span] = []
        self._trace_id = "-"
        self._undo: list = []
        self.frame_solve_self = 0.0
        self._solve_children: list = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        previous = self._trace_id
        if trace_id is not None:
            self._trace_id = trace_id
        s = Span(len(self.spans), name, self._trace_id,
                 self._stack[-1].span_id if self._stack else None, perf())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf()
            self._stack.pop()
            self._trace_id = previous

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.__dict__ for s in self.spans],
                       "counts": self.counts}, fh)

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Replace ``original`` wherever a package module binds it."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not (name == "ehresmann" or name.startswith("ehresmann.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def span_function(self, module, attr: str, span_name: str):
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                return original(*args, **kwargs)

        self._rebind(original, wrapper)

    def span_method(self, cls, attr: str, span_name: str):
        original = getattr(cls, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                return original(*args, **kwargs)

        self._set(cls, attr, wrapper)

    def count_method(self, cls, attrs, key: str):
        counts = self.counts
        counts.setdefault(key, 0)
        for attr in attrs:
            original = cls.__dict__[attr]

            def wrapper(a, b, _f=original):
                counts[key] += 1
                return _f(a, b)

            self._set(cls, attr, wrapper)

    def cache_method(self, cls, attr: str, key: str, cache_attr: str):
        """Count calls and misses; a miss is a call that grew the cache."""
        original = cls.__dict__[attr]
        counts = self.counts
        counts.setdefault(key + ".calls", 0)
        counts.setdefault(key + ".misses", 0)

        def wrapper(obj, env, _f=original):
            before = len(getattr(obj, cache_attr))
            try:
                return _f(obj, env)
            finally:
                counts[key + ".calls"] += 1
                if len(getattr(obj, cache_attr)) != before:
                    counts[key + ".misses"] += 1

        self._set(cls, attr, wrapper)

    def timed_cache_method(self, cls, attr: str, key: str, cache_attr: str):
        """As cache_method, plus self time that excludes nested calls of the
        same method (a solve whose columns need another solve)."""
        original = cls.__dict__[attr]
        counts = self.counts
        counts.setdefault(key + ".calls", 0)
        counts.setdefault(key + ".misses", 0)
        stack = self._solve_children
        tracer = self

        def wrapper(obj, env, _f=original):
            before = len(getattr(obj, cache_attr))
            stack.append(0.0)
            t0 = perf()
            try:
                return _f(obj, env)
            finally:
                dur = perf() - t0
                nested = stack.pop()
                tracer.frame_solve_self += dur - nested
                if stack:
                    stack[-1] += dur
                counts[key + ".calls"] += 1
                if len(getattr(obj, cache_attr)) != before:
                    counts[key + ".misses"] += 1

        self._set(cls, attr, wrapper)

    def count_function(self, module, attr: str, key: str):
        original = getattr(module, attr)
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._rebind(original, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# Check families in run order, with the scenarios-module function each one
# is looked up as inside run_scenario_checks; "extra" is the scenario's own
# extra_checks list.
FAMILIES = (
    ("expected", "expected_table_checks"),
    ("axioms", "axiom_suite_checks"),
    ("split", "split_identity_checks"),
    ("torsion_curvature", "torsion_curvature_checks"),
    ("torsion_props", "torsion_property_checks"),
    ("parallel", "parallel_tensor_checks"),
    ("parallelism", "parallelism_equivalence_checks"),
    ("extra", None),
)

# Every name the total-space derivative may be built through; the ones the
# package does not define are skipped.
TOTAL_DERIVATIVE_NAMES = ("total_derivative", "total_derivative_equal_rank",
                          "total_derivative_nfold")


def install() -> Tracer:
    """Wrap the layer entry points of the package."""
    t = Tracer()
    for fam, fn_name in FAMILIES:
        if fn_name is not None:
            t.span_function(scenarios, fn_name, f"scenarios.{fam}")
    t.span_function(connection, "build_connection",
                    "connection.build_connection")
    t.span_function(connection, "canonical_endos",
                    "connection.canonical_endos")
    t.span_function(connection, "validate_split",
                    "connection.validate_split")
    for name in TOTAL_DERIVATIVE_NAMES:
        if hasattr(covderiv, name):
            t.span_function(covderiv, name, "covderiv.total_derivative")
    t.span_method(cli.Report, "to_json", "cli.report_json")
    for cls in (geometry.ScalarField, geometry.VectorField,
                geometry.CovectorField):
        t.cache_method(cls, "at", "geometry.field_at", "_cache")
    t.timed_cache_method(geometry.FrameSolver, "inverse",
                         "geometry.frame_solve", "_cache")
    t.count_method(jets.Jet, ("__mul__", "__rmul__"), "jets.mul.calls")
    t.count_method(jets.Jet, ("__add__", "__radd__", "__sub__", "__rsub__"),
                   "jets.add.calls")
    t.count_function(expr, "evaluate", "expr.evaluate.calls")
    return t


def wrap_extra_checks(tracer: Tracer, scen):
    """Give each of a scenario's extra checks a family span."""
    def wrapped(fn):
        @functools.wraps(fn)
        def run(cfg):
            with tracer.span("scenarios.extra"):
                return fn(cfg)
        return run
    scen.extra_checks = [wrapped(fn) for fn in scen.extra_checks]


def cache_entries() -> dict:
    """Exact retained cache sizes, from a walk over live objects."""
    field_types = (geometry.ScalarField, geometry.VectorField,
                   geometry.CovectorField)
    out = {"geometry.cache.field_entries": 0,
           "geometry.cache.solver_entries": 0,
           "geometry.cache.endo_memo_entries": 0,
           "covderiv.memo_entries": 0}
    gc.collect()
    for obj in gc.get_objects():
        if isinstance(obj, field_types):
            out["geometry.cache.field_entries"] += len(obj._cache)
        elif isinstance(obj, geometry.FrameSolver):
            out["geometry.cache.solver_entries"] += len(obj._cache)
        elif isinstance(obj, geometry.Endo11):
            out["geometry.cache.endo_memo_entries"] += len(obj._memo)
        elif isinstance(obj, covderiv.CovDeriv):
            out["covderiv.memo_entries"] += len(obj._memo)
    return out
