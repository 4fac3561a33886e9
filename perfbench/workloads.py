"""The benchmark's workloads, driven through the package's public functions.

verify-builtins  build, check and serialize every built-in scenario at the
                 default config; cache hits dominate.
verify-frame3    the same pipeline on the frame bundle at n=3 (12
                 coordinates); jet arithmetic and cache memory dominate.
eval-sweep       one long-lived session answering eval queries, each at a
                 fresh point, so every cache lookup misses and inserts.

Every workload builds its scenarios ``SETUP_REPS`` times to time set-up,
and ``BUILDS_PER_PASS`` more times before each pass, so that set-up is
sampled across the whole run.  It runs a closed loop with one client
until the requested seconds have gone, always finishing the pass or
session it is in.  A verify workload's
request is one scenario's verification; its pass is the whole scenario set,
built fresh so that no pass reuses another's caches.  The eval workload's
request is one query; its pass is a sweep that asks every expected-table
row once, in a seeded order; a session is ``SESSION_SWEEPS`` sweeps on one
build, and the point streams continue across sessions.  Untraced runs time
on a ``speed.ReferenceClock``, which takes the machine's speed drift out.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

import gate
import harness
import kernels
import speed
import tracer as tr
from ehresmann import cli, covderiv, geometry
from ehresmann import scenarios as sc

perf = time.perf_counter
WALL = speed.WallClock()

SETUP_REPS = 4
BUILDS_PER_PASS = 3
# An eval session answers this many sweeps (1290 queries) before the next
# session starts from fresh builds.  Its caches grow with every query, so a
# fixed session length keeps peak memory independent of how many queries a
# run completes.
SESSION_SWEEPS = 10
# The frame bundle at n=3 checks 217 records at any sample count; 10 points
# (the default is 20) keep one traced run, which verifies it twice and once
# more family by family, inside the 180 s a run may take.
FRAME3_SAMPLES = 10
WORKLOADS = ("verify-builtins", "verify-frame3", "eval-sweep")

BUILTINS = ("trivial-r3", "hopf", "affine-tangent", "nonlinear-tangent",
            "sode-tangent", "frame-bundle")
FRAME3 = "frame-bundle-n3"

END_TO_END = ("setup_s", "verify_s", "peak_rss_mb", "pass_ratio",
              "query_ms_p50", "query_ms_p99", "queries_per_s",
              "rss_growth_kb_per_query")

PER_LAYER = (
    tuple(f"scenarios.{fam}.s" for fam, _ in tr.FAMILIES)
    + tuple(f"scenarios.{fam}.cold_s" for fam, _ in tr.FAMILIES)
    + tuple(f"scenarios.verify.{b}.s" for b in BUILTINS)
    + ("scenarios.build.s",
       "connection.build_connection.s", "connection.canonical_endos.s",
       "connection.validate_split.s", "connection.validate_split.calls",
       "covderiv.total_derivative.s", "covderiv.nabla_eval_ms",
       "covderiv.memo_entries",
       "geometry.frame_solve.calls", "geometry.frame_solve.misses",
       "geometry.frame_solve.self_s",
       "geometry.field_at.calls", "geometry.field_at.misses",
       "geometry.field_at.hit_ratio",
       "geometry.cache.field_entries", "geometry.cache.solver_entries",
       "geometry.cache.endo_memo_entries",
       "geometry.seed_env_us", "geometry.frame_inverse_ms",
       "geometry.lie_bracket_ms", "geometry.projector_apply_ms")
    + tuple(f"jets.{op}_us.n{n}.d{d}" for n, d in kernels.JET_SHAPES
            for op in ("mul", "add", "sin"))
    + ("jets.mul.calls", "jets.add.calls",
       "expr.evaluate.calls", "expr.evaluate_us", "expr.parse_us",
       "cli.report_json.s", "trace.overhead_ratio")
)


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------


def build_scenario(label: str, cfg):
    if label == FRAME3:
        return sc.frame_bundle(3, (1, 2, 0), sc.DEFAULT_FRAME_GAMMA, cfg)
    return sc.build_scenario(label, cfg)


def build_scenarios(labels, cfg, tracer=None) -> dict:
    out = {}
    for label in labels:
        with tr.maybe_span(tracer, "scenarios.build", label):
            out[label] = build_scenario(label, cfg)
    return out


class VerifyWorkload:
    def __init__(self, name: str, seed: int):
        self.name = name
        samples = FRAME3_SAMPLES if name == "verify-frame3" else 20
        self.cfg = geometry.CheckConfig(seed=seed, samples=samples)
        self.manifest = gate.load_manifests()[name]

    def build(self, tracer=None) -> dict:
        labels = BUILTINS if self.name == "verify-builtins" else (FRAME3,)
        return build_scenarios(labels, self.cfg, tracer)

    def verify_one(self, scen) -> str:
        """What ``ehresmann verify --format json`` computes for a scenario."""
        cfg = self.cfg
        records = sc.run_scenario_checks(scen, cfg)
        echo = {"scenario": scen.name, "seed": cfg.seed,
                "samples": cfg.samples, "tolerance": cfg.tolerance,
                "depth": cfg.depth}
        return cli.Report(echo, records).to_json()

    def verify_all(self, scens, tracer=None, clock=WALL):
        """Verify each scenario; returns per-scenario intervals of ``clock``
        and the gate tally, which is computed outside the timed regions."""
        intervals = []
        tally = gate.GateTally()
        for label, scen in scens.items():
            if tracer is not None:
                tr.wrap_extra_checks(tracer, scen)
            report, error = None, None
            m0 = clock.mark()
            try:
                with tr.maybe_span(tracer, f"scenarios.verify.{label}", label):
                    report = self.verify_one(scen)
            except Exception as exc:  # a raising check fails, the run goes on
                error = exc
            intervals.append((m0, clock.mark()))
            ids = self.manifest[label]
            tally.merge(gate.raised(ids, label, error) if error is not None
                        else gate.gate_report(report, ids))
        return intervals, tally

    def run_family(self, fam_fn: str | None, scen):
        if fam_fn is None:
            return [r for extra in scen.extra_checks for r in extra(self.cfg)]
        return getattr(sc, fam_fn)(scen, self.cfg)

    def inputs(self) -> list:
        """The generated inputs: the seeded sample points of each scenario."""
        return [(label, [p.values for p in scen.space.sample_points(self.cfg)])
                for label, scen in self.build().items()]


def timed_builds(build, reps: int, clock=WALL):
    """Build ``reps`` times; returns the build intervals and the last
    build."""
    intervals, built = [], None
    for _ in range(reps):
        built = None
        gc.collect()
        m0 = clock.mark()
        built = build()
        intervals.append((m0, clock.mark()))
    return intervals, built


def closed_loop(build, run_pass, seconds: float):
    """Time ``SETUP_REPS`` builds, then run whole passes, each on the last
    of ``BUILDS_PER_PASS`` fresh builds, until ``seconds`` have gone.
    ``run_pass(built, clock)`` returns per-request intervals, the number of
    requests in each of its passes and a gate tally.  Intervals become
    seconds once the loop is over.  RSS growth is taken over the first
    pass, with its build still alive."""
    clock = speed.ReferenceClock()
    requests, pass_sizes, growth = [], [], None
    tally = gate.GateTally()
    with clock:
        setup = timed_builds(build, SETUP_REPS, clock)[0]
        start = perf()
        while True:
            more, built = timed_builds(build, BUILDS_PER_PASS, clock)
            setup += more
            gc.collect()
            rss0 = harness.rss_kb()
            reqs, sizes, pass_tally = run_pass(built, clock)
            if growth is None:
                gc.collect()
                growth = (harness.rss_kb() - rss0) / len(reqs)
            built = None
            tally.merge(pass_tally)
            requests += reqs
            pass_sizes += sizes
            if perf() - start >= seconds:
                break
    setup_s = [clock.seconds(iv) for iv in setup]
    latencies = [clock.seconds(iv) for iv in requests]
    pass_times, first = [], 0
    for size in pass_sizes:
        pass_times.append(sum(latencies[first:first + size]))
        first += size
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98] \
        if len(latencies) > 1 else latencies[0]
    values = {
        "setup_s": statistics.median(setup_s),
        "verify_s": statistics.median(pass_times),
        "query_ms_p50": statistics.median(latencies) * 1e3,
        "query_ms_p99": p99 * 1e3,
        "queries_per_s": len(latencies) / sum(latencies),
        "rss_growth_kb_per_query": growth,
    }
    info = {"passes": len(pass_times), "requests": len(latencies),
            "setup_samples": len(setup_s),
            "calibration_samples": len(clock.durations),
            "unscaled_setup_s": statistics.median(map(clock.unscaled, setup)),
            "unscaled_query_ms_p50":
                statistics.median(map(clock.unscaled, requests)) * 1e3}
    return values, tally, info


def run_verify(name: str, seed: int, seconds: float):
    wl = VerifyWorkload(name, seed)

    def run_pass(scens, clock):
        intervals, tally = wl.verify_all(scens, clock=clock)
        return intervals, [len(intervals)], tally

    return closed_loop(wl.build, run_pass, seconds)


def run_verify_traced(name: str, seed: int):
    wl = VerifyWorkload(name, seed)
    tally = gate.GateTally()
    phases = Phases()

    # untraced reference: the same build and verification, tracing off
    gc.collect()
    t0 = perf()
    scens = wl.build()
    ref_wall = perf() - t0
    intervals, ref_tally = wl.verify_all(scens)
    ref_wall += sum(map(WALL.seconds, intervals))
    tally.merge(ref_tally)
    scens = None
    phases.mark("reference")

    t = tr.install()
    try:
        gc.collect()
        t0 = perf()
        scens = wl.build(tracer=t)
        traced_wall = perf() - t0
        intervals, traced_tally = wl.verify_all(scens, tracer=t)
        traced_verify = sum(map(WALL.seconds, intervals))
        traced_wall += traced_verify
        phases.seconds["traced_verify"] = traced_verify
        caches = tr.cache_entries()
    finally:
        t.uninstall()
    tally.merge(traced_tally)
    scens = None
    phases.mark("traced")

    cold = {}
    for fam, fn in tr.FAMILIES:
        _, scens = timed_builds(wl.build, 1)
        t0 = perf()
        for scen in scens.values():
            wl.run_family(fn, scen)
        cold[f"scenarios.{fam}.cold_s"] = perf() - t0
        scens = None
    phases.mark("cold")

    _, scens = timed_builds(wl.build, 1)
    kern = kernels.geometry_kernels(list(scens.values()), seed,
                                    wl.cfg.depth)
    phases.mark("geometry_kernels")
    values = layer_values(t, caches, traced_wall / ref_wall)
    # the family self times plus the report should account for the traced
    # verification; what is left is glue and the tracer's own cost
    phases.seconds["families_plus_report"] = sum(
        values[f"scenarios.{fam}.s"] for fam, _ in tr.FAMILIES) \
        + values["cli.report_json.s"]
    values.update(cold)
    values.update(kern)
    return values, tally, t, phases


# ---------------------------------------------------------------------------
# eval sweep
# ---------------------------------------------------------------------------


class PointStream:
    """Fresh points of one space, from its seeded sampler.

    The first ``skip`` draws are the points the scenario's construction-time
    validation already evaluated, so the stream starts after them and never
    hands out a point twice."""

    def __init__(self, space, seed: int, skip: int):
        self.space = space
        self.seed = seed
        self.points = []
        self.next = skip

    def ensure(self, count: int):
        need = self.next + count
        if need > len(self.points):
            size = max(need, 2 * len(self.points), 64)
            cfg = geometry.CheckConfig(seed=self.seed, samples=size)
            self.points = self.space.sample_points(cfg)

    def take(self):
        p = self.points[self.next]
        self.next += 1
        return p


class EvalSweep:
    """One run's query stream: the row list, the point streams and the
    seeded sweep order start with the first session and continue across
    sessions, so equal seeds give equal queries and no point repeats."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = geometry.CheckConfig(seed=seed)
        self.rng = random.Random(f"{seed}:eval-sweep")
        self.rows = self.streams = None

    def build(self, tracer=None) -> dict:
        return build_scenarios(BUILTINS, self.cfg, tracer)

    def _start(self, scens: dict):
        if self.rows is None:
            self.rows = [(label, i) for label in BUILTINS
                         for i in range(len(scens[label].expected))]
            self.streams = {label: PointStream(scens[label].space, self.seed,
                                               self.cfg.samples)
                            for label in BUILTINS}

    def op_field(self, scen, row):
        """The field ``ehresmann eval <op> X Y`` evaluates."""
        X = scen.fields[row.args[0]]
        Y = scen.fields[row.args[1]]
        if row.op == "nabla":
            return scen.nabla(X, Y)
        if row.op == "bracket":
            return geometry.lie_bracket(X, Y)
        if row.op == "torsion":
            return covderiv.torsion(scen.nabla, X, Y)
        if row.op == "curvature":
            return covderiv.ehresmann_curvature(scen.conn, X, Y)
        raise ValueError(f"unknown expected-table op {row.op!r}")

    def plan_sweep(self) -> list:
        """The next sweep's queries: every row once, each at a fresh point."""
        order = self.rows[:]
        self.rng.shuffle(order)
        per_label: dict = {}
        for label, _ in order:
            per_label[label] = per_label.get(label, 0) + 1
        for label, count in per_label.items():
            self.streams[label].ensure(count)
        return [(label, i, self.streams[label].take()) for label, i in order]

    def sweep(self, scens, queries, tracer=None, first_id: int = 0,
              clock=WALL):
        """Answer the queries; returns per-query intervals of ``clock`` and
        the answers, which the gate checks after the timed regions."""
        intervals, answers = [], []
        for q, (label, i, p) in enumerate(queries):
            scen = scens[label]
            row = scen.expected[i]
            comps = coeffs = None
            m0 = clock.mark()
            try:
                with tr.maybe_span(tracer, "eval.query", f"q{first_id + q}"):
                    out = self.op_field(scen, row)
                    comps = out.values(p)
                    coeffs = scen.coefficients(out, p)
            except Exception as exc:  # a raising query fails, the run goes on
                coeffs = exc
            intervals.append((m0, clock.mark()))
            answers.append((label, row, p, comps, coeffs))
        return intervals, answers

    def gate_all(self, answers) -> gate.GateTally:
        tally = gate.GateTally()
        for answer in answers:
            tally.merge(self.gate_one(*answer))
        return tally

    def gate_one(self, label, row, p, comps, coeffs) -> gate.GateTally:
        where = f"{label}:{row.op}[{row.args[0]},{row.args[1]}]"
        if isinstance(coeffs, Exception):
            t = gate.GateTally(attempted=1)
            t.fail(1, f"{where} raised {type(coeffs).__name__}: {coeffs}")
            return t
        if not all(math.isfinite(c) for c in comps):
            t = gate.GateTally(attempted=1)
            t.fail(1, f"{where} at {p}: non-finite components {comps}")
            return t
        try:
            return gate.gate_answer(row, p, coeffs,
                                    self.cfg.tolerance, where)
        except Exception as exc:  # the expected value itself cannot be had
            t = gate.GateTally(attempted=1)
            t.fail(1, f"{where}: expected value raised {exc!r}")
            return t

    def run_session(self, scens, tracer=None, clock=WALL):
        """``SESSION_SWEEPS`` sweeps on one set of built scenarios; returns
        per-query intervals, the number of queries in each sweep, the gate
        tally and the answers still to gate.  Untraced, each sweep is gated
        as it ends; traced, the answers wait, because the gate's own
        evaluations must not show in the tracer's counts."""
        self._start(scens)
        intervals, sizes, pending = [], [], []
        tally = gate.GateTally()
        for s in range(SESSION_SWEEPS):
            ivs, answers = self.sweep(scens, self.plan_sweep(), tracer=tracer,
                                      first_id=s * len(self.rows),
                                      clock=clock)
            if tracer is None:
                tally.merge(self.gate_all(answers))
            else:
                pending += answers
            intervals += ivs
            sizes.append(len(ivs))
        return intervals, sizes, tally, pending

    def inputs(self, sweeps: int) -> list:
        self._start(self.build())
        return [(label, i, p.values) for _ in range(sweeps)
                for label, i, p in self.plan_sweep()]


def run_eval(seed: int, seconds: float):
    wl = EvalSweep(seed)
    return closed_loop(
        wl.build, lambda scens, clock: wl.run_session(scens, clock=clock)[:3],
        seconds)


def run_eval_traced(seed: int):
    wl = EvalSweep(seed)
    phases = Phases()

    # untraced reference: one session; a second stream with the same seed
    # then answers the identical queries traced
    gc.collect()
    t0 = perf()
    scens = wl.build()
    ref_wall = perf() - t0
    intervals, _, tally, _ = wl.run_session(scens)
    ref_wall += sum(map(WALL.seconds, intervals))
    scens = None
    phases.mark("reference")

    wl = EvalSweep(seed)

    t = tr.install()
    try:
        gc.collect()
        t0 = perf()
        scens = wl.build(tracer=t)
        traced_wall = perf() - t0
        intervals, _, _, pending = wl.run_session(scens, tracer=t)
        traced_wall += sum(map(WALL.seconds, intervals))
        caches = tr.cache_entries()
    finally:
        t.uninstall()
    tally.merge(wl.gate_all(pending))
    scens = pending = None
    phases.mark("traced")

    kern = kernels.geometry_kernels(list(wl.build().values()), seed,
                                    wl.cfg.depth)
    phases.mark("geometry_kernels")
    values = layer_values(t, caches, traced_wall / ref_wall)
    values.update({f"scenarios.{fam}.cold_s": 0.0 for fam, _ in tr.FAMILIES})
    values.update(kern)
    return values, tally, t, phases


# ---------------------------------------------------------------------------
# per-layer values from a tracer
# ---------------------------------------------------------------------------


class Phases:
    """Wall seconds of the phases of a traced run, for the run's info."""

    def __init__(self):
        self.seconds = {}
        self._last = perf()

    def mark(self, name: str):
        now = perf()
        self.seconds[name] = round(now - self._last, 3)
        self._last = now


def layer_values(t: tr.Tracer, caches: dict, overhead: float) -> dict:
    self_s = tr.totals_by_name(t.spans, self_only=True)
    incl_s = tr.totals_by_name(t.spans, self_only=False)
    c = t.counts
    calls = c["geometry.field_at.calls"]
    values = {f"scenarios.{fam}.s": self_s.get(f"scenarios.{fam}", 0.0)
              for fam, _ in tr.FAMILIES}
    values.update({f"scenarios.verify.{b}.s":
                   incl_s.get(f"scenarios.verify.{b}", 0.0) for b in BUILTINS})
    values.update({
        "scenarios.build.s": incl_s.get("scenarios.build", 0.0),
        "connection.build_connection.s":
            self_s.get("connection.build_connection", 0.0),
        "connection.canonical_endos.s":
            self_s.get("connection.canonical_endos", 0.0),
        "connection.validate_split.s":
            self_s.get("connection.validate_split", 0.0),
        "connection.validate_split.calls":
            sum(1 for s in t.spans if s.name == "connection.validate_split"),
        "covderiv.total_derivative.s":
            self_s.get("covderiv.total_derivative", 0.0),
        "geometry.frame_solve.calls": c["geometry.frame_solve.calls"],
        "geometry.frame_solve.misses": c["geometry.frame_solve.misses"],
        "geometry.frame_solve.self_s": t.frame_solve_self,
        "geometry.field_at.calls": calls,
        "geometry.field_at.misses": c["geometry.field_at.misses"],
        "geometry.field_at.hit_ratio":
            1.0 - c["geometry.field_at.misses"] / calls if calls else 0.0,
        "jets.mul.calls": c["jets.mul.calls"],
        "jets.add.calls": c["jets.add.calls"],
        "expr.evaluate.calls": c["expr.evaluate.calls"],
        "cli.report_json.s": self_s.get("cli.report_json", 0.0),
        "trace.overhead_ratio": overhead,
    })
    values.update(caches)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (values, gate tally, info, tracer|None)."""
    t = None
    if trace:
        if workload == "eval-sweep":
            values, tally, t, phases = run_eval_traced(seed)
        else:
            values, tally, t, phases = run_verify_traced(workload, seed)
        values.update(kernels.jet_kernels(seed))
        values.update(kernels.expr_kernels(seed))
        phases.mark("jet_expr_kernels")
        info = {"spans": len(t.spans), "phase_s": phases.seconds}
    elif workload == "eval-sweep":
        values, tally, info = run_eval(seed, seconds)
    else:
        values, tally, info = run_verify(workload, seed, seconds)
    if not trace:
        values["peak_rss_mb"] = harness.peak_rss_mb()
        values["pass_ratio"] = 1.0 - tally.failed / max(tally.attempted, 1)
    return values, tally, info, t
