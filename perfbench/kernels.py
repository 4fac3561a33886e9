"""Per-layer kernels: one layer timed on its own, on seeded inputs.

Each kernel reports a median over repeated batches (jets, seeding, parsing)
or over fresh sample points (frame solves, brackets, projectors, nabla), so
caches never serve a timed call.
"""

from __future__ import annotations

import random
import statistics
import time

from ehresmann import expr as ex
from ehresmann import geometry, jets

perf = time.perf_counter

JET_SHAPES = [(n, d) for n in (3, 6, 12) for d in (1, 2, 3)]
# seed offset for kernel points, so that no kernel point is one that the
# scenario build or the checks already evaluated
KERNEL_SEED_OFFSET = 7919
# a timed batch repeats its call until it takes at least MIN_BATCH_S; a
# kernel reports the median of BATCHES batches
MIN_BATCH_S = 0.02
BATCHES = 3
# fresh points per scenario for the solve, bracket and projector kernels,
# and the most frame pairs per scenario the nabla kernel evaluates
POINTS_PER_SCENARIO = 4
MAX_PAIRS = 16


def per_call(fn) -> float:
    """Median seconds per call over batches of at least ``MIN_BATCH_S``."""
    fn()
    reps = 1
    while True:
        t0 = perf()
        for _ in range(reps):
            fn()
        if perf() - t0 >= MIN_BATCH_S or reps >= 1 << 20:
            break
        reps *= 2
    times = []
    for _ in range(BATCHES):
        t0 = perf()
        for _ in range(reps):
            fn()
        times.append((perf() - t0) / reps)
    return statistics.median(times)


def jet_kernels(seed: int) -> dict:
    out = {}
    for n, d in JET_SHAPES:
        rng = random.Random(f"{seed}:jets:{n}:{d}")
        names = tuple(f"x{i}" for i in range(n))
        xs = jets.seed(jets.JetConfig(names, d),
                       [rng.uniform(-1.0, 1.0) for _ in range(n)])
        a = jets.sin(xs[0]) * xs[1] + xs[-1]
        b = xs[1] * xs[-1] - jets.cos(xs[0])
        tag = f"n{n}.d{d}"
        out[f"jets.mul_us.{tag}"] = per_call(lambda: a * b) * 1e6
        out[f"jets.add_us.{tag}"] = per_call(lambda: a + b) * 1e6
        out[f"jets.sin_us.{tag}"] = per_call(lambda: jets.sin(a)) * 1e6
    return out


def expr_kernels(seed: int) -> dict:
    rng = random.Random(f"{seed}:expr")
    texts = ["x^2+y^2-z^2-w^2", "2*(x*w+y*z)", "-(u1^2)-u1*u2",
             "x1*u1^2-u2^2", "sin(th)*cos(x)+exp(y/3)"]
    env = {v: rng.uniform(0.5, 1.5)
           for v in ("x", "y", "z", "w", "u1", "u2", "x1", "th")}
    parsed = [ex.parse(t) for t in texts]
    return {
        "expr.parse_us": per_call(
            lambda: [ex.parse(t) for t in texts]) * 1e6 / len(texts),
        "expr.evaluate_us": per_call(
            lambda: [ex.evaluate(e, env) for e in parsed]) * 1e6 / len(texts),
    }


def _fresh_points(scen, seed: int, count: int):
    cfg = geometry.CheckConfig(seed=seed + KERNEL_SEED_OFFSET, samples=count)
    return scen.space.sample_points(cfg)


def geometry_kernels(scenarios, seed: int, depth: int) -> dict:
    """Frame solves, brackets, projectors, seeding and nabla over the
    workload's scenarios, each at a point no earlier call has seen.  Fields
    are evaluated as ``values(p)`` does it, seeded at the depth they need;
    the fresh solver's inverse carries one derivative level, the level a
    bracket consumes.  Nabla takes a seeded subset of at most ``MAX_PAIRS``
    frame pairs per scenario.
    """
    rng = random.Random(f"{seed}:geometry-kernels")
    seed_env, inverse, bracket, project, nabla = [], [], [], [], []
    for scen in scenarios:
        space = scen.space
        frame = scen.frame_fields()
        pairs = [(X, Y) for X in frame for Y in frame]
        if len(pairs) > MAX_PAIRS:
            pairs = rng.sample(pairs, MAX_PAIRS)
        k = POINTS_PER_SCENARIO
        pts = iter(_fresh_points(scen, seed, 3 * k + len(pairs)))
        p0 = space.sample_points(geometry.CheckConfig(seed=seed, samples=1))
        seed_env.append(per_call(lambda: space.seed_env(p0[0], depth)))
        for i in range(k):
            X, Y = pairs[i % len(pairs)]
            solver = geometry.FrameSolver(space, scen.solver.fields)
            env = space.seed_env(next(pts), max(solver.cost, 1))
            t0 = perf()
            solver.inverse(env)
            inverse.append(perf() - t0)
            field = geometry.lie_bracket(X, Y)
            p = next(pts)
            t0 = perf()
            field.values(p)
            bracket.append(perf() - t0)
            p = next(pts)
            t0 = perf()
            scen.conn.p_v(X).values(p)
            project.append(perf() - t0)
        for X, Y in pairs:
            p = next(pts)
            t0 = perf()
            scen.nabla(X, Y).values(p)
            nabla.append(perf() - t0)
    return {
        "geometry.seed_env_us": statistics.median(seed_env) * 1e6,
        "geometry.frame_inverse_ms": statistics.median(inverse) * 1e3,
        "geometry.lie_bracket_ms": statistics.median(bracket) * 1e3,
        "geometry.projector_apply_ms": statistics.median(project) * 1e3,
        "covderiv.nabla_eval_ms": statistics.median(nabla) * 1e3,
    }
