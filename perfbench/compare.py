"""Two-run comparison of result files written by ``run.py``.

For each workload and metric it prints both sides' median and quartiles and
the ratio of the medians with its base.  An end-to-end metric is
*unresolved* when either side's spread (quartile distance over median) is
wider than its bound, unless every run of one side reads better than every
run of the other; otherwise it is *worse* when the second side's median is
worse by more than the bound, *better* when it is better by more than the
bound, and *same* between.  Per-layer metrics have no bound and get only
the ratio.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load_results(path) -> dict:
    """``{(workload, trace): {metric: [values]}}`` plus the machines seen."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    machines = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            env = rec["env"]
            machines.add((env["cpu_model"], env["nproc"], env["python"],
                          env["numpy"]))
            key = (env["workload"], bool(env["trace"]))
            for name, m in rec["result"]["metrics"].items():
                runs[key][name].append(m["value"])
    return runs, machines


def quartiles(xs) -> tuple:
    """First quartile, median and third quartile, interpolated within the
    data so that a few runs do not widen the spread beyond their range."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def spread(xs) -> float:
    q1, m, q3 = quartiles(xs)
    return (q3 - q1) / m if m else 0.0


def verdict(a, b, bound, better: str) -> str:
    ma, mb = statistics.median(a), statistics.median(b)

    def worse(x, y):  # y worse than x
        return y > x if better == "lower" else y < x

    if max(spread(a), spread(b)) > bound:
        if all(worse(x, y) for x in a for y in b):
            return "worse"
        if all(worse(y, x) for x in a for y in b):
            return "better"
        return "unresolved"
    if ma == 0:
        return "same" if mb == 0 else "unresolved"
    change = (mb - ma) / abs(ma)
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def compare(path_a, path_b, spec: dict) -> str:
    a_runs, a_machines = load_results(path_a)
    b_runs, b_machines = load_results(path_b)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    if len(a_machines | b_machines) > 1:
        lines.append("WARNING: runs come from different machines or "
                     f"toolchains: {sorted(a_machines | b_machines)}")
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, traced = key
        lines.append(f"== {workload} ({'traced' if traced else 'untraced'})"
                     f"  runs: {len(next(iter(a_runs[key].values())))} vs "
                     f"{len(next(iter(b_runs[key].values())))}")
        lines.append(f"{'metric':<36} {'A q1/med/q3':>32} "
                     f"{'B q1/med/q3':>32} {'B/A':>8}  verdict")
        for name in sorted(set(a_runs[key]) & set(b_runs[key])):
            a, b = a_runs[key][name], b_runs[key][name]

            def q(xs):
                return "/".join(f"{v:.4g}" for v in quartiles(xs))

            ma = statistics.median(a)
            ratio = f"{statistics.median(b) / ma:.3f}" if ma else "-"
            spec_m = bounds.get(name)
            v = verdict(a, b, spec_m["bound"], spec_m["better"]) \
                if spec_m else "-"
            lines.append(f"{name:<36} {q(a):>32} {q(b):>32} {ratio:>8}  "
                         f"{v} (base {ma:.4g})")
    return "\n".join(lines)
