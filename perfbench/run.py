#!/usr/bin/env python3
"""Benchmark entry point.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload verify-builtins --seed 1 \
        --seconds 10 --trace 0

It prints every metric with its unit, the environment record, and as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  Each run also appends its full record to
``.bench_out/results.jsonl``; the traced run writes its spans to
``.bench_out/trace-<workload>-<seed>.json``.  Compare two result files:

    python3 perfbench/run.py --compare A.jsonl B.jsonl
"""

import os

# one thread per process: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ns = parser.parse_args(argv)

    try:
        spec = harness.load_spec()
        if ns.compare:
            import compare
            print(compare.compare(ns.compare[0], ns.compare[1], spec))
            return 0
        harness.load_package()
    except harness.BenchSetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    import gate
    import workloads
    gate.keep_nan_deviations()
    if ns.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    trace = bool(ns.trace)
    env = harness.environment(ns.workload, ns.seed, trace, ns.seconds)
    values, tally, info, tracer = workloads.run(ns.workload, ns.seed,
                                                ns.seconds, trace)
    env["loadavg_end"] = list(os.getloadavg())
    metrics = harness.attach_units(values,
                                   harness.metric_units(spec, trace))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    harness.OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(harness.OUT_DIR / f"trace-{ns.workload}-{ns.seed}.json")
    with open(harness.OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "info": info, "result": result})
                 + "\n")

    for problem in tally.problems:
        print(f"GATE: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"gate: {tally.attempted - tally.failed}/{tally.attempted} passed")
    print(json.dumps({"env": env, "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
