#!/usr/bin/env python3
"""Run the verification suite of every built-in scenario and summarize.

Each line gives the seconds of the scenario's build (its own validations
included) and of its checks apart, the cache entries the live fields hold
after the build and after the run, the megabytes the entries after the run
retain, the memo entries the scenario holds after its build and after its
run, the peak of the memory
Python allocations hold during the scenario's build and checks
(``tracemalloc``, which slows the run), and the peak resident memory of
the process so far, which hides the peak of each scenario after the
first."""

import argparse
import gc
import resource
import sys
import time
import tracemalloc

import numpy as np

from ehresmann.geometry import CheckConfig, Endo11, _Field
from ehresmann import scenarios as sc
from ehresmann.report import max_abs


def live_entries() -> tuple:
    """The cache entries held by the live fields, frame solves included,
    and the megabytes of their batches (a constant scalar field may store
    a bare number)."""
    gc.collect()
    entries = [np.asarray(getattr(hit, "a", hit))
               for o in gc.get_objects() if isinstance(o, _Field)
               for hit in o._cache.values()]
    return len(entries), sum(a.nbytes for a in entries) / 2 ** 20


def memo_entries(scen) -> int:
    """The memo entries of ``nabla`` and of every ``Endo11`` that the
    split or the connection holds, alone or in a tuple, each once."""
    endos = {e for obj in (scen.split, scen.conn)
             for v in vars(obj).values()
             for e in (v if isinstance(v, tuple) else (v,))
             if isinstance(e, Endo11)}
    return len(scen.nabla._memo) + sum(len(e._memo) for e in endos)


def peak_rss_mb() -> float:
    """The process's peak resident set size (``ru_maxrss`` is in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--depth", type=int, default=3)
    ns = parser.parse_args()
    cfg = CheckConfig(ns.seed, ns.samples, ns.tol, ns.depth)

    failures = 0
    tracemalloc.start()
    for name in sorted(sc.BUILTIN_BUILDERS):
        tracemalloc.reset_peak()
        t0 = time.time()
        scen = sc.build_scenario(name, cfg)
        build_s = time.time() - t0
        built, kept = memo_entries(scen), live_entries()[0]
        t1 = time.time()
        records = sc.run_scenario_checks(scen, cfg)
        check_s = time.time() - t1
        traced = tracemalloc.get_traced_memory()[1] / 2 ** 20
        bad = [r for r in records if not r.passed]
        failures += len(bad)
        worst = max_abs(r.max_dev for r in records)
        status = "ok" if not bad else f"{len(bad)} FAILED"
        entries, mb = live_entries()
        print(f"{name:<20} {len(records):>3} checks  worst dev "
              f"{worst:.2e}  build {build_s:5.2f}s  checks {check_s:5.2f}s  "
              f"entries {kept:>5} -> {entries:>5} ({mb:5.1f} MB)  "
              f"memo {built:>4} -> {memo_entries(scen):>4}  "
              f"traced peak {traced:5.1f} MB  "
              f"peak {peak_rss_mb():5.1f} MB  {status}")
        for r in bad:
            print(f"    FAIL {r.check_id}: {r.max_dev:.3e} "
                  f"(tol {r.threshold:.1e})")
        scen = records = bad = None     # out of the next scenario's peak
    print("all scenarios clean" if failures == 0
          else f"{failures} failed checks")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
