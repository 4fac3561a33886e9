#!/usr/bin/env python3
"""Run the verification suite of every built-in scenario and summarize.

Each line also gives the cache entries the scenario's fields hold after
its run and the peak resident memory of the process so far."""

import argparse
import gc
import resource
import sys
import time

from ehresmann.geometry import CheckConfig, _Field
from ehresmann import scenarios as sc
from ehresmann.report import max_abs


def live_entries() -> int:
    """Cache entries held by the live fields, frame solves included."""
    gc.collect()
    return sum(len(o._cache) for o in gc.get_objects()
               if isinstance(o, _Field))


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
    for name in sorted(sc.BUILTIN_BUILDERS):
        t0 = time.time()
        scen = sc.build_scenario(name, cfg)
        records = sc.run_scenario_checks(scen, cfg)
        seconds = time.time() - t0
        bad = [r for r in records if not r.passed]
        failures += len(bad)
        worst = max_abs(r.max_dev for r in records)
        status = "ok" if not bad else f"{len(bad)} FAILED"
        print(f"{name:<20} {len(records):>3} checks  worst dev "
              f"{worst:.2e}  {seconds:5.1f}s  {live_entries():>5} entries  "
              f"peak {peak_rss_mb():5.1f} MB  {status}")
        for r in bad:
            print(f"    FAIL {r.check_id}: {r.max_dev:.3e} "
                  f"(tol {r.threshold:.1e})")
    print("all scenarios clean" if failures == 0
          else f"{failures} failed checks")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
