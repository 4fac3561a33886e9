"""Plumbing shared by the benchmark: loading the package from the checkout,
the metric spec in BENCHMARK.json, memory readings and the environment
record that goes with every result."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"


class BenchSetupError(Exception):
    """The checkout cannot be benchmarked (missing sources or spec)."""


def load_package():
    """Import ``ehresmann`` from ``src/`` of this checkout, never from an
    installed copy, so the benchmark always measures the tree it sits in."""
    src = ROOT / "src"
    init = src / "ehresmann" / "__init__.py"
    if not init.is_file():
        raise BenchSetupError(f"no package sources at {init}")
    sys.path.insert(0, str(src))
    import ehresmann
    if Path(ehresmann.__file__).resolve() != init.resolve():
        raise BenchSetupError(
            f"imported ehresmann from {ehresmann.__file__}, not {init}")
    return ehresmann


def load_spec() -> dict:
    if not SPEC_PATH.is_file():
        raise BenchSetupError(f"missing {SPEC_PATH}")
    return json.loads(SPEC_PATH.read_text())


def metric_units(spec: dict, trace: bool) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def attach_units(values: dict, units: dict) -> dict:
    """Pair measured values with their spec units; the emitted names must be
    exactly the spec's names."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchSetupError(
            f"metric names differ from BENCHMARK.json: missing {missing}, "
            f"unexpected {extra}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def rss_kb() -> float:
    """Current resident set size from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from .git, without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, trace: bool,
                seconds: float) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
    }
