"""The correctness gate.

It does not trust ``CheckRecord.passed`` or the report's ``pass`` field: a
record passes only when its ``max_dev`` is finite and below its threshold.
The check ids of every verified scenario must equal the manifest pinned in
``manifests.json``.  Eval answers are compared with the expected-table row
evaluated independently at the query point.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ehresmann import expr as ex

MANIFEST_PATH = Path(__file__).resolve().parent / "manifests.json"


def load_manifests() -> dict:
    """``{workload: {scenario label: [check ids in run order]}}``."""
    return json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))


def keep_nan_deviations():
    """Make ``DevTracker`` keep a NaN deviation.

    ``DevTracker.update`` keeps ``dev`` only when ``dev > self.max_dev``,
    which is false for NaN, so a check whose deviations are NaN records a
    finite ``max_dev`` and passes.  The replacement keeps every deviation
    that is not at most the worst so far, NaN included, and never replaces
    a NaN worst; the common case still costs one comparison.  ``max_dev``
    then reads NaN and ``record_ok`` fails the record.
    """
    from ehresmann import report

    def update(self, dev: float, point=None):
        if not dev <= self.max_dev and self.max_dev == self.max_dev:
            self.max_dev = dev
            self.worst_point = tuple(point) if point is not None else None

    report.DevTracker.update = update


def record_ok(max_dev, threshold) -> bool:
    return (isinstance(max_dev, (int, float)) and math.isfinite(max_dev)
            and max_dev < threshold)


@dataclass
class GateTally:
    """Attempted and failed checks (or queries), with the first failures."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def merge(self, other: "GateTally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[:20 - len(self.problems)])


def gate_report(report_json: str, expected_ids) -> GateTally:
    """Gate one serialized verify report against its manifest ids."""
    tally = GateTally()
    records = json.loads(report_json)["records"]
    tally.attempted = len(records)
    for rec in records:
        if not record_ok(rec["max_dev"], rec["threshold"]):
            tally.fail(1, f"{rec['check_id']}: max_dev {rec['max_dev']!r} "
                          f"not finite and below {rec['threshold']!r}")
    got = Counter(rec["check_id"] for rec in records)
    want = Counter(expected_ids)
    missing = want - got
    unexpected = got - want
    if missing:
        n = sum(missing.values())
        tally.attempted += n
        tally.fail(n, f"missing check ids: {sorted(missing)[:5]}")
    if unexpected:
        tally.fail(sum(unexpected.values()),
                   f"check ids not in the manifest: {sorted(unexpected)[:5]}")
    return tally


def raised(expected_ids, label: str, exc: BaseException) -> GateTally:
    """A verification that raised fails every check it should have made."""
    tally = GateTally(attempted=max(1, len(expected_ids)))
    tally.fail(tally.attempted, f"{label} raised {type(exc).__name__}: {exc}")
    return tally


def expected_value(entry, point) -> float:
    """An expected-table entry at a point, evaluated without the package's
    own table helpers: a callable oracle, a number, or an expression."""
    if callable(entry):
        return float(entry(point))
    if isinstance(entry, (int, float)):
        return float(entry)
    node = ex.parse(entry) if isinstance(entry, str) else entry
    return float(ex.evaluate(node, dict(zip(point.space.coords,
                                            point.values))))


def answer_deviation(row, point, coeffs: dict) -> float:
    """Worst |answer - expected| over the frame coefficients of one query;
    coefficients off the frame's span are expected to vanish."""
    worst = 0.0
    for name, got in coeffs.items():
        want = 0.0 if name.startswith("offspan") else \
            expected_value(row.coeffs.get(name, 0.0), point)
        dev = abs(got - want)
        if not math.isfinite(dev):
            return math.inf
        worst = max(worst, dev)
    return worst


def gate_answer(row, point, coeffs: dict, tolerance: float,
                label: str) -> GateTally:
    tally = GateTally(attempted=1)
    tol = row.tol if row.tol is not None else tolerance
    dev = answer_deviation(row, point, coeffs)
    if not record_ok(dev, tol):
        tally.fail(1, f"{label} at {point}: deviation {dev!r} vs tol {tol}")
    return tally
