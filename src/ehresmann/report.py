"""Check records shared by the validators, scenario suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckRecord:
    """One verified identity: its worst deviation against a threshold."""

    check_id: str
    reference: str
    max_dev: float
    threshold: float
    passed: bool
    worst_point: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "reference": self.reference,
            "max_dev": self.max_dev,
            "threshold": self.threshold,
            "pass": self.passed,
            "worst_point": list(self.worst_point)
            if self.worst_point is not None else None,
        }


def max_abs(values) -> float:
    """The largest absolute value, or NaN as soon as one value is NaN.

    The builtin ``max`` keeps or drops a NaN depending on where it sits.
    """
    worst = 0.0
    for v in values:
        v = abs(v)
        if not v <= worst:
            if v != v:
                return v
            worst = v
    return worst


def per_point(points, batched) -> list:
    """One result per point, from ``batched(points)``, one evaluation over
    the point set.  When that raises on several points, each point is
    evaluated as a one-point set, in order: the error is then the one the
    point-by-point loop raises, at the same point."""
    points = list(points)
    if len(points) > 1:
        try:
            return batched(points)
        except Exception:
            pass
    return [batched([p])[0] for p in points]


class DevTracker:
    """Accumulates the worst deviation and where it happened.

    A NaN deviation is kept and never replaced, so it fails the record.
    """

    def __init__(self):
        self.max_dev = 0.0
        self.worst_point = None

    def update(self, dev: float, point=None):
        if not dev <= self.max_dev and self.max_dev == self.max_dev:
            self.max_dev = dev
            self.worst_point = tuple(point) if point is not None else None

    def track(self, points, *fields):
        """Fold in each field's largest absolute component at each point,
        points outer and fields inner, and return the tracker.  A scalar
        field's value is its one component.  Over several points each field
        is evaluated once for the whole point set.  The fold counts as a
        reader of each field, so a root nothing else reads stores nothing."""
        points = list(points)
        for f in fields:
            f.readers += 1
        devs = per_point(points, lambda pts: list(zip(*(
            [max_abs(row) for row in f.values(pts)] for f in fields))))
        for p, row in zip(points, devs):
            for dev in row:
                self.update(dev, p.values)
        return self

    def record(self, check_id: str, reference: str,
               threshold: float) -> CheckRecord:
        return CheckRecord(check_id, reference, self.max_dev, threshold,
                           self.max_dev < threshold, self.worst_point)
