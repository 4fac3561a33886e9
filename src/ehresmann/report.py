"""Check records, the checks that produce them, and the fold behind both.

A :class:`Check` is a value that evaluates nothing; ``geometry.run_checks``
folds a list of them and returns their records.  It is the one fold path:
a verification folds its checks as one run, and a build's validation or a
predicate that needs a deviation right away folds its own at once
(``run_checks(..., at_once=True)``).  Both count the reads of every root
before they fold, and each fold accumulates into a :class:`DevTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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


def row_devs(rows):
    """Each row's largest absolute value, bit-equal to :func:`max_abs`."""
    return np.abs(rows).max(axis=-1)


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


def fold(tracker, points, roots, rows) -> None:
    """Fold ``roots`` over ``points`` into ``tracker``, from ``rows(root)``,
    one array per root, evaluated in order: each root's largest absolute
    component at each point, points outer and roots inner.  When an
    evaluation raises, each point is evaluated as a one-point set, points
    outer and roots inner, so the error is the one the point-by-point loop
    raises."""
    try:
        arrays = [rows(root) for root in roots]
    except Exception:
        arrays = [np.concatenate(col) for col in zip(*(
            [f.rows([p]) for f in roots] for p in points))]
    devs = zip(*(row_devs(a).tolist() for a in arrays))
    for p, row in zip(points, devs):
        for dev in row:
            tracker.update(dev, p.values)


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

    def record(self, check_id: str, reference: str,
               threshold: float) -> CheckRecord:
        return CheckRecord(check_id, reference, self.max_dev, threshold,
                           self.max_dev < threshold, self.worst_point)


@dataclass(eq=False)
class Check:
    """One identity to verify: its record's id, reference and threshold
    and the ``(points, roots, reduction)`` folds that decide its
    deviation, in order, each folded as ``reduction(tracker, points,
    roots, rows)``: :meth:`track` adds the worst over points and roots
    (:func:`fold`), ``geometry.FieldStack.track`` a read per member.  A
    ``quiet`` check names its worst point only when it fails; ``derive``
    decides the deviation from the ``record`` of checks folded before."""

    check_id: str
    reference: str
    threshold: float
    quiet: bool = False
    derive: object = None
    folds: list = field(default_factory=list)
    record: CheckRecord | None = None

    def track(self, points, *fields) -> "Check":
        """Add the fold of each field's largest absolute component at each
        point, points outer and fields inner (:func:`fold`); a scalar
        field's value is its one component.  The runner counts the fold's
        read of each field, so a root that nothing else in the fold reads,
        and that is not shared, stores nothing."""
        self.folds.append((list(points), fields, fold))
        return self

    def finish(self, tracker: DevTracker) -> CheckRecord:
        """The record of ``tracker``, which the folds ran into."""
        if self.derive is not None:
            tracker.max_dev = self.derive()
        rec = tracker.record(self.check_id, self.reference, self.threshold)
        if self.quiet and rec.passed:
            rec.worst_point = None
        self.record = rec
        return rec
