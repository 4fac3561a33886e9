"""Check records shared by the validators, scenario suites and the CLI.

Every deviation check folds field roots through :func:`fold`.  Outside a
plan a fold runs at once.  While a plan collects (``geometry.Plan``, opened
by ``run_scenario_checks``), :func:`fold` registers the fold with it
instead, and a record whose deviation a registered fold decides is
completed when the plan runs that fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: The plan that collects the folds of a verification run, or ``None``.
collecting = None


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


def fold(points, roots, consume, fallback) -> None:
    """``consume`` the rows of each root over ``points`` (``root.rows``,
    one array per root, evaluated in order), or run ``fallback`` when an
    evaluation raises.  At once, or, while a plan collects, when the plan
    runs it, after the folds registered before it."""
    if collecting is not None:
        collecting.add(points, roots, consume, fallback)
    else:
        run_fold(roots, lambda root: root.rows(points), consume, fallback)


def run_fold(roots, rows, consume, fallback) -> None:
    """``consume([rows(root) for root in roots])``, or ``fallback()`` when
    one of those evaluations raises."""
    try:
        arrays = [rows(root) for root in roots]
    except Exception:
        arrays = None
    if arrays is None:
        fallback()
    else:
        consume(arrays)


def deferred(check_id: str, reference: str, threshold: float,
             result) -> CheckRecord:
    """A record that ``result()``, its ``(max_dev, worst_point)``, completes
    after the folds registered so far (at once outside a plan); until then
    it holds a NaN and fails, so a check can never pass unread."""
    rec = CheckRecord(check_id, reference, math.nan, threshold, False)

    def complete(arrays):
        rec.max_dev, rec.worst_point = result()
        rec.passed = rec.max_dev < threshold

    fold((), (), complete, None)
    return rec


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
    While a fold registered with a plan waits to run, the tracker holds
    back ``max_dev`` and ``worst_point``: reading either raises.
    """

    def __init__(self):
        self.max_dev = 0.0
        self.worst_point = None

    def __getattr__(self, name):
        if name in ("max_dev", "worst_point"):
            raise RuntimeError(f"{name} was read before the plan ran the "
                               f"fold its tracker registered")
        raise AttributeError(name)

    def _waiting(self) -> bool:
        return "max_dev" not in vars(self)

    def update(self, dev: float, point=None):
        if not dev <= self.max_dev and self.max_dev == self.max_dev:
            self.max_dev = dev
            self.worst_point = tuple(point) if point is not None else None

    def fold(self, points, roots, consume, fallback):
        """:func:`fold` into this tracker, which holds back its deviation
        while the fold waits for a plan."""
        if collecting is None:
            fold(points, roots, consume, fallback)
            return
        if not self._waiting():
            self._held = self.max_dev, self.worst_point
            del self.max_dev, self.worst_point

        def ran(step):
            def run(*args):
                if self._waiting():
                    self.max_dev, self.worst_point = vars(self).pop("_held")
                step(*args)
            return run

        fold(points, roots, ran(consume), ran(fallback))

    def track(self, points, *fields):
        """Fold in each field's largest absolute component at each point,
        points outer and fields inner, and return the tracker.  A scalar
        field's value is its one component.  Over several points each field
        is evaluated once for the whole point set; when that raises, each
        point is evaluated alone, in order, so the error is the per-point
        loop's.  The fold counts as a reader of each field, so a root
        nothing else reads stores nothing.  While a plan collects, the fold
        is registered with it."""
        points = list(points)
        for f in fields:
            f.readers += 1

        def consume(arrays):
            devs = zip(*([max_abs(row) for row in a.tolist()]
                         for a in arrays))
            for p, row in zip(points, devs):
                for dev in row:
                    self.update(dev, p.values)

        def point_by_point():
            rows = [[f.rows([p]) for f in fields] for p in points]
            consume([np.concatenate(col) for col in zip(*rows)])

        self.fold(points, fields, consume, point_by_point)
        return self

    def track_now(self, points, *fields):
        """:meth:`track` at once, even while a plan collects: for a
        deviation that decides what a check does next."""
        global collecting
        plan, collecting = collecting, None
        try:
            return self.track(points, *fields)
        finally:
            collecting = plan

    def record(self, check_id: str, reference: str,
               threshold: float) -> CheckRecord:
        """The tracker's record, complete at once unless a fold it
        registered still waits for its plan (see :func:`deferred`)."""
        if self._waiting():
            return deferred(check_id, reference, threshold,
                            lambda: (self.max_dev, self.worst_point))
        return CheckRecord(check_id, reference, self.max_dev, threshold,
                           self.max_dev < threshold, self.worst_point)
