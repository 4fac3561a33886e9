"""Tests for the deviation tracker that every check folds through."""

from __future__ import annotations

import math
from types import SimpleNamespace

from ehresmann.report import DevTracker


class _Fixed:
    """A stand-in field with the same components at every point."""

    def __init__(self, comps):
        self.comps = comps

    def values(self, point):
        return self.comps


def _point(*values):
    return SimpleNamespace(values=values)


def test_track_keeps_nan_in_second_component():
    # the builtin max over [0.5, nan, 0.25] returns 0.5 and hides the NaN
    tracker = DevTracker()
    tracker.track([_point(0.0), _point(1.0), _point(2.0)],
                  _Fixed([0.1]), _Fixed([0.5, math.nan, 0.25]),
                  _Fixed([7.0]))
    assert math.isnan(tracker.max_dev)
    assert tracker.worst_point == (0.0,)
    rec = tracker.record("nan", "test", 1e-8)
    assert not rec.passed

