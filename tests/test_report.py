"""Tests for the deviation tracker that every check folds through."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from ehresmann.expr import EvalDomainError
from ehresmann.geometry import ChartedSpace, ScalarField, VectorField
from ehresmann.report import DevTracker, max_abs


class _Fixed:
    """A stand-in field with the same components at every point of a
    point set."""

    def __init__(self, comps):
        self.comps = comps

    def values(self, points):
        return [self.comps for _ in points]


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



# ---------------------------------------------------------------------------
# batched track against the per-point fold
# ---------------------------------------------------------------------------


def _scalar_track(points, *fields):
    """The per-point fold ``track`` replaces: points outer, fields inner."""
    tracker = DevTracker()
    for p in points:
        for f in fields:
            tracker.update(max_abs(f.values(p)), p.values)
    return tracker


def _outcome(fn):
    try:
        tracker = fn()
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)
    return tracker.max_dev.hex(), tracker.worst_point


def _line():
    space = ChartedSpace("line", ("x", "y"))
    return space, [space.point(v) for v in
                   [(0.5, 2.0), (-0.5, 2.0), (0.0, 0.5), (0.25, -1.0)]]


# inf - inf at x = 0, where 1e10 / 1e-300 overflows; 0 elsewhere
_NAN_AT_X0 = "1e10/(x*x+1e-300)-1e10/(x*x+1e-300)"

_EXPECTED = {
    "tie": ((0.5).hex(), (0.5, 2.0)),
    "nan-later": ("nan", (0.0, 0.5)),
    "nan-second-field": ("nan", (0.0, 0.5)),
    "raise-order": (EvalDomainError, "domain error in 'ln' at 'ln(y-3.0)': "
                                     "argument -1.0 is not positive"),
    "raise-at-k": (EvalDomainError, "domain error in 'sqrt' at 'sqrt(y-1.0)': "
                                    "argument -0.5 is negative"),
}


@pytest.mark.parametrize("case,components", [
    # |x| ties at the first two points: the first one wins
    ("tie", [("x", "0")]),
    # a larger finite deviation first, then a NaN that sticks
    ("nan-later", [("10*y", _NAN_AT_X0)]),
    # a NaN in the second field
    ("nan-second-field", [("y", "0"), ("0", _NAN_AT_X0)]),
    # the first field raises at the second point, the second at the first
    ("raise-order", [("ln(x+0.1)", "0"), ("ln(y-3)", "0")]),
    ("raise-at-k", [("sqrt(y-1)", "x")]),
])
def test_batched_track_matches_the_per_point_fold(case, components):
    space, points = _line()
    fields = [VectorField.from_exprs(space, c, f"f{i}")
              for i, c in enumerate(components)]
    got = _outcome(lambda: _track(points, *fields))
    assert got == _outcome(lambda: _scalar_track(points, *fields))
    assert got == _EXPECTED[case]


def _track(points, *fields):
    tracker = DevTracker()
    tracker.track(points, *fields)
    return tracker


def test_track_folds_a_scalar_field_as_one_value_per_point():
    space, points = _line()
    f = ScalarField.from_expr(space, "x*y - 1")
    tracker = DevTracker()
    assert tracker.track(points, f) is tracker
    want = max(points, key=lambda p: abs(f.value_at(p)))
    assert tracker.max_dev == abs(f.value_at(want))
    assert tracker.worst_point == want.values
    assert f.values(points) == [[f.value_at(p)] for p in points]


def test_batched_track_reports_python_floats():
    space, points = _line()
    tracker = _track(points, VectorField.from_exprs(space, ("x*y", "y"), "f"))
    assert type(tracker.max_dev) is float
    assert all(type(v) is float for v in tracker.worst_point)
