"""Tests of the benchmark itself: inputs, metric names, the gate, the span
arithmetic, the reference clock and the two-run comparison.  Run from the
repository root:

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math

import pytest

import compare
import gate
import harness
import speed
import tracer as tr
import workloads as wl
from ehresmann.report import DevTracker


def small_verify(samples=3):
    """verify-builtins with a cheap config, for fixtures on trivial-r3."""
    w = wl.VerifyWorkload("verify-builtins", seed=1)
    w.cfg = dataclasses.replace(w.cfg, samples=samples)
    return w


# -- inputs -----------------------------------------------------------------


def test_equal_seeds_give_identical_eval_inputs():
    a = wl.EvalSweep(3).inputs(sweeps=2)
    assert a == wl.EvalSweep(3).inputs(sweeps=2)
    assert a != wl.EvalSweep(4).inputs(sweeps=2)
    points = [(label, p) for label, _, p in a]
    assert len(set(points)) == len(points), "a point was revisited"


def test_equal_seeds_give_identical_verify_inputs():
    a = wl.VerifyWorkload("verify-builtins", 3).inputs()
    assert a == wl.VerifyWorkload("verify-builtins", 3).inputs()
    assert a != wl.VerifyWorkload("verify-builtins", 4).inputs()


# -- metric names -----------------------------------------------------------


def test_metric_names_match_spec():
    spec = harness.load_spec()
    assert set(wl.END_TO_END) == set(harness.metric_units(spec, False))
    assert list(wl.PER_LAYER) == [x["name"] for x in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    units = harness.metric_units(spec, False)
    with pytest.raises(harness.BenchSetupError):
        harness.attach_units({"setup_s": 1.0}, units)


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metric_names_match_spec(trace):
    values, tally, _, _ = wl.run("eval-sweep", seed=2, seconds=0.2,
                                 trace=trace)
    units = harness.metric_units(harness.load_spec(), trace)
    assert set(harness.attach_units(values, units)) == set(units)
    assert tally.attempted > 0 and tally.failed == 0


# -- the gate ---------------------------------------------------------------


def test_gate_passes_clean_scenario():
    w = small_verify()
    _, tally = w.verify_all(wl.build_scenarios(["trivial-r3"], w.cfg))
    assert tally.attempted == len(w.manifest["trivial-r3"])
    assert tally.failed == 0, tally.problems


def test_gate_catches_wrong_expected_coefficient():
    w = small_verify()
    scen = wl.build_scenarios(["trivial-r3"], w.cfg)["trivial-r3"]
    row = next(r for r in scen.expected if r.coeffs)
    name = next(iter(row.coeffs))
    row.coeffs[name] = f"({row.coeffs[name]})+0.001"
    _, tally = w.verify_all({"trivial-r3": scen})
    assert tally.failed >= 1

    ev = wl.EvalSweep(1)
    p = scen.space.sample_points(w.cfg)[0]
    out = ev.op_field(scen, row)
    comps = out.values(p)
    assert ev.gate_one("trivial-r3", row, p, comps,
                       scen.coefficients(out, p)).failed == 1


def test_dev_tracker_keeps_nan():
    tracker = DevTracker()
    for dev in (0.1, math.nan, 0.5):
        tracker.update(dev, (dev,))
    assert math.isnan(tracker.max_dev)
    assert not tracker.record("c", "ref", 1.0).passed


def test_gate_catches_nan_deviation():
    w = small_verify()
    scen = wl.build_scenarios(["trivial-r3"], w.cfg)["trivial-r3"]
    row = next(r for r in scen.expected if r.coeffs)
    name = next(iter(row.coeffs))
    row.coeffs[name] = lambda p: math.nan
    _, tally = w.verify_all({"trivial-r3": scen})
    assert tally.failed == 1, tally.problems
    assert tally.attempted == len(w.manifest["trivial-r3"])
    assert "nan" in tally.problems[0]

    ev = wl.EvalSweep(1)
    p = scen.space.sample_points(w.cfg)[0]
    out = ev.op_field(scen, row)
    assert ev.gate_one("trivial-r3", row, p, out.values(p),
                       scen.coefficients(out, p)).failed == 1


def test_gate_counts_raising_verification_and_manifest_drift():
    w = small_verify()
    scen = wl.build_scenarios(["trivial-r3"], w.cfg)["trivial-r3"]

    def boom(cfg):
        raise RuntimeError("injected")

    scen.extra_checks = [boom]
    _, tally = w.verify_all({"trivial-r3": scen})
    n = len(w.manifest["trivial-r3"])
    assert (tally.attempted, tally.failed) == (n, n)

    report = json.dumps({"records": [
        {"check_id": "a", "max_dev": 0.0, "threshold": 1.0},
        {"check_id": "c", "max_dev": 0.0, "threshold": 1.0}]})
    drift = gate.gate_report(report, ["a", "b"])
    assert (drift.attempted, drift.failed) == (3, 2)


# -- spans ------------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    S = tr.Span
    spans = [S(0, "root", "t", None, 0.0, 10.0),
             S(1, "a", "t", 0, 1.0, 4.0),
             S(2, "b", "t", 0, 3.0, 6.0),     # overlaps a: counted once
             S(3, "c", "t", 1, 2.0, 3.0),
             S(4, "a", "u", None, 20.0, 21.5)]
    selfs = tr.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})
    assert tr.totals_by_name(spans, self_only=True) == pytest.approx(
        {"root": 5.0, "a": 3.5, "b": 3.0, "c": 1.0})
    assert tr.totals_by_name(spans, self_only=False)["a"] == pytest.approx(4.5)


def test_tracer_restores_originals():
    from ehresmann import geometry, jets, scenarios
    before = (scenarios.expected_table_checks, jets.Jet.__mul__,
              geometry.VectorField.at, scenarios.build_connection)
    t = tr.install()
    assert scenarios.build_connection is not before[3]
    t.uninstall()
    assert before == (scenarios.expected_table_checks, jets.Jet.__mul__,
                      geometry.VectorField.at, scenarios.build_connection)


# -- reference clock --------------------------------------------------------


def test_reference_clock_scales_and_subtracts_calibration():
    clock = speed.ReferenceClock()
    cal = 2 * speed.NOMINAL_S  # the calibration ran at half speed
    clock.times = [10.0 + 0.05 * i for i in range(21)]
    clock.durations = [cal] * 21
    interval = (10.21, 10.79)  # samples 5 to 15 start inside it
    assert clock.unscaled(interval) == pytest.approx(0.58 - 11 * cal)
    assert clock.seconds(interval) == pytest.approx((0.58 - 11 * cal) / 2)
    # an interval with no sample inside takes the speed of the next one
    clock = speed.ReferenceClock()
    clock.times = [10.0 + 0.05 * i for i in range(21)]
    clock.durations = [speed.NOMINAL_S] * 21
    assert clock.seconds((9.0, 9.1)) == pytest.approx(0.1)


def test_reference_clock_follows_a_speed_change():
    clock = speed.ReferenceClock()
    clock.times = [0.05 * i for i in range(80)]
    # half speed for the first two seconds, reference speed after
    clock.durations = [2 * speed.NOMINAL_S] * 40 + [speed.NOMINAL_S] * 40
    work = 4.0 - sum(clock.durations)
    assert clock.unscaled((0.0, 4.0)) == pytest.approx(work)
    assert clock.seconds((0.0, 4.0)) == pytest.approx(3.0, abs=0.05)


# -- comparison -------------------------------------------------------------


def _write_runs(path, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(json.dumps({
                "env": {"workload": "eval-sweep", "trace": False,
                        "cpu_model": "cpu", "nproc": 2, "python": "3",
                        "numpy": "2"},
                "result": {"metrics": {"verify_s": {"value": v,
                                                    "unit": "s"}}}}) + "\n")


@pytest.mark.parametrize("a, b, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.0, 1.02, 0.98, 1.01], "same"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "worse"),
    ([1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], "better"),
    ([0.5, 1.0, 1.5, 1.0, 0.6, 1.4], [0.6, 1.05, 1.4, 0.9, 0.7, 1.3],
     "unresolved"),
])
def test_compare_verdicts(tmp_path, a, b, expected):
    _write_runs(tmp_path / "a.jsonl", a)
    _write_runs(tmp_path / "b.jsonl", b)
    text = compare.compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl",
                           harness.load_spec())
    row = next(line for line in text.splitlines()
               if line.startswith("verify_s"))
    assert f" {expected} (base " in row
