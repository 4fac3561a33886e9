"""Command-line front end: list scenarios, evaluate operators, verify.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or
construction error.  JSON output is byte-stable for equal configuration;
CSV columns are check_id, reference, max_dev, threshold, pass, worst_point.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field as dc_field

from . import expr as ex
from . import scenarios as sc
from .connection import ConnectionDataError, K_HORIZONTAL, K_VERTICAL
from .covderiv import OPS, assemble, op_field
from .geometry import (
    ChartedSpace, CheckConfig, Frame, GeometryError, OffManifoldError,
    VectorField,
)


@dataclass
class Report:
    """Per-check records plus the configuration echo and summary counts."""

    config: dict
    records: list = dc_field(default_factory=list)

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {"total": len(self.records), "passed": passed,
                "failed": len(self.records) - passed}

    @property
    def ok(self) -> bool:
        return self.summary["failed"] == 0

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "records": [r.as_dict() for r in self.records],
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_id", "reference", "max_dev", "threshold",
                         "pass", "worst_point"])
        for r in self.records:
            writer.writerow([
                r.check_id, r.reference, repr(r.max_dev), repr(r.threshold),
                "pass" if r.passed else "FAIL",
                "" if r.worst_point is None
                else ";".join(repr(v) for v in r.worst_point)])
        return buf.getvalue()

    def to_table(self) -> str:
        lines = []
        width = max((len(r.check_id) for r in self.records), default=10)
        for r in self.records:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"{r.check_id:<{width}}  {status}  "
                         f"max_dev={r.max_dev:.3e}  tol={r.threshold:.1e}")
        s = self.summary
        lines.append(f"{s['passed']}/{s['total']} checks passed"
                     + (f", {s['failed']} FAILED" if s["failed"] else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


class ScenarioFileError(Exception):
    def __init__(self, path, where, message):
        self.path = path
        self.where = where
        super().__init__(f"{path}: {where}: {message}")


def _check(ok, path, where, message):
    if not ok:
        raise ScenarioFileError(path, where, message)


REQUIRED = object()

# The keys of each node of a scenario file, the one list of them: key ->
# (JSON type, default or REQUIRED, allowed values...; none means any).  A
# ``float`` takes any number, never a bool.  ``None`` defaults of ``name``
# and ``description`` stand for the file's stem and "loaded from <path>".
SCHEMA = {
    "document": {
        "name": (str, None), "space": (dict, REQUIRED),
        "fields": (dict, REQUIRED), "split": (dict, REQUIRED),
        "expected": (list, ()), "metric": (str, None, "ambient-dot"),
        "section": (str, "scenario file"), "description": (str, None),
        "notes": (str, "")},
    "space": {
        "coords": (list, REQUIRED), "intervals": (dict, {}),
        "constraints": (list, ()), "base": (list, ()),
        "sphere": (bool, False)},
    "split": {
        "k": (list, REQUIRED), "blocks": (list, REQUIRED),
        "orientation": (str, K_VERTICAL, K_VERTICAL, K_HORIZONTAL),
        "pairings": (list, None)},
    "expected": {
        "op": (str, REQUIRED, *OPS), "args": (list, REQUIRED),
        "coeffs": (dict, {}), "ref": (str, "scenario file"),
        "tol": (float, None)},
}


def _read(doc, node, path, where) -> dict:
    """Every key of ``SCHEMA[node]`` read from the dict ``doc``: a missing
    or ``null`` key takes its default (a required one is an error), and a
    present one must have its type and one of its allowed values."""
    _check(isinstance(doc, dict), path, where, "expected dict")
    for key in doc:
        _check(key in SCHEMA[node], path, f"{where}.{key}", "unknown key")
    out = {}
    for key, (kind, default, *allowed) in SCHEMA[node].items():
        value = doc.get(key)
        if value is None:
            _check(default is not REQUIRED, path, where,
                   f"missing key {key!r}")
            value = default
        else:
            _check(isinstance(value, (int, float) if kind is float else kind)
                   and (kind is bool or not isinstance(value, bool)),
                   path, f"{where}.{key}",
                   f"expected {'number' if kind is float else kind.__name__}")
            _check(not allowed or value in allowed, path, f"{where}.{key}",
                   f"unknown value {value!r}; available: {', '.join(allowed)}")
        out[key] = value
    return out


def _finite(value) -> bool:
    """A JSON number, not a boolean, within the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _names(value, path, where) -> list:
    _check(isinstance(value, list) and value
           and all(isinstance(v, str) for v in value),
           path, where, "expected a non-empty list of names")
    return value


def _parse_in(path, where, text, coords):
    """An expression entry, a string or a finite number, over ``coords``."""
    _check(isinstance(text, str) or _finite(text), path, where,
           "expected an expression string or a finite number")
    try:
        e = ex.parse(text) if isinstance(text, str) else ex.Const(float(text))
    except ex.ParseError as exc:
        raise ScenarioFileError(path, where, str(exc)) from None
    unknown = [v for v in ex.free_vars(e) if v not in coords]
    _check(not unknown, path, where, f"uses {unknown}, not coordinates")
    return e


def _load_space(space_doc, name, path, cfg) -> ChartedSpace:
    s = _read(space_doc, "space", path, "space")
    coords = _names(s["coords"], path, "space.coords")
    for c, iv in s["intervals"].items():
        _check(c in coords and isinstance(iv, list) and len(iv) == 2
               and all(map(_finite, iv)) and _finite(iv[1] - iv[0]),
               path, f"space.intervals.{c}",
               "expected [low, high] of finite numbers for a coordinate")
    constraints = tuple(
        _parse_in(path, f"space.constraints[{i}]", text, coords)
        for i, text in enumerate(s["constraints"]))
    try:
        space = ChartedSpace(
            name, tuple(coords),
            tuple(tuple(s["intervals"].get(c, (-1.0, 1.0))) for c in coords),
            constraints, sphere=s["sphere"], base_coords=tuple(s["base"]))
        space.sample_points(cfg)  # a draw off the constraints fails here
    except (ValueError, GeometryError) as exc:
        raise ScenarioFileError(path, "space", str(exc)) from None
    return space


def _load_expected(rows, path, fields, frame_names, coords) -> list:
    expected = []
    for i, row in enumerate(rows):
        where = f"expected[{i}]"
        r = _read(row, "expected", path, where)
        _check(len(r["args"]) == 2
               and all(isinstance(a, str) and a in fields for a in r["args"]),
               path, f"{where}.args",
               f"expected two of the fields {', '.join(fields)}")
        coeffs = {}
        for k, v in r["coeffs"].items():
            _check(k in frame_names, path, f"{where}.coeffs.{k}",
                   f"not a frame field; frame: {', '.join(frame_names)}")
            coeffs[k] = _parse_in(path, f"{where}.coeffs.{k}", v, coords)
        _check(r["tol"] is None or _finite(r["tol"]) and r["tol"] > 0, path,
               f"{where}.tol", "expected a positive number")
        expected.append(sc.ExpectedRow(r["op"], tuple(r["args"]), coeffs,
                                       r["ref"], r["tol"]))
    return expected


def load_scenario_file(path: str,
                       cfg: CheckConfig = None) -> sc.Scenario:
    """Build a scenario from a JSON document through the same constructors
    as the built-ins; every construction-time validation applies, and a
    malformed entry raises :class:`ScenarioFileError` naming its key."""
    cfg = cfg or CheckConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioFileError(path, "file", str(exc)) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(path, "json", str(exc)) from None
    d = _read(doc, "document", path, "document")

    name = (os.path.splitext(os.path.basename(path))[0] if d["name"] is None
            else d["name"])
    space = _load_space(d["space"], name, path, cfg)

    fields = {}
    for fname, comps in d["fields"].items():
        _check(isinstance(comps, list) and len(comps) == space.ambient_dim,
               path, f"fields.{fname}",
               f"needs {space.ambient_dim} component expressions")
        parsed = [_parse_in(path, f"fields.{fname}[{i}]", c, space.coords)
                  for i, c in enumerate(comps)]
        fields[fname] = VectorField.from_exprs(space, parsed, fname)

    s = _read(d["split"], "split", path, "split")

    def frame_of(names, label, where):
        missing = [n for n in _names(names, path, where) if n not in fields]
        _check(not missing, path, where, f"unknown field names {missing}")
        return Frame(tuple(fields[n] for n in names),
                     names[0] if len(names) == 1 else label)

    k_frame = frame_of(s["k"], "K", "split.k")
    _check(s["blocks"], path, "split.blocks", "expected at least one block")
    blocks = [frame_of(b, f"L{i + 1}", f"split.blocks[{i}]")
              for i, b in enumerate(s["blocks"])]
    for i, mat in enumerate(s["pairings"] or ()):
        _check(mat is None or isinstance(mat, list) and all(
            isinstance(row, list) and all(map(_finite, row)) for row in mat),
            path, f"split.pairings[{i}]",
            "expected null or a matrix of numbers")
    try:
        conn, split, nabla = assemble(space, k_frame, blocks,
                                      s["orientation"], cfg, s["pairings"])
    except (ConnectionDataError, GeometryError) as exc:
        raise ScenarioFileError(path, "split", str(exc)) from None

    # the solver's own ordering drives coefficient reporting
    frame_names = tuple(f.name for f in split.solver.fields)
    return sc.Scenario(
        name=name, section=d["section"],
        description=(f"loaded from {path}" if d["description"] is None
                     else d["description"]),
        space=space, conn=conn, split=split, nabla=nabla,
        fields=fields, frame_names=frame_names,
        expected=_load_expected(d["expected"], path, fields, frame_names,
                                space.coords),
        metric=sc.ambient_dot_metric(space) if d["metric"] else None,
        notes=d["notes"])


def _get_scenario(name_or_path: str, cfg: CheckConfig) -> sc.Scenario:
    if name_or_path in sc.BUILTIN_BUILDERS:
        return sc.build_scenario(name_or_path, cfg)
    if os.path.exists(name_or_path):
        return load_scenario_file(name_or_path, cfg)
    known = ", ".join(sorted(sc.BUILTIN_BUILDERS))
    raise KeyError(f"unknown scenario {name_or_path!r} (built-ins: {known}; "
                   f"or pass a scenario file path)")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_list(fmt: str = "table") -> str:
    rows = []
    for n, desc in sorted(sc.CATALOG.items()):
        # section and dimension do not depend on the sample points
        scen = sc.build_scenario(n, CheckConfig(samples=1))
        rows.append((n, scen.section, scen.space.dim, desc))
    if fmt == "json":
        return json.dumps([{"name": n, "section": sect, "dim": dim}
                           for n, sect, dim, _desc in rows],
                          sort_keys=True, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [("name", "section", "dim", "description"), *rows])
        return buf.getvalue()
    return "\n".join(f"{n:<20} dim {dim}  [{sect}]  {desc}"
                     for n, sect, dim, desc in rows)


def cmd_describe(name: str, cfg: CheckConfig) -> str:
    scen = _get_scenario(name, cfg)
    lines = [
        f"scenario: {scen.name}",
        f"section:  {scen.section}",
        f"space:    {scen.space.name}, coordinates "
        f"{', '.join(scen.space.coords)} (dim {scen.space.dim})",
        f"frame:    {', '.join(scen.frame_names)}",
        f"split:    K = {scen.split.k.name or 'K'} + "
        f"{len(scen.split.blocks)} block(s), orientation "
        f"{scen.split.orientation}",
        f"operator: {scen.nabla.provenance}",
        f"expected: {len(scen.expected)} table rows",
        f"fields:   {', '.join(sorted(scen.fields))}",
    ]
    if scen.description:
        lines.append(f"about:    {scen.description}")
    if scen.notes:
        lines.append(f"notes:    {scen.notes}")
    return "\n".join(lines)


_EVAL_OPS = (*OPS, "field", "apply")


def cmd_eval(scenario: str, op: str, args: list, at: list,
             fmt: str = "table") -> str:
    scen = _get_scenario(scenario, CheckConfig())
    point = scen.space.point(at, project=True)

    def field_arg(name):
        if name not in scen.fields:
            known = ", ".join(sorted(scen.fields))
            raise KeyError(f"unknown field {name!r}; available: {known}")
        return scen.fields[name]

    if op == "field":
        out = field_arg(args[0])
    elif op == "apply":
        endos = {"P_V": scen.conn.p_v, "P_H": scen.conn.p_h,
                 scen.split.s_total.name: scen.split.s_total,
                 scen.split.q_total.name: scen.split.q_total,
                 "P_K": scen.split.p_k}
        for e in (*scen.split.s_endos, *scen.split.q_endos,
                  *scen.split.p_blocks):
            endos[e.name] = e
        if args[0] not in endos:
            raise KeyError(f"unknown endomorphism {args[0]!r}; available: "
                           + ", ".join(sorted(endos)))
        out = endos[args[0]](field_arg(args[1]))
    elif op in OPS:
        out = op_field(scen.conn, scen.nabla, op, field_arg(args[0]),
                       field_arg(args[1]))
    else:
        raise KeyError(f"unknown op {op!r}; available: "
                       + ", ".join(_EVAL_OPS))

    comps = out.values(point)
    coeffs = scen.coefficients(out, point)
    if fmt == "json":
        return json.dumps({
            "scenario": scen.name, "op": op, "args": args,
            "point": list(point.values),
            "components": {c: v for c, v in zip(scen.space.coords, comps)},
            "frame_coefficients": coeffs,
        }, sort_keys=True, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kind", "name", "value"])
        for c, v in zip(scen.space.coords, comps):
            w.writerow(["component", c, repr(v)])
        for k, v in coeffs.items():
            w.writerow(["coefficient", k, repr(v)])
        return buf.getvalue()
    lines = [f"{op}({', '.join(args)}) at {point}"]
    lines.append("  components: "
                 + ", ".join(f"{c}={v:.10g}"
                             for c, v in zip(scen.space.coords, comps)))
    shown = {k: v for k, v in coeffs.items() if abs(v) > 1e-12}
    lines.append("  frame coefficients: "
                 + (", ".join(f"{k}={v:.10g}" for k, v in shown.items())
                    or "0"))
    return "\n".join(lines)


def cmd_verify(scenario: str, cfg: CheckConfig) -> Report:
    scen = _get_scenario(scenario, cfg)
    records = sc.run_scenario_checks(scen, cfg)
    config_echo = {
        "scenario": scenario, "seed": cfg.seed,
        "samples": cfg.samples, "tolerance": cfg.tolerance,
        "depth": cfg.depth,
    }
    return Report(config_echo, records)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehresmann",
        description="construct covariant derivatives from connection data "
                    "and verify them numerically")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.add_argument("--format", default="table",
                        choices=("table", "json", "csv"))

    p_desc = sub.add_parser("describe", help="describe one scenario")
    p_desc.add_argument("scenario")

    p_eval = sub.add_parser("eval", help="evaluate an operator at a point")
    p_eval.add_argument("scenario")
    p_eval.add_argument("op", choices=_EVAL_OPS)
    p_eval.add_argument("args", nargs="+",
                        help="field names (two for binary operators)")
    p_eval.add_argument("--at", required=True,
                        help="comma-separated coordinates")
    p_eval.add_argument("--format", default="table",
                        choices=("table", "json", "csv"))

    p_verify = sub.add_parser("verify",
                              help="run the verification suite")
    p_verify.add_argument("scenario",
                          help="built-in name or scenario file path")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--depth", type=int, default=3)
    p_verify.add_argument("--format", default="table",
                          choices=("table", "json", "csv"))
    return parser


def _joined_at(argv) -> list:
    """``--at X`` as ``--at=X``: argparse takes a value such as ``-1,0``,
    which starts with ``-`` and is not one number, for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--at":
            out[-1] = f"--at={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(_joined_at(sys.argv[1:] if argv is None
                                      else argv))
    try:
        if ns.command == "list":
            print(cmd_list(ns.format))
            return 0
        if ns.command == "describe":
            print(cmd_describe(ns.scenario, CheckConfig()))
            return 0
        if ns.command == "eval":
            expected_args = 1 if ns.op == "field" else 2
            if len(ns.args) != expected_args:
                print(f"op {ns.op!r} takes {expected_args} argument(s)",
                      file=sys.stderr)
                return 2
            at = [float(v) for v in ns.at.split(",")]
            print(cmd_eval(ns.scenario, ns.op, ns.args, at, ns.format))
            return 0
        if ns.command == "verify":
            cfg = CheckConfig(ns.seed, ns.samples, ns.tol, ns.depth)
            report = cmd_verify(ns.scenario, cfg)
            if ns.format == "json":
                print(report.to_json())
            elif ns.format == "csv":
                print(report.to_csv(), end="")
            else:
                print(report.to_table())
            return 0 if report.ok else 1
    except (KeyError, ValueError, OffManifoldError, GeometryError,
            ConnectionDataError, ScenarioFileError, ex.ParseError,
            ex.EvalError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
