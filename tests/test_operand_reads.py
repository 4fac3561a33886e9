"""A rule reads no field itself: it receives its operands' values.

``_Field.at`` reads each operand of a field and hands the rule their
values, so a field's ``operands`` are its reads by construction.  This scan
pins it: every call of ``.at(``, ``.inverse(`` or ``._fn(`` in ``src/``
sits directly in ``_Field.at``, in ``FrameSolver.at`` or ``inverse`` (the
frame solve's reads, which a profiler wraps), or in one of the evaluation
entry points that start an evaluation from outside any rule.  A call
inside a closure or a lambda, even one defined in an allowed function, is
a rule reading a field and fails the scan.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

READS = {"at", "inverse", "_fn"}
ALLOWED = {
    ("geometry.py", "_Field.at"),
    ("geometry.py", "FrameSolver.at"),
    ("geometry.py", "FrameSolver.inverse"),
    # the evaluation entry points
    ("geometry.py", "_Field.rows"),
    ("geometry.py", "FrameSolver.coefficients"),
    ("geometry.py", "eval_vector_field"),
    ("scenarios.py", "Scenario.coefficients"),
}


def read_calls(source: str) -> list[tuple[int, str]]:
    """``(line, scope)`` for each call of ``.at``, ``.inverse`` or ``._fn``
    in ``source``; ``scope`` is the dotted chain of the classes, functions
    and lambdas (``<lambda>``) around the call, or ``<module>``."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Lambda):
            scope = scope + ("<lambda>",)
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.func.attr in READS:
            out.append((node.lineno, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(out)


def test_the_scan_names_the_scope_of_each_read():
    source = "\n".join([
        "class _Field:",
        "    def at(self, env):",
        "        return self._fn(env, *[f.at(env) for f in self.operands])",
        "def scale(X):",
        "    def fn(env):",
        "        return 2 * X.at(env)",
        "    return _Field(fn, lambda env: X.inverse(env))",
        "X.at(None)",
    ])
    assert read_calls(source) == [
        (3, "_Field.at"), (3, "_Field.at"), (6, "scale.fn"),
        (7, "scale.<lambda>"), (8, "<module>")]


def test_only_at_and_the_entry_points_read_a_field():
    stray = [f"{path.relative_to(ROOT)}:{line}: {scope}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, scope in read_calls(path.read_text("utf-8"))
             if (path.name, scope) not in ALLOWED]
    assert stray == []
