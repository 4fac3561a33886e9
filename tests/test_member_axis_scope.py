"""The member axis stays inside ``geometry``.

A :class:`ehresmann.geometry.FieldStack` keeps the cost group and member
index of each field (``_where``), one stacked field per cost group
(``groups``) and the count of its per-member runs (``fallbacks``).  Every
stacked check folds through ``FieldStack.track``, which is the one stacked
evaluation and the one member fallback, so no other module of the package
reads the first two or counts on the third.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READ = {"_where", "groups"}
COUNTED = {"fallbacks"}


def member_axis_uses(source: str) -> list[tuple[int, str]]:
    """``(line, attribute)`` for each read of ``_where`` or ``groups`` and
    each assignment to ``fallbacks``, augmented ones included."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in READ and isinstance(node.ctx, ast.Load) or \
                node.attr in COUNTED and isinstance(node.ctx, ast.Store):
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_the_scan_flags_reads_and_counts():
    source = "\n".join([
        "g, i = stack._where[Y]",
        "root = build(stack.groups[g])",
        "stack.fallbacks += 1",
        "stack.fallbacks = 0",
        "n = stack.fallbacks",
        "groups = {}",
        "stack.fields",
    ])
    assert member_axis_uses(source) == [
        (1, "_where"), (2, "groups"), (3, "fallbacks"), (4, "fallbacks")]


def test_only_geometry_reads_the_member_axis():
    files = sorted((ROOT / "src").rglob("*.py"))
    used = [f"{path.relative_to(ROOT)}:{line}: {attr}"
            for path in files if path.name != "geometry.py"
            for line, attr in member_axis_uses(path.read_text("utf-8"))]
    assert used == []
