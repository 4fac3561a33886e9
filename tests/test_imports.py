"""No module of the package or of its tests imports a name it never reads,
and the package defines nothing that nothing reads.

The repository runs no lint tool, so this is the check pyflakes makes as
F401: every name an ``import`` binds must be read somewhere in its module.
An import statement that carries ``# noqa: F401`` on any of its lines is a
deliberate re-export (as in ``ehresmann/__init__.py``) and is skipped.
The dead-definition scan asks every function, class and method that
``src/`` defines to be read, by name or as an attribute, somewhere in
``src/``, ``tests/``, ``scripts/`` or ``perfbench/``; an import alone is no
read, and dunder methods, which the language calls, are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_scan_flags_unread_names_and_honours_noqa():
    source = "\n".join([
        "from __future__ import annotations",
        "import math, os.path",
        "from json import (  # noqa: F401",
        "    dumps, loads)",
        "from random import Random as R, choice",
        "print(math.pi, R)",
    ])
    assert unused_imports(source) == [(2, "os"), (5, "choice")]


def test_no_module_imports_a_name_it_never_reads():
    files = sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "tests").rglob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in files
              for line, name in unused_imports(path.read_text("utf-8"))]
    assert unused == []


def definitions(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each function, class and method ``source``
    defines, nested ones included, dunder methods excepted."""
    return sorted((n.lineno, n.name) for n in ast.walk(ast.parse(source))
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
                  and not (n.name.startswith("__")
                           and n.name.endswith("__")))


def reads(source: str) -> set[str]:
    """Every name ``source`` reads, as a name or as an attribute."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def test_the_scan_flags_definitions_nothing_reads():
    source = "\n".join([
        "from m import imported_only",
        "class Used:",
        "    def __init__(self): pass",
        "    def method(self): pass",
        "    def dead_method(self): pass",
        "def dead(): pass",
        "def outer():",
        "    def inner(): pass",
        "    return inner",
        "Used().method()",
        "outer()",
    ])
    assert [(line, name) for line, name in definitions(source)
            if name not in reads(source)] == [(5, "dead_method"), (6, "dead")]


def test_every_definition_of_the_package_is_read():
    trees = ("src", "tests", "scripts", "perfbench")
    read = set().union(*(reads(path.read_text("utf-8"))
                         for tree in trees
                         for path in sorted((ROOT / tree).rglob("*.py"))))
    dead = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for line, name in definitions(path.read_text("utf-8"))
            if name not in read]
    assert dead == []
