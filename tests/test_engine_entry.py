"""Only ``system`` runs the pullback engine depth by depth.

The engine has one entry per contract: ``system.pullback`` for one tree
at points every word reaches, and ``system.column_blocks`` for the
per-symbol layout (one run per last symbol on the points its image holds,
the runs zipped by depth, the normaliser of J_w) under one budget of
values a depth; the other modules reach the engine through those two
alone.  The check parses src/gibbsflow: no module but system.py
imports the engine ``_Run``, calls it as ``_Run(...)`` or
``obj._Run(...)``, or mentions it as an attribute, so a per-depth,
per-symbol engine loop cannot grow back in another module.
"""

import ast
from pathlib import Path

from conftest import parsed

ROOT = Path(__file__).resolve().parents[1]


def _uses(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that import, name or call ``_Run``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(a.name == "_Run" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "_Run" \
                or isinstance(node, ast.Attribute) and node.attr == "_Run":
            lines.append(node.lineno)
    return sorted(lines)


def test_only_system_runs_the_engine_by_depth():
    package = ROOT / "src" / "gibbsflow"
    # the scan sees the engine where it lives
    assert _uses(parsed(package / "system.py"))
    found = [f"{path.name}:{line}"
             for path in sorted(package.glob("*.py")) if path.name != "system.py"
             for line in _uses(parsed(path))]
    assert not found, ("_Run used outside system.py; go through "
                       "column_blocks or pullback:\n"
                       + "\n".join(found))


def test_the_scan_finds_each_form():
    src = ("from .system import _Run\n"
           "import gibbsflow.system as s\n"
           "s._Run(1)\n"
           "pullback(1)\n"
           "f = _Run\n")
    assert _uses(ast.parse(src)) == [1, 3, 5]
