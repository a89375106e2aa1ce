"""Only ``system`` reads the private names of ``MarkovSystem``.

How a branch, roof or potential is evaluated is decided in system.py: the
other modules read the public pieces (``T``, ``r``, ``phi``) and methods
(``log_weight``, ``inverse_branch``, ...).  The check parses src/gibbsflow:
no module but system.py names, as ``obj._name``, an attribute or method of
``MarkovSystem`` whose name starts with one underscore, so a reach-in such
as ``sys._r[e]`` cannot grow back in another module.
"""

import ast
from pathlib import Path

from conftest import parsed, system
from gibbsflow.system import MarkovSystem

ROOT = Path(__file__).resolve().parents[1]


def _private_names() -> set[str]:
    """The class's private names and those a built system sets."""
    names = set(vars(MarkovSystem)) | set(vars(system("SYS-C")))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _uses(tree: ast.AST, names: set[str]) -> list[int]:
    """Lines of ``tree`` that name one of ``names`` as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in names)


def test_only_system_reads_private_names():
    names = _private_names()
    assert {"_T", "_r", "_newton", "_inverse_starts"} <= names
    package = ROOT / "src" / "gibbsflow"
    # the scan sees them where they live
    assert _uses(parsed(package / "system.py"), names)
    found = [f"{path.name}:{line}"
             for path in sorted(package.glob("*.py")) if path.name != "system.py"
             for line in _uses(parsed(path), names)]
    assert not found, ("private names of MarkovSystem read outside "
                       "system.py; use its pieces and methods:\n"
                       + "\n".join(found))


def test_the_scan_finds_each_form():
    src = ("g = sys._r[e]\n"
           "t = sys._T[e](x=0.5)\n"
           "v = sys.r[e].value(x=0.5)\n"
           "w = self._pchip\n")
    assert _uses(ast.parse(src), _private_names()) == [1, 2]
