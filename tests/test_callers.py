"""Every public name of gibbsflow is reached from the command line.

Code that no caller needs is deleted, not maintained: a public function,
class, method or ``__all__`` entry that ``gibbsflow`` itself cannot reach is
either test-only code, which belongs in tests/, or dead.  The check parses
src/gibbsflow and walks the name graph from ``cli.main``.  Names are matched
as in test_options.py: a reached definition reaches every function, class,
method or module-level assignment whose name it mentions, as ``f`` or as
``obj.f``, unless it binds ``f`` itself as a local.  A reached class reaches its bases, decorators, class-level
statements and dunder methods; its other methods are reached by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Library entry points that no CLI experiment calls yet, with the reason:
# the cancellation inequality |L^n_s v| <= L^n_sigma(chi u).  The open
# ROADMAP item that audits the whole Dolgopyat step makes ``cone_iteration``
# call it at every step.
ALLOWED = {"cancellation_check"}


def _mentions(*nodes) -> set[str]:
    """Every name and attribute mentioned in ``nodes``, less the simple names
    each node binds: a function's arguments, and every assignment, loop,
    ``with`` or comprehension target.  A local ``total`` does not reach a
    function ``total``; ``obj.total`` still reaches a method."""
    out = set()
    for node in nodes:
        walk = list(ast.walk(node))
        bound = {sub.id for sub in walk if isinstance(sub, ast.Name)
                 and isinstance(sub.ctx, ast.Store)}
        bound |= {sub.arg for sub in walk if isinstance(sub, ast.arg)}
        out |= {sub.id for sub in walk if isinstance(sub, ast.Name)} - bound
        out |= {sub.attr for sub in walk if isinstance(sub, ast.Attribute)}
    return out


def _definitions(package=ROOT / "src" / "gibbsflow"):
    """(qualified name, simple name, public, mentions) of every function,
    class, method and module-level assignment in the package, and the
    ``__all__`` entries as (module, name)."""
    defs, exported = [], []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs.append((f"{module}.{node.name}", node.name,
                             not node.name.startswith("_"), _mentions(node)))
            elif isinstance(node, ast.ClassDef):
                methods = [f for f in node.body if isinstance(f, FUNCTIONS)
                           and not f.name.startswith("__")]
                for f in methods:
                    defs.append((f"{module}.{node.name}.{f.name}", f.name,
                                 not f.name.startswith("_"), _mentions(f)))
                rest = [item for item in node.body if item not in methods]
                defs.append((f"{module}.{node.name}", node.name,
                             not node.name.startswith("_"),
                             _mentions(*node.bases, *node.keywords,
                                       *node.decorator_list, *rest)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if not isinstance(t, ast.Name):
                        continue
                    if t.id == "__all__":
                        exported += [(module, e.value) for e in node.value.elts]
                        continue
                    defs.append((f"{module}.{t.id}", t.id, False,
                                 _mentions(node.value) if node.value else set()))
    return defs, exported


def _reached(defs) -> set[str]:
    """Simple names reached from ``cli.main`` and the allowed entry points."""
    by_name: dict[str, list[set[str]]] = {}
    for _, name, _, mentions in defs:
        by_name.setdefault(name, []).append(mentions)
    reached, todo = set(), ["main", *ALLOWED]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for mentions in by_name.get(name, []):
            todo += mentions - reached
    return reached


def test_walk_sees_the_package():
    defs, exported = _definitions()
    names = {q for q, *_ in defs}
    assert {"cli.main", "system.MarkovSystem.inverse_branch",
            "operator.GridFunction.eval"} <= names
    reached = _reached(defs)
    # the handlers are reached through the _HANDLERS table
    assert {"_run_correlate", "correlation", "evolve_many"} <= reached
    assert ("dolgopyat", "cancellation_check") in exported


def test_every_public_name_has_a_caller():
    defs, exported = _definitions()
    reached = _reached(defs)
    unreached = sorted({q for q, name, public, _ in defs
                        if public and name not in reached}
                       | {f"{module}.{name}" for module, name in exported
                          if name not in reached})
    assert not unreached, ("public names that cli.main does not reach; "
                           "delete them or move them into tests/:\n"
                           + "\n".join(unreached))


def test_a_local_of_the_same_spelling_reaches_nothing(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def main(scale):\n"
        "    total = 0\n"
        "    for step in range(3):\n"
        "        total += scale\n"
        "    return [size for size in (total,)], Table().width()\n"
        "class Table:\n"
        "    def width(self):\n"
        "        return 1\n"
        "def total():\n    pass\n"
        "def scale():\n    pass\n"
        "def step():\n    pass\n"
        "def size():\n    pass\n"
        "def width():\n    pass\n", encoding="utf-8")
    reached = _reached(_definitions(tmp_path)[0])
    assert {"main", "Table", "width"} <= reached
    assert not {"total", "scale", "step", "size"} & reached
