"""Every public name of gibbsflow is reached from the command line.

Code that no caller needs is deleted, not maintained: a public function,
class, method or ``__all__`` entry that ``gibbsflow`` itself cannot reach is
either test-only code, which belongs in tests/, or dead.  The check parses
src/gibbsflow and walks the name graph from ``cli.main``.  Names are matched
as in test_options.py: a reached definition reaches every function, class,
method or module-level assignment whose name it mentions, as ``f`` or as
``obj.f``, unless it binds ``f`` itself as a local.  A reached class reaches
its bases, decorators, class-level statements, ``__init__`` and
``__call__``; its other methods, other dunders included, are reached by
name, so a ``__str__`` that only ``str()`` in a test calls is unreached.

A dataclass field is a result some caller reads: every field of a dataclass
in src/gibbsflow is read as ``obj.field`` somewhere in the program, that is
in src/, perfbench/ or tools/, as test_options.py counts it.  A field that
only tests read is test-only code.

An underscore name (not a dunder) is private to its module: no module of
src/gibbsflow imports one, or names ``obj._x`` when only other modules
define ``_x``.  A module defines its module-level defs and assignments, its
classes' methods, class-level names and dataclass fields, and the
``self._x`` attributes its methods set.
"""

import ast
from pathlib import Path

from conftest import dataclass_fields, parsed

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gibbsflow"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Names the program needs and does not reach yet, with the reason:
#   cancellation_check     a library entry point that no CLI experiment calls
#                          yet: the cancellation inequality |L^n_s v| <=
#                          L^n_sigma(chi u).  The open ROADMAP item that
#                          audits the whole Dolgopyat step makes
#                          ``cone_iteration`` call it at every step.
#   FlowSample.mean_roof   a field the sampler fills in and nothing reads
#                          yet: the sample mean of r under mu, which the
#                          ROADMAP item on the pressure function checks
#                          against -P'(sigma).
#   FlowSample.slab_mass, slab_expected, slab_se
#                          fields of the sampler's slab check, for the
#                          health block of the ROADMAP item on run
#                          telemetry.
#   load_config            reads a config file and checks it: the benchmark
#                          harness (perfbench/run.py) refuses every config
#                          with it before a timed run.  ``main`` does not
#                          call it, since ``run`` checks each config once.
# The fields detect faults, so they stay until a report shows them.
ALLOWED = {"cancellation_check", "mean_roof", "slab_mass", "slab_expected",
           "slab_se", "load_config"}

# the dunders a reached class brings along: calling the class or one of its
# instances runs them without naming them
IMPLICIT = ("__init__", "__call__")


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


def _definitions(package=PACKAGE):
    """(qualified name, simple name, public, mentions) of every function,
    class, method and module-level assignment in the package, and the
    ``__all__`` entries as (module, name)."""
    defs, exported = [], []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in parsed(path).body:
            if isinstance(node, FUNCTIONS):
                defs.append((f"{module}.{node.name}", node.name,
                             not node.name.startswith("_"), _mentions(node)))
            elif isinstance(node, ast.ClassDef):
                methods = [f for f in node.body if isinstance(f, FUNCTIONS)
                           and f.name not in IMPLICIT]
                for f in methods:
                    defs.append((f"{module}.{node.name}.{f.name}", f.name,
                                 _public(f.name), _mentions(f)))
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


def _public(name: str) -> bool:
    """Whether the walk checks the method ``name``: a public name or a
    dunder, which is reached by name too."""
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _reached(defs) -> set[str]:
    """Simple names reached from ``cli.main`` and the ALLOWED names."""
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


def _dataclass_fields(package=PACKAGE):
    """(class, field) of every field of every dataclass in the package."""
    return [(cls, field) for path in sorted(package.glob("*.py"))
            for cls, field, _, _ in dataclass_fields(parsed(path))]


def _attribute_reads(tops=(ROOT / "src", ROOT / "perfbench", ROOT / "tools")
                     ) -> set[str]:
    """Every attribute read as ``obj.name`` in the trees ``tops``."""
    return {node.attr for top in tops for path in sorted(top.rglob("*.py"))
            for node in ast.walk(parsed(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _unread(fields, reads) -> list[str]:
    return [f"{cls}.{field}" for cls, field in fields
            if field not in reads and field not in ALLOWED]


def test_walk_sees_the_package():
    defs, exported = _definitions()
    names = {q for q, *_ in defs}
    assert {"cli.main", "system.MarkovSystem.inverse_branch",
            "operator.GridFunction.eval"} <= names
    reached = _reached(defs)
    # the handlers are reached through the _EXPERIMENTS table
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


def test_every_dataclass_field_is_read():
    fields = _dataclass_fields()
    # the scan sees the package: fields with defaults and init=False state
    assert {("Pullback", "J"), ("EigenData", "memo"),
            ("_Param", "above_low"), ("Num", "value")} <= set(fields)
    unread = _unread(fields, _attribute_reads())
    assert not unread, ("dataclass fields the program never reads; delete "
                        "them or move them into tests/:\n" + "\n".join(unread))


def test_a_dunder_is_a_method_and_a_field_is_read(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def main():\n"
        "    r = Result(1, 2)\n"
        "    r.kept = r.stored\n"
        "    return Shown(), Printed(), r.used, len(r)\n"
        "class Shown:\n"
        "    def __init__(self):\n        pass\n"
        "    def __call__(self):\n        return helper()\n"
        "    def __len__(self):\n        return 0\n"
        "class Printed:\n"
        "    def __str__(self):\n        return ''\n"
        "def helper():\n    pass\n"
        "@dataclass\n"
        "class Result:\n"
        "    used: int\n"
        "    unused: int\n"
        "    kept: int = 0\n"
        "    stored: int = field(init=False, default=0)\n", encoding="utf-8")
    defs, _ = _definitions(tmp_path)
    reached = _reached(defs)
    # __call__ comes with its class, and reaches what it names; __len__ and
    # __str__ are methods that no reached code names
    assert {"Shown", "Printed", "helper"} <= reached
    assert {"cli.Shown.__len__", "cli.Printed.__str__"} <= {
        q for q, name, public, _ in defs if public and name not in reached}
    # a field that is only written, or never named, is unread
    assert _unread(_dataclass_fields(tmp_path),
                   _attribute_reads([tmp_path])) == ["Result.unused",
                                                     "Result.kept"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _own_names(tree: ast.Module) -> set[str]:
    """The underscore names the module ``tree`` defines."""
    tops = [node for body in [tree.body] + [
        cls.body for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
        for node in body]
    names = {node.name for node in tops
             if isinstance(node, (*FUNCTIONS, ast.ClassDef))}
    names |= {sub.id for node in tops
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for sub in ast.walk(node)
              if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) == "self"}
    return {name for name in names if _private(name)}


def _private_reaches(package=PACKAGE) -> list[str]:
    """'module.py:line name' of every underscore name a module of the
    package imports, or names as ``obj._x`` where only other modules
    define ``_x``."""
    trees = {path.name: parsed(path) for path in sorted(package.glob("*.py"))}
    own = {module: _own_names(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        others = set().union(*(names for m, names in own.items()
                               if m != module)) - own[module]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [(module, node.lineno, a.name) for a in node.names
                          if _private(a.name)]
            elif isinstance(node, ast.Attribute) and node.attr in others:
                found.append((module, node.lineno, node.attr))
    return [f"{module}:{line} {name}" for module, line, name in sorted(found)]


def test_no_module_reaches_another_modules_private_names():
    # the scan sees each kind of own name where it lives
    assert {"_BUDGET", "_Run", "_T", "_newton", "_inverse_starts", "_pchip",
            "_collocation"} <= _own_names(parsed(PACKAGE / "system.py")) \
        | _own_names(parsed(PACKAGE / "operator.py"))
    found = _private_reaches()
    assert not found, ("underscore names reached from another module; make "
                       "them public, or move the code that reaches them "
                       "beside them:\n" + "\n".join(found))


def test_the_privacy_rule_finds_each_form(tmp_path):
    for name, text in {
            "system.py": "_BUDGET = 1\nclass _Run:\n    pass\n"
                         "class MarkovSystem:\n    _r = None\n"
                         "    def _newton(self):\n"
                         "        self._inverse_starts = self._r, _BUDGET\n",
            "operator.py": "@dataclass\nclass EigenData:\n    _slot: tuple\n"
                           "    def eval(self):\n        self._pchip = 0\n",
            "uni.py": "from __future__ import annotations\n"
                      "from .system import _Run\neig._slot = eig._slot\n",
            "gibbs.py": "s._r[0]\n",
            "flow.py": "_newton = 0\n"
                       "s._inverse_starts, s._newton, s.__class__\n",
            "cli.py": "import gibbsflow.system as s\ns._Run\n",
            "dolgopyat.py": "v._pchip, v._unknown\n"}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    # a name the module defines too, a dunder and a name no module defines
    # are not reaches
    assert _private_reaches(tmp_path) == [
        "cli.py:2 _Run", "dolgopyat.py:1 _pchip", "flow.py:2 _inverse_starts",
        "gibbs.py:1 _r", "uni.py:2 _Run", "uni.py:3 _slot", "uni.py:3 _slot"]
